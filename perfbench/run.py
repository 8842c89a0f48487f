#!/usr/bin/env python3
"""Benchmark of rbdcalc: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {replay,probe,stream,h1} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Every operation's output is checked for
meaning (exit codes, verdicts, counts), not compared as bytes; a sha256 of
each operation's stdout is kept for visibility. The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
Lines before it print every metric by name with its unit, plus run metadata.
Scratch files go to `.bench_work/<workload>/` in the checkout. See
perfbench/README.md for why each workload exists and what each metric shows.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import runpy
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostClock
from spans import SpanLog, SpanSummary

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE_SCRIPT = "scripts/probe_open_range.py"
SPANS_SCRIPT = str(Path(__file__).resolve().parent / "spans.py")

# the paper's nine bundled cases: (family, a)
FIXTURES = tuple((1, a) for a in range(3, 8)) + tuple((2, a) for a in range(3, 7))

# open-range probes run per pass, in the script's order: (kind, a, expected
# count). The script's defaults also hold 4-chain a=3 and a=4 (315488 and
# 19820 hits), which alone take about 27 of its 30 seconds: a pass that long
# gives one sample per run, too few to be steady on a shared host.
PROBE_EXPECTED = (
    ("3-chain", 8, 912),
    ("3-chain", 9, 314),
    ("3-chain", 10, 120),
    ("3-chain", 11, 20),
    ("4-chain", 5, 584),
    ("4-chain", 6, 56),
)
# the question template `stream` searches: (kind, a, n, p, expected hits).
# Its pass, about 0.6 s, is short enough for thirty or more passes a run.
STREAM_QUESTION = ("3-chain", 7, 23, 19, 3894)

# H1-nontrivial chains whose witness scan runs to exhaustion: (p, n)
H1_CHAINS = ((5, 6), (7, 6))

SETUP_IMPORTS = 21         # fresh interpreters timed for setup_s
REPLAY_WARMUP_PASSES = 5
RUN_LIMIT_S = 170.0        # a run must end within 180 s; children are killed at this
STARTED = time.perf_counter()


def fixture_path(family: int, a: int) -> str:
    return f"src/rbdcalc/fixtures/family{family}/a{a}.json"


def expected_type(a: int) -> str:
    return f"CP^2 # {12 - a} CPbar^2"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# -- outcomes ----------------------------------------------------------------


class Tally:
    """Attempted/failed operations and the stdout digest of each operation.

    The first digest seen for an operation is its reference; a later pass
    whose stdout differs (traced or not) counts as a failed operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []

    def record(self, op: str, ok: bool, digest: str | None, why: str = "") -> None:
        self.attempted += 1
        if ok and digest is not None:
            ref = self.digests.setdefault(op, digest)
            if ref != digest:
                ok, why = False, "stdout differs from the first pass"
                self.mismatched += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op}: {why}")


# -- in-process workloads (replay, h1, probe) ----------------------------------


class InProcess:
    """Operations run inside this process.

    Each operation is (name, call, check): `call()` returns (exit code,
    stdout text) and `check(code, parsed stdout)` returns "" or why it failed.
    """

    def __init__(self, work: Path, rng: random.Random):
        self.work = work
        self.rng = rng
        self.ops: list[tuple[str, object, object]] = []
        self.host: HostClock | None = None
        from rbdcalc import cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"rbdcalc imported from {cli.__file__}, not {SRC}")
        self.cli = cli

    def cli_op(self, name: str, argv: list[str], check) -> None:
        """Add `rbdcalc.cli.main(argv)` with its stdout captured."""

        def call():
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main(argv)
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code
            return code, out.getvalue()

        self.ops.append((name, call, check))

    def traced(self) -> None:
        """Called once tracing is installed in this process."""

    def warm_up(self) -> None:
        self.run_pass(Tally())

    def run_pass(self, tally: Tally, traced: bool = False) -> tuple[float, int]:
        """Run every operation once in seed order; (seconds, peak RSS in KiB).

        Tracing, when on, is installed in this process, so `traced` changes
        nothing here.
        """
        order = list(self.ops)
        self.rng.shuffle(order)
        total = 0.0
        for name, call, check in order:
            started = time.perf_counter()
            try:
                code, text = call()
            except Exception as exc:  # a crash is a failed operation, not a stop
                total += time.perf_counter() - started
                tally.record(name, False, None, f"raised {type(exc).__name__}: {exc}")
                continue
            total += time.perf_counter() - started
            if self.host is not None:
                self.host.sample_if_due()
            try:
                why = check(code, json.loads(text) if text else None)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                why = f"unreadable output: {type(exc).__name__}: {exc}"
            tally.record(name, not why, sha256(text.encode()), why)
        return total, maxrss_self_kib()


def maxrss_self_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def check_verify(p: int):
    def check(code, out):
        if code != 0 or out["ok"] is not True:
            return f"exit {code}, ok {out and out.get('ok')}"
        if out["cokernel_divisors"][-1] != p * p:
            return f"cokernel divisors {out['cokernel_divisors']}"
        return ""

    return check


def check_blowdown(a: int):
    def check(code, out):
        if code != 0 or out["homeo_type"] != expected_type(a):
            return f"exit {code}, type {out and out.get('homeo_type')!r}"
        if out["h1"]["verdict"] != "trivial":
            return f"h1 verdict {out['h1']['verdict']}"
        return ""

    return check


def check_sw(code, out):
    if code != 0 or out["value"] not in (1, -1) or out["d"] != 0:
        return f"exit {code}, value {out and out.get('value')}, d {out and out.get('d')}"
    return ""


def check_h1_nontrivial(code, out):
    if code != 1 or out["homeo_type"] is not None:
        return f"exit {code}, type {out and out.get('homeo_type')!r}"
    if out["h1"]["verdict"] == "trivial":
        return "h1 certified trivial on an H1-nontrivial chain"
    return ""


class Replay(InProcess):
    """The paper's nine fixtures through the one-shot commands."""

    def __init__(self, work, rng):
        super().__init__(work, rng)
        out_dir = work / "reports"
        rel_out = str(out_dir.relative_to(ROOT))

        def check_reproduce(code, out):
            if code != 0 or out["all_passed"] is not True:
                return f"exit {code}, all_passed {out and out.get('all_passed')}"
            if (out["passed"], out["selected"]) != (9, 9):
                return f"passed {out['passed']} of {out['selected']}"
            for case in out["cases"]:
                a = case["input"]["a"]
                got = case["stages"]["blowdown"]["report"]["homeo_type"]
                if got != expected_type(a):
                    return f"{case['case']}: type {got!r}"
            if not (out_dir / "summary.json").is_file():
                return "no summary.json written"
            return ""

        self.cli_op("reproduce-paper", ["reproduce-paper", "--out", rel_out], check_reproduce)
        for family, a in FIXTURES:
            path = fixture_path(family, a)
            data = json.loads((ROOT / path).read_text(encoding="utf-8"))
            n, p = data["n"], data["p"]
            delta = [0] * (n + 1)
            delta[12 - a], delta[13 - a] = 1, -1
            tag = f"family{family}/a{a}"
            self.cli_op(f"verify-config {tag}", ["verify-config", path], check_verify(p))
            self.cli_op(
                f"blowdown --delta {tag}",
                ["blowdown", path, "--delta", json.dumps(delta)],
                check_blowdown(a),
            )
            self.cli_op(
                f"sw {tag}",
                ["sw", "--config", path, "--K", json.dumps(data["K"]), "--H", json.dumps(data["H"])],
                check_sw,
            )

    def warm_up(self) -> None:
        for _ in range(REPLAY_WARMUP_PASSES):
            self.run_pass(Tally())


def standard_chain(p: int, n: int) -> list[list[int]]:
    """Body e_i - e_{i+1} (i < p-1) and long class e_1 + ... + e_{p-2} + 2 e_{p-1}."""
    rows = []
    for i in range(1, p - 1):
        row = [0] * (n + 1)
        row[i], row[i + 1] = 1, -1
        rows.append(row)
    tail = [0] * (n + 1)
    for j in range(1, p - 1):
        tail[j] = 1
    tail[p - 1] = 2
    rows.append(tail)
    return rows


def signed_permutation(rows: list[list[int]], rng: random.Random) -> list[list[int]]:
    """Apply a random signed permutation of e_1..e_n: an isometry fixing h."""
    n = len(rows[0]) - 1
    target = list(range(1, n + 1))
    rng.shuffle(target)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    out = []
    for row in rows:
        new = [row[0]] + [0] * n
        for i in range(1, n + 1):
            new[target[i - 1]] = signs[i - 1] * row[i]
        out.append(new)
    return out


class H1(InProcess):
    """`blowdown` without --delta: the bounded H1 witness scan."""

    def __init__(self, work, rng):
        super().__init__(work, rng)
        for family, a in FIXTURES:
            path = fixture_path(family, a)
            self.cli_op(f"blowdown family{family}/a{a}", ["blowdown", path], check_blowdown(a))
        for p, n in H1_CHAINS:
            path = work / f"chain_p{p}_n{n}.json"
            classes = signed_permutation(standard_chain(p, n), rng)
            path.write_text(json.dumps({"p": p, "n": n, "classes": classes}), encoding="utf-8")
            rel = str(path.relative_to(ROOT))
            self.cli_op(f"blowdown chain p={p} n={n}", ["blowdown", rel], check_h1_nontrivial)


class Probe(InProcess):
    """The open-range probe script's own `probe()` on six of its questions.

    The script is loaded as a module, so its `main` does not run; it is
    loaded again once tracing is installed, because its `from rbdcalc...`
    imports bind the functions it calls when it loads.
    """

    def __init__(self, work, rng):
        super().__init__(work, rng)
        self.load()
        for kind, a, count in PROBE_EXPECTED:
            self.ops.append((f"probe {kind} a={a}", self.probe_call(kind, a), check_probe(count)))

    def load(self) -> None:
        self.script = runpy.run_path(str(ROOT / PROBE_SCRIPT), run_name="probe_open_range")

    def traced(self) -> None:
        self.load()

    def probe_call(self, kind: str, a: int):
        def call():
            s = self.script
            row = s["probe"](a, kind, None, s["DEFAULT_CAP"], 1)
            row.pop("seconds", None)  # wall time: the one nondeterministic field
            return 0, json.dumps(row, sort_keys=True)

        return call


def check_probe(count: int):
    def check(code, row):
        if row["status"] != "ok" or row["count"] != count or len(row["tails"]) != count:
            return f"status {row['status']}, count {row.get('count')} != {count}"
        return ""

    return check


# -- subprocess workload (stream) --------------------------------------


def run_child(argv: list[str], out_path: Path, err_path: Path):
    """Run argv from the checkout root; (exit code, seconds, peak RSS KiB).

    The child is reaped with wait4 so its own peak RSS is read, not the
    maximum over all children.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
    deadline = STARTED + RUN_LIMIT_S
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = -9
                return None, time.perf_counter() - started, usage.ru_maxrss
            time.sleep(0.002)
        elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
    return proc.returncode, elapsed, usage.ru_maxrss


class Stream:
    """`rbdcalc search --template T` on the 3-chain a=7 question template.

    One child process per pass; traced passes run it under spans.py.
    """

    def __init__(self, work: Path, rng: random.Random):
        self.work = work
        self.span_files: list[Path] = []
        _kind, a, n, p, _count = STREAM_QUESTION
        template = {
            "n": n,
            "p": p,
            "tail_bounds": [a + 3, a - 1] + [2] * (n - 2) + [1],
            "body_shape": "consecutive-differences",
            "symmetry_reduction": True,
        }
        path = work / "template.json"
        path.write_text(json.dumps(template, sort_keys=True), encoding="utf-8")
        self.template = str(path.relative_to(ROOT))
        self.stream_bytes = 0

    def warm_up(self) -> None:
        self.run_pass(Tally())

    def run_pass(self, tally: Tally, traced: bool = False) -> tuple[float, int]:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        if traced:
            spans_file = self.work / f"spans-{len(self.span_files)}.bin"
            self.span_files.append(spans_file)
            argv = self.traced_command(spans_file)
        else:
            argv = self.command()
        code, seconds, rss = run_child(argv, out_path, err_path)
        self.check(code, out_path, err_path, tally)
        out_path.unlink()
        return seconds, rss

    def command(self):
        return [sys.executable, "-m", "rbdcalc.cli", "search", "--template", self.template]

    def traced_command(self, spans_file):
        return [sys.executable, SPANS_SCRIPT, str(spans_file), "--cli",
                "search", "--template", self.template]

    def check(self, code, out_path, err_path, tally):
        kind, a, n, p, count = STREAM_QUESTION
        digest, lines, size, first = hashlib.sha256(), 0, 0, b""
        with open(out_path, "rb") as fh:
            first = fh.readline()
            fh.seek(0)
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
                lines += chunk.count(b"\n")
                size += len(chunk)
        self.stream_bytes = size
        why = ""
        try:
            trailer = json.loads(err_path.read_bytes().splitlines()[-1])
            hit = json.loads(first)
            if code != 0:
                why = f"exit {code}"
            elif trailer["count"] != count or lines != count:
                why = f"count {trailer['count']}, {lines} lines, want {count}"
            elif (hit["p"], hit["n"]) != (p, n):
                why = f"first hit has p={hit['p']}, n={hit['n']}"
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            why = f"unreadable output (exit {code}): {type(exc).__name__}"
        tally.record(f"search {kind} a={a}", not why, digest.hexdigest(), why)


WORKLOADS = {"replay": Replay, "probe": Probe, "stream": Stream, "h1": H1}


# -- metrics -----------------------------------------------------------------


def setup_seconds() -> tuple[float, float]:
    """Seconds for a fresh interpreter to run `import rbdcalc.cli`.

    Returns the median over SETUP_IMPORTS imports at nominal host speed and
    as measured. One untimed import first compiles the bytecode cache, as
    any earlier run of the tool would have.
    """
    argv = [sys.executable, "-c", "import rbdcalc.cli"]
    subprocess.run(argv, cwd=ROOT, env=child_env(), check=True)
    host = HostClock()
    host.sample()
    times, nominal = [], []
    for _ in range(SETUP_IMPORTS):
        started = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True)
        times.append(time.perf_counter() - started)
        host.sample()
        nominal.append(host.at_nominal_speed(times[-1], len(host.refs) - 2))
    return statistics.median(nominal), statistics.median(times)


def tail_latency(samples: list[float]) -> str:
    """The highest percentile, up to p90, with at least ten samples above it.

    With fewer than eleven samples no percentile has ten above it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return f"n/a (fewer than eleven passes: {n})"
    k = min(math.ceil(0.9 * n) - 1, n - 11)
    return f"{xs[k]:.6g} s (p{100 * (k + 1) / n:.1f} of {n} passes)"


def per_layer(s: SpanSummary, passes: int, stream_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pass, from the spans of all traced passes.

    `stream_bytes` is the stdout size of one `stream` pass (0 elsewhere).
    """
    counts = s.log.counts
    box = counts.get("search.box_points", 0)
    hits = counts.get("search.hits", 0)
    h1_calls = s.calls.get("blowdown.h1_certificate", 0)
    decided = counts.get("blowdown.h1_decided", 0)
    total = {
        "cli.parse_s": (s.inclusive.get("cli.build_parser", 0.0), "s"),
        "cli.load_s": (s.covered({"cli._load_config", "cli._load_json_file"}), "s"),
        "cli.emit_s": (s.inclusive.get("cli._emit", 0.0), "s"),
        "cli.stream_s": (s.self_time.get("cli.cmd_search", 0.0), "s"),
        "search.enumerate_s": (s.inclusive.get("search._enumerate_placement", 0.0), "s"),
        "search.enumerate_calls": (s.calls.get("search._enumerate_placement", 0), "count"),
        "search.recheck_s": (s.inclusive.get("search._raw_gram_ok", 0.0), "s"),
        "search.recheck_calls": (s.calls.get("search._raw_gram_ok", 0), "count"),
        "search.package_s": (s.self_time.get("search.search", 0.0), "s"),
        "search.reverify_s": (
            s.under("chains.verify_cp_configuration", "search.search_family_questions"), "s"),
        "search.box_points": (box, "count"),
        "search.hits": (hits, "count"),
        "chains.verify_s": (s.inclusive.get("chains.verify_cp_configuration", 0.0), "s"),
        "chains.verify_calls": (s.calls.get("chains.verify_cp_configuration", 0), "count"),
        "chains.gram_s": (s.inclusive.get("chains.intersection_matrix", 0.0), "s"),
        "lattice.pairing_calls": (counts.get("lattice.pairing", 0), "count"),
        "lattice.complement_s": (s.inclusive.get("lattice.orthogonal_complement_basis", 0.0), "s"),
        "snf.snf_s": (s.covered({"snf.smith_normal_form"}), "s"),
        "snf.snf_calls": (s.calls.get("snf.smith_normal_form", 0), "count"),
        "snf.solve_rational_s": (s.inclusive.get("snf.solve_rational", 0.0), "s"),
        "snf.det_s": (s.inclusive.get("snf.det", 0.0), "s"),
        "blowdown.h1_s": (s.inclusive.get("blowdown.h1_certificate", 0.0), "s"),
        "blowdown.h1_calls": (h1_calls, "count"),
        "blowdown.parity_s": (s.inclusive.get("blowdown.parity_and_homeo_type", 0.0), "s"),
        "sw.sw_s": (s.inclusive.get("sw.sw_on_blowdown", 0.0), "s"),
        "sw.restriction_s": (s.inclusive.get("sw.restriction_conditions", 0.0), "s"),
    }
    out = {name: (value / passes, unit) for name, (value, unit) in total.items()}
    out["cli.stream_bytes"] = (stream_bytes, "bytes")
    out["search.hit_ratio"] = (hits / box if box else 0.0, "ratio")
    out["blowdown.h1_decided_ratio"] = (decided / h1_calls if h1_calls else 0.0, "ratio")
    return out


# spans each workload must show in a traced run (names as in spans.TARGETS)
EXPECTED_SPANS = {
    "replay": (
        "cli.build_parser", "cli._load_config", "cli._load_json_file", "cli._emit",
        "chains.verify_cp_configuration", "chains.intersection_matrix", "lattice.pairing",
        "snf.smith_normal_form", "snf.solve_rational", "snf.det",
        "blowdown.h1_certificate", "blowdown.parity_and_homeo_type",
        "sw.sw_on_blowdown", "sw.restriction_conditions",
    ),
    "probe": (
        "search.search_family_questions", "search.search", "search.estimate_search_space",
        "search._enumerate_placement", "search._raw_gram_ok", "chains._trusted_configuration",
        "chains.verify_cp_configuration", "lattice.pairing",
    ),
    "stream": (
        "cli.build_parser", "cli._load_json_file", "cli.cmd_search", "search.search",
        "search.estimate_search_space", "search._enumerate_placement", "search._raw_gram_ok",
        "chains._trusted_configuration",
    ),
    "h1": (
        "cli.build_parser", "cli._load_config", "cli._emit", "chains.verify_cp_configuration",
        "blowdown.h1_certificate", "blowdown.product", "blowdown.parity_and_homeo_type",
    ),
}


def span_check(workload: str, s: SpanSummary) -> list[str]:
    """State of each expected span: `ok`, `absent` (the name is gone from the
    program) or `missing` (the name exists but the workload never called it).
    """
    seen = s.seen()
    lines = []
    for name in EXPECTED_SPANS[workload]:
        if s.log.status.get(name) == "absent":
            state = "absent"
        else:
            state = "ok" if name in seen else "missing"
        lines.append(f"{name}: {state}")
    return lines


def run_metadata(seed: int) -> dict:
    head = None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            head = None
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted((SRC / "rbdcalc").rglob("*.py"))
    )
    return {
        "python": sys.version,
        "executable": sys.executable,
        "cpu_count": os.cpu_count(),
        "git_head": head,
        "seed": seed,
        "src_rbdcalc_lines": src_lines,
    }


def timed_passes(workload, tally: Tally, seconds: float, traced: bool = False):
    """Passes until `seconds` have elapsed (at least one).

    The host speed reference is timed before the first pass, after each
    one and, in process, between operations (see HostClock). Returns the
    seconds of each pass as measured and at nominal host speed, the
    reference timings and the peak RSS in KiB.
    """
    host = HostClock()
    workload.host = host
    host.sample()
    times, nominal, rss = [], [], 0
    started = time.perf_counter()
    while not times or time.perf_counter() - started < seconds:
        first_ref = len(host.refs) - 1
        t, r = workload.run_pass(tally, traced=traced)
        times.append(t)
        host.sample()
        nominal.append(host.at_nominal_speed(t, first_ref))
        rss = max(rss, r)
    workload.host = None
    return times, nominal, host.refs, rss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "rbdcalc" / "cli.py").is_file() or not (ROOT / PROBE_SCRIPT).is_file():
        print(f"run.py: {ROOT} is not an rbdcalc checkout (no src/rbdcalc or "
              f"{PROBE_SCRIPT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    meta = run_metadata(args.seed)
    print("meta " + json.dumps(meta, sort_keys=True))

    rng = random.Random(args.seed)
    workload = WORKLOADS[args.workload](work, rng)
    tally = Tally()
    name = args.workload
    lines = []
    report = {"meta": meta, "workload": name, "trace": args.trace}

    if not args.trace:
        setup, setup_measured = setup_seconds()
        workload.warm_up()
        times, nominal, refs, rss = timed_passes(workload, tally, args.seconds)
        wall = statistics.median(nominal)
        lines.append(f"{name} measured_wall_s {statistics.median(times):.6g} s "
                     f"(host at {statistics.median(times) / wall:.3g}x nominal time)")
        lines.append(f"{name} measured_setup_s {setup_measured:.6g} s")
        lines.append(f"{name} p90_s {tail_latency(nominal)}")
        metrics = {
            "wall_s": (wall, "s"),
            "peak_rss_mb": (rss / 1024, "MB"),
            "setup_s": (setup, "s"),
        }
        notes = {"wall_s": f"median of {len(times)} passes at nominal host speed",
                 "setup_s": f"median of {SETUP_IMPORTS} fresh imports at nominal host speed"}
        report["pass_seconds"] = times
        report["reference_seconds"] = refs
    else:
        workload.warm_up()
        half = args.seconds / 2
        plain = timed_passes(workload, tally, half)[1]
        if isinstance(workload, InProcess):
            log = SpanLog()
            log.install()
            workload.traced()
            traced = timed_passes(workload, tally, half)[1]
            log.dump(work / "spans.bin")
        else:
            traced = timed_passes(workload, tally, half, traced=True)[1]
            # a child killed at the run limit leaves no spans file
            log = SpanLog.merge([SpanLog.load(f) for f in workload.span_files if f.exists()])
        s = SpanSummary(log)
        metrics = per_layer(s, len(traced), getattr(workload, "stream_bytes", 0))
        notes = {}
        traced_s, plain_s = statistics.median(traced), statistics.median(plain)
        overhead = traced_s - plain_s
        lines.append(
            f"{name} trace_overhead_s {overhead:+.6f} s (traced wall_s {traced_s:.6f} "
            f"over {len(traced)} passes, untraced {plain_s:.6f} over {len(plain)} passes)"
        )
        same = "identical" if tally.mismatched == 0 else f"{tally.mismatched} mismatches"
        lines.append(f"{name} stdout digests of {len(tally.digests)} operations: "
                     f"traced and untraced {same}")
        checks = span_check(name, s)
        lines += [f"{name} span {line}" for line in checks]
        report["span_status"] = log.status
        report["span_check"] = checks
        report["trace_overhead_s"] = overhead

    for metric, (value, unit) in metrics.items():
        note = f" ({notes[metric]})" if metric in notes else ""
        lines.append(f"{name} {metric} {value:.6g} {unit}{note}")
    ratio = tally.failed / tally.attempted
    lines.append(f"{name} fail_ratio {ratio:.6g} ratio ({tally.failed}/{tally.attempted})")
    lines += [f"{name} FAILED {p}" for p in tally.problems]
    for line in lines:
        print(line)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report.update(result, digests=tally.digests, problems=tally.problems)
    (work / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

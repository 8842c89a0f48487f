"""Command line interface.

Subcommands: verify-config, blowdown, sw, search, reproduce-paper. Exit
codes: 0 success, 1 mathematical failure (verification fails, precondition
violated, cap exceeded, a blowdown whose type is not pinned down, a
reproduction case fails), 2 usage error (bad arguments; unreadable,
undecodable or malformed input files, templates and vectors; a
configuration whose p is below 2, whose class count is not p - 1 or
with a key other than p, n, classes and the fixture keys a, family, K, H
and handles; a template whose chain does not fit), 141
stdout closed by its reader before the output was all written (e.g. piped
into head), with no traceback.

Every report carries the tool name and version plus a full echo of its
inputs, so a report file alone is enough to re-run and re-check the claim.
All JSON emitted on stdout is deterministic: keys sorted, no timestamps.
A report's payload is its record fields under their own names, encoded
by rbdcalc.report, whose dumps writes every indented report.
The search trailer, which includes wall time, goes to stderr.

Each command imports the modules it runs when it runs: at load this module
imports only the standard library, rbdcalc.errors and rbdcalc.report, so a
cold `rbdcalc search` never compiles blowdown or sw; it adds only search,
chains and lattice. No fixture makes blowdown import snf.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from itertools import islice

from . import __version__
from .errors import DomainError, InputTypeError, RbdcalcError
from .report import dumps

USAGE_ERROR = 2
MATH_ERROR = 1
BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell shows for a writer whose reader left
STREAM_CHUNK = 64  # lines per search write, at most

# the abstract's exotic CP^2 # n CPbar^2, 5 <= n <= 9, as (family, a) with n = 12 - a
CASES = tuple((1, a) for a in range(3, 8)) + tuple((2, a) for a in range(3, 7))


class UsageError(Exception):
    """Bad input from the user: wrong schema, unreadable file, bad vector."""


def _emit(obj) -> None:
    print(dumps(obj))


def _certificate(input_echo: dict, payload: dict) -> dict:
    """Wrap a report so it is self-contained: tool stamp plus input echo."""
    return {
        "tool": {"name": "rbdcalc", "version": __version__},
        "input": input_echo,
        **payload,
    }


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON, not UTF-8 or an int past the digit limit; too deep
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _parse_config(path: str) -> tuple[dict, int, tuple[ClassVector, ...]]:
    """Read a configuration file into (raw payload, p, classes).

    Schema and type errors are usage errors. Nothing is verified yet, so a
    caller can report a failing Gram check instead of raising it.
    """
    from .chains import parse_configuration

    data = _load_json_file(path)
    try:
        return (data, *parse_configuration(data))
    except RbdcalcError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_config(path: str) -> tuple[dict, CpConfiguration]:
    """A verified configuration plus the raw payload, for echoing into reports.

    Gram failures are mathematical ones and bubble up as RbdcalcError.
    """
    from .chains import CpConfiguration

    data, p, classes = _parse_config(path)
    return data, CpConfiguration(p=p, classes=classes)


def _parse_vector(text: str, lattice: AmbientLattice, what: str):
    """A vector argument: inline JSON array, or @file containing one."""
    if text.startswith("@"):
        raw = _load_json_file(text[1:])
    else:
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise UsageError(f"{what}: not a JSON array: {exc}") from exc
    if not isinstance(raw, list):
        raise UsageError(f"{what}: expected a JSON array of integers")
    try:
        return lattice.vector(raw)
    except (InputTypeError, DomainError) as exc:
        raise UsageError(f"{what}: {exc}") from exc


# -- commands ---------------------------------------------------------------

def cmd_verify_config(args) -> int:
    from .chains import cp_det, cp_divisors, cp_gram, lens_space_cf, verify_cp_configuration

    data, p, classes = _parse_config(args.config)
    report = verify_cp_configuration(classes, p)
    out = report.to_json()
    if report.ok:
        # the verifier matched every entry, so the Gram matrix is the C_p one
        out["gram"] = [list(row) for row in cp_gram(p)]
        out["gram_det"] = cp_det(p)
        out["cokernel_divisors"] = list(cp_divisors(p))
        out["lens_space_weights"] = lens_space_cf(p)
        out["lens_space_weights_order"] = (
            "long class first; the reversal of the class order in this report"
        )
    echo = {"command": "verify-config", "config_path": args.config, "config": data}
    _emit(_certificate(echo, out))
    return 0 if report.ok else MATH_ERROR


def cmd_blowdown(args) -> int:
    from .blowdown import full_blowdown_report

    data, cfg = _load_config(args.config)
    delta = None
    if args.delta is not None:
        delta = _parse_vector(args.delta, cfg.lattice, "--delta")
    report = full_blowdown_report(cfg, delta=delta)
    echo = {
        "command": "blowdown",
        "config_path": args.config,
        "config": data,
        "delta": None if delta is None else delta.to_json(),
    }
    _emit(_certificate(echo, report.to_json()))
    return 0 if report.homeo_type is not None else MATH_ERROR


def cmd_sw(args) -> int:
    from .sw import CharacteristicData, PeriodPoint, sw_on_blowdown

    data, cfg = _load_config(args.config)
    k = CharacteristicData(_parse_vector(args.K, cfg.lattice, "--K"))
    h = PeriodPoint(_parse_vector(args.H, cfg.lattice, "--H"))
    outcome = sw_on_blowdown(cfg, k, h)
    echo = {
        "command": "sw",
        "config_path": args.config,
        "config": data,
        "K": k.k.to_json(),
        "H": h.vector.to_json(),
    }
    _emit(_certificate(echo, outcome.to_json()))
    return 0


def cmd_search(args) -> int:
    """One compact sorted-key JSON line per hit to stdout, then the trailer
    (count, and the seconds spent in search alone) to stderr.

    Hits come as Gram-checked sign orbits of rows that share one body
    (search_hits): the line around the long-class row is encoded once,
    from the body rows and n, SearchHits.rows formats each hit's row, and
    a write joins at most STREAM_CHUNK lines, which bounds the write count
    (whatever stdout's buffering) and the string held. The bytes equal
    json.dumps(cfg.to_json(), sort_keys=True, separators=(",", ":")).
    """
    from .search import DEFAULT_CAP, SearchTemplate, search_hits

    cap = DEFAULT_CAP if args.cap is None else args.cap
    data = _load_json_file(args.template)
    try:
        template = SearchTemplate.from_json(data)
    except RbdcalcError as exc:  # a chain that does not fit as well
        raise UsageError(f"{args.template}: malformed template: {exc}") from exc
    started = time.perf_counter()
    try:
        hits = search_hits(template, cap=cap)
    except DomainError as exc:  # --cap below 1; the template is checked
        raise UsageError(str(exc)) from exc
    elapsed = time.perf_counter() - started
    # the frame holds only integers and fixed keys, so a string marks the
    # long-class row unambiguously; these are cfg.to_json()'s keys
    classes = [list(u) for u in hits.body] + ["tail"]
    frame = {"p": hits.p, "n": hits.n, "classes": classes}
    line = json.dumps(frame, sort_keys=True, separators=(",", ":"))
    prefix, _, suffix = line.partition('"tail"')
    glue = suffix + "\n" + prefix
    rows = hits.rows()
    while chunk := list(islice(rows, STREAM_CHUNK)):
        chunk[0] = prefix + chunk[0]
        chunk[-1] += suffix + "\n"
        sys.stdout.write(glue.join(chunk))
    trailer = _certificate(
        {
            "command": "search",
            "template_path": args.template,
            "template": template.to_json(),
            "cap": cap,
        },
        {"count": hits.count, "seconds": round(elapsed, 3)},
    )
    print(json.dumps(trailer, sort_keys=True), file=sys.stderr)
    return 0


def _fixtures_root(override: str | None) -> Path:
    from pathlib import Path

    if override == "":  # Path("") is the working directory
        raise UsageError("--fixtures must name a directory, got ''")
    if override is not None:
        root = Path(override)
        if not root.is_dir():
            raise UsageError(f"fixtures directory {override} does not exist")
        return root
    return Path(__file__).parent / "fixtures"


def _parse_only(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"--only expects k=v pairs, got {part!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in ("a", "family"):
            raise UsageError(f"--only keys are a and family, got {key!r}")
        if key in out:
            raise UsageError(f"--only gives {key} more than once")
        val = val.strip()
        # int() would also take "0_3" and non-ASCII digits such as "٣"
        if not (val.isascii() and val.isdigit()):
            raise UsageError(f"--only {key} must be written in the digits 0-9, got {val!r}")
        out[key] = int(val)
    if not out:
        raise UsageError(f"--only expects k=v pairs, got {text!r}")
    return out


def _reproduce_case(case: tuple[int, int], fixtures_root: Path) -> dict:
    """Run the fixture of one (family, a) case through load, verify,
    blowdown, handles and sw.

    The stages run in order and record their outcomes; the first that fails
    or raises ends the case, and the case passes when its sw stage passes: a
    nonzero value at d = 0. The blowdown stage passes when the type is the
    claimed CP^2 # (12 - a) CPbar^2. A stage that raises is recorded as
    {"status": "fail", "error": "<Type>: <message>"}.
    """
    from .blowdown import full_blowdown_report, handle_counts, homeo_type
    from .chains import CpConfiguration
    from .lattice import field
    from .sw import CharacteristicData, PeriodPoint, sw_on_blowdown

    family, a = case
    name = f"family{family}/a{a}"
    stages: dict[str, dict] = {}
    # echoed relative to the fixtures root, so the bytes do not depend on
    # where the package or the fixtures live
    rel = name + ".json"
    path = fixtures_root / rel
    echo = {
        "command": "reproduce-paper",
        "case": name,
        "family": family,
        "a": a,
        "fixture_path": rel,
        "fixture": None,
    }
    result = _certificate(echo, {"case": name, "stages": stages, "pass": False})
    stage = "load"
    try:
        data, p, classes = _parse_config(str(path))
        echo["fixture"] = data
        stages["load"] = {"status": "pass", "file": rel}

        stage = "verify"
        cfg = CpConfiguration(p=p, classes=classes)
        stages["verify"] = {"status": "pass", "report": cfg.report().to_json()}

        stage = "blowdown"
        lat = cfg.lattice
        report = full_blowdown_report(cfg, delta=lat.e(12 - a) - lat.e(13 - a))
        expected = homeo_type(12 - a)
        stages["blowdown"] = {
            "status": "pass" if report.homeo_type == expected else "fail",
            "expected_type": expected,
            "report": report.to_json(),
        }
        if report.homeo_type != expected:
            return result

        stage = "handles"
        if data.get("handles") is None:
            stages["handles"] = {"status": "skipped", "reason": "no handle data recorded"}
        else:
            counts = handle_counts(field(data, "handles", dict))
            stages["handles"] = {"status": "pass", "counts": list(counts)}

        stage = "sw"
        k = CharacteristicData(cfg.lattice.vector(field(data, "K", list)))
        h = PeriodPoint(cfg.lattice.vector(field(data, "H", list)))
        outcome = sw_on_blowdown(cfg, k, h)
        result["pass"] = outcome.exotic_certificate
        stages["sw"] = {
            "status": "pass" if result["pass"] else "fail",
            "outcome": outcome.to_json(),
        }
    except (UsageError, RbdcalcError) as exc:
        # a load error names the fixture as the echo does, wherever the root lives
        error = f"{type(exc).__name__}: {exc}".replace(str(path), rel)
        stages[stage] = {"status": "fail", "error": error}
    return result


def _rewrite(path: Path, text: str) -> None:
    """Write text to path as UTF-8 in place: open without O_TRUNC, write,
    then cut the file at the end of the new bytes.

    Truncating a file that holds a report and writing it again costs far
    more at close than overwriting it (README, reproduce-paper). Neither
    way is atomic or fsynced. A write or cut that raises leaves the file
    empty, but a crash or a kill part-way leaves the new bytes over the
    old ones: a mix of both, not a prefix of the new text.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:  # a write may take only part of the bytes
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    except OSError:
        with contextlib.suppress(OSError):
            os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def cmd_reproduce_paper(args) -> int:
    """Run the selected cases; print the summary, and with --out write it
    and one file per case, and remove the case files of the other CASES.

    Each case is encoded once: its text goes to its own file and, indented
    to its nesting depth, into the summary, giving the bytes of one
    report.dumps of the whole summary.
    """
    from pathlib import Path

    filters = {} if args.only is None else _parse_only(args.only)
    cases = [
        (family, a)
        for family, a in CASES
        if filters.get("a", a) == a and filters.get("family", family) == family
    ]
    if not cases:
        raise UsageError(f"--only {args.only!r} selects no cases")
    root = _fixtures_root(args.fixtures)
    if args.out == "":  # Path("") is the working directory
        raise UsageError("--out must name a directory, got ''")
    results = [_reproduce_case(c, root) for c in cases]
    texts = [dumps(r) for r in results]
    summary = _certificate(
        {
            "command": "reproduce-paper",
            "only": args.only,
            "out": args.out,
            "fixtures": args.fixtures,
        },
        {
            "cases": None,
            "selected": len(results),
            "passed": sum(1 for r in results if r["pass"]),
            "all_passed": all(r["pass"] for r in results),
        },
    )
    # string values are encoded with their quotes escaped, so the key with
    # its null can only be the top-level placeholder; a case sits at depth
    # 2, four spaces in, and JSON text holds no raw newline
    head, _, rest = dumps(summary).partition('"cases": null')
    cases_text = ",\n".join("    " + t.replace("\n", "\n    ") for t in texts)
    text = head + '"cases": [\n' + cases_text + "\n  ]" + rest
    if args.out is not None:
        out_dir = Path(args.out)
        try:  # e.g. --out names a file, or a directory under one
            out_dir.mkdir(parents=True, exist_ok=True)
            for r, case_text in zip(results, texts):
                name = r["case"].replace("/", "_") + ".json"
                _rewrite(out_dir / name, case_text + "\n")
            for family, a in CASES:
                if (family, a) not in cases:  # an earlier run's report, if any
                    with contextlib.suppress(FileNotFoundError):
                        (out_dir / f"family{family}_a{a}.json").unlink()
            _rewrite(out_dir / "summary.json", text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write reports to {args.out}: {exc}") from exc
    print(text)
    return 0 if summary["all_passed"] else MATH_ERROR


# -- wiring -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbdcalc",
        description="Exact chain-configuration and blowdown-invariant calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify-config", help="check a configuration file")
    p_verify.add_argument("config", help="JSON file with p, n, classes")
    p_verify.set_defaults(func=cmd_verify_config)

    p_blow = sub.add_parser("blowdown", help="invariants and certificates of a blowdown")
    p_blow.add_argument("config", help="JSON file with p, n, classes")
    p_blow.add_argument("--delta", help="H1 witness: JSON integer array (h first) or @file")
    p_blow.set_defaults(func=cmd_blowdown)

    p_sw = sub.add_parser("sw", help="blowdown invariant via wall crossing")
    p_sw.add_argument("--config", required=True, help="JSON file with p, n, classes")
    p_sw.add_argument("--K", required=True, help="characteristic lift: JSON array or @file")
    p_sw.add_argument("--H", required=True, help="period point: JSON array or @file")
    p_sw.set_defaults(func=cmd_sw)

    p_search = sub.add_parser("search", help="enumerate configurations in a box")
    p_search.add_argument("--template", required=True, help="JSON template file")
    # None stands for search.DEFAULT_CAP, so the parser needs no search import
    p_search.add_argument("--cap", type=int, help="box cap")
    p_search.set_defaults(func=cmd_search)

    p_rep = sub.add_parser("reproduce-paper", help="run the bundled family cases")
    p_rep.add_argument("--only", help="filter, e.g. a=5,family=2")
    p_rep.add_argument("--out", help="directory for per-case JSON reports")
    p_rep.add_argument("--fixtures", help="override the bundled fixture directory")
    p_rep.set_defaults(func=cmd_reproduce_paper)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main(), not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the interpreter's
        # final flush of what is still buffered cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except UsageError as exc:
        print(f"rbdcalc: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RbdcalcError as exc:
        print(f"rbdcalc: {exc}", file=sys.stderr)
        return MATH_ERROR


if __name__ == "__main__":
    sys.exit(main())

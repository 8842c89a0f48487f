"""Span recorder for the traced runs of the rbdcalc benchmark.

Tracing is installed from outside the program: every module attribute in the
`rbdcalc` package that is bound to a traced function is rebound to one
wrapper, so calls through `from .lattice import pairing` style bindings are
seen as well as calls through the defining module. A traced name that no
longer exists is reported as `absent`, not treated as an error.

Spans are `(name, start, end, parent)` rows kept in memory in flat arrays and
written out once, at the end of the run. Functions called millions of times
(`pairing`) are counted, not spanned.

Run as a script, this file is the traced child of the `stream` workload:

    python3 perfbench/spans.py SPANS_FILE --cli SEARCH_ARGS...

It installs the wrappers, runs `rbdcalc.cli.main` exactly as the untraced
command would, and writes the spans to SPANS_FILE.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (module under rbdcalc, function name, "span" or "count")
TARGETS = (
    ("cli", "build_parser", "span"),
    ("cli", "_load_config", "span"),
    ("cli", "_load_json_file", "span"),
    ("cli", "_emit", "span"),
    ("cli", "cmd_search", "span"),
    ("search", "search_family_questions", "span"),
    ("search", "search", "span"),
    ("search", "estimate_search_space", "span"),
    ("search", "_enumerate_placement", "span"),
    ("search", "_raw_gram_ok", "span"),
    ("chains", "verify_cp_configuration", "span"),
    ("chains", "intersection_matrix", "span"),
    ("chains", "_trusted_configuration", "count"),
    ("lattice", "pairing", "count"),
    ("lattice", "orthogonal_complement_basis", "span"),
    ("snf", "smith_normal_form", "span"),
    ("snf", "solve_rational", "span"),
    ("snf", "det", "span"),
    ("snf", "kernel_basis", "span"),
    ("blowdown", "h1_certificate", "span"),
    ("blowdown", "parity_and_homeo_type", "span"),
    ("blowdown", "product", "count"),
    ("sw", "sw_on_blowdown", "span"),
    ("sw", "restriction_conditions", "span"),
)

# counters fed from return values: span name -> (counter name, value of result)
RESULT_COUNTERS = {
    "search.search": ("search.hits", len),
    "search.estimate_search_space": ("search.box_points", int),
    "blowdown.h1_certificate": (
        "blowdown.h1_decided",
        lambda cert: int(cert.verdict != "inconclusive"),
    ),
}


class SpanLog:
    """Spans and call counts of one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.status: dict[str, str] = {}
        self._stack: list[int] = []

    def _span_wrapper(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        counter = RESULT_COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                key, value = counter
                counts[key] = counts.get(key, 0) + value(result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every rbdcalc module binding of each target to its wrapper."""
        for module, _name, _kind in TARGETS:
            importlib.import_module(f"rbdcalc.{module}")
        package = [
            mod
            for key, mod in sys.modules.items()
            if mod is not None and (key == "rbdcalc" or key.startswith("rbdcalc."))
        ]
        for module, fname, kind in TARGETS:
            name = f"{module}.{fname}"
            original = getattr(sys.modules[f"rbdcalc.{module}"], fname, None)
            if original is None:
                self.status[name] = "absent"
                continue
            if kind == "span":
                wrapper = self._span_wrapper(name, original)
            else:
                wrapper = self._count_wrapper(name, original)
            bindings = 0
            for mod in package:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapper)
                    bindings += 1
            self.status[name] = f"wrapped ({bindings} bindings)"

    # -- persistence -------------------------------------------------------

    def dump(self, path) -> None:
        header = {
            "names": self.names,
            "spans": len(self.name_of),
            "counts": self.counts,
            "status": self.status,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(fh)

    @classmethod
    def load(cls, path) -> "SpanLog":
        log = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            log.names = header["names"]
            log.counts = header["counts"]
            log.status = header["status"]
            for column in (log.name_of, log.parent, log.start, log.end):
                column.fromfile(fh, header["spans"])
        return log

    @classmethod
    def merge(cls, logs: list["SpanLog"]) -> "SpanLog":
        """One log holding the spans and counts of several processes."""
        merged = cls()
        for log in logs:
            offset = len(merged.name_of)
            ids = []
            for name in log.names:
                if name not in merged.names:
                    merged.names.append(name)
                ids.append(merged.names.index(name))
            merged.name_of.extend(ids[i] for i in log.name_of)
            merged.parent.extend(p + offset if p >= 0 else -1 for p in log.parent)
            merged.start.extend(log.start)
            merged.end.extend(log.end)
            for key, value in log.counts.items():
                merged.counts[key] = merged.counts.get(key, 0) + value
            merged.status.update(log.status)
        return merged


class SpanSummary:
    """Per-name totals of a SpanLog: calls, inclusive time, self time.

    Self time is a span's duration minus the time its direct child spans
    cover; spans of one process nest, so that is the sum of their durations.
    """

    def __init__(self, log: SpanLog):
        n = len(log.name_of)
        names = log.names
        dur = [log.end[i] - log.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = log.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self.log = log
        self.dur = dur
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        for i in range(n):
            name = names[log.name_of[i]]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.inclusive[name] = self.inclusive.get(name, 0.0) + dur[i]
            self.self_time[name] = self.self_time.get(name, 0.0) + dur[i] - child[i]

    def covered(self, names: set[str]) -> float:
        """Time inside spans of `names`, counting nested ones once."""
        log = self.log
        ids = {i for i, name in enumerate(log.names) if name in names}
        total = 0.0
        for i in range(len(log.name_of)):
            if log.name_of[i] not in ids:
                continue
            p = log.parent[i]
            while p >= 0 and log.name_of[p] not in ids:
                p = log.parent[p]
            if p < 0:
                total += self.dur[i]
        return total

    def under(self, name: str, parent_name: str) -> float:
        """Inclusive time of `name` spans whose direct parent is `parent_name`."""
        log = self.log
        ids = {i for i, n in enumerate(log.names) if n == name}
        pids = {i for i, n in enumerate(log.names) if n == parent_name}
        return sum(
            self.dur[i]
            for i in range(len(log.name_of))
            if log.name_of[i] in ids
            and log.parent[i] >= 0
            and log.name_of[log.parent[i]] in pids
        )

    def seen(self) -> set[str]:
        return set(self.calls) | {k for k, v in self.log.counts.items() if v}


def main(argv: list[str]) -> int:
    out, mode, *rest = argv
    log = SpanLog()
    log.install()
    try:
        if mode == "--cli":
            from rbdcalc import cli

            code = cli.main(rest)
        else:
            raise SystemExit(f"spans.py: unknown mode {mode!r}")
    finally:
        sys.stdout.flush()
        log.dump(out)
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

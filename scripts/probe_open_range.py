#!/usr/bin/env python3
"""Run the open-range configuration probes and print one JSON line per probe.

Covers the 3-chain questions at a = 8..11 (the range where the published
construction stops but nothing rules a configuration out) and the 4-chain
questions at a = 3..6. Each line reports the parameters, the hit count, and
the tail coefficients of every configuration found; the label field records
that a hit is homological evidence only. The time each probe took goes to
stderr, one JSON line {"a", "kind", "seconds"} per probe, so stdout is
deterministic.

The default boxes are the documented shaped bounds; pass --uniform B to use
a uniform bound instead (slower, and at the top of the range possibly over
the cap).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rbdcalc.errors import SearchCapExceeded
from rbdcalc.search import (
    DEFAULT_CAP,
    FamilySearchReport,
    SearchTemplate,
    family_question_dimensions,
    search_family_questions,
    search_hits,
)

TAILS_CHUNK = 4096  # tails per write of a probe line


def probe(a: int, kind: str, uniform: int | None, cap: int, _unused=None) -> dict:
    # the fifth slot is unused; perfbench/run.py still calls probe(a, kind, None, cap, 1)
    try:
        if uniform is None:
            report = search_family_questions(a, kind, cap=cap)
        else:
            n, p = family_question_dimensions(a, kind)
            template = SearchTemplate.uniform(n, p, uniform)
            report = FamilySearchReport(kind, a, template, search_hits(template, cap=cap))
    except SearchCapExceeded as exc:
        return {
            "kind": kind,
            "a": a,
            "status": "cap-exceeded",
            "estimate": exc.estimate,
            "cap": exc.cap,
        }
    return {
        "kind": kind,
        "a": a,
        "status": "ok",
        "label": report.label,
        "n": report.template.n,
        "p": report.template.p,
        "count": report.count,
        "tails": report.hits.tails,
    }


def write_row(row: dict) -> None:
    """Write json.dumps(row, sort_keys=True) and a newline to stdout.

    "tails" sorts after every other key, so the rest of the row is written
    first and the tails follow in chunks: no string holds the whole line,
    which is about 16 MB for the 4-chain a=3 probe.
    """
    text = json.dumps({k: v for k, v in row.items() if k != "tails"}, sort_keys=True)
    if "tails" not in row:
        print(text)
        return
    tails = row["tails"]
    write = sys.stdout.write
    write(text[:-1] + ', "tails": [')
    for start in range(0, len(tails), TAILS_CHUNK):
        write((", " if start else "") + json.dumps(tails[start : start + TAILS_CHUNK])[1:-1])
    write("]}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--uniform", type=int, help="use a uniform bound instead of the shaped box")
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)
    args = parser.parse_args()

    questions = [("3-chain", a) for a in range(8, 12)] + [("4-chain", a) for a in range(3, 7)]
    for kind, a in questions:
        started = time.perf_counter()
        row = probe(a, kind, args.uniform, args.cap)
        timing = {"kind": kind, "a": a, "seconds": round(time.perf_counter() - started, 2)}
        write_row(row)
        print(json.dumps(timing, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

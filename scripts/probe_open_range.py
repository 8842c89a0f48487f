#!/usr/bin/env python3
"""Run the open-range configuration probes and print one JSON line per probe.

Covers the 3-chain questions at a = 8..11 (the range where the published
construction stops but nothing rules a configuration out) and the 4-chain
questions at a = 3..6. Each line reports the parameters, the hit count, and
the tail coefficients of every configuration found; the label field records
that a hit is homological evidence only.

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
    search,
    search_family_questions,
)


def probe(a: int, kind: str, uniform: int | None, cap: int, _unused=None) -> dict:
    # the fifth slot is unused; perfbench/run.py still calls probe(a, kind, None, cap, 1)
    started = time.perf_counter()
    try:
        if uniform is None:
            report = search_family_questions(a, kind, cap=cap)
        else:
            n, p = family_question_dimensions(a, kind)
            template = SearchTemplate.uniform(n, p, uniform)
            configs = tuple(search(template, cap=cap))
            report = FamilySearchReport(kind, a, template, configs)
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
        "tails": [c.classes[-1].coeffs for c in report.configurations],
        "seconds": round(time.perf_counter() - started, 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--uniform", type=int, help="use a uniform bound instead of the shaped box")
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)
    args = parser.parse_args()

    for a in range(8, 12):
        print(json.dumps(probe(a, "3-chain", args.uniform, args.cap), sort_keys=True))
    for a in range(3, 7):
        print(json.dumps(probe(a, "4-chain", args.uniform, args.cap), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

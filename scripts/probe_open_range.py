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

from rbdcalc.errors import DomainError, SearchCapExceeded
from rbdcalc.search import DEFAULT_CAP, SearchTemplate, search_hits

TAILS_CHUNK = 4096  # tails per write of a probe line

# documented probe ranges for the two question families
FAMILY_QUESTION_RANGE = {"3-chain": range(3, 12), "4-chain": range(3, 7)}


def family_question_dimensions(a: int, kind: str) -> tuple[int, int]:
    """(n, p) of the question template at parameter a."""
    if kind not in FAMILY_QUESTION_RANGE:
        raise DomainError(f"kind must be one of {tuple(FAMILY_QUESTION_RANGE)}, got {kind!r}")
    if kind == "3-chain":
        return 3 * a + 2, 4 * a - 9
    return 4 * a + 2, 6 * a - 11


def family_question_template(a: int, kind: str) -> SearchTemplate:
    """Default shaped box for the question at parameter a.

    Bounds follow the published tail shapes: h up to a + 3, the first
    exceptional coordinate up to a - 1, middle coordinates up to 2, the top
    coordinate up to 1. Raises TemplateError when the chain cannot fit the
    ambient rank at all (a >= 13 for the 3-chain).
    """
    if a < 3:
        raise DomainError(f"question templates need a >= 3, got a = {a}")
    n, p = family_question_dimensions(a, kind)
    bounds = [a + 3, a - 1] + [2] * (n - 2) + [1]
    return SearchTemplate(n=n, p=p, tail_bounds=tuple(bounds))


def probe(a: int, kind: str, uniform: int | None, cap: int, _unused=None) -> dict:
    """One open-range question's row: its hits in the shaped box, posed
    only for a in FAMILY_QUESTION_RANGE, or in a uniform box of bound
    `uniform` at any a. Each hit is a coefficient solution, labeled as
    homological evidence only."""
    # the fifth slot is unused; perfbench/run.py still calls probe(a, kind, None, cap, 1)
    n, p = family_question_dimensions(a, kind)
    if uniform is None:
        posed = FAMILY_QUESTION_RANGE[kind]
        if a not in posed:
            raise DomainError(
                f"{kind} questions are posed for a in {posed.start}..{posed.stop - 1}, got a = {a}"
            )
        template = family_question_template(a, kind)
    else:
        template = SearchTemplate.uniform(n, p, uniform)
    try:
        hits = search_hits(template, cap=cap)
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
        "label": "homological only, inside the searched box; "
        "existence of an embedded configuration is not certified",
        "n": n,
        "p": p,
        "count": hits.count,
        "tails": hits.expand(),
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

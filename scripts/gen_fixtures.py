#!/usr/bin/env python3
"""Regenerate the bundled fixture files from the family formulas in
families.py, one per case of rbdcalc.cli.CASES.

Writes src/rbdcalc/fixtures/family{1,2}/a{K}.json. Output is canonical
(sorted keys), so regeneration on an unchanged tree is byte-identical; run
with --check to verify that instead of writing.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from families import dump_fixture
from rbdcalc.cli import CASES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail if any existing fixture differs from the regenerated content",
    )
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent / "src" / "rbdcalc" / "fixtures"
    stale = []
    for family, a in CASES:
        path = root / f"family{family}" / f"a{a}.json"
        content = dump_fixture(a, family)
        if args.check:
            if not path.exists() or path.read_text(encoding="utf-8") != content:
                stale.append(path)
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
        print(f"wrote {path}")
    if args.check:
        if stale:
            for path in stale:
                print(f"stale: {path}")
            return 1
        print("fixtures are up to date")
    return 0


if __name__ == "__main__":
    sys.exit(main())

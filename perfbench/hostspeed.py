"""Host speed reference for the rbdcalc benchmark.

On a shared host, load from other tenants slows every core in phases that
last from seconds to many minutes, by up to a factor of two, and the slowdown
reaches CPU time as well as wall time. No statistic taken inside one run
removes a phase longer than the run. So a fixed pure-Python routine, doing
the kinds of work rbdcalc does (tuple sums over `itertools.product` as in
the H1 scan, `gcd`, `Fraction` arithmetic as in the exact solves, dict
building, sorting and JSON as in the CLI), is timed next to every timed
sample. It uses nothing from rbdcalc, so no change to the program moves it.

A sample taken between two reference timings is scaled by
REFERENCE_NOMINAL_S over their mean: the result is the sample's seconds at
the speed the host has when it is quiet.
"""
from __future__ import annotations

import gc
import json
import time
from fractions import Fraction
from itertools import product
from math import gcd

# seconds reference_work() takes on the reference machine (2-core Intel Xeon
# at 2.1 GHz under a hypervisor, CPython 3.11.7) with the host quiet
REFERENCE_NOMINAL_S = 0.017


def reference_work() -> tuple[int, Fraction, int]:
    rows = [tuple((i * j) % 5 - 2 for j in range(6)) for i in range(12)]
    hits = 0
    for coeffs in product(range(-2, 3), repeat=3):
        for a in range(len(rows) - 2):
            pair = tuple(
                sum(c * row[i] for c, row in zip(coeffs, rows[a : a + 3])) for i in range(5)
            )
            if pair[0] == 1 or gcd(pair[-1], 7) == 7:
                hits += 1
    values = {(i, i % 7): Fraction(i, 7 + i % 5) for i in range(2000)}
    total = sum(values.values())
    text = json.dumps(sorted(values.items(), key=lambda kv: kv[1])[:500], default=str)
    return hits, total, len(json.loads(text))


def reference_seconds() -> float:
    """Wall seconds of one reference_work(), with the garbage collector off.

    The collector is off so that a larger heap left by the program does not
    slow the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Reference timings spread over a run, and samples scaled by them.

    `sample()` times the reference now; `sample_if_due()` does so when
    INTERVAL_S have passed since the last one, so that a long pass is
    bracketed and cut by several reference timings.
    """

    INTERVAL_S = 0.2

    def __init__(self):
        self.refs: list[float] = []
        self._last = 0.0

    def sample(self) -> None:
        self.refs.append(reference_seconds())
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    def at_nominal_speed(self, seconds: float, first_ref: int) -> float:
        """Scale a sample to nominal speed by the reference timings from
        index `first_ref` (the last one before the sample) to the latest."""
        window = self.refs[first_ref:]
        return seconds * REFERENCE_NOMINAL_S * len(window) / sum(window)

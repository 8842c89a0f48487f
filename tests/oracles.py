"""Reference computations the tests check the package against.

Nothing in the package calls these; they restate a result by an
independent or deliberately slower route, so a test can compare the two.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, prod
from operator import add
from typing import Sequence

from rbdcalc.blowdown import H1Certificate, _basis_witness, _condition
from rbdcalc.errors import DomainError
from rbdcalc.lattice import dual_coefficients, pairing
from rbdcalc.search import _placement_geometry, _solution_table
from rbdcalc.snf import smith_normal_form


def matmul(a, b) -> list[list[int]]:
    """The integer matrix product a b."""
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


def evaluate_neg_cf(terms: Sequence[int]) -> Fraction:
    """Value of [a_1, a_2, ...] = a_1 - 1/(a_2 - 1/(...)). Inverse of lens_space_cf."""
    if not terms:
        raise DomainError("empty continued fraction")
    val = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        if val == 0:
            raise DomainError("continued fraction hits a zero tail")
        val = t - 1 / val
    return val


def intersection_matrix(classes) -> list[list[int]]:
    """Gram matrix of the given classes under the ambient pairing."""
    return [[pairing(x, y) for y in classes] for x in classes]


def signed_permutation(rows, target: Sequence[int], signs: Sequence[int]) -> list[list[int]]:
    """Rows with e_i sent to signs[i-1] e_{target[i-1]}: an isometry fixing h."""
    n = len(target)
    out = []
    for row in rows:
        new = [row[0]] + [0] * n
        for i in range(1, n + 1):
            new[target[i - 1]] = signs[i - 1] * row[i]
        out.append(new)
    return out


def h1_by_smith_normal_form(x, cfg) -> H1Certificate:
    """The H1 certificate without a delta, read off one Smith normal form of
    the restriction map for every body: the route the closed form replaces."""
    p = cfg.p
    restriction = [dual_coefficients(u) for u in cfg.classes]
    snf = smith_normal_form(restriction)
    divisors = snf.diagonal
    order = gcd(prod(divisors), p)
    if order > 1:
        return H1Certificate(
            verdict="nontrivial" if x.simply_connected else "inconclusive",
            condition=None,
            witness=None,
            pairings=None,
            order=order if x.simply_connected else None,
            restriction_divisors=divisors,
        )
    coeffs = _basis_witness(restriction, p) or snf.solve([0] * (p - 2) + [1])
    witness = x.lattice.vector(coeffs)
    pairings = cfg.pairings(witness)
    return H1Certificate(
        verdict="trivial",
        condition=_condition(pairings, p),
        witness=witness,
        pairings=pairings,
        order=order,
        restriction_divisors=divisors,
    )


def point_walk(template, placement) -> list[tuple[int, ...]]:
    """The tails of one placement, by visiting every signed point of the free
    box and looking its sum of squares up in the solution table: the walk
    search made before it walked magnitudes and expanded signs."""
    bounds = template.tail_bounds
    free, run, end, t_range = _placement_geometry(template, placement)
    table = _solution_table(template, free, run, end, t_range)
    if not table:
        return []
    s_max = max(table)
    out = []
    coeffs = [0] * (template.n + 1)

    def walk(idx: int, s: int) -> None:
        if s > s_max:
            return
        if idx == len(free):
            for row in table.get(s, ()):
                out.append(tuple(map(add, coeffs, row)))
            return
        coord = free[idx]
        b = bounds[coord]
        for c in range(-b, b + 1):
            coeffs[coord] = c
            walk(idx + 1, s + c * c)
        coeffs[coord] = 0

    walk(0, 0)
    return out


def theta_count(n: int, p: int, bounds: Sequence[int]) -> int:
    """Hits of a symmetry-reduced box (either body shape), counted without
    enumerating one: the one placement puts the body e_x - e_{x+1} on the
    top p - 1 indices, so a hit's long class is t on the run n-p+2..n-1, t + 1 at n,
    and c0 at h, with c0^2 - (free sum of squares) - (p - 2) t^2 - (t + 1)^2
    = -(p + 2). A per-coordinate DP over sums of squares counts the signed
    points of the free box at each sum (a truncated theta series), and the
    count is that number at the sum each (c0, t) needs, summed over them.
    """
    top = n if p == 2 else n - p + 1  # the free indices are 1..top
    free = [bounds[i] for i in range(1, top + 1) if bounds[i]]
    if p == 2:
        t_range = [None]
    else:
        run_cap = min(bounds[n - p + 2:n])
        t_range = range(max(-run_cap, -bounds[n] - 1), min(run_cap, bounds[n] - 1) + 1)
    sums = Counter({0: 1})
    for b in free:
        grown = Counter()
        for s, ways in sums.items():
            for c in range(-b, b + 1):
                grown[s + c * c] += ways
        sums = grown
    total = 0
    for t in t_range:
        need = (0 if t is None else (p - 2) * t * t + (t + 1) * (t + 1)) - (p + 2)
        # c0^2 = need + s for a sum s of the box, so |c0| <= isqrt(need + max(sums))
        c0_cap = min(bounds[0], isqrt(max(need + max(sums), 0)))
        total += sum(sums.get(c0 * c0 - need, 0) for c0 in range(-c0_cap, c0_cap + 1))
    return total

"""Reference computations the tests check the package against.

Nothing in the package calls these; they restate a result by an
independent or deliberately slower route, so a test can compare the two.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Sequence

from rbdcalc.blowdown import H1Certificate
from rbdcalc.chains import CpConfiguration
from rbdcalc.errors import ConsistencyError, DomainError
from rbdcalc.lattice import ClassVector, dual_coefficients, pairing
from rbdcalc.search import _placement_geometry
from rbdcalc.snf import smith_normal_form


def matmul(a, b) -> list[list[int]]:
    """The integer matrix product a b."""
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


def det(mat) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ConsistencyError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


def cremona(rows, i: int, j: int, k: int) -> list[list[int]]:
    """Rows reflected in c = h - e_i - e_j - e_k, of square -2: the isometry
    x -> x + (x.c) c, with x.c = x_0 + x_i + x_j + x_k."""
    out = []
    for row in rows:
        t = row[0] + row[i] + row[j] + row[k]
        new = list(row)
        new[0] += t
        for idx in (i, j, k):
            new[idx] -= t
        out.append(new)
    return out


def h1_condition(pairings, p) -> int | None:
    """The triviality condition (1 or 2) a witness's pairings meet, if any:
    1 is (1, 0, ..., 0), 2 is zero on the body and coprime to p on the
    long class."""
    if list(pairings) == [1] + [0] * (p - 2):
        return 1
    if all(v == 0 for v in pairings[: p - 2]) and gcd(pairings[p - 2], p) == 1:
        return 2
    return None


def dual_matrix_witness(restriction, p) -> list[int] | None:
    """The first +/-e_j (j ascending, -1 first) meeting a condition, read
    from the full dual restriction matrix: column j holds e_j's pairings
    with the classes."""
    rank = len(restriction[0])
    for j in range(rank):
        column = [row[j] for row in restriction]
        for sign in (-1, 1):
            if h1_condition([sign * v for v in column], p) is not None:
                return [sign if k == j else 0 for k in range(rank)]
    return None


def h1_by_smith_normal_form(cfg) -> H1Certificate:
    """The H1 certificate without a delta, read off one Smith normal form of
    the restriction map for every body, with its own witness scan and
    condition test: the route the closed form replaces."""
    p = cfg.p
    restriction = [dual_coefficients(u) for u in cfg.classes]
    snf = smith_normal_form(restriction)
    divisors = snf.diagonal
    order = gcd(prod(divisors), p)
    if order > 1:
        return H1Certificate(
            verdict="nontrivial",
            condition=None,
            witness=None,
            pairings=None,
            order=order,
            restriction_divisors=divisors,
        )
    coeffs = dual_matrix_witness(restriction, p) or snf.solve([0] * (p - 2) + [1])
    witness = cfg.lattice.vector(coeffs)
    pairings = cfg.pairings(witness)
    return H1Certificate(
        verdict="trivial",
        condition=h1_condition(pairings, p),
        witness=witness,
        pairings=pairings,
        order=order,
        restriction_divisors=divisors,
    )


def point_walk(template, placement) -> list[tuple[int, ...]]:
    """The tails of one placement, by visiting every signed point of the free
    box and every run value t, and solving c0 from the long class's square:
    c0^2 = (sum of the e coefficients squared) - (p + 2), taken by isqrt
    with both signs, within h's bound. It shares only the placement
    geometry with search: no solution table, no magnitudes, no orbits."""
    bounds, p = template.tail_bounds, template.p
    free, run, end, t_range = _placement_geometry(template, placement)
    out = []
    coeffs = [0] * (template.n + 1)

    def leaf() -> None:
        for t in t_range:
            row = coeffs[:]
            if t is not None:
                for i in run:
                    row[i] = t
                row[end] = t + 1
            square = sum(x * x for x in row[1:]) - (p + 2)
            if square < 0:
                continue
            c0 = isqrt(square)
            if c0 * c0 != square or c0 > bounds[0]:
                continue
            for sign in (c0, -c0) if c0 else (0,):
                row[0] = sign
                out.append(tuple(row))

    def walk(idx: int) -> None:
        if idx == len(free):
            leaf()
            return
        coord = free[idx]
        b = bounds[coord]
        for c in range(-b, b + 1):
            coeffs[coord] = c
            walk(idx + 1)
        coeffs[coord] = 0

    walk(0)
    return out


def configurations(hits) -> list[CpConfiguration]:
    """Every hit of a search_hits result built by the CpConfiguration
    constructor, in hit order. The constructor runs the Gram check on each
    hit, where search_hits checks one representative per sign orbit, so no
    orbit is taken on trust."""
    return [
        CpConfiguration(hits.p, hits.body + (ClassVector(hits.lattice, tail),))
        for tail in hits.tails
    ]


def theta_count(n: int, p: int, bounds: Sequence[int]) -> int:
    """Hits of a search box, counted without enumerating one: the anchored
    placement puts the body e_x - e_{x+1} on the top p - 1 indices, so a
    hit's long class is t on the run n-p+2..n-1, t + 1 at n,
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

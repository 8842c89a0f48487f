"""Reference computations the tests check the package against, and the
synthetic test bed they run on.

Nothing in the package calls these. Most restate a result by an
independent or deliberately slower route, so a test can compare the two;
standard_configuration builds the minimal C_p model at every p.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Sequence

from rbdcalc.blowdown import H1Certificate
from rbdcalc.chains import CpConfiguration
from rbdcalc.errors import ConsistencyError, DomainError
from rbdcalc.lattice import AmbientLattice, ClassVector, pairing, strict_int
from rbdcalc.report import Record


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


def point_walk(template) -> list[tuple[int, ...]]:
    """The tails of a search, by visiting every signed point of the free
    box and every run value t, and solving c0 from the long class's square:
    c0^2 = (sum of the e coefficients squared) - (p + 2), taken by isqrt
    with both signs, within h's bound. The anchored body e_x - e_{x+1}
    covers the top p - 1 indices, so a tail is t on n-p+2..n-1 and t + 1
    at n, with t bounded by those coordinates' bounds, and the free
    coordinates are the others; at p = 2 there is no body and no t. It
    shares nothing with search: no geometry, solution table, magnitudes
    or orbits."""
    n, p, bounds = template.n, template.p, template.tail_bounds
    body = range(n - p + 2, n + 1) if p > 2 else range(0)
    free = [i for i in range(1, n + 1) if i not in body]
    t_range = [None]
    if p > 2:
        ts = range(-bounds[n] - 1, bounds[n])  # |t + 1| <= bounds[n]
        t_range = [t for t in ts if all(abs(t) <= bounds[i] for i in body[:-1])]
    out = []
    coeffs = [0] * (n + 1)

    def leaf() -> None:
        for t in t_range:
            row = coeffs[:]
            if t is not None:
                row[n - p + 2 : n] = [t] * (p - 2)
                row[n] = t + 1
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
    constructor, in hit order (its expand). The constructor runs the Gram
    check on each hit, where search_hits checks one representative per
    sign orbit, so no orbit is taken on trust."""
    lat = AmbientLattice(hits.n)
    body = tuple(ClassVector(lat, row) for row in hits.body)
    return [CpConfiguration(hits.p, body + (ClassVector(lat, tail),)) for tail in hits.expand()]


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


def standard_configuration(p: int, n: int | None = None) -> CpConfiguration:
    """The minimal model C_p inside the diagonal lattice.

    Body u_i = e_i - e_{i+1} (i = 1..p-2) and long class
    e_1 + ... + e_{p-2} + 2 e_{p-1}, which fit in any ambient with n >= p-1.
    """
    if p < 2:
        raise DomainError(f"need p >= 2, got p = {p}")
    if n is None:
        n = p - 1
    if n < p - 1:
        raise DomainError(f"need n >= p-1 = {p - 1} to fit the chain, got n = {n}")
    lat = AmbientLattice(n)
    body = [lat.e(i) - lat.e(i + 1) for i in range(1, p - 1)]
    tail = lat.vector([0] + [1] * (p - 2) + [2] + [0] * (n - p + 1))
    return CpConfiguration(p=p, classes=(*body, tail))


# The general Smith normal form, kept as the oracle of the closed forms in
# rbdcalc.chains and rbdcalc.snf. It keeps both unimodular transforms and
# a fixed pivot rule, so every output is reproducible byte for byte:
#   * pivot = smallest nonzero |entry| in the working submatrix, ties
#     broken row-major (first by row, then by column);
#   * diagonal entries are normalized to be nonnegative;
#   * each diagonal entry divides the next.

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(m: Matrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: Matrix, i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m: Matrix, dst: int, src: int, k: int) -> None:
    m[dst] = [a + k * b for a, b in zip(m[dst], m[src])]


def _add_col(m: Matrix, dst: int, src: int, k: int) -> None:
    for row in m:
        row[dst] += k * row[src]


class SNFResult(Record):
    """D = U * M * V with U, V unimodular and D the invariant diagonal.

    `diagonal` lists min(rows, cols) entries (trailing zeros kept), each
    nonnegative and dividing the next nonzero entry.
    """

    diagonal: tuple[int, ...]
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    rows: int
    cols: int

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def solve(self, rhs) -> list[int] | None:
        """One integer solution x of M x = rhs, or None if none exists.

        Every entry of rhs must be an int, as every entry of M is."""
        rhs = [strict_int(b, "right-hand side entry") for b in rhs]
        if len(rhs) != self.rows:
            raise ConsistencyError("rhs length does not match row count")
        y = [sum(a * b for a, b in zip(row, rhs)) for row in self.u]
        x_prime = [0] * self.cols
        for i in range(self.rows):
            d = self.diagonal[i] if i < len(self.diagonal) else 0
            if (y[i] % d if d else y[i]) != 0:
                return None
            if d:
                x_prime[i] = y[i] // d
        return [sum(a * b for a, b in zip(row, x_prime)) for row in self.v]


def smith_normal_form(mat: list[list[int]] | tuple) -> SNFResult:
    """Smith normal form with transforms, deterministic under the fixed pivot rule.

    Every entry must be an int: a bool, float, str or anything else raises
    InputTypeError rather than being read through int()."""
    a = [[strict_int(x, "matrix entry") for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ConsistencyError("ragged matrix")
    u = _identity(rows)
    v = _identity(cols)

    t = 0
    while t < min(rows, cols):
        # locate pivot: smallest |entry| != 0, row-major tie break
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            _swap_rows(a, t, pi)
            _swap_rows(u, t, pi)
        if pj != t:
            _swap_cols(a, t, pj)
            _swap_cols(v, t, pj)

        while True:
            # shrink entries below and right of the pivot
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    _add_row(a, i, t, -q)
                    _add_row(u, i, t, -q)
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    _add_col(a, j, t, -q)
                    _add_col(v, j, t, -q)
            residue = None
            for i in range(t + 1, rows):
                if a[i][t]:
                    residue = ("row", i)
                    break
            if residue is None:
                for j in range(t + 1, cols):
                    if a[t][j]:
                        residue = ("col", j)
                        break
            if residue is not None:
                # leftover is smaller than the pivot; promote it and repeat
                kind, idx = residue
                if kind == "row":
                    _swap_rows(a, t, idx)
                    _swap_rows(u, t, idx)
                else:
                    _swap_cols(a, t, idx)
                    _swap_cols(v, t, idx)
                continue
            # row and column are clean; enforce divisibility on the rest
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        bad = (i, j)
                        break
                if bad:
                    break
            if bad is None:
                break
            _add_row(a, t, bad[0], 1)
            _add_row(u, t, bad[0], 1)

        if a[t][t] < 0:
            for j in range(cols):
                a[t][j] = -a[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]
        t += 1

    diag = tuple(a[i][i] for i in range(min(rows, cols)))
    return SNFResult(
        diagonal=diag,
        u=tuple(tuple(row) for row in u),
        v=tuple(tuple(row) for row in v),
        rows=rows,
        cols=cols,
    )


def kernel_basis(mat) -> list[list[int]]:
    """Basis of the integer kernel {x : M x = 0}, from the SNF column transform.

    The columns of V indexed past the rank span the kernel saturatedly, so the
    result is a genuine basis of the kernel as a direct summand.
    """
    s = smith_normal_form(mat)
    return [[s.v[i][j] for i in range(s.cols)] for j in range(s.rank, s.cols)]


def dual_coefficients(x: ClassVector) -> tuple[int, ...]:
    """Coefficients of the dual functional x.(-) in the dual basis.

    The lattice is unimodular and diagonal, so duality only flips the sign of
    the e-part; as a map on classes it is the identity (each basis vector is
    +/-1-dual to itself). Used when a functional, not a class, is needed.
    """
    return (x.coeffs[0], *(-c for c in x.coeffs[1:]))


def orthogonal_complement_basis(classes: Sequence[ClassVector]) -> list[ClassVector]:
    """Basis of the sublattice orthogonal to every given class.

    The complement is the integer kernel of the pairing-functional matrix, so
    the result is a basis of a direct summand of rank (n+1) - rank(span).
    Deterministic: inherits the fixed pivot rule of the normal form. The
    classes name the lattice, so an empty list raises DomainError.
    """
    if not classes:
        raise DomainError("need at least one class to take a complement in")
    lat = classes[0].lattice
    for c in classes[1:]:
        classes[0]._check(c)
    rows = [list(dual_coefficients(c)) for c in classes]
    return [lat.vector(col) for col in kernel_basis(rows)]


def same_lattice(generators, basis) -> bool:
    """Whether the classes `generators` span the lattice that the
    independent classes `basis` are a basis of: each generator is an
    integer combination of the basis, and the Smith diagonal of their
    coordinates is all ones."""
    solver = smith_normal_form([list(col) for col in zip(*(b.coeffs for b in basis))])
    coords = [solver.solve(list(g.coeffs)) for g in generators]
    if None in coords:
        return False
    return smith_normal_form(coords).diagonal == (1,) * len(basis)

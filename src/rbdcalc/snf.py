"""Exact integer matrix algebra.

Everything here is pure Python over int, so results are exact at any size.
The Smith normal form keeps both unimodular transforms and uses a fixed
pivot rule, which makes every output byte-for-byte reproducible:

  * pivot = smallest nonzero |entry| in the working submatrix, ties broken
    row-major (first by row, then by column);
  * diagonal entries are normalized to be nonnegative;
  * each diagonal entry divides the next.
"""
from __future__ import annotations

from .errors import ConsistencyError
from .lattice import strict_int
from .report import Record

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


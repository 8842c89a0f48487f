"""Linear chain configurations C_p and their verification.

A C_p configuration is an ordered tuple of p-1 classes u_1, ..., u_{p-1} whose
Gram matrix is the negative-definite tridiagonal

    diag(-2, ..., -2, -(p+2))  with +1 on the off-diagonals,

long class last. Its boundary is the lens space L(p^2, p-1), whose surgery
weights are the negative continued fraction of p^2/(p-1): [p+2, 2, ..., 2]
(p-2 twos). The weight list reads from the long class inward, i.e. it is the
reversal of the class order used here.

One Gram check on coefficient rows runs behind both the CpConfiguration
constructor and verify_cp_configuration. The body u_1, ..., u_{p-2} is
verified once per distinct body and reused through a last-body memo, so a
check pairs only the long class. Its body pairings depend only on its
values at the body's support (the columns where some body row is nonzero),
so each body keeps a bounded memo from those values to the pairings: a
check costs one gather and one lookup, the O(nnz) pairing loop runs once
per distinct support value (nnz nonzero body coefficients), and the long
class's square reads its whole row, O(n). A ChainReport, with its
first-violation scan, is built only when the check fails or when
verify_cp_configuration is called.
"""
from __future__ import annotations

import json
from collections.abc import Sequence
from functools import lru_cache
from itertools import repeat
from operator import attrgetter, itemgetter

from .errors import (
    ArityError,
    DomainError,
    InputTypeError,
    InvalidConfigurationError,
    LatticeMismatchError,
    RbdcalcError,
)
from .lattice import AmbientLattice, ClassVector, row_pairing, strict_int
from .report import Record, Report


class ChainViolation(Report):
    """First Gram defect found, indices 1-based in class order."""

    kind: str                 # "square" | "consecutive_pairing" | "distant_pairing"
    indices: tuple[int, ...]
    expected: int
    actual: int


class ChainReport(Report):
    """Outcome of verifying candidate classes against the C_p Gram matrix."""

    p: int
    ok: bool
    violation: ChainViolation | None
    squares: tuple[int, ...]


def expected_square(i: int, p: int) -> int:
    """Required self-intersection of u_i: -2 for the body, -(p+2) for the last."""
    return -(p + 2) if i == p - 1 else -2


# distinct support values one body's pairing memo holds; a search placement
# meets one per run value t
_PAIRINGS_CACHE_SIZE = 64


def _gather(support: tuple[int, ...]):
    """The row's values at the support, as a tuple even for 0 or 1 columns."""
    if len(support) > 1:
        return itemgetter(*support)
    return lambda row: tuple(row[k] for k in support)


@lru_cache(maxsize=32)
def _body_block(body: tuple[tuple[int, ...], ...]):
    """(Gram block, its diagonal, block ok, want, gather, pairings) of u_1..u_{p-2}.

    want is the tuple of body pairings a long class must have. gather reads
    a row's values at the body's support, the sorted columns where some body
    row is nonzero; pairings maps those values to the row's pairings with
    the body, from sparse functionals (row i, support position j, signed
    coefficient: the h column keeps its sign, the e columns flip it) at
    O(nnz) per distinct value, through a bounded memo. Rows of different
    lengths come from different lattices and raise LatticeMismatchError.
    """
    m = len(body)
    if len(set(map(len, body))) > 1:
        raise LatticeMismatchError("candidate classes live in different lattices")
    gram = tuple(tuple(row_pairing(x, y) for y in body) for x in body)
    chain = tuple(tuple(-2 if i == j else int(abs(i - j) == 1) for j in range(m)) for i in range(m))
    support = tuple(sorted({k for row in body for k, c in enumerate(row) if c}))
    position = {k: j for j, k in enumerate(support)}
    functionals = tuple(
        (i, position[k], c if k == 0 else -c)
        for i, row in enumerate(body) for k, c in enumerate(row) if c
    )

    @lru_cache(maxsize=_PAIRINGS_CACHE_SIZE)
    def pairings(values: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * m
        for i, j, c in functionals:
            out[i] += c * values[j]
        return tuple(out)

    # u_{p-2}.u_{p-1} = 1 and every other body pairing with the long class 0
    want = (0,) * (m - 1) + (1,) * (m > 0)
    squares = tuple(gram[i][i] for i in range(m))
    return gram, squares, gram == chain, want, _gather(support), pairings


_coeffs = attrgetter("coeffs")


class _LastBody:
    """The last body and its block: an exact-equality memo in front of _body_block.

    _check_rows keys it on the body's tuple of ClassVectors. Search hits of
    one placement share their body classes object for object, and tuple
    equality tries identity before value, so testing a hit against the last
    body costs p - 2 identity checks and builds no coefficient rows; an
    equal but distinct body still matches, by value. On a miss the block
    comes from the per-body cache, keyed on the coefficient rows. Every
    check stores the body it was given, so after an equal but distinct body
    the next hits sharing its objects match by identity again. `hits`
    counts the lookups the memo answered. The (body, block) pair is
    replaced as one tuple, so no reader pairs a body with another body's
    block.
    """

    def __init__(self):
        self.last = (None, None)
        self.hits = 0


_last_body = _LastBody()


def _first_violation(gram: Sequence[Sequence[int]], p: int) -> ChainViolation | None:
    """First entry of a full Gram matrix off the C_p pattern, in scan order."""
    for i in range(1, p):
        want, got = expected_square(i, p), gram[i - 1][i - 1]
        if got != want:
            return ChainViolation("square", (i,), want, got)
    for i in range(1, p - 1):
        got = gram[i - 1][i]
        if got != 1:
            return ChainViolation("consecutive_pairing", (i, i + 1), 1, got)
    for i in range(1, p):
        for j in range(i + 2, p):
            got = gram[i - 1][j - 1]
            if got != 0:
                return ChainViolation("distant_pairing", (i, j), 0, got)
    return None


def _check_rows(candidate: Sequence[ClassVector], p: int):
    """The one Gram check: (ok, body block, tail pairings, tail square).

    The body block comes from the last-body memo or the per-body cache, so
    a call pairs only the long class: one gather of its support values and
    one lookup in the body's pairing memo, plus its square over the whole
    row, and no report. The result holds all that _report needs, so no
    caller checks twice.
    """
    if p < 2:
        raise DomainError(f"need p >= 2, got p = {p}")
    if len(candidate) != p - 1:
        raise ArityError(f"C_{p} needs exactly {p - 1} classes, got {len(candidate)}")
    # the last-body memo, inline: one frame fewer per search hit
    memo, body = _last_body, tuple(candidate[:-1])
    last_body, block = memo.last
    if body == last_body:
        memo.hits += 1
    else:
        block = _body_block(tuple(map(_coeffs, body)))
    memo.last = (body, block)
    _gram, _squares, body_ok, want, gather, pairings = block
    tail = candidate[-1].coeffs
    # a lattice is fixed by n and every row has length n + 1; the block
    # checked the body rows against each other
    if p > 2 and len(tail) != len(candidate[0].coeffs):
        raise LatticeMismatchError("candidate classes live in different lattices")
    tail_pairings = pairings(gather(tail))
    tail_square = row_pairing(tail, tail)
    ok = body_ok and tail_square == -(p + 2) and tail_pairings == want
    return ok, block, tail_pairings, tail_square


def _report(p: int, check) -> ChainReport:
    """The ChainReport of one _check_rows result.

    If any entry is off, the full matrix is scanned in a fixed order so the
    reported violation is deterministic: squares in class order, then
    consecutive pairings, then distant pairs in lexicographic order. Only
    the first one is reported.
    """
    ok, (gram, body_squares, *_), tail_pairings, tail_square = check
    squares = body_squares + (tail_square,)
    if ok:
        return ChainReport(p=p, ok=True, violation=None, squares=squares)
    full = [list(row) + [b] for row, b in zip(gram, tail_pairings)]
    full.append([*tail_pairings, tail_square])
    violation = _first_violation(full, p)
    return ChainReport(p=p, ok=violation is None, violation=violation, squares=squares)


def verify_cp_configuration(candidate: Sequence[ClassVector], p: int) -> ChainReport:
    """Check candidate classes against the C_p Gram matrix, on coefficient rows.

    Runs the same row check as the CpConfiguration constructor and reports
    its result, with the first violation in scan order (see _report).
    """
    return _report(p, _check_rows(candidate, p))


def parse_configuration(data) -> tuple[int, tuple[ClassVector, ...]]:
    """The unverified (p, classes) of a {p, n, classes} payload.

    Schema and type errors raise InputTypeError, a p below 2 DomainError and
    a class count other than p - 1 ArityError. The Gram check is left to the
    caller, which may report a failing one instead of raising it.
    """
    if not isinstance(data, dict):
        raise InputTypeError("expected an object with p, n, classes")
    for key in ("p", "n", "classes"):
        if key not in data:
            raise InputTypeError(f"missing key {key!r}")
    lat = AmbientLattice(strict_int(data["n"], "n"))
    try:
        classes = tuple(lat.vector(row) for row in data["classes"])
    except TypeError as exc:
        if isinstance(exc, RbdcalcError):
            raise
        raise InputTypeError(f"malformed class data: {exc}") from exc
    p = strict_int(data["p"], "p")
    if p < 2:
        raise DomainError(f"need p >= 2, got p = {p}")
    if len(classes) != p - 1:
        raise ArityError(f"C_{p} needs exactly {p - 1} classes, got {len(classes)}")
    return p, classes


class CpConfiguration(Record):
    """A verified C_p configuration.

    Every construction runs the Gram check that verify_cp_configuration
    runs, and raises InvalidConfigurationError with the same report on
    failure; there is no other way to build one. A passing check builds
    no report. Hits of one search placement share their body, whose block
    the check verifies once and memoizes, and a run value's pairings with
    it, so a hit costs one gather and lookup and the O(n) square.
    """

    p: int
    classes: tuple[ClassVector, ...]

    def __post_init__(self):
        check = _check_rows(self.classes, self.p)
        if not check[0]:
            raise InvalidConfigurationError(_report(self.p, check))

    @property
    def lattice(self) -> AmbientLattice:
        return self.classes[0].lattice

    @property
    def rank(self) -> int:
        return self.p - 1

    def pairings(self, x: ClassVector) -> tuple[int, ...]:
        """The restriction map to the chain: r(x) = (x.u_1, ..., x.u_{p-1})."""
        if x.lattice != self.lattice:
            raise LatticeMismatchError(
                f"class lives in n = {x.lattice.n}, configuration in n = {self.lattice.n}"
            )
        return tuple(map(row_pairing, repeat(x.coeffs), map(_coeffs, self.classes)))

    def report(self) -> ChainReport:
        """The verifier's report on these classes: construction passed it, so
        it is ok and the squares are the expected ones."""
        squares = tuple(expected_square(i, self.p) for i in range(1, self.p))
        return ChainReport(p=self.p, ok=True, violation=None, squares=squares)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.lattice.n,
            "classes": [u.to_json() for u in self.classes],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CpConfiguration":
        p, classes = parse_configuration(data)
        return cls(p=p, classes=classes)

    @classmethod
    def load(cls, path) -> "CpConfiguration":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


@lru_cache(maxsize=32)
def cp_gram(p: int) -> tuple[tuple[int, ...], ...]:
    """The C_p Gram matrix: every verified configuration's Gram matrix, entry for entry."""
    return tuple(
        tuple(expected_square(i + 1, p) if i == j else int(abs(i - j) == 1) for j in range(p - 1))
        for i in range(p - 1)
    )


@lru_cache(maxsize=32)
def cp_smith(p: int) -> "SNFResult":
    """Smith normal form of cp_gram(p), with its transforms."""
    from .snf import smith_normal_form

    return smith_normal_form(cp_gram(p))


@lru_cache(maxsize=32)
def cp_det(p: int) -> int:
    """Determinant of cp_gram(p)."""
    from .snf import det

    return det(cp_gram(p))


def lens_space_cf(p: int) -> list[int]:
    """Negative continued fraction of p^2/(p-1): the surgery weights of the boundary.

    Computed by the standard recursion (x, y) -> (y, ceil(x/y)*y - x); for
    this family the result is [p+2, 2, ..., 2] with p-2 twos.
    """
    if p < 2:
        raise DomainError(f"need p >= 2, got p = {p}")
    num, den = p * p, p - 1
    out = []
    while den:
        q = -(-num // den)
        out.append(q)
        num, den = den, q * den - num
    return out


def standard_configuration(p: int, n: int | None = None) -> CpConfiguration:
    """The minimal model C_p inside the diagonal lattice.

    Body u_i = e_i - e_{i+1} (i = 1..p-2) and long class
    e_1 + ... + e_{p-2} + 2 e_{p-1}, which fit in any ambient with n >= p-1.
    Useful as a synthetic test bed at every p.
    """
    if p < 2:
        raise DomainError(f"need p >= 2, got p = {p}")
    if n is None:
        n = p - 1
    if n < p - 1:
        raise DomainError(f"need n >= p-1 = {p - 1} to fit the chain, got n = {n}")
    lat = AmbientLattice(n)
    classes = [lat.e(i) - lat.e(i + 1) for i in range(1, p - 1)]
    tail = lat.zero()
    for j in range(1, p - 1):
        tail = tail + lat.e(j)
    tail = tail + 2 * lat.e(p - 1)
    classes.append(tail)
    return CpConfiguration(p=p, classes=tuple(classes))

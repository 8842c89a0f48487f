"""Linear chain configurations C_p and their verification.

A C_p configuration is an ordered tuple of p-1 classes u_1, ..., u_{p-1} whose
Gram matrix is the negative-definite tridiagonal

    diag(-2, ..., -2, -(p+2))  with +1 on the off-diagonals,

long class last. Its boundary is the lens space L(p^2, p-1), whose surgery
weights are the negative continued fraction of p^2/(p-1): [p+2, 2, ..., 2]
(p-2 twos). The weight list reads from the long class inward, i.e. it is the
reversal of the class order used here.

One Gram check on coefficient rows, _check, runs behind the CpConfiguration
constructor and verify_cp_configuration, each with one long-class row, and
behind check_tails, the batch entry that search uses on its body rows and
the long-class rows of its sign-orbit representatives; _check_shape makes
the argument checks of both entries. The body u_1, ..., u_{p-2} is
verified once per distinct body, in a small per-process cache keyed on its
coefficient rows, so a check pairs only the long class. Its body pairings
depend only on its values at the body's support (the columns where some
body row is nonzero), so a batch gathers those values, pairs each distinct
one with the body at O(nnz) (nnz nonzero body coefficients), and reads each
row's square over its whole row, O(n), all in passes at C level. Only a
failing batch is scanned row by row, and a ChainReport, with its
first-violation scan, is built only for the first row that fails or when
verify_cp_configuration is called.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, repeat
from operator import attrgetter, itemgetter, mul

from .errors import (
    ArityError,
    DomainError,
    InputTypeError,
    InvalidConfigurationError,
    LatticeMismatchError,
)
from .lattice import AmbientLattice, ClassVector, row_pairing, strict_object
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


def _gather(support: tuple[int, ...]):
    """A tuple row's values at the sorted support, as a tuple: one slice when
    the support is contiguous (as every difference body's is, and an empty
    one), else one item per column."""
    lo = support[0] if support else 0
    if support == tuple(range(lo, lo + len(support))):
        return itemgetter(slice(lo, lo + len(support)))
    return itemgetter(*support)


# A block pairs every body row with every other through the sparse
# functionals, O(m (m + nnz)) after one O(m n) pass for the support: the six
# bodies of the probe script's 3-chain a=8..11 and 4-chain a=5, 6 questions
# take about 2.2 ms to build and 0.03 ms to look up, where a pass of those
# questions takes 3-5 ms once they are built (CPython 3.11, 2 cores). The
# cache hits only on bodies met before in one process: repeated probe
# passes, the fixtures of one replay, the tests.
@lru_cache(maxsize=32)
def _body_block(body: tuple[tuple[int, ...], ...]):
    """(Gram block, its diagonal, block ok, want, gather, pairings) of u_1..u_{p-2}.

    want is the tuple of body pairings a long class must have. gather reads
    a row's values at the body's support, the sorted columns where some body
    row is nonzero; pairings maps those values to the row's pairings with
    the body, from sparse functionals (row i, support position j, signed
    coefficient: the h column keeps its sign, the e columns flip it) at
    O(nnz). The rows have one length: _check_shape checked it.
    """
    m = len(body)
    chain = tuple(tuple(-2 if i == j else int(abs(i - j) == 1) for j in range(m)) for i in range(m))
    support = tuple(sorted({k for row in body for k, c in enumerate(row) if c}))
    position = {k: j for j, k in enumerate(support)}
    functionals = tuple(
        (i, position[k], c if k == 0 else -c)
        for i, row in enumerate(body) for k, c in enumerate(row) if c
    )

    def pairings(values: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * m
        for i, j, c in functionals:
            out[i] += c * values[j]
        return tuple(out)

    gather = _gather(support)
    gram = tuple(pairings(gather(x)) for x in body)
    # u_{p-2}.u_{p-1} = 1 and every other body pairing with the long class 0
    want = (0,) * (m - 1) + (1,) * (m > 0)
    squares = tuple(gram[i][i] for i in range(m))
    return gram, squares, gram == chain, want, gather, pairings


_coeffs = attrgetter("coeffs")


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


def _check(p: int, body: tuple[tuple[int, ...], ...], tails, rank: int) -> ChainReport | None:
    """The one Gram check: None when every tail row completes the body rows
    u_1..u_{p-2} to a C_p, else the report of the first row that fails.

    The rows are checked as one batch, in passes at C level over them:
    every row's length against the rank, then the body pairings once per
    distinct support value, then every row's square, sum x_i^2 ==
    2 x_0^2 + p + 2 over the whole row (that is, row_pairing(x, x) ==
    -(p + 2)), summed by lazy iterators. Tails given as a tuple of tuples
    are read in place; any other rows are copied into one first. Only a
    failing batch is scanned row by row: a row of the wrong length raises
    DomainError, as a ClassVector of it would, and the first row that
    fails gets its report. The report scans the full matrix in a fixed
    order, so its violation is deterministic: squares in class order, then
    consecutive pairings, then distant pairs in lexicographic order.
    """
    gram, body_squares, body_ok, want, gather, pairings = _body_block(body)
    if type(tails) is not tuple or not set(map(type, tails)) <= {tuple}:
        # the batch passes over the rows several times, and the support
        # gather slices, whose result is hashable only for a tuple row
        tails = tuple(map(tuple, tails))
    square = p + 2  # sum x_i^2 - 2 x_0^2 over a passing row
    if (
        body_ok
        and set(map(len, tails)) <= {rank}
        and all(pairings(values) == want for values in set(map(gather, tails)))
        and all(sum(map(mul, x, x)) == 2 * x[0] * x[0] + square for x in tails)
    ):
        return None
    for tail in tails:
        if len(tail) != rank:
            raise DomainError(f"coefficient count {len(tail)} != rank {rank}")
        tail_pairings = pairings(gather(tail))
        tail_square = row_pairing(tail, tail)
        if body_ok and tail_square == -square and tail_pairings == want:
            continue
        full = [list(row) + [b] for row, b in zip(gram, tail_pairings)]
        full.append([*tail_pairings, tail_square])
        violation = _first_violation(full, p)
        squares = body_squares + (tail_square,)
        return ChainReport(p=p, ok=violation is None, violation=violation, squares=squares)


def _check_shape(p: int, count: int, rows, rank: int) -> None:
    """The argument checks before a Gram check of count classes: p >= 2,
    count == p - 1, and every given row of length rank, one lattice's."""
    if p < 2:
        raise DomainError(f"need p >= 2, got p = {p}")
    if count != p - 1:
        raise ArityError(f"C_{p} needs exactly {p - 1} classes, got {count}")
    if any(len(row) != rank for row in rows):
        raise LatticeMismatchError("candidate classes live in different lattices")


def _check_classes(classes: Sequence[ClassVector], p: int) -> ChainReport | None:
    """_check on p - 1 classes, the last one the tail, in the last one's lattice."""
    rows = tuple(map(_coeffs, classes))
    rank = len(rows[-1]) if rows else 0
    _check_shape(p, len(rows), rows, rank)
    return _check(p, rows[:-1], rows[-1:], rank)


def _passing_report(p: int) -> ChainReport:
    """The report of classes that passed the check: ok, with the expected squares."""
    squares = tuple(expected_square(i, p) for i in range(1, p))
    return ChainReport(p=p, ok=True, violation=None, squares=squares)


def check_tails(p: int, rank: int, body: tuple[tuple[int, ...], ...], tails) -> None:
    """The Gram check of body rows u_1..u_{p-2} against a batch of tail
    rows, as search runs it.

    Passes when every tail completes the body to a C_p; otherwise the first
    tail that fails raises InvalidConfigurationError with the report the
    CpConfiguration constructor would raise on the classes of those rows
    in the lattice of the given rank, and a tail of the wrong length raises
    DomainError, as a ClassVector of it would. A body row of another
    length raises LatticeMismatchError.
    """
    _check_shape(p, len(body) + 1, body, rank)
    report = _check(p, body, tails, rank)
    if report is not None:
        raise InvalidConfigurationError(report)


def verify_cp_configuration(candidate: Sequence[ClassVector], p: int) -> ChainReport:
    """Check candidate classes against the C_p Gram matrix, on coefficient rows.

    Runs the check the CpConfiguration constructor runs and reports its
    result, with the first violation in scan order (see _check).
    """
    return _check_classes(candidate, p) or _passing_report(p)


# the keys a fixture records beside its configuration; each stage that reads
# one checks its kind, so a malformed K fails the stage computing with it
_FIXTURE_KEYS = dict.fromkeys(("a", "family", "K", "H", "handles"))


def parse_configuration(data) -> tuple[int, tuple[ClassVector, ...]]:
    """The unverified (p, classes) of a {p, n, classes} payload, which may
    also hold the fixture keys and nothing else.

    Schema and type errors raise InputTypeError, a p below 2 DomainError and
    a class count other than p - 1 ArityError. The Gram check is left to the
    caller, which may report a failing one instead of raising it.
    """
    strict_object(data, {"p": int, "n": int, "classes": list}, _FIXTURE_KEYS)
    lat = AmbientLattice(data["n"])
    for row in data["classes"]:
        if type(row) is not list:
            raise InputTypeError(f"classes entry must be an array, got {row!r}")
    classes = tuple(map(lat.vector, data["classes"]))
    p = data["p"]
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
    no report.
    """

    p: int
    classes: tuple[ClassVector, ...]

    def __post_init__(self):
        report = _check_classes(self.classes, self.p)
        if report is not None:
            raise InvalidConfigurationError(report)

    @property
    def lattice(self) -> AmbientLattice:
        return self.classes[0].lattice

    def pairings(self, x: ClassVector) -> tuple[int, ...]:
        """The restriction map to the chain: r(x) = (x.u_1, ..., x.u_{p-1})."""
        if x.lattice != self.lattice:
            raise LatticeMismatchError(
                f"class lives in n = {x.lattice.n}, configuration in n = {self.lattice.n}"
            )
        return tuple(map(row_pairing, repeat(x.coeffs), map(_coeffs, self.classes)))

    def report(self) -> ChainReport:
        """The verifier's report on these classes: construction passed it."""
        return _passing_report(self.p)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.lattice.n,
            "classes": [u.to_json() for u in self.classes],
        }


@lru_cache(maxsize=32)
def cp_gram(p: int) -> tuple[tuple[int, ...], ...]:
    """The C_p Gram matrix: every verified configuration's Gram matrix, entry for entry."""
    return tuple(
        tuple(expected_square(i + 1, p) if i == j else int(abs(i - j) == 1) for j in range(p - 1))
        for i in range(p - 1)
    )


def cp_det(p: int) -> int:
    """Determinant of cp_gram(p): (-1)^(p-1) p^2."""
    return (-1) ** (p - 1) * p * p


def cp_divisors(p: int) -> tuple[int, ...]:
    """Smith diagonal of cp_gram(p), (1, ..., 1, p^2): its cokernel is Z/p^2."""
    return (1,) * (p - 2) + (p * p,)


def cp_scaled_inverse(p: int, k: Sequence[int]) -> list[int]:
    """p^2 Q^{-1} k for Q = cp_gram(p): the integer x with Q x = p^2 k.

    With 1-based indices, (p^2 Q^{-1})_ij = -min(i, j) w(max(i, j)) where
    w(j) = 1 + (p + 1)(p - 1 - j), so
    x_i = -(w(i) sum_{j <= i} j k_j + i sum_{j > i} w(j) k_j):
    two running sums, O(p).
    """
    ws = range(1 + (p + 1) * (p - 2), 0, -(p + 1))  # w(1), ..., w(p - 1)
    head = accumulate(map(mul, range(1, p), k))  # sum_{j <= i} j k_j
    wk = list(accumulate(map(mul, ws, k)))  # sum_{j <= i} w(j) k_j
    return [-(w * a + i * (wk[-1] - b)) for i, w, a, b in zip(range(1, p), ws, head, wk)]


def lens_space_cf(p: int) -> list[int]:
    """Negative continued fraction of p^2/(p-1): the surgery weights of the boundary.

    p^2/(p-1) = (p+2) - (p-2)/(p-1), and [2, ..., 2] with k twos is
    (k+1)/k, so the weights are [p+2, 2, ..., 2] with p-2 twos.
    """
    if p < 2:
        raise DomainError(f"need p >= 2, got p = {p}")
    return [p + 2] + [2] * (p - 2)


"""The ambient lattice Z^{1,n} and its bilinear form.

Basis convention, used everywhere downstream: coordinate 0 is the hyperplane
class h with h.h = +1; coordinates 1..n are the exceptional classes e_i with
e_i.e_i = -1 and all basis classes mutually orthogonal. A vector is stored as
its integer coefficient tuple in this basis, h first.

Because the basis is orthonormal up to sign, Poincare duality is the identity
on coefficients and a class K is characteristic exactly when every coefficient
is odd: on basis vectors, K.v = +/- K_j and v.v = +/- 1 agree mod 2 iff K_j is
odd, and both sides of the defining congruence are additive in v mod 2.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import mul, neg

from .errors import DomainError, InputTypeError, LatticeMismatchError
from .report import Record


_INTS = {int}


def strict_int(value, what: str) -> int:
    """`value` if it is an int; a bool, float, str or anything else raises.
    Loaders use this, not int(), which would read 3.7 as 3 and true as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputTypeError(f"{what} must be an integer, got {value!r}")
    return value


class AmbientLattice(Record):
    """Z^{1,n}: intersection lattice of a rational surface with b2+ = 1."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"need n >= 0, got n = {self.n}")

    @property
    def rank(self) -> int:
        return self.n + 1

    def vector(self, coeffs: Iterable[int]) -> "ClassVector":
        c = tuple(coeffs)
        # one C-level type pass; the strict loop runs only to keep an int
        # subclass or to name the first value that is not an int
        if not set(map(type, c)) <= _INTS:
            c = tuple(strict_int(x, "coefficient") for x in c)
        if len(c) != self.rank:
            raise DomainError(
                f"expected {self.rank} coefficients (h first), got {len(c)}"
            )
        return ClassVector(self, c)

    def zero(self) -> "ClassVector":
        return ClassVector(self, (0,) * self.rank)

    def h(self) -> "ClassVector":
        return self.basis_vector(0)

    def e(self, i: int) -> "ClassVector":
        if not 1 <= i <= self.n:
            raise DomainError(f"e_{i} out of range 1..{self.n}")
        return self.basis_vector(i)

    def basis_vector(self, i: int) -> "ClassVector":
        if not 0 <= i <= self.n:
            raise DomainError(f"basis index {i} out of range 0..{self.n}")
        c = [0] * self.rank
        c[i] = 1
        return ClassVector(self, tuple(c))


class ClassVector(Record):
    """An integral class in the ambient lattice, coefficients h-first."""

    lattice: AmbientLattice
    coeffs: tuple[int, ...]

    def __post_init__(self):
        # n + 1 is the rank; read without the property's frame, once per hit
        if len(self.coeffs) != self.lattice.n + 1:
            raise DomainError(
                f"coefficient count {len(self.coeffs)} != rank {self.lattice.rank}"
            )

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "ClassVector") -> None:
        if self.lattice != other.lattice:
            raise LatticeMismatchError(
                f"vectors live in different lattices "
                f"(n = {self.lattice.n} vs n = {other.lattice.n})"
            )

    def __add__(self, other: "ClassVector") -> "ClassVector":
        self._check(other)
        return ClassVector(self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        self._check(other)
        return ClassVector(self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "ClassVector":
        return ClassVector(self.lattice, tuple(-a for a in self.coeffs))

    def __rmul__(self, k: int) -> "ClassVector":
        return ClassVector(self.lattice, tuple(k * a for a in self.coeffs))

    __mul__ = __rmul__

    # -- form ---------------------------------------------------------------

    def square(self) -> int:
        return pairing(self, self)

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    def __str__(self) -> str:
        return str(list(self.coeffs))


def row_pairing(x: Sequence[int], y: Sequence[int]) -> int:
    """The Lorentzian product on coefficient rows: x_h y_h - sum_i x_i y_i.
    Rows carry no lattice; callers check that both come from one. The sum
    runs over whole rows, h included, so no slice is copied."""
    return 2 * x[0] * y[0] - sum(map(mul, x, y))


def pairing(x: ClassVector, y: ClassVector) -> int:
    """The Lorentzian product of two classes of one lattice."""
    x._check(y)
    return row_pairing(x.coeffs, y.coeffs)


def square(x: ClassVector) -> int:
    return pairing(x, x)


def is_characteristic(k: ClassVector) -> bool:
    """True iff k.x = x.x (mod 2) for all x; here, iff every coefficient is odd."""
    return all(c % 2 != 0 for c in k.coeffs)


def dual_coefficients(x: ClassVector) -> tuple[int, ...]:
    """Coefficients of the dual functional x.(-) in the dual basis.

    The lattice is unimodular and diagonal, so duality only flips the sign of
    the e-part; as a map on classes it is the identity (each basis vector is
    +/-1-dual to itself). Used when a functional, not a class, is needed.
    """
    return (x.coeffs[0], *map(neg, x.coeffs[1:]))


def orthogonal_complement_basis(
    classes: Sequence[ClassVector], lattice: AmbientLattice | None = None
) -> list[ClassVector]:
    """Basis of the sublattice orthogonal to every given class.

    The complement is the integer kernel of the pairing-functional matrix, so
    the result is a basis of a direct summand of rank (n+1) - rank(span).
    Deterministic: inherits the fixed pivot rule of the normal form.

    With no classes the complement is everything and the full standard basis
    of `lattice` is returned; since an empty list names no ambient lattice,
    omitting `lattice` then is an error.
    """
    if not classes:
        if lattice is None:
            raise DomainError(
                "need a lattice (or at least one class) to take a complement in"
            )
        return [lattice.basis_vector(i) for i in range(lattice.rank)]
    lat = classes[0].lattice
    if lattice is not None and lattice != lat:
        raise LatticeMismatchError("classes do not live in the given lattice")
    for c in classes[1:]:
        classes[0]._check(c)
    from .snf import kernel_basis

    rows = [list(dual_coefficients(c)) for c in classes]
    return [lat.vector(col) for col in kernel_basis(rows)]

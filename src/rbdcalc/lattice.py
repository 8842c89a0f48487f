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
from operator import mul

from .errors import DomainError, InputTypeError, LatticeMismatchError
from .report import Record


_INTS = {int}


def strict_int(value, what: str) -> int:
    """`value` if it is an int; a bool, float, str or anything else raises.
    Loaders use this, not int(), which would read 3.7 as 3 and true as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputTypeError(f"{what} must be an integer, got {value!r}")
    return value


# what a JSON value of each kind is called in an error
_KIND_NAMES = {
    dict: "an object", list: "an array", int: "an integer", str: "a string", bool: "true or false"
}


def field(data: dict, key: str, kind):
    """The value of an object under key, of a JSON kind: a type, a tuple of
    types, or None for any value. The type must match exactly, so a bool is
    never an integer. A missing key or a value of another kind raises
    InputTypeError naming the key."""
    if key not in data:
        raise InputTypeError(f"missing key {key!r}")
    value = data[key]
    kinds = kind if type(kind) is tuple else (kind,)
    if kind is not None and type(value) not in kinds:
        names = " or ".join(map(_KIND_NAMES.get, kinds))
        raise InputTypeError(f"{key} must be {names}, got {value!r}")
    return value


def strict_object(value, required: dict, optional: dict = {}) -> dict:
    """`value` if it is an object whose keys are every key of `required` and
    some of `optional`, each holding its kind (see field). Checked in this
    order, the first fault raising InputTypeError: the root is an object,
    no required key is missing, no key is outside the two, each value has
    its kind, in schema order."""
    if not isinstance(value, dict):
        raise InputTypeError(f"expected an object with {', '.join(required)}")
    for key in required:
        if key not in value:
            raise InputTypeError(f"missing key {key!r}")
    for key in value:
        if key not in required and key not in optional:
            raise InputTypeError(f"unknown key {key!r}")
    for key, kind in (*required.items(), *optional.items()):
        if key in value:
            field(value, key, kind)
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
        # n + 1 is the rank, read without the property's frame
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


def is_characteristic(k: ClassVector) -> bool:
    """True iff k.x = x.x (mod 2) for all x; here, iff every coefficient is odd."""
    return all(c % 2 != 0 for c in k.coeffs)

"""The one JSON encoder of the report dataclasses.

A report's JSON is its dataclass fields under their own names. Values map
through `_encode`: None, ints, bools and strings pass through, a tuple
becomes a list, a Fraction becomes [numerator, denominator], and anything
else (a nested report, a ClassVector) encodes through its own to_json.
"""
from __future__ import annotations

from fractions import Fraction


_PLAIN = frozenset((type(None), int, bool, str))


def _encode(value):
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is tuple:
        return [_encode(v) for v in value]
    if kind is Fraction:
        return [value.numerator, value.denominator]
    return value.to_json()


class Report:
    """Base of the frozen report dataclasses. Their instance dict holds
    exactly their fields, so vars() reads them without dataclasses.fields."""

    def to_json(self) -> dict:
        return {name: _encode(value) for name, value in vars(self).items()}

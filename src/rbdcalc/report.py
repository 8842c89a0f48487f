"""The one JSON encoder of the report dataclasses, and the one writer of
indented reports.

A report's JSON is its dataclass fields under their own names. Values map
through `_encode`: None, ints, bools and strings pass through, a tuple
becomes a list, a Fraction becomes [numerator, denominator], and anything
else (a nested report, a ClassVector) encodes through its own to_json.

`dumps` writes the text of json.dumps(value, indent=2, sort_keys=True),
byte for byte, without the pure-Python encoder that json uses whenever an
indent is set.
"""
from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote


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


_STR_KEYS = {str}
_INTS = {int}


def dumps(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte.

    Plain containers and leaves are written here: a dict whose keys are all
    str, a list or tuple (one join when its elements are all exact ints),
    a str, int, bool or None. Anything else, such as a float, a subclass, a
    dict with other keys, an empty container or a value json rejects, is
    written, or raised on, by json itself and indented to its depth; that
    is exact because JSON text holds no raw newline. Nesting too deep to
    recurse (a circular value among them) is left whole to json, so it
    raises what json raises.
    """
    try:
        return _write(value, "\n")
    except RecursionError:
        return json.dumps(value, indent=2, sort_keys=True)


def _write(value, nl: str) -> str:
    """The text of value at the depth whose line break and indent is nl."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = nl + "  "
    if kind is dict and set(map(type, value)) == _STR_KEYS:
        items = [_quote(k) + ": " + _write(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if (kind is list or kind is tuple) and value:
        if set(map(type, value)) == _INTS:
            items = map(int.__repr__, value)
        else:
            items = [_write(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", nl)

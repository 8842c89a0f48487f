"""The frozen record base of the package's value classes, the one JSON
encoder of its reports, and the one writer of indented reports.

A Record's fields are its annotated names, in order; each instance stores
exactly them in its instance dict. A report's JSON is its fields under
their own names. Values map through `_encode`: None, ints, bools and
strings pass through, a tuple becomes a list, and anything else (a nested
report, a ClassVector) encodes through its own to_json.

`dumps` writes the text of json.dumps(value, indent=2, sort_keys=True),
byte for byte, without the pure-Python encoder that json uses whenever an
indent is set.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote


_PLAIN = frozenset((type(None), int, bool, str))


def _encode(value):
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is tuple:
        return [_encode(v) for v in value]
    return value.to_json()


class Record:
    """Base of the frozen value classes: fields from the annotations.

    A subclass's fields are the names it annotates, after those of a
    Record base. Each subclass gets a compiled __init__ taking every field,
    positionally or by keyword, storing them in that order and then calling
    __post_init__ when the class has one. Assignment and deletion raise
    AttributeError. Equality holds between instances of one exact class
    with equal fields; the hash is that of the tuple of field values, and
    the repr names the class and each field.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = list(cls._fields)
        names += [name for name in cls.__dict__.get("__annotations__", ()) if name not in names]
        # compiled per class, as dataclasses does: a generic __init__ would
        # bind every argument by name at run time, on every record built
        body = [f" _set(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "__post_init__"):
            body.append(" self.__post_init__()")
        namespace = {"_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(names)}):\n" + "\n".join(body or [" pass"]), namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls._fields = tuple(names)
        cls.__init__ = init

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class Report(Record):
    """Base of the report records. Their instance dict holds exactly their
    fields, so to_json reads them through vars()."""

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

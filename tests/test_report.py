"""The frozen record base, the report encoder (every field under its own
name), and the indented writer, byte for byte json.dumps(value, indent=2,
sort_keys=True)."""

import ast
import json
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbdcalc

from rbdcalc.blowdown import BlowdownInvariants, BlowdownReport, H1Certificate, ParityReport
from rbdcalc.chains import (
    ChainReport,
    ChainViolation,
    CpConfiguration,
    verify_cp_configuration,
)
from rbdcalc.errors import DomainError, InvalidConfigurationError, PreconditionError
from rbdcalc.report import Record, Report, dumps
from rbdcalc.search import SearchTemplate
from rbdcalc.sw import AdmissibilityReport, CharacteristicData, RestrictionReport, SwOutcome

from oracles import standard_configuration

REPORTS = (
    ChainViolation, ChainReport, BlowdownInvariants, H1Certificate, ParityReport,
    BlowdownReport, AdmissibilityReport, RestrictionReport, SwOutcome, SearchTemplate,
)


class Sample(Report):
    count: int
    flag: bool
    name: str
    missing: None
    values: tuple[int, ...]
    nested: tuple["Sample", ...]


def test_every_field_is_encoded_under_its_own_name():
    inner = Sample(1, False, "b", None, (), ())
    outer = Sample(7, True, "a", None, (1, -2), (inner,))
    assert outer.to_json() == {
        "count": 7,
        "flag": True,
        "name": "a",
        "missing": None,
        "values": [1, -2],
        "nested": [inner.to_json()],
    }
    cert = H1Certificate("trivial", 1, (0, 1, -1), (1, 0), 1, (1, 1))
    assert cert.to_json()["witness"] == [0, 1, -1]
    json.dumps(outer.to_json())


def library_reports():
    """One instance of each report class, built by the library."""
    from rbdcalc.blowdown import full_blowdown_report
    from rbdcalc.chains import verify_cp_configuration
    from families import family_configuration, family_lift, family_period_point
    from rbdcalc.sw import CharacteristicData, PeriodPoint, sw_on_blowdown

    cfg = family_configuration(3, 1)
    blowdown = full_blowdown_report(cfg)
    k, h = CharacteristicData(family_lift(3, 1)), PeriodPoint(family_period_point(3, 1))
    outcome = sw_on_blowdown(cfg, k, h)
    bad = verify_cp_configuration(cfg.classes[::-1], cfg.p)
    return (
        bad.violation, bad, blowdown.invariants, blowdown.h1, blowdown.parity, blowdown,
        outcome.admissibility, outcome.restriction, outcome, SearchTemplate.uniform(3, 2, 1),
    )


@pytest.mark.parametrize("report", library_reports(), ids=lambda r: type(r).__name__)
def test_reports_use_the_one_encoder(report):
    """Every field, and nothing else, is a key; only H1Certificate overrides
    to_json, to drop the keys of the --delta route."""
    cls = type(report)
    assert cls in REPORTS and isinstance(report, Report)
    assert ("to_json" in vars(cls)) == (cls is H1Certificate)
    assert sorted(report.to_json()) == sorted(report._fields)


def test_library_reports_cover_every_report_class():
    assert sorted(type(r).__name__ for r in library_reports()) == sorted(c.__name__ for c in REPORTS)


# -- the record base ---------------------------------------------------------


class Pair(Record):
    left: int
    right: tuple[int, ...]


class Twin(Record):
    left: int
    right: tuple[int, ...]


def test_record_fields_come_from_the_annotations_in_order():
    assert Pair._fields == ("left", "right")
    assert Sample._fields == ("count", "flag", "name", "missing", "values", "nested")
    assert Record._fields == Report._fields == ()
    assert list(vars(Pair(1, (2,)))) == ["left", "right"]


def test_record_takes_fields_by_keyword():
    assert vars(Pair(right=(3,), left=2)) == {"left": 2, "right": (3,)}
    assert Pair(right=(3,), left=2) == Pair(2, (3,))


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((1, (), 3), {}), ((1,), {"left": 1}), ((1,), {"other": 2})],
    ids=["missing", "extra", "twice", "unknown"],
)
def test_record_refuses_wrong_arguments(args, kwargs):
    with pytest.raises(TypeError, match=r"Pair\.__init__\(\)"):
        Pair(*args, **kwargs)


def test_record_refuses_an_omitted_field():
    """A class attribute of a field's name is no default: every field is
    passed, and an omitted one raises TypeError."""

    class Late(Record):
        early: int
        late: int = 0

    with pytest.raises(TypeError, match=r"Late\.__init__\(\) missing 1 required positional argument: 'late'"):
        Late(1)
    assert vars(Late(1, 2)) == {"early": 1, "late": 2}


def test_record_is_frozen():
    pair = Pair(1, (2,))
    for name in ("left", "other"):
        with pytest.raises(AttributeError):
            setattr(pair, name, 5)
        with pytest.raises(AttributeError):
            delattr(pair, name)
    assert vars(pair) == {"left": 1, "right": (2,)}


def test_record_equality_hash_and_repr():
    pair, same = Pair(1, (2,)), Pair(1, (2,))
    assert pair == same and hash(pair) == hash(same)
    assert hash(pair) == hash((1, (2,)))  # the hash of the field tuple
    assert pair != Pair(1, (3,)) and pair != Pair(2, (2,))
    assert pair != Twin(1, (2,)) and Twin(1, (2,)) != pair
    assert pair != (1, (2,))
    assert repr(pair) == "Pair(left=1, right=(2,))"
    assert repr(ChainViolation("square", (1,), -4, -1)) == (
        "ChainViolation(kind='square', indices=(1,), expected=-4, actual=-1)"
    )
    assert len({pair, same, Pair(1, (3,))}) == 2


def test_record_survives_pickling():
    cfg = standard_configuration(4, 5)
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg and copy is not cfg and vars(copy) == vars(cfg)


def test_post_init_still_validates():
    with pytest.raises(PreconditionError, match=r"coefficients at positions \[1\] are even"):
        CharacteristicData((1, 2, 1))
    with pytest.raises(DomainError, match="need n >= 1, got n = 0"):
        SearchTemplate(n=0, p=2, tail_bounds=(0,))
    classes = ((0, 1),)
    with pytest.raises(InvalidConfigurationError) as exc:
        CpConfiguration(p=2, classes=classes)
    assert exc.value.report == verify_cp_configuration(classes, 2)
    assert exc.value.report == ChainReport(
        p=2, ok=False, violation=ChainViolation("square", (1,), -4, -1), squares=(-1,)
    )


# -- the indented writer ----------------------------------------------------


class Int(int):
    def __repr__(self):
        return "Int()"


class Dict(dict):
    pass


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True)


def outcome(write, value):
    """The text written, or the type of the exception raised."""
    try:
        return write(value)
    except Exception as exc:  # the writer must raise what json raises
        return type(exc)


TEXT = st.text(st.sampled_from('az"\\[],:{}\n\t\u00e9\u2603\U0001f600 ') | st.characters(), max_size=6)
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats()  # nan and both infinities included
    | TEXT
    | st.builds(Int, st.integers(-5, 5))
    | st.builds(object)  # json rejects it
)
KEYS = st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.integers() | st.booleans(), max_size=5)  # bools among ints
    | st.dictionaries(TEXT, inner, max_size=4)
    | st.dictionaries(TEXT, inner, max_size=3).map(Dict)
    | st.dictionaries(KEYS, inner, max_size=3)  # keys json converts, or cannot sort
    | st.dictionaries(TEXT | KEYS, inner, max_size=3),
    max_leaves=16,
)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_writer_matches_json_dumps(value):
    assert outcome(dumps, value) == outcome(reference, value)


def circular_list():
    value = [1]
    value.append(value)
    return value


def circular_dict():
    value = {"a": [1, 2]}
    value["b"] = {"c": value}
    return value


def deep_list(depth):
    value = []
    for _ in range(depth):
        value = [value, 1]
    return value


EDGE_CASES = {
    "empty": [{}, [], (), ""],
    "leaves": [0, -0.0, True, None, math.nan, -math.inf, "\u00e9\n\"\\"],
    "bools among ints": [[True, 1, 2], [1, 2, False]],
    "int subclass": [1, Int(2)],
    "big ints": [10**300, -(10**300), list(range(1000))],
    "nesting": {"b": [], "a": {}, "c": [[1], [2, 3]], "d": ({"e": None},)},
    "escaped keys": {"\u00e9": 1, "e": 2, "\n": "\"\\", "[": ",", ":": "]"},
    "colliding keys": {1: "x", "1": "y"},
    "unsortable keys": {"a": 1, 2: "b"},
    "dict subclass": [Dict(a=1), {"a": Dict(b=[1, 2])}],
    "floats among ints": [1.5, 1, "1"],
    "unserialisable": {"x": {1.5, 2}},
    "int too long to print": [1, 10**5000],
    "circular list": circular_list(),
    "circular dict": circular_dict(),
    "too deep": deep_list(2000),
}


@pytest.mark.parametrize("value", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_writer_matches_json_dumps_on_edge_cases(value):
    assert outcome(dumps, value) == outcome(reference, value)


def test_indented_json_has_one_writer():
    """No json.dump(s) call with an indent outside rbdcalc.report."""
    src = Path(rbdcalc.__file__).parent
    calls = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "report.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and any(kw.arg == "indent" for kw in node.keywords):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []

"""The two parametrized families of chain configurations and their data."""

import json
from pathlib import Path

import pytest

import rbdcalc
from rbdcalc import cli
from rbdcalc.chains import ChainViolation, verify_cp_configuration
from rbdcalc.errors import DomainError, TemplateError
from rbdcalc.lattice import AmbientLattice, is_characteristic, pairing
from rbdcalc.sw import CharacteristicData, d_invariant, lift_admissible

from families import (
    chain_index,
    dump_fixture,
    exceptional_count,
    family_classes,
    family_configuration,
    family_h1_witness,
    family_handle_data,
    family_lift,
    family_period_point,
    fixture_payload,
)

NINE_CASES = [(a, 1) for a in range(3, 8)] + [(a, 2) for a in range(3, 7)]


def test_dimension_tables():
    assert [exceptional_count(a, 1) for a in range(3, 8)] == [11, 14, 17, 20, 23]
    assert [chain_index(a, 1) for a in range(3, 8)] == [3, 7, 11, 15, 19]
    assert [exceptional_count(a, 2) for a in range(3, 7)] == [13, 16, 19, 22]
    assert [chain_index(a, 2) for a in range(3, 7)] == [5, 9, 13, 17]


def test_first_family_smallest_case_classes():
    classes = family_classes(3, 1)
    lat = classes[0].lattice
    assert lat == AmbientLattice(11)
    assert classes[0] == lat.e(10) - lat.e(11)
    assert classes[1] == lat.vector([6] + [-2] * 10 + [-1])


def test_second_family_smallest_case_classes():
    classes = family_classes(3, 2)
    lat = classes[0].lattice
    assert lat == AmbientLattice(13)
    assert classes[0] == lat.e(10) - lat.e(11)
    assert classes[1] == lat.e(11) - lat.e(12)
    assert classes[2] == lat.e(12) - lat.e(13)
    assert classes[3] == lat.vector([6, 1, 1] + [-2] * 10 + [-1])


@pytest.mark.parametrize("a", range(3, 12))
def test_first_family_verifies_up_to_eleven(a):
    assert verify_cp_configuration(family_classes(a, 1), 4 * a - 9).ok


@pytest.mark.parametrize("a", range(3, 10))
def test_second_family_verifies_up_to_nine(a):
    assert verify_cp_configuration(family_classes(a, 2), 4 * a - 7).ok


def test_first_family_breaks_at_twelve():
    report = verify_cp_configuration(family_classes(12, 1), 39)
    assert not report.ok
    assert report.violation == ChainViolation("distant_pairing", (1, 38), 0, 9)


@pytest.mark.parametrize(
    "a, violation",
    [
        (10, ChainViolation("distant_pairing", (1, 32), 0, 7)),
        (11, ChainViolation("distant_pairing", (1, 36), 0, -11)),
        (12, ChainViolation("distant_pairing", (2, 40), 0, -12)),
    ],
)
def test_second_family_breaks_past_nine(a, violation):
    report = verify_cp_configuration(family_classes(a, 2), 4 * a - 7)
    assert not report.ok
    assert report.violation == violation


@pytest.mark.parametrize("a, family", [(13, 1), (14, 1), (13, 2)])
def test_template_exhausted_past_twelve(a, family):
    with pytest.raises(TemplateError):
        family_classes(a, family)


def test_parameter_validation():
    with pytest.raises(DomainError):
        family_classes(2, 1)
    with pytest.raises(DomainError):
        family_classes(5, 7)


@pytest.mark.parametrize("a, family", NINE_CASES)
def test_lift_is_characteristic_and_admissible(a, family):
    cfg = family_configuration(a, family)
    k = family_lift(a, family)
    assert is_characteristic(k)
    report = lift_admissible(CharacteristicData(k), cfg)
    assert report.ok
    assert report.pairings[:-1] == (0,) * (cfg.p - 2)
    assert report.pairings[-1] == -cfg.p


@pytest.mark.parametrize(
    "a, family, square",
    [
        (3, 1, 25),
        (4, 1, 128),
        (5, 1, 241),
        (6, 1, 346),
        (7, 1, 425),
        (3, 2, 49),
        (4, 2, 158),
        (5, 2, 273),
        (6, 2, 376),
    ],
)
def test_period_point_is_orthogonal_and_spacelike(a, family, square):
    cfg = family_configuration(a, family)
    h = family_period_point(a, family)
    assert h.square() == square
    assert h.coeffs[0] > 0
    for u in cfg.classes:
        assert pairing(h, u) == 0


@pytest.mark.parametrize(
    "a, family, product",
    [
        (3, 1, -3),
        (4, 1, -12),
        (5, 1, -27),
        (6, 1, -48),
        (7, 1, -75),
        (3, 2, -9),
        (4, 2, -20),
        (5, 2, -37),
        (6, 2, -60),
    ],
)
def test_lift_pairs_with_period_point(a, family, product):
    assert pairing(family_lift(a, family), family_period_point(a, family)) == product


@pytest.mark.parametrize("a, family", NINE_CASES)
def test_lift_has_zero_expected_dimension(a, family):
    assert d_invariant(CharacteristicData(family_lift(a, family))) == 0


def test_handle_data_table():
    assert family_handle_data(3, 1) == {"h2": 10, "h3": 2}
    assert family_handle_data(6, 1) == {"h2": 7, "h3": 2}
    assert family_handle_data(7, 1) is None
    assert family_handle_data(3, 2) == {"h2": 8, "h3": 0}
    assert family_handle_data(5, 2) == {"h2": 6, "h3": 0}
    assert family_handle_data(6, 2) == {"counts": [1, 1, 7, 0, 1]}


def test_h1_witness_formula():
    lat = AmbientLattice(11)
    assert family_h1_witness(3, 1) == lat.e(9) - lat.e(10)
    with pytest.raises(DomainError):
        family_h1_witness(12, 1)


@pytest.mark.parametrize("a, family", NINE_CASES)
def test_expected_negative_rank(a, family):
    """The formulas give b2- = n - (p - 1) = 12 - a, the rank cli claims."""
    assert exceptional_count(a, family) - (chain_index(a, family) - 1) == 12 - a


CASE_NAMES = [f"family{family}/a{a}" for family, a in cli.CASES]


def test_fixture_case_listing():
    assert CASE_NAMES == [
        "family1/a3",
        "family1/a4",
        "family1/a5",
        "family1/a6",
        "family1/a7",
        "family2/a3",
        "family2/a4",
        "family2/a5",
        "family2/a6",
    ]


@pytest.mark.parametrize("family, a", cli.CASES, ids=CASE_NAMES)
def test_fixture_files_match_generator(family, a):
    """The shipped fixture files are exactly what the generator emits."""
    root = Path(rbdcalc.__file__).parent / "fixtures"
    path = root / f"family{family}" / f"a{a}.json"
    assert path.read_text() == dump_fixture(a, family)


@pytest.mark.parametrize("family, a", cli.CASES, ids=CASE_NAMES)
def test_fixture_payload_is_consistent(family, a):
    payload = fixture_payload(a, family)
    assert payload["family"] == family
    assert payload["a"] == a
    assert payload["p"] == chain_index(a, family)
    assert payload["n"] == exceptional_count(a, family)
    assert len(payload["classes"]) == payload["p"] - 1
    assert payload["K"] == list(family_lift(a, family).coeffs)
    assert payload["H"] == list(family_period_point(a, family).coeffs)
    json.dumps(payload)

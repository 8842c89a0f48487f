"""The report encoder: every dataclass field under its own name."""

import json
from dataclasses import dataclass, fields
from fractions import Fraction

import pytest

from rbdcalc.blowdown import BlowdownInvariants, BlowdownReport, H1Certificate, ParityReport
from rbdcalc.chains import ChainReport, ChainViolation
from rbdcalc.lattice import AmbientLattice
from rbdcalc.report import Report
from rbdcalc.search import SearchTemplate
from rbdcalc.sw import AdmissibilityReport, RestrictionReport, SwOutcome

REPORTS = (
    ChainViolation, ChainReport, BlowdownInvariants, H1Certificate, ParityReport,
    BlowdownReport, AdmissibilityReport, RestrictionReport, SwOutcome, SearchTemplate,
)


@dataclass(frozen=True)
class Sample(Report):
    count: int
    flag: bool
    name: str
    missing: None
    ratio: Fraction
    values: tuple[int, ...]
    nested: tuple["Sample", ...] = ()


def test_every_field_is_encoded_under_its_own_name():
    lat = AmbientLattice(2)
    inner = Sample(1, False, "b", None, Fraction(0), ())
    outer = Sample(7, True, "a", None, Fraction(-6, 4), (1, -2), (inner,))
    assert outer.to_json() == {
        "count": 7,
        "flag": True,
        "name": "a",
        "missing": None,
        "ratio": [-3, 2],
        "values": [1, -2],
        "nested": [inner.to_json()],
    }
    assert inner.to_json()["ratio"] == [0, 1]
    cert = H1Certificate("trivial", 1, lat.vector([0, 1, -1]), (1, 0), 1, (1, 1))
    assert cert.to_json()["witness"] == [0, 1, -1]
    json.dumps(outer.to_json())


def library_reports():
    """One instance of each report class, built by the library."""
    from rbdcalc.blowdown import AmbientManifoldData, full_blowdown_report
    from rbdcalc.chains import verify_cp_configuration
    from rbdcalc.families import family_configuration, family_lift, family_period_point
    from rbdcalc.sw import CharacteristicData, PeriodPoint, sw_on_blowdown

    cfg = family_configuration(3, 1)
    x = AmbientManifoldData(cfg.lattice)
    blowdown = full_blowdown_report(x, cfg)
    k, h = CharacteristicData(family_lift(3, 1)), PeriodPoint(family_period_point(3, 1))
    outcome = sw_on_blowdown(x, cfg, k, h)
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
    assert sorted(report.to_json()) == sorted(f.name for f in fields(report))


def test_library_reports_cover_every_report_class():
    assert sorted(type(r).__name__ for r in library_reports()) == sorted(c.__name__ for c in REPORTS)

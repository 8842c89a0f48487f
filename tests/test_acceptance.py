"""Acceptance gate: one test per shipped claim, at its stated budget."""

import json
import random
import time
from fractions import Fraction
from itertools import product

from rbdcalc import cli
from rbdcalc.blowdown import full_blowdown_report, handle_counts
from rbdcalc.chains import (
    ChainViolation,
    lens_space_cf,
    verify_cp_configuration,
)
from rbdcalc.errors import TemplateError
from rbdcalc.lattice import AmbientLattice, is_characteristic, pairing
from rbdcalc.search import DEFAULT_CAP, SearchTemplate, estimate_search_space, search_hits
from rbdcalc.snf import smith_normal_form
from rbdcalc.sw import CharacteristicData, PeriodPoint, sw_on_blowdown, wall_crossing

from families import (
    chain_index,
    family_classes,
    family_configuration,
    family_h1_witness,
    family_handle_data,
    family_lift,
    family_period_point,
    fixture_payload,
)
from oracles import (
    configurations,
    det,
    evaluate_neg_cf,
    intersection_matrix,
    matmul,
    standard_configuration,
)
from probe_open_range import family_question_template, probe

NINE_CASES = [(a, 1) for a in range(3, 8)] + [(a, 2) for a in range(3, 7)]


def test_criterion_1_family_configurations_verify():
    """Both families' class lists pass Gram verification, quickly."""
    for a, family in NINE_CASES:
        start = time.perf_counter()
        classes = family_classes(a, family)
        p = chain_index(a, family)
        report = verify_cp_configuration(classes, p)
        assert report.ok, (a, family, report.violation)
        for i, u in enumerate(classes):
            for j, v in enumerate(classes):
                if i == j:
                    expected = -(p + 2) if i == p - 2 else -2
                elif abs(i - j) == 1:
                    expected = 1
                else:
                    expected = 0
                assert pairing(u, v) == expected, (a, family, i, j)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, (a, family, elapsed)
    print("criterion 1: pass")


def test_criterion_2_boundary_arithmetic():
    """Chain Gram data presents L(p^2, p-1) exactly, for p = 2..12."""
    start = time.perf_counter()
    for p in range(2, 13):
        gram = intersection_matrix(standard_configuration(p).classes)
        assert abs(det(gram)) == p * p
        assert smith_normal_form(gram).diagonal == (1,) * (p - 2) + (p * p,)
        weights = lens_space_cf(p)
        assert evaluate_neg_cf(weights) == Fraction(p * p, p - 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    print("criterion 2: pass")


def test_criterion_3_invariant_values():
    """The descended invariant is +1 for each lift, -1 for its negation."""
    start = time.perf_counter()
    for a, family in NINE_CASES:
        cfg = family_configuration(a, family)
        k = CharacteristicData(family_lift(a, family))
        hv = family_period_point(a, family)
        assert hv.square() > 0
        for u in cfg.classes:
            assert pairing(hv, u) == 0
        if (a, family) == (3, 1):
            assert hv.square() == 25
        h = PeriodPoint(hv)
        outcome = sw_on_blowdown(cfg, k, h)
        assert outcome.value == 1
        assert outcome.d == 0
        assert outcome.base_value == 0
        negated = sw_on_blowdown(cfg, CharacteristicData(-k.k), h)
        assert negated.value == -1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    print("criterion 3: pass")


def test_criterion_4_homeomorphism_types():
    """Every bundled case pins its type and matches the recorded handles."""
    expected_counts = {
        (3, 1): (1, 0, 11, 2, 1),
        (4, 1): (1, 0, 10, 2, 1),
        (5, 1): (1, 0, 9, 2, 1),
        (6, 1): (1, 0, 8, 2, 1),
        (7, 1): None,
        (3, 2): (1, 0, 9, 0, 1),
        (4, 2): (1, 0, 8, 0, 1),
        (5, 2): (1, 0, 7, 0, 1),
        (6, 2): (1, 1, 7, 0, 1),
    }
    start = time.perf_counter()
    for a, family in NINE_CASES:
        cfg = family_configuration(a, family)
        report = full_blowdown_report(cfg, delta=family_h1_witness(a, family))
        assert report.h1.verdict == "trivial"
        assert report.parity.verdict == "odd"
        assert report.parity.route == "signature-mod-16"
        assert report.homeo_type == f"CP^2 # {12 - a} CPbar^2"
        handles = family_handle_data(a, family)
        if expected_counts[(a, family)] is None:
            assert handles is None
        else:
            assert handle_counts(handles) == expected_counts[(a, family)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    print("criterion 4: pass")


def test_criterion_5_template_breakdown():
    """The closed-form template stops working exactly where it should."""
    start = time.perf_counter()
    report = verify_cp_configuration(family_classes(12, 1), 39)
    assert not report.ok
    assert report.violation == ChainViolation("distant_pairing", (1, 38), 0, 9)
    assert report.violation.actual == 12 - 3
    for a in (13, 14):
        try:
            family_classes(a, 1)
        except TemplateError:
            pass
        else:
            raise AssertionError(f"template unexpectedly instantiated at a = {a}")
    template = family_question_template(12, "3-chain")
    assert estimate_search_space(template) == 3
    assert configurations(search_hits(template)) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed
    print("criterion 5: pass")


def test_criterion_6_open_range_probes():
    """Shaped boxes past the bundled range still contain configurations."""
    expected = {8: 912, 9: 314, 10: 120, 11: 20}
    for a, count in expected.items():
        start = time.perf_counter()
        row = probe(a, "3-chain", None, DEFAULT_CAP)
        assert row["count"] == count, (a, row["count"])
        assert "homological only" in row["label"]
        for cfg in configurations(search_hits(family_question_template(a, "3-chain"))):
            assert verify_cp_configuration(cfg.classes, cfg.p).ok
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, (a, elapsed)
    print("criterion 6: pass")


def test_criterion_7_property_suites():
    """Randomized identities at their stated sample sizes."""
    start = time.perf_counter()
    rng = random.Random(8191)
    lattices = {n: AmbientLattice(n) for n in range(7)}

    for _ in range(10_000):
        lat = lattices[rng.randrange(7)]
        x = lat.vector([rng.randint(-9, 9) for _ in range(lat.rank)])
        y = lat.vector([rng.randint(-9, 9) for _ in range(lat.rank)])
        z = lat.vector([rng.randint(-9, 9) for _ in range(lat.rank)])
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        assert pairing(x, y) == pairing(y, x)
        assert pairing(a * x + b * y, z) == a * pairing(x, z) + b * pairing(y, z)

    for _ in range(1_000):
        lat = lattices[rng.randrange(7)]
        k = lat.vector([rng.randint(-9, 9) for _ in range(lat.rank)])
        witnesses = [
            (pairing(k, lat.basis_vector(i)) - lat.basis_vector(i).square()) % 2
            for i in range(lat.rank)
        ]
        if is_characteristic(k):
            assert not any(witnesses)
            assert (k.square() - (1 - lat.n)) % 8 == 0
        else:
            assert any(witnesses)

    for _ in range(1_000):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        s = smith_normal_form(m)
        d = matmul(matmul([list(r) for r in s.u], m), [list(r) for r in s.v])
        for i in range(rows):
            for j in range(cols):
                expected = s.diagonal[i] if i == j and i < len(s.diagonal) else 0
                assert d[i][j] == expected
        assert abs(det([list(r) for r in s.u])) == 1
        assert abs(det([list(r) for r in s.v])) == 1
        nonzero = [v for v in s.diagonal if v]
        for u, v in zip(nonzero, nonzero[1:]):
            assert v % u == 0

    lat18 = AmbientLattice(18)
    k18 = CharacteristicData(lat18.vector([5, 3] + [1] * 17))
    chambers = []
    while len(chambers) < 16:
        tail = [rng.randint(-6, 6) for _ in range(18)]
        norm = sum(t * t for t in tail)
        vec = lat18.vector([int(norm**0.5) + rng.randint(1, 9)] + tail)
        if vec.square() > 0 and pairing(k18.k, vec) != 0:
            chambers.append(PeriodPoint(vec))
    for _ in range(1_000):
        a3, b3, c3 = (rng.choice(chambers) for _ in range(3))
        base = rng.randint(-3, 3)
        assert wall_crossing(k18, a3, c3, base) == wall_crossing(
            k18, b3, c3, wall_crossing(k18, a3, b3, base)
        )

    template = SearchTemplate.uniform(5, 2, 2)
    assert estimate_search_space(template) == 3125
    hits = {cfg.classes[0].coeffs for cfg in configurations(search_hits(template))}
    brute = {
        coeffs
        for coeffs in product(range(-2, 3), repeat=6)
        if coeffs[0] ** 2 - sum(c * c for c in coeffs[1:]) == -4
    }
    assert hits == brute
    assert len(hits) == 714

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, elapsed
    print("criterion 7: pass")


def test_criterion_8_mutation_honesty(tmp_path):
    """Any single-coefficient corruption of a bundled case must be caught."""
    start = time.perf_counter()
    mutations = 0
    for family in (1, 2):
        payload = fixture_payload(3, family)
        case_dir = tmp_path / f"family{family}"
        case_dir.mkdir()
        target = case_dir / "a3.json"
        for ci, row in enumerate(payload["classes"]):
            for pos in range(len(row)):
                for delta in (1, -1):
                    mutated = json.loads(json.dumps(payload))
                    mutated["classes"][ci][pos] += delta
                    target.write_text(json.dumps(mutated))
                    result = cli._reproduce_case((family, 3), tmp_path)
                    assert not result["pass"], (family, ci, pos, delta)
                    assert result["stages"]["verify"]["status"] == "fail"
                    mutations += 1
    assert mutations == 160
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, elapsed
    print("criterion 8: pass")


def test_criterion_9_h1_decided_exactly(tmp_path, capsys):
    """blowdown without --delta decides H1 of an H1-nontrivial chain: Z/13."""
    cfg = standard_configuration(13, n=20)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(cfg.to_json()))
    start = time.perf_counter()
    code = cli.main(["blowdown", str(path)])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["h1"]["verdict"] == "nontrivial"
    assert report["h1"]["order"] == 13
    assert report["h1"]["restriction_divisors"] == [1] * 11 + [13]
    assert report["homeo_type"] is None
    assert elapsed < 1.0, elapsed
    print("criterion 9: pass")

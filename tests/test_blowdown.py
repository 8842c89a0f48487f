"""Blowdown bookkeeping: invariants, h1 certificates, parity, handle counts."""

from functools import lru_cache
from itertools import combinations, product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbdcalc.blowdown as blowdown_module
import rbdcalc.snf as snf_module
from rbdcalc.blowdown import (
    H1Certificate,
    _condition,
    blowdown_invariants,
    full_blowdown_report,
    h1_certificate,
    handle_counts,
    handle_counts_after_blowdown,
    parity_and_homeo_type,
)
from rbdcalc.chains import CpConfiguration
from rbdcalc.errors import (
    ConsistencyError,
    DomainError,
    InputTypeError,
    InvalidConfigurationError,
    LatticeMismatchError,
)
from rbdcalc.lattice import row_pairing
from rbdcalc.search import search_hits
from rbdcalc.snf import Section

from families import (
    family_configuration,
    family_h1_witness,
    family_period_point,
)
from oracles import (
    basis_row,
    configurations,
    cremona,
    dual_coefficients,
    dual_matrix_witness,
    h1_by_smith_normal_form,
    orthogonal_complement_basis,
    same_lattice,
    signed_permutation,
    standard_configuration,
)
from probe_open_range import family_question_template


def bounded_witness_scan(cfg, bound=3, max_support=4):
    """Reference oracle for the exact H1 decision: a bounded witness scan.

    Candidates in a fixed order (support size, then largest |coefficient|,
    then support positions, then coefficient tuples, all ascending); returns
    (condition, coefficients, pairings) of the first one meeting a
    triviality condition, or None when the box holds none.
    """
    rank = cfg.n + 1
    basis_rows = [tuple(row_pairing(basis_row(cfg.n, j), u) for u in cfg.classes) for j in range(rank)]
    p = cfg.p
    for size in range(1, min(max_support, rank) + 1):
        for mag in range(1, bound + 1):
            for support in combinations(range(rank), size):
                rows = [basis_rows[j] for j in support]
                if all(all(v == 0 for v in row) for row in rows):
                    continue
                for coeffs in product(range(-mag, mag + 1), repeat=size):
                    if any(c == 0 for c in coeffs):
                        continue
                    if max(abs(c) for c in coeffs) != mag:
                        continue
                    pair = tuple(
                        sum(c * row[i] for c, row in zip(coeffs, rows))
                        for i in range(p - 1)
                    )
                    ok = None
                    if pair[0] == 1 and all(v == 0 for v in pair[1:]):
                        ok = 1
                    elif all(v == 0 for v in pair[: p - 2]) and gcd(pair[p - 2], p) == 1:
                        ok = 2
                    if ok is not None:
                        c = [0] * rank
                        for j, cv in zip(support, coeffs):
                            c[j] = cv
                        return ok, tuple(c), pair
    return None


def assert_exact_route_agrees_with_scan(cfg, bound=3, max_support=4):
    """The exact decision never contradicts the bounded scan, and every
    witness it reports passes the pairing re-check."""
    cert = h1_certificate(cfg)
    found = bounded_witness_scan(cfg, bound, max_support)
    assert cert.verdict in ("trivial", "nontrivial")
    assert cert.restriction_divisors is not None
    assert cert.order == gcd(prod(cert.restriction_divisors), cfg.p)
    if found is not None:
        assert cert.verdict == "trivial"
        if sum(1 for c in found[1] if c) == 1:
            # a one-term witness is the first +/-e_j, which the scan meets first
            assert cert.witness == found[1]
    if cert.verdict == "nontrivial":
        assert found is None
        assert cert.order > 1 and cert.witness is None
    else:
        assert cert.order == 1
        pair = cfg.pairings(cert.witness)
        assert cert.condition in (1, 2)
        assert (_condition(pair, cfg.p), pair) == (cert.condition, cert.pairings)
        # the computed witness and a given delta end in the same re-check
        given = h1_certificate(cfg, delta=cert.witness)
        assert given.verdict == "trivial"
        assert (given.condition, given.pairings) == (cert.condition, cert.pairings)
    return cert


@st.composite
def permuted_standard_chains(draw):
    """standard_configuration(p, n) under a signed permutation of e_1..e_n."""
    p = draw(st.integers(2, 9))
    n = draw(st.integers(p - 1, 8))
    target = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    base = standard_configuration(p, n)
    return CpConfiguration(p, signed_permutation(base.classes, target, signs))


@settings(max_examples=60)
@given(permuted_standard_chains())
def test_exact_h1_agrees_with_scan_on_standard_chains(cfg):
    cert = assert_exact_route_agrees_with_scan(cfg, bound=2, max_support=3)
    assert (cert.verdict, cert.order) == ("nontrivial", cfg.p)


def _valid_family_cases():
    """(family, a, configuration) for every family parameter whose classes verify."""
    cases = []
    for family in (1, 2):
        for a in range(3, 12):
            try:
                cases.append((family, a, family_configuration(a, family)))
            except InvalidConfigurationError:
                continue
    return cases


VALID_FAMILY_CASES = _valid_family_cases()


def _scan_cases():
    cases = [pytest.param(2, [[0, 2]], id="p2-even")]
    cases.append(pytest.param(2, [[1, 1, 1, 1, 1, 1]], id="p2-through-h"))
    for family, a, cfg in VALID_FAMILY_CASES:
        rows = [list(u) for u in cfg.classes]
        cases.append(pytest.param(cfg.p, rows, id=f"family{family}-a{a}"))
    return cases


@pytest.mark.parametrize("p, rows", _scan_cases())
def test_exact_h1_agrees_with_scan(p, rows):
    assert_exact_route_agrees_with_scan(CpConfiguration(p, rows))


# two C_3 in Z^{1,4} whose first witness meets condition 1: -e_1 for body
# e_1 - e_2 and long class e_2 + 2 e_3, h for body h - e_1 - e_2 - e_3 and
# long class e_3 + 2 e_4
CONDITION_ONE_CHAINS = [
    CpConfiguration(3, rows)
    for rows in (([0, 1, -1, 0, 0], [0, 0, 1, 2, 0]), ([1, -1, -1, -1, 0], [0, 0, 0, 1, 2]))
]

# a C_6 in Z^{1,7} at H1 order 1 with v = sum_i i u_i = (-9, 4, 9, 10, -4,
# -4, -4, -4): no coordinate of v is prime to 6, so the section's y is a
# fold of basis vectors, h + e_1 with y.v = -13
BEZOUT_CHAIN = CpConfiguration(
    6,
    (
        (1, -1, -1, 0, -1, 0, 0, 0),
        (0, 0, 0, 0, 1, -1, 0, 0),
        (0, 0, 0, 0, 0, 1, -1, 0),
        (0, 0, 0, 0, 0, 0, 1, -1),
        (-2, 1, 2, 2, -1, -1, -1, 0),
    ),
)


@st.composite
def isometry_images(draw):
    """standard_configuration(p, n) (p = 2..9), a valid family
    configuration, one of CONDITION_ONE_CHAINS or BEZOUT_CHAIN under one to
    three isometries of Z^{1,n}: signed permutations of e_1..e_n and, when
    n >= 3, Cremona reflections in h - e_i - e_j - e_k, which put h on body
    classes."""
    source = draw(st.integers(0, 2))
    if source == 0:
        p = draw(st.integers(2, 9))
        base = standard_configuration(p, draw(st.integers(p - 1, 9)))
    elif source == 1:
        base = draw(st.sampled_from(VALID_FAMILY_CASES))[2]
    else:
        base = draw(st.sampled_from(CONDITION_ONE_CHAINS + [BEZOUT_CHAIN]))
    n = base.n
    rows = base.classes
    for _ in range(draw(st.integers(1, 3))):
        if n >= 3 and draw(st.booleans()):
            triple = draw(st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True))
            rows = cremona(rows, *triple)
        else:
            target = draw(st.permutations(range(1, n + 1)))
            signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
            rows = signed_permutation(rows, target, signs)
    return CpConfiguration(base.p, rows)


def assert_matches_the_smith_route(cfg):
    """h1_certificate(cfg) against the SNF route: verdict, condition,
    pairings, order and divisors byte for byte, and the witness too
    wherever a +/-e_j decides it. Where none does, both witnesses solve
    r(x) = (0, ..., 0, 1), each by its own route, so only their pairings
    agree. Returns the certificate."""
    cert = h1_certificate(cfg)
    ours, smith = cert.to_json(), h1_by_smith_normal_form(cfg).to_json()
    restriction = [dual_coefficients(u) for u in cfg.classes]
    if cert.order == 1 and dual_matrix_witness(restriction, cfg.p) is None:
        assert cfg.pairings(cert.witness) == (0,) * (cfg.p - 2) + (1,)
        del ours["witness"], smith["witness"]
    assert ours == smith
    return cert


@settings(max_examples=150)
@given(isometry_images())
def test_closed_form_matches_the_smith_route_on_isometry_images(cfg):
    """gcd(p, content(sum_i i u_i)) gives the SNF route's certificate,
    bodies through h included."""
    assert_matches_the_smith_route(cfg)


@pytest.mark.parametrize(
    "tail, expected, section_calls",
    [
        pytest.param(
            [-2, -2, -2, 1, 0],
            {"verdict": "nontrivial", "condition": None, "witness": None, "pairings": None,
             "order": 3, "restriction_divisors": [1, 3]},
            0,
            id="order-3",
        ),
        pytest.param(
            [3, -2, 1, 3, 0],
            {"verdict": "trivial", "condition": 2, "witness": [-5, 1, -2, -4, 0],
             "pairings": [0, 1], "order": 1, "restriction_divisors": [1, 1]},
            1,
            id="solve",
        ),
    ],
)
def test_body_through_h_runs_the_section_only_for_the_fallback_witness(
    monkeypatch, tail, expected, section_calls
):
    """The body class h + e_1 + e_2 + e_3 has an h coefficient. Its order
    is the closed form's, with no section; the one section solves for a
    witness when order 1 has no +/-e_j meeting a condition, from y = h.
    Either way all but that witness is the SNF route's."""
    cfg = CpConfiguration(3, ((1, 1, 1, 1, 0), tail))
    sections = []
    monkeypatch.setattr(snf_module, "Section", lambda cfg: sections.append(Section(cfg)) or sections[-1])
    cert = assert_matches_the_smith_route(cfg)
    assert cert.to_json() == expected
    assert [s.y for s in sections] == [basis_row(4, 0)] * section_calls


def test_bezout_section_witness():
    """BEZOUT_CHAIN has no +/-e_j witness, and no single basis vector y has
    y.v prime to 6: the section folds h and e_1 into y, and its witness
    s(e_5) meets condition 2 and pairs like the SNF solve's."""
    cfg = BEZOUT_CHAIN
    v = [sum(i * c for i, c in enumerate(column, 1)) for column in zip(*cfg.classes)]
    assert v == [-9, 4, 9, 10, -4, -4, -4, -4]
    assert all(gcd(c, 6) > 1 for c in v)
    section = Section(cfg)
    assert section.y == (1, 1, 0, 0, 0, 0, 0, 0)
    assert sum(i * r for i, r in enumerate(section.ry, 1)) == -13
    cert = assert_matches_the_smith_route(cfg)
    assert (cert.verdict, cert.condition, cert.order) == ("trivial", 2, 1)
    assert cert.pairings == (0, 0, 0, 0, 1)
    assert cert.witness == section((0, 0, 0, 0, 1))
    assert h1_by_smith_normal_form(cfg).witness == (-1, 1, 0, 0, 0, 0, 0, 0)


PROBE_QUESTIONS = (("3-chain", 9), ("3-chain", 10), ("3-chain", 11), ("4-chain", 6))


@lru_cache(maxsize=None)
def probe_hits() -> list[tuple[int, CpConfiguration]]:
    """(a, configuration) for every hit of PROBE_QUESTIONS, built once."""
    return [
        (a, cfg)
        for kind, a in PROBE_QUESTIONS
        for cfg in configurations(search_hits(family_question_template(a, kind)))
    ]


def test_closed_form_matches_the_smith_route_on_probe_hits():
    """Every hit of 3-chain a=9..11 and 4-chain a=6 gets the SNF route's
    certificate, the four H1 = Z/3 hits at a=9 included."""
    orders = [(a, assert_matches_the_smith_route(cfg).order) for a, cfg in probe_hits()]
    assert len(orders) == 510
    assert [o for o in orders if o[1] != 1] == [(9, 3)] * 4


@settings(max_examples=150)
@given(st.one_of(isometry_images(), st.integers(0, 509).map(lambda i: probe_hits()[i][1])))
def test_section_decides_witness_and_parity_like_the_oracle(cfg):
    """At order 1 the witness meets its condition; every generator of the
    complement pairs 0 with every class and they span the oracle's basis
    lattice, so a generator has odd square exactly when an oracle basis
    class has; and the parity scan reports the first odd generator."""
    cert = h1_certificate(cfg)
    if cert.order == 1:
        assert _condition(cfg.pairings(cert.witness), cfg.p) == cert.condition
    generators = list(Section(cfg).complement())
    for w in generators:
        assert cfg.pairings(w) == (0,) * (cfg.p - 1)
    basis = orthogonal_complement_basis(list(cfg.classes))
    assert same_lattice(generators, basis)
    first_odd = next((w for w in generators if row_pairing(w, w) % 2), None)
    assert (first_odd is not None) == any(row_pairing(w, w) % 2 for w in basis)
    if cert.order == 1 and blowdown_invariants(cfg).signature % 16 == 0:
        parity, _ = parity_and_homeo_type(cfg, cert)
        assert parity.witness == first_odd


def test_invariants_for_smallest_family_case():
    """The ambient CP^2 # 11 CPbar^2 (b2- = 11, e = 14, sigma = -10) loses
    the rank 2 of C_3."""
    cfg = family_configuration(3, 1)
    assert (cfg.n, cfg.p) == (11, 3)
    inv = blowdown_invariants(cfg)
    assert (inv.b2_plus, inv.b2_minus, inv.euler, inv.signature) == (1, 9, 12, -8)


def test_invariants_for_minimal_chain():
    cfg = standard_configuration(2, n=5)
    inv = blowdown_invariants(cfg)
    assert (inv.b2_plus, inv.b2_minus, inv.euler, inv.signature) == (1, 4, 7, -3)


@pytest.mark.parametrize(
    "a, family", [(a, 1) for a in range(3, 8)] + [(a, 2) for a in range(3, 7)]
)
def test_invariant_identities(a, family):
    cfg = family_configuration(a, family)
    inv = blowdown_invariants(cfg)
    assert inv.euler == 2 + inv.b2_plus + inv.b2_minus
    assert inv.signature == inv.b2_plus - inv.b2_minus
    assert inv.b2_plus == 1


@pytest.mark.parametrize("p", range(2, 13))
def test_invariants_when_the_chain_fills_the_negative_part(p):
    """At n = p - 1 only b2+ is left: the invariants of CP^2."""
    inv = blowdown_invariants(standard_configuration(p))
    assert (inv.b2_plus, inv.b2_minus, inv.euler, inv.signature) == (1, 0, 3, 1)


def test_h1_first_condition_witness():
    cfg = family_configuration(3, 1)
    cert = h1_certificate(cfg, delta=family_h1_witness(3, 1))
    assert cert.verdict == "trivial"
    assert cert.condition == 1
    assert cert.pairings == (1, 0)
    assert cert.order is None
    assert cert.restriction_divisors is None
    assert "order" not in cert.to_json()


def test_h1_second_condition_witness():
    cfg = CpConfiguration(2, ((0, 1, 1, 1, 1),))
    cert = h1_certificate(cfg, delta=basis_row(4, 1))
    assert cert.verdict == "trivial"
    assert cert.condition == 2
    assert cert.pairings == (-1,)


def test_h1_explicit_delta_can_be_inconclusive():
    cfg = standard_configuration(2)
    cert = h1_certificate(cfg, delta=[0, 1])
    assert cert.verdict == "inconclusive"
    assert cert.condition is None
    assert cert.witness == (0, 1)
    assert cert.pairings == (-2,)
    assert cert.order is None
    assert sorted(cert.to_json()) == ["condition", "pairings", "verdict", "witness"]


def test_h1_search_never_certifies_even_chain():
    """Every pairing with 2e_1 is even: H1 of the blowdown is Z/2. The
    standard C_5 in n = 6 gives Z/5 the same way."""
    cfg = standard_configuration(2)
    cert = h1_certificate(cfg)
    assert cert.verdict == "nontrivial"
    assert cert.witness is None
    assert cert.condition is None
    assert cert.pairings is None
    assert cert.order == 2
    assert cert.restriction_divisors == (2,)
    assert cert.to_json()["restriction_divisors"] == [2]
    wider = h1_certificate(standard_configuration(5, n=6))
    assert (wider.verdict, wider.order) == ("nontrivial", 5)
    assert wider.restriction_divisors == (1, 1, 1, 5)


def test_h1_search_finds_small_witness():
    cfg = family_configuration(3, 1)
    cert = h1_certificate(cfg)
    assert cert.verdict == "trivial"
    assert cert.condition == 2
    assert cert.witness == (0, -1) + (0,) * 10
    assert cert.pairings == (0, -2)
    assert cert.order == 1
    assert cert.restriction_divisors == (1, 1)


def test_h1_boundary_case_witness_from_the_solve():
    """At a=11 the closed-form witness fails and no +/-e_j meets a condition
    (two-term classes such as -(h + e_1) do), so the witness is the
    section's solution of r(x) = (0, ..., 0, 1), built on y = e_2."""
    cfg = family_configuration(11, 1)
    formula = h1_certificate(cfg, delta=family_h1_witness(11, 1))
    assert formula.verdict == "inconclusive"
    assert formula.pairings == (1,) + (0,) * 32 + (8,)
    two_term = h1_certificate(cfg, delta=(-1, -1) + (0,) * (cfg.n - 1))
    assert (two_term.verdict, two_term.pairings[-1]) == ("trivial", -24)
    for j in range(cfg.n + 1):
        for sign in (-1, 1):
            e = [sign * c for c in basis_row(cfg.n, j)]
            assert h1_certificate(cfg, delta=e).verdict == "inconclusive"
    exact = h1_certificate(cfg)
    assert exact.verdict == "trivial"
    assert exact.condition == 2
    assert exact.order == 1
    assert exact.restriction_divisors == (1,) * 34
    assert exact.witness == (-420, 300) + (43,) * 34
    assert Section(cfg).y == basis_row(cfg.n, 2)
    assert exact.pairings == (0,) * 33 + (1,)


def test_h1_computed_witness_failing_the_recheck_raises(monkeypatch):
    """A witness the exact route computes is re-checked, not trusted."""
    cfg = family_configuration(3, 1)
    monkeypatch.setattr(blowdown_module, "_basis_witness", lambda columns, p: [0] * len(columns))
    with pytest.raises(ConsistencyError, match="fails the re-check"):
        h1_certificate(cfg)


def test_h1_rejects_foreign_delta():
    cfg = family_configuration(3, 1)
    with pytest.raises(LatticeMismatchError):
        h1_certificate(cfg, delta=basis_row(5, 1))


@pytest.mark.parametrize(
    "a, family", [(a, 1) for a in range(3, 8)] + [(a, 2) for a in range(3, 7)]
)
def test_parity_by_signature_and_homeo_type(a, family):
    cfg = family_configuration(a, family)
    h1 = h1_certificate(cfg, delta=family_h1_witness(a, family))
    parity, homeo = parity_and_homeo_type(cfg, h1)
    assert parity.verdict == "odd"
    assert parity.route == "signature-mod-16"
    assert homeo == f"CP^2 # {12 - a} CPbar^2"


def test_parity_by_orthogonal_vector_at_boundary_case():
    """a=11 has signature 0 mod 16, so oddness needs an explicit class: the
    first generator of the complement, h - s(r(h))."""
    cfg = family_configuration(11, 1)
    parity, homeo = parity_and_homeo_type(cfg, h1_certificate(cfg))
    assert parity.verdict == "odd"
    assert parity.route == "odd-square-orthogonal-vector"
    assert parity.witness_square == 8625
    assert row_pairing(parity.witness, parity.witness) == 8625
    assert parity.witness == (253, -180) + (-26,) * 34
    for u in cfg.classes:
        assert row_pairing(parity.witness, u) == 0
    assert homeo == "CP^2 # 1 CPbar^2"
    h = family_period_point(11, 1)
    assert h[:3] == (87, -28, -14)
    assert row_pairing(h, h) == 121
    for u in cfg.classes:
        assert row_pairing(h, u) == 0


def test_parity_inconclusive_without_h1():
    cfg = family_configuration(3, 1)
    h1 = h1_certificate(cfg, delta=basis_row(cfg.n, 0))
    assert h1.verdict == "inconclusive"
    parity, homeo = parity_and_homeo_type(cfg, h1)
    assert parity.verdict == "inconclusive"
    assert homeo is None


def test_parity_can_stay_open():
    """A complement with only even squares yields no oddness certificate."""
    cfg = CpConfiguration(2, ((2, -2, -2),))
    parity, homeo = parity_and_homeo_type(cfg, H1Certificate("trivial", 2, None, None, None, None))
    assert parity.verdict == "even-possible"
    assert parity.route is None
    assert homeo is None


def test_homeo_type_without_remaining_negative_part():
    cfg = CpConfiguration(2, ((0, 2),))
    parity, homeo = parity_and_homeo_type(cfg, H1Certificate("trivial", 2, None, None, None, None))
    assert parity.verdict == "odd"
    assert homeo == "CP^2"


def test_handle_counts():
    assert handle_counts_after_blowdown(9, 2) == (1, 0, 10, 2, 1)
    assert handle_counts_after_blowdown(6, 0) == (1, 0, 7, 0, 1)
    assert handle_counts_after_blowdown(0, 0) == (1, 0, 1, 0, 1)
    with pytest.raises(DomainError):
        handle_counts_after_blowdown(-1, 0)


def test_full_report_wiring():
    cfg = family_configuration(3, 1)
    report = full_blowdown_report(cfg, delta=family_h1_witness(3, 1))
    assert report.invariants.b2_minus == 9
    assert report.h1.condition == 1
    assert report.parity.verdict == "odd"
    assert report.homeo_type == "CP^2 # 9 CPbar^2"
    assert report.handle_counts is None
    payload = report.to_json()
    assert payload["homeo_type"] == "CP^2 # 9 CPbar^2"
    assert payload["handle_counts"] is None


def test_handle_counts_reads_either_recorded_form():
    assert handle_counts({"h2": 10, "h3": 2}) == (1, 0, 11, 2, 1)
    assert handle_counts({"counts": [1, 1, 7, 0, 1]}) == (1, 1, 7, 0, 1)


def test_handle_counts_refuses_a_counts_list_of_another_length():
    """Three entries are neither a full tuple nor the complement's (h2, h3)."""
    with pytest.raises(DomainError, match="must be a full 5-tuple, got 3"):
        handle_counts({"counts": [1, 2, 3]})


@pytest.mark.parametrize(
    "handles",
    [{"h2": 1.9, "h3": 2}, {"h2": 10, "h3": True}, {"counts": [1, 0, 11.0, 2, 1]}],
)
def test_handle_counts_refuses_non_integers(handles):
    """int() would truncate (1.9, 2) to (1, 2) and report (1, 0, 2, 2, 1)."""
    with pytest.raises(InputTypeError, match="must be an integer"):
        handle_counts(handles)


@pytest.mark.parametrize(
    "handles, message",
    [
        ({"counts": [1, 0, 11, 2, 1], "h2": 99, "hx": 1}, "unknown key 'h2'"),
        ({"h2": 10, "h3": 2, "hx": 1}, "unknown key 'hx'"),
        ({"h2": 10}, "missing key 'h3'"),
        ([10, 2], "expected an object with h2, h3"),
    ],
)
def test_handle_counts_reads_exactly_one_form(handles, message):
    """A counts list beside a contradicting h2 is refused, not silently read."""
    with pytest.raises(InputTypeError, match=message):
        handle_counts(handles)

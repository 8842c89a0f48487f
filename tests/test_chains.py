"""Chain configurations, their verification report, and lens space data."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbdcalc.chains as chains_module
from rbdcalc.chains import (
    _PAIRINGS_CACHE_SIZE,
    ChainReport,
    ChainViolation,
    CpConfiguration,
    _body_block,
    _check_rows,
    _LastBody,
    cp_gram,
    expected_square,
    lens_space_cf,
    standard_configuration,
    verify_cp_configuration,
)
from rbdcalc.errors import (
    ArityError,
    DomainError,
    InputTypeError,
    InvalidConfigurationError,
    LatticeMismatchError,
    RbdcalcError,
)
from rbdcalc.families import family_classes, family_configuration
from rbdcalc.lattice import AmbientLattice, ClassVector, pairing
from rbdcalc.search import _placements, family_question_template, search
from rbdcalc.snf import det as int_det
from rbdcalc.snf import smith_normal_form

from oracles import evaluate_neg_cf, intersection_matrix


def test_expected_squares():
    assert [expected_square(i, 5) for i in range(1, 5)] == [-2, -2, -2, -7]
    assert expected_square(1, 2) == -4


def test_minimal_chain_verifies():
    lat = AmbientLattice(1)
    report = verify_cp_configuration([lat.vector([0, 2])], 2)
    assert report.ok
    assert report.violation is None
    assert report.squares == (-4,)


def test_family_shape_verifies():
    lat = AmbientLattice(11)
    classes = [lat.e(10) - lat.e(11), lat.vector([6] + [-2] * 10 + [-1])]
    report = verify_cp_configuration(classes, 3)
    assert report.ok
    assert report.squares == (-2, -5)


def test_wrong_square_reported_first():
    lat = AmbientLattice(2)
    report = verify_cp_configuration([lat.e(1), lat.vector([0, 1, 2])], 3)
    assert not report.ok
    assert report.violation == ChainViolation("square", (1,), -2, -1)


def test_wrong_consecutive_pairing_reported():
    lat = AmbientLattice(3)
    classes = [lat.e(1) - lat.e(2), lat.vector([0, 2, 1, 0])]
    report = verify_cp_configuration(classes, 3)
    assert not report.ok
    assert report.violation == ChainViolation("consecutive_pairing", (1, 2), 1, -1)


def test_distant_pairing_reported_lexicographically():
    lat = AmbientLattice(5)
    classes = [
        lat.e(1) - lat.e(2),
        lat.e(2) - lat.e(3),
        lat.vector([0, 1, 0, 1, 2, 0]),
    ]
    report = verify_cp_configuration(classes, 4)
    assert not report.ok
    assert report.violation == ChainViolation("distant_pairing", (1, 3), 0, -1)
    # body on the index cycle 1, 2, 3, 1: squares and consecutive pairings
    # hold, u_1 meets both u_3 and the long class, and (1, 3) comes first
    lat = AmbientLattice(7)
    classes = [lat.e(1) - lat.e(2), lat.e(2) - lat.e(3), lat.e(3) - lat.e(1)]
    classes.append(lat.vector([0, 1, 0, 0, 2, 1, 1, 0]))
    report = verify_cp_configuration(classes, 5)
    assert intersection_matrix(classes)[0][3] == -1
    assert report.violation == ChainViolation("distant_pairing", (1, 3), 0, 1)


@pytest.mark.parametrize("p", range(3, 10))
def test_reversed_chain_never_verifies(p):
    """The long class must come last, so the reversal always fails."""
    classes = list(standard_configuration(p).classes)
    assert not verify_cp_configuration(classes[::-1], p).ok


def test_wrong_length_rejected():
    lat = AmbientLattice(1)
    with pytest.raises(ArityError):
        verify_cp_configuration([lat.vector([0, 2])], 3)


def test_small_p_rejected():
    lat = AmbientLattice(1)
    with pytest.raises(DomainError):
        verify_cp_configuration([lat.vector([0, 2])], 1)


def test_mixed_lattices_rejected():
    a = AmbientLattice(2)
    b = AmbientLattice(3)
    with pytest.raises(LatticeMismatchError):
        verify_cp_configuration([a.e(1) - a.e(2), b.vector([0, 1, 1, 2])], 3)


def test_constructor_rejects_bad_configuration():
    lat = AmbientLattice(1)
    with pytest.raises(InvalidConfigurationError) as exc:
        CpConfiguration(p=2, classes=(lat.vector([0, 1]),))
    assert exc.value.report.violation == ChainViolation("square", (1,), -4, -1)


def test_constructor_accepts_good_configuration():
    cfg = CpConfiguration(p=3, classes=tuple(family_classes(3, 1)))
    assert cfg.rank == 2
    assert cfg.lattice == AmbientLattice(11)
    assert cfg.report() == verify_cp_configuration(cfg.classes, 3)


def reference_report(classes, p):
    """Scan intersection_matrix in the documented order: squares, then
    consecutive pairings, then distant pairs lexicographically."""
    gram = intersection_matrix(classes)
    cells = [("square", (i,), expected_square(i, p), gram[i - 1][i - 1]) for i in range(1, p)]
    cells += [("consecutive_pairing", (i, i + 1), 1, gram[i - 1][i]) for i in range(1, p - 1)]
    cells += [
        ("distant_pairing", (i, j), 0, gram[i - 1][j - 1])
        for i in range(1, p)
        for j in range(i + 2, p)
    ]
    bad = [ChainViolation(*cell) for cell in cells if cell[2] != cell[3]]
    squares = tuple(gram[i][i] for i in range(p - 1))
    return ChainReport(p=p, ok=not bad, violation=bad[0] if bad else None, squares=squares)


@st.composite
def bodies_with_tails(draw):
    """A standard chain, optionally corrupted in the body, plus several tails
    (each optionally corrupted) that all share that one body."""
    p = draw(st.integers(2, 6))
    n = draw(st.integers(p - 1, p + 2))
    rows = [list(u.coeffs) for u in standard_configuration(p, n).classes]
    small = st.integers(-2, 2).filter(bool)
    if p > 2 and draw(st.booleans()):
        rows[draw(st.integers(0, p - 3))][draw(st.integers(0, n))] += draw(small)
    tails = []
    for _ in range(draw(st.integers(1, 4))):
        tail = list(rows[-1])
        for _ in range(draw(st.integers(0, 2))):
            tail[draw(st.integers(0, n))] += draw(small)
        tails.append(tail)
    if draw(st.booleans()):  # a random tail, far from any chain
        tails.append(draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)))
    return p, n, rows[:-1], tails


@settings(max_examples=200)
@given(bodies_with_tails())
def test_verifier_matches_reference_scan(case):
    p, n, body, tails = case
    lat = AmbientLattice(n)
    for tail in tails:
        classes = [lat.vector(row) for row in body + [tail]]
        assert verify_cp_configuration(classes, p) == reference_report(classes, p)


@pytest.fixture
def body_cache(monkeypatch):
    """An empty per-body cache behind a fresh last-body memo."""
    _body_block.cache_clear()
    memo = _LastBody()
    monkeypatch.setattr(chains_module, "_last_body", memo)
    return memo


def builds_and_reuses(memo):
    info = _body_block.cache_info()
    return info.misses, info.hits + memo.hits


def test_shared_body_is_verified_once(body_cache):
    lat = AmbientLattice(11)
    body = lat.e(10) - lat.e(11)
    tails = ([6] + [-2] * 10 + [-1], [6] + [-2] * 10 + [1], [0] * 12)
    reports = [verify_cp_configuration([body, lat.vector(t)], 3) for t in tails]
    assert [r.ok for r in reports] == [True, False, False]
    assert builds_and_reuses(body_cache) == (1, 2)
    assert body_cache.hits == 2


def test_body_memo_matches_by_equality(body_cache):
    lat = AmbientLattice(11)
    tail = lat.vector([6] + [-2] * 10 + [-1])
    body = lat.e(10) - lat.e(11)
    twin = lat.vector(list(body.coeffs))
    assert twin.coeffs == body.coeffs and twin.coeffs is not body.coeffs
    CpConfiguration(p=3, classes=(body, tail))
    CpConfiguration(p=3, classes=(twin, tail))
    assert builds_and_reuses(body_cache) == (1, 1)
    # a different body is built, and the first one is still cached behind it
    other = lat.e(9) - lat.e(10)
    assert not verify_cp_configuration([other, tail], 3).ok
    assert builds_and_reuses(body_cache) == (2, 1)
    CpConfiguration(p=3, classes=(body, tail))
    assert builds_and_reuses(body_cache) == (2, 2)


def spy_on_class_vector_eq(monkeypatch) -> list:
    """The list that records every ClassVector.__eq__ call from now on."""
    calls = []
    original = ClassVector.__eq__

    def spy(self, other):
        calls.append((self, other))
        return original(self, other)

    monkeypatch.setattr(ClassVector, "__eq__", spy)
    return calls


def test_equal_distinct_body_is_built_once_and_then_held(body_cache, monkeypatch):
    """An equal body of distinct objects matches by value once; the memo
    then holds the new objects, so their next hits compare by identity."""
    lat = AmbientLattice(11)
    tail = lat.vector([6] + [-2] * 10 + [-1])
    body = lat.e(10) - lat.e(11)
    twin = lat.vector(list(body.coeffs))
    assert twin == body and twin is not body
    CpConfiguration(p=3, classes=(body, tail))
    CpConfiguration(p=3, classes=(twin, tail))
    assert builds_and_reuses(body_cache) == (1, 1)
    assert body_cache.last[0][0] is twin
    compared = spy_on_class_vector_eq(monkeypatch)
    CpConfiguration(p=3, classes=(twin, tail))
    assert compared == [] and builds_and_reuses(body_cache) == (1, 2)


def test_search_compares_classes_at_most_once_per_placement(body_cache, monkeypatch):
    """Hits of one placement share their body objects, so the memo matches
    them by identity and calls ClassVector.__eq__ only where the body
    changes. A second search builds equal but new bodies: each is compared
    by value once, its p - 2 classes, and then held."""
    template = family_question_template(7, "3-chain")
    placements = len(_placements(template))
    compared = spy_on_class_vector_eq(monkeypatch)
    hits = search(template)
    assert len(hits) == 3894
    assert len(compared) <= placements
    builds, _ = builds_and_reuses(body_cache)
    assert builds <= placements and body_cache.hits == len(hits) - builds
    compared.clear()
    again = search(template)
    assert len(compared) <= (template.p - 2) * placements
    assert builds_and_reuses(body_cache)[0] == builds
    assert again == hits and again[0].classes[0] is not hits[0].classes[0]


@st.composite
def sparse_bodies_with_tails(draw):
    """Any body on a random support (h column, one column or none included),
    or a standard chain's body, plus tails that often repeat their values
    on the support."""
    p = draw(st.integers(2, 5))
    n = draw(st.integers(p - 1, p + 2))
    coeff = st.integers(-3, 3)
    if draw(st.booleans()):
        body = [list(u.coeffs) for u in standard_configuration(p, n).classes[:-1]]
    else:
        support = draw(st.lists(st.integers(0, n), max_size=n + 1, unique=True))
        body = []
        for _ in range(p - 2):
            row = [0] * (n + 1)
            for k in support:
                row[k] = draw(coeff)
            body.append(row)
    standard_tail = list(standard_configuration(p, n).classes[-1].coeffs)
    row = st.lists(coeff, min_size=n + 1, max_size=n + 1)
    tails = draw(st.lists(st.one_of(st.just(standard_tail), row), min_size=1, max_size=6))
    return p, n, body, tails


def dense_check(classes, p):
    """(ok, tail pairings, tail square) read off the whole Gram matrix."""
    gram = intersection_matrix(classes)
    ok = gram == [list(row) for row in cp_gram(p)]
    return ok, tuple(row[-1] for row in gram[:-1]), gram[-1][-1]


@settings(max_examples=300)
@given(sparse_bodies_with_tails())
def test_check_rows_matches_the_dense_gram_matrix(case):
    p, n, body, tails = case
    lat = AmbientLattice(n)
    for tail in tails:
        classes = [lat.vector(row) for row in body + [tail]]
        ok, _block, pairings, square = _check_rows(classes, p)
        assert (ok, pairings, square) == dense_check(classes, p)


def test_more_support_values_than_the_memo_holds_stay_exact(body_cache):
    """A body with an h coefficient, met by more distinct support values
    than its pairing memo keeps, twice over: evicted values are paired again
    from the functionals, exactly."""
    lat = AmbientLattice(4)
    body = [lat.vector([1, 1, -1, 0, 0]), lat.vector([0, 0, 1, -1, 0])]
    tails = [lat.vector([x, y, x - y, 2 * y, 1]) for x in range(-9, 9) for y in range(-5, 5)]
    assert len(tails) > 2 * _PAIRINGS_CACHE_SIZE
    for _ in range(2):
        for tail in tails:
            ok, _block, pairings, square = _check_rows(body + [tail], 4)
            assert (ok, pairings, square) == dense_check(body + [tail], 4)
    pairings_memo = body_cache.last[1][-1]
    info = pairings_memo.cache_info()
    assert info.maxsize == _PAIRINGS_CACHE_SIZE
    assert info.currsize == _PAIRINGS_CACHE_SIZE
    assert info.misses == 2 * len(tails)


def test_search_pairs_the_body_once_per_run_value(body_cache):
    """The 3-chain a=7 template has one placement, whose 3,894 hits take
    three run values t: the body's pairing loop runs three times."""
    hits = search(family_question_template(7, "3-chain"))
    assert len(hits) == 3894
    *_, gather, pairings_memo = body_cache.last[1]
    assert len({gather(cfg.classes[-1].coeffs) for cfg in hits}) == 3
    info = pairings_memo.cache_info()
    assert (info.misses, info.hits) == (3, len(hits) - 3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_failing_tail_after_a_cached_body(body_cache, p):
    """A tail that fails against a memoized body gets the reference scan's
    violation, from the verifier and from the constructor alike, and each
    call runs the row check once: one memo lookup per call."""
    cfg = standard_configuration(p, p + 1)
    body, tail = cfg.classes[:-1], cfg.classes[-1]
    lat = cfg.lattice
    for k in range(lat.rank):
        bad = list(tail.coeffs)
        bad[k] += 1
        classes = body + (lat.vector(bad),)
        want = reference_report(classes, p)
        assert not want.ok
        assert verify_cp_configuration(classes, p) == want
        with pytest.raises(InvalidConfigurationError) as exc:
            CpConfiguration(p=p, classes=classes)
        assert exc.value.report == want
    assert builds_and_reuses(body_cache) == (1, 2 * lat.rank)


def assert_pairings_are_the_pairing_loop(cfg, x):
    assert cfg.pairings(x) == tuple(pairing(x, u) for u in cfg.classes)


@pytest.mark.parametrize("a, family", [(a, f) for a in (3, 4, 5, 6) for f in (1, 2)])
def test_pairings_on_family_chains(a, family):
    cfg = family_configuration(a, family)
    for i in range(cfg.lattice.rank):
        assert_pairings_are_the_pairing_loop(cfg, cfg.lattice.basis_vector(i))
    for u in cfg.classes:
        assert_pairings_are_the_pairing_loop(cfg, u)


@settings(max_examples=100)
@given(st.integers(2, 7), st.integers(0, 3), st.data())
def test_pairings_on_standard_chains(p, extra, data):
    n = p - 1 + extra
    cfg = standard_configuration(p, n)
    x = cfg.lattice.vector(data.draw(st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1)))
    assert_pairings_are_the_pairing_loop(cfg, x)
    assert cfg.pairings(cfg.classes[-1])[-2:] == ((1, -(p + 2)) if p > 2 else (-4,))


@settings(max_examples=100)
@given(bodies_with_tails(), st.data())
def test_pairings_on_generated_chains(case, data):
    """Generated chains that verify, paired with random classes of their lattice."""
    p, n, body, tails = case
    lat = AmbientLattice(n)
    x = lat.vector(data.draw(st.lists(st.integers(-4, 4), min_size=n + 1, max_size=n + 1)))
    for tail in tails:
        classes = tuple(lat.vector(row) for row in body + [tail])
        if verify_cp_configuration(classes, p).ok:
            assert_pairings_are_the_pairing_loop(CpConfiguration(p=p, classes=classes), x)


def test_pairings_refuse_a_class_of_another_lattice():
    cfg = standard_configuration(4)
    with pytest.raises(LatticeMismatchError, match="class lives in n = 5, configuration in n = 3"):
        cfg.pairings(AmbientLattice(5).h())


def test_json_round_trip(tmp_path):
    cfg = standard_configuration(5)
    payload = cfg.to_json()
    assert payload["p"] == 5
    assert payload["n"] == 4
    assert CpConfiguration.from_json(payload) == cfg
    for key, bad in (("p", 5.0), ("n", True), ("p", "5")):
        with pytest.raises(InputTypeError):
            CpConfiguration.from_json({**payload, key: bad})
    path = tmp_path / "cfg.json"
    path.write_text(__import__("json").dumps(payload))
    assert CpConfiguration.load(path) == cfg


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"p": 2, "classes": [[0, 1]]}, "missing key 'n'"),
        ({"p": 2, "n": 1, "classes": 5}, "malformed class data"),
        ({"p": 2, "n": 1, "classes": [5]}, "malformed class data"),
        ([2, 1, [[0, 1]]], "expected an object with p, n, classes"),
        ({"p": 3, "n": 2, "classes": [[0, 1, -1]]}, "C_3 needs exactly 2 classes, got 1"),
    ],
)
def test_from_json_schema_errors_are_package_errors(payload, message):
    """One parser behind from_json and the CLI: no bare KeyError or TypeError."""
    with pytest.raises(RbdcalcError, match=message):
        CpConfiguration.from_json(payload)


def test_intersection_matrices():
    lat = AmbientLattice(11)
    classes = [lat.e(10) - lat.e(11), lat.vector([6] + [-2] * 10 + [-1])]
    assert intersection_matrix(classes) == [[-2, 1], [1, -5]]
    assert intersection_matrix(standard_configuration(2).classes) == [[-4]]
    gram = intersection_matrix(family_classes(4, 1))
    assert len(gram) == 6
    for i in range(6):
        for j in range(6):
            if i == j:
                assert gram[i][j] == (-9 if i == 5 else -2)
            else:
                assert gram[i][j] == (1 if abs(i - j) == 1 else 0)
    assert abs(int_det(gram)) == 49


def test_lens_space_weights():
    assert lens_space_cf(2) == [4]
    assert lens_space_cf(3) == [5, 2]
    assert lens_space_cf(7) == [9, 2, 2, 2, 2, 2]
    with pytest.raises(DomainError):
        lens_space_cf(1)


@pytest.mark.parametrize("p", range(2, 13))
def test_lens_space_weights_evaluate_exactly(p):
    weights = lens_space_cf(p)
    assert weights == [p + 2] + [2] * (p - 2)
    assert evaluate_neg_cf(weights) == Fraction(p * p, p - 1)


def test_continued_fraction_evaluator_errors():
    with pytest.raises(DomainError):
        evaluate_neg_cf([])
    with pytest.raises(DomainError):
        evaluate_neg_cf([2, 1, 1])


@pytest.mark.parametrize("p", range(2, 13))
def test_standard_configuration_presents_cyclic_group(p):
    cfg = standard_configuration(p)
    diag = smith_normal_form(intersection_matrix(cfg.classes)).diagonal
    assert diag == (1,) * (p - 2) + (p * p,)


def test_standard_configuration_in_larger_lattice():
    cfg = standard_configuration(3, n=6)
    assert cfg.lattice == AmbientLattice(6)
    assert verify_cp_configuration(list(cfg.classes), 3).ok


def test_standard_configuration_needs_room():
    with pytest.raises(DomainError):
        standard_configuration(5, n=3)

"""Chain configurations, their verification report, and lens space data."""

import json
import re
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbdcalc.chains as chains_module
from rbdcalc.chains import (
    ChainReport,
    ChainViolation,
    CpConfiguration,
    _body_block,
    _check,
    _gather,
    check_tails,
    cp_gram,
    expected_square,
    lens_space_cf,
    parse_configuration,
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
from rbdcalc.lattice import AmbientLattice, ClassVector, pairing, row_pairing
from rbdcalc.search import SearchTemplate, search_hits

from families import family_classes, family_configuration
from oracles import det as int_det
from oracles import (
    configurations,
    evaluate_neg_cf,
    intersection_matrix,
    smith_normal_form,
    standard_configuration,
)
from probe_open_range import family_question_template


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
def body_cache():
    """An empty per-body cache."""
    _body_block.cache_clear()


def builds_and_reuses():
    info = _body_block.cache_info()
    return info.misses, info.hits


def test_shared_body_is_verified_once(body_cache):
    lat = AmbientLattice(11)
    body = lat.e(10) - lat.e(11)
    tails = ([6] + [-2] * 10 + [-1], [6] + [-2] * 10 + [1], [0] * 12)
    reports = [verify_cp_configuration([body, lat.vector(t)], 3) for t in tails]
    assert [r.ok for r in reports] == [True, False, False]
    assert builds_and_reuses() == (1, 2)


def test_body_memo_matches_by_equality(body_cache):
    lat = AmbientLattice(11)
    tail = lat.vector([6] + [-2] * 10 + [-1])
    body = lat.e(10) - lat.e(11)
    twin = lat.vector(list(body.coeffs))
    assert twin.coeffs == body.coeffs and twin.coeffs is not body.coeffs
    CpConfiguration(p=3, classes=(body, tail))
    CpConfiguration(p=3, classes=(twin, tail))
    assert builds_and_reuses() == (1, 1)
    # a different body is built, and the first one is still cached behind it
    other = lat.e(9) - lat.e(10)
    assert not verify_cp_configuration([other, tail], 3).ok
    assert builds_and_reuses() == (2, 1)
    CpConfiguration(p=3, classes=(body, tail))
    assert builds_and_reuses() == (2, 2)


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
    """An equal body of distinct objects matches the cached block by its
    coefficient rows; the check compares no classes."""
    lat = AmbientLattice(11)
    tail = lat.vector([6] + [-2] * 10 + [-1])
    body = lat.e(10) - lat.e(11)
    twin = lat.vector(list(body.coeffs))
    assert twin == body and twin is not body
    CpConfiguration(p=3, classes=(body, tail))
    CpConfiguration(p=3, classes=(twin, tail))
    assert builds_and_reuses() == (1, 1)
    compared = spy_on_class_vector_eq(monkeypatch)
    CpConfiguration(p=3, classes=(twin, tail))
    assert compared == [] and builds_and_reuses() == (1, 2)


def test_search_builds_the_body_block_without_dense_pairings(body_cache, monkeypatch):
    """The block pairs body rows through its sparse functionals, so building
    it for a 17-class body calls row_pairing on no pair of rows, where the
    dense double loop made (p - 2)^2 calls."""
    calls = []

    def counted(x, y):
        calls.append(1)
        return row_pairing(x, y)

    monkeypatch.setattr(chains_module, "row_pairing", counted)
    hits = search_hits(family_question_template(7, "3-chain"))
    assert hits.p == 19 and hits.count == 3894
    assert builds_and_reuses() == (1, 0) and calls == []


def test_search_compares_classes_at_most_once_per_placement(body_cache, monkeypatch):
    """Every hit of a search built through the constructor: its check reads
    coefficient rows and calls no ClassVector.__eq__, the one placement's
    body is built once and found in the cache for the other hits, and a
    second search, of an equal but new body, builds none and gives the
    same hits. The cache is cleared after the rows are checked, so the
    constructors alone are counted."""
    template = family_question_template(7, "3-chain")
    compared = spy_on_class_vector_eq(monkeypatch)
    rows = search_hits(template)
    _body_block.cache_clear()
    hits = configurations(rows)
    assert len(hits) == 3894
    assert len(compared) <= 1
    builds, reuses = builds_and_reuses()
    assert builds <= 1 and reuses == len(hits) - builds
    compared.clear()
    again = configurations(search_hits(template))
    assert len(compared) <= template.p - 2
    assert builds_and_reuses()[0] == builds
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
    """_check's result read off the whole Gram matrix: None when it is the
    C_p one, else the reference scan's report."""
    if intersection_matrix(classes) == [list(row) for row in cp_gram(p)]:
        return None
    return reference_report(classes, p)


def rows_of(classes):
    return tuple(u.coeffs for u in classes)


@settings(max_examples=300)
@given(sparse_bodies_with_tails())
def test_check_rows_matches_the_dense_gram_matrix(case):
    """Row by row and as one batch, whose report is the first failing row's."""
    p, n, body, tails = case
    lat = AmbientLattice(n)
    body = tuple(lat.vector(row) for row in body)
    wants = []
    for tail in tails:
        classes = body + (lat.vector(tail),)
        wants.append(dense_check(classes, p))
        assert _check(p, rows_of(body), (tuple(tail),), n + 1) == wants[-1]
    first = next((want for want in wants if want is not None), None)
    assert _check(p, rows_of(body), tails, n + 1) == first


def test_many_support_values_of_an_h_body_stay_exact():
    """A chain body with an h coefficient on a support with a gap, met by
    every row of the right square in a box: hundreds of distinct support
    values, each paired from the functionals, row by row and as one batch."""
    lat = AmbientLattice(5)
    body = (lat.vector([1, -1, -1, 0, -1, 0]), lat.vector([0, 0, 0, 0, 1, -1]))
    rows = rows_of(body)
    tails = [
        x for x in product(range(-2, 3), repeat=6)
        if x[0] ** 2 - sum(c * c for c in x[1:]) == -6
    ]
    wants = [dense_check(body + (lat.vector(tail),), 4) for tail in tails]
    assert 0 < wants.count(None) < len(wants)
    assert len({(x[:3] + x[4:]) for x in tails}) > 200
    for tail, want in zip(tails, wants):
        assert _check(4, rows, (tail,), 6) == want
    passing = tuple(t for t, want in zip(tails, wants) if want is None)
    assert _check(4, rows, passing, 6) is None
    assert _check(4, rows, tuple(tails), 6) == next(w for w in wants if w is not None)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_failing_tail_after_a_cached_body(body_cache, p):
    """A tail that fails against a cached body gets the reference scan's
    violation, from the verifier and from the constructor alike, and each
    call runs the row check once: one cache lookup per call."""
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
    assert builds_and_reuses() == (1, 2 * lat.rank)


@settings(max_examples=200)
@given(bodies_with_tails())
def test_check_tails_raises_the_constructor_report(case):
    """One body, many raw tails: check_tails passes exactly when the
    constructor accepts every tail, and otherwise raises the report the
    constructor raises for the first tail it rejects."""
    p, n, body, tails = case
    lat = AmbientLattice(n)
    body = tuple(map(tuple, body))
    classes = tuple(map(lat.vector, body))
    rows = [tuple(tail) for tail in tails]
    want = None
    for row in rows:
        try:
            CpConfiguration(p, classes + (lat.vector(row),))
        except InvalidConfigurationError as exc:
            want = exc.report
            break
    if want is None:
        check_tails(p, lat.rank, body, rows)
    else:
        with pytest.raises(InvalidConfigurationError) as exc:
            check_tails(p, lat.rank, body, rows)
        assert exc.value.report == want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_check_tails_refuses_a_row_of_the_wrong_length(p):
    """The rank is checked on every raw row, also at p = 2 where the body is
    empty and a short row can have the right square, with the message a
    ClassVector of that row gives."""
    cfg = standard_configuration(p, p + 1)
    body, tail = body_rows(cfg), cfg.classes[-1].coeffs
    for row in (tail[:-1], tail + (0,)):
        with pytest.raises(DomainError) as want:
            ClassVector(cfg.lattice, row)
        with pytest.raises(DomainError) as exc:
            check_tails(p, cfg.lattice.rank, body, [tail, row])
        assert str(exc.value) == str(want.value)


def test_check_tails_looks_the_body_up_once(body_cache):
    """Once per batch, however many tails: the constructor built the block,
    and each batch is one cache hit."""
    cfg = standard_configuration(5, 6)
    assert builds_and_reuses() == (1, 0)
    for batches in (1, 2):
        check_tails(5, cfg.lattice.rank, body_rows(cfg), [cfg.classes[-1].coeffs] * 10)
        assert builds_and_reuses() == (1, batches)


def test_check_tails_refuses_a_body_of_another_lattice_or_length():
    """The argument checks of the constructor, with its exception types and
    messages: a body row of another rank, a body of another length, p < 2."""
    cfg = standard_configuration(4, 5)
    body, tail = body_rows(cfg), cfg.classes[-1].coeffs
    with pytest.raises(LatticeMismatchError, match="^candidate classes live in different lattices$"):
        check_tails(4, cfg.lattice.rank + 1, body, [tail + (0,)])
    with pytest.raises(ArityError, match="^C_5 needs exactly 4 classes, got 3$"):
        check_tails(5, cfg.lattice.rank, body, [tail])
    with pytest.raises(DomainError, match="^need p >= 2, got p = 1$"):
        check_tails(1, cfg.lattice.rank, (), [tail])
    lat = AmbientLattice(6)
    classes = tuple(map(lat.vector, (row + (0,) for row in body))) + cfg.classes[-1:]
    for p, chosen in ((4, classes), (5, classes[1:]), (1, ())):
        with pytest.raises(RbdcalcError) as want:
            CpConfiguration(p, chosen)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            check_tails(p, cfg.lattice.rank, tuple(u.coeffs for u in chosen[:-1]), [tail])


def outcome(call):
    """What a call returns, or the type, message and report of what it raises."""
    try:
        return call()
    except RbdcalcError as exc:
        return type(exc), str(exc), getattr(exc, "report", None)


@settings(max_examples=100)
@given(st.lists(sparse_bodies_with_tails(), min_size=1, max_size=4), st.randoms())
def test_results_do_not_depend_on_call_history(cases, rng):
    """Verifier, constructor and batch calls on several bodies, interleaved,
    each body also with its last row bumped: each call gives the same result
    on a cold body cache, warm, and after the cache is cleared before every
    call."""
    calls = []
    for p, n, rows, tails in cases:
        lat = AmbientLattice(n)
        bumped = rows[:-1] + [rows[-1][:-1] + [rows[-1][-1] + 1]] if rows else rows
        for body in {tuple(map(tuple, body)) for body in (rows, bumped)}:
            for tail in tails:
                classes = tuple(map(lat.vector, body + (tail,)))
                calls += [partial(verify_cp_configuration, classes, p), partial(CpConfiguration, p, classes)]
            calls += [partial(check_tails, p, lat.rank, body, tails + extra) for extra in ([], [tails[0][:-1]])]
    rng.shuffle(calls)
    _body_block.cache_clear()
    first = [outcome(call) for call in calls]
    warm = [outcome(call) for call in calls]
    cold = []
    for call in calls:
        _body_block.cache_clear()
        cold.append(outcome(call))
    assert first == warm == cold


def contiguous(columns: set) -> bool:
    return not columns or max(columns) - min(columns) + 1 == len(columns)


def body_support(body) -> set:
    return {k for row in body for k, c in enumerate(row) if c}


def body_rows(cfg) -> tuple:
    """The coefficient rows of a configuration's body u_1..u_{p-2}."""
    return tuple(u.coeffs for u in cfg.classes[:-1])


@lru_cache(maxsize=None)
def passing_batch(kind):
    """(p, lattice, body rows, passing tail rows) for one kind of body support."""
    if kind == "h-body":
        # u_1 = h - e_1 - e_2 - e_4: the support {0, 1, 2, 4} holds the h
        # column and is not contiguous; tails by brute force over a box
        lat = AmbientLattice(4)
        body = ((1, -1, -1, 0, -1),)
        rows = [
            x for x in product(range(-3, 4), repeat=5)
            if x[0] ** 2 - sum(c * c for c in x[1:]) == -5 and x[0] + x[1] + x[2] + x[4] == 1
        ]
        return 3, lat, body, tuple(rows)
    if kind == "free-pairs":
        # u_1 = e_1 - e_3, u_2 = e_3 - e_5: a chain body on the separate
        # columns {1, 3, 5}; a tail pairs 0 with u_1 (x_1 = x_3) and 1 with
        # u_2 (x_5 = x_3 + 1); tails by brute force over a box
        lat = AmbientLattice(5)
        body = ((0, 1, 0, -1, 0, 0), (0, 0, 0, 1, 0, -1))
        rows = [
            x for x in product(range(-2, 3), repeat=6)
            if x[0] ** 2 - sum(c * c for c in x[1:]) == -6 and x[1] == x[3] == x[5] - 1
        ]
        return 4, lat, body, tuple(rows)
    template = {
        "empty": SearchTemplate.uniform(3, 2, 2),
        "contiguous": SearchTemplate.uniform(6, 5, 2),
    }[kind]
    hits = search_hits(template)
    return template.p, AmbientLattice(hits.n), hits.body, hits.expand()


def flip_a_support_sign(row, body):
    """The row with one nonzero support coefficient negated: the same
    square, and another pairing with the body row that meets that column."""
    k = next(k for k in sorted(body_support(body)) if row[k])
    return row[:k] + (-row[k],) + row[k + 1:]


CORRUPTIONS = {
    "bump": lambda row, body, k: row[:k] + (row[k] + 1,) + row[k + 1:],
    "short": lambda row, body, k: row[:-1],
    "long": lambda row, body, k: row + (0,),
    "pairings": lambda row, body, k: flip_a_support_sign(row, body),
}


def constructor_loop(p, lat, body, rows):
    """The exception the constructor raises for the first row it rejects, or None."""
    classes = tuple(ClassVector(lat, row) for row in body)
    for row in rows:
        try:
            CpConfiguration(p, classes + (ClassVector(lat, tuple(row)),))
        except (InvalidConfigurationError, DomainError) as exc:
            return exc
    return None


@st.composite
def batches_with_one_bad_row(draw):
    """Passing rows of one body, one of them corrupted, at the start, in the
    middle or at the end; rows as tuples or as lists, in a list."""
    kind = draw(st.sampled_from(("empty", "contiguous", "free-pairs", "h-body")))
    p, lat, body, passing = passing_batch(kind)
    corruption = draw(st.sampled_from(sorted(CORRUPTIONS)))
    if p == 2 and corruption == "pairings":
        corruption = "bump"  # an empty body has no pairings to break
    rows = draw(st.lists(st.sampled_from(passing), min_size=1, max_size=12))
    where = draw(st.sampled_from(("first", "middle", "last")))
    at = {"first": 0, "middle": len(rows) // 2, "last": len(rows) - 1}[where]
    k = draw(st.integers(0, lat.n))
    rows[at] = CORRUPTIONS[corruption](rows[at], body, k)
    if draw(st.booleans()):
        rows = [list(row) for row in rows]
    return p, lat, body, rows


@settings(max_examples=300)
@given(batches_with_one_bad_row())
def test_a_failing_batch_raises_what_the_constructor_raises(case):
    """The batch finds the bad row wherever it sits, and raises the
    exception type, message and report of the constructor's check on the
    first row that fails."""
    p, lat, body, rows = case
    want = constructor_loop(p, lat, body, rows)
    assert want is not None
    for given_rows in (rows, iter(rows)):
        with pytest.raises((InvalidConfigurationError, DomainError)) as got:
            check_tails(p, lat.rank, body, given_rows)
        assert type(got.value) is type(want)
        assert str(got.value) == str(want)
        assert getattr(got.value, "report", None) == getattr(want, "report", None)


@pytest.mark.parametrize("kind", ["empty", "contiguous", "free-pairs", "h-body"])
def test_passing_batches_pass_as_tuples_and_as_lists(kind):
    """Every kind of support: empty (p = 2), one contiguous run, separate
    columns, and the h column. A list row is checked as its tuple is, and
    an iterator of rows as their sequence is."""
    p, lat, body, rows = passing_batch(kind)
    assert len(rows) > 1 and constructor_loop(p, lat, body, rows) is None
    contiguous_support = contiguous(body_support(body))
    assert contiguous_support == (kind in ("empty", "contiguous"))
    assert (0 in body_support(body)) == (kind == "h-body")
    for given_rows in (rows, [list(row) for row in rows], iter(rows)):
        check_tails(p, lat.rank, body, given_rows)


@pytest.mark.parametrize(
    "support, sliced",
    [((), True), ((0,), True), ((3,), True), ((2, 3, 4), True), ((0, 2), False), ((1, 2, 4), False)],
)
def test_gather_reads_a_contiguous_support_as_one_slice(support, sliced):
    row = tuple(range(10, 16))
    gather = _gather(support)
    assert gather(row) == tuple(row[k] for k in support)
    assert ("slice" in repr(gather)) == sliced


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


def configuration_of(payload) -> CpConfiguration:
    """A payload through the one reader, then the constructor, as the CLI builds one."""
    p, classes = parse_configuration(payload)
    return CpConfiguration(p=p, classes=classes)


def test_json_round_trip(tmp_path):
    cfg = standard_configuration(5)
    payload = cfg.to_json()
    assert payload["p"] == 5
    assert payload["n"] == 4
    assert configuration_of(payload) == cfg
    for key, bad in (("p", 5.0), ("n", True), ("p", "5")):
        with pytest.raises(InputTypeError, match=f"{key} must be an integer"):
            parse_configuration({**payload, key: bad})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    assert configuration_of(json.loads(path.read_text())) == cfg


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"p": 2, "classes": [[0, 1]]}, "missing key 'n'"),
        ({"p": 2, "n": 1, "classes": 5}, "classes must be an array, got 5"),
        ({"p": 2, "n": 1, "classes": [5]}, "classes entry must be an array, got 5"),
        ([2, 1, [[0, 1]]], "expected an object with p, n, classes"),
        ({"p": 3, "n": 2, "classes": [[0, 1, -1]]}, "C_3 needs exactly 2 classes, got 1"),
        ({"p": 2, "n": 1, "classes": ["ab"]}, "classes entry must be an array, got 'ab'"),
        ({"p": 2, "n": 1, "classes": [{"a": 1}]}, "classes entry must be an array, got {'a': 1}"),
    ],
)
def test_from_json_schema_errors_are_package_errors(payload, message):
    """One reader of configuration payloads, behind the CLI and the library:
    no bare KeyError or TypeError."""
    with pytest.raises(RbdcalcError, match=message):
        configuration_of(payload)


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

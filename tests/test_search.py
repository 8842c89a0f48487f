"""Bounded configuration search and the open-range question probes."""

import gc
import hashlib
import json
from importlib.util import module_from_spec, spec_from_file_location
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rbdcalc.chains as chains_module
import rbdcalc.search as search_module
from rbdcalc.chains import (
    ChainViolation,
    CpConfiguration,
    verify_cp_configuration,
)
from rbdcalc.errors import (
    ConsistencyError,
    DomainError,
    InputTypeError,
    InvalidConfigurationError,
    SearchCapExceeded,
    TemplateError,
)
from rbdcalc.lattice import AmbientLattice, ClassVector
from rbdcalc.search import (
    DEFAULT_CAP,
    FamilySearchReport,
    SearchTemplate,
    _enumerate_placement,
    _expand,
    _placement,
    _placement_geometry,
    _solution_table,
    estimate_search_space,
    family_question_dimensions,
    family_question_template,
    search_family_questions,
    search_hits,
)

from families import family_configuration
from oracles import configurations, point_walk, theta_count


def brute_force_single_class(n, bound):
    """Every coefficient vector in the box whose square is -4."""
    hits = set()
    for coeffs in product(range(-bound, bound + 1), repeat=n + 1):
        if coeffs[0] ** 2 - sum(c * c for c in coeffs[1:]) == -4:
            hits.add(coeffs)
    return hits


def test_template_validation():
    with pytest.raises(DomainError):
        SearchTemplate(n=5, p=1, tail_bounds=(2,) * 6)
    with pytest.raises(DomainError):
        SearchTemplate(n=0, p=2, tail_bounds=(2,))
    with pytest.raises(DomainError):
        SearchTemplate(n=5, p=2, tail_bounds=(2,) * 5)
    with pytest.raises(DomainError):
        SearchTemplate(n=5, p=2, tail_bounds=(2,) * 5 + (-1,))
    with pytest.raises(TemplateError):
        SearchTemplate(n=3, p=5, tail_bounds=(2,) * 4)


def test_uniform_builder_and_json_round_trip():
    template = SearchTemplate.uniform(5, 2, 2)
    assert template.tail_bounds == (2,) * 6
    assert SearchTemplate.from_json(template.to_json()) == template


def test_from_json_broadcasts_integer_bounds():
    template = SearchTemplate.from_json({"n": 5, "p": 2, "tail_bounds": 2})
    assert template == SearchTemplate.uniform(5, 2, 2)
    for bad in (2.0, True, "2", [2, 2, 2, 2, 2, 1.5]):
        with pytest.raises(InputTypeError):
            SearchTemplate.from_json({"n": 5, "p": 2, "tail_bounds": bad})


def test_from_json_requires_a_boolean_and_a_string():
    """The two keys of the removed placement modes are read only at the
    values that select the anchored placement, and not kept; another value
    is refused naming its key, and bool("false") is True, so a string flag
    is refused as a value of another kind."""
    base = {"n": 5, "p": 2, "tail_bounds": 2}
    legacy = {"body_shape": "consecutive-differences", "symmetry_reduction": True}
    assert SearchTemplate.from_json({**base, **legacy}) == SearchTemplate.uniform(5, 2, 2)
    for key, value in [("symmetry_reduction", False), ("body_shape", "free-pairs")]:
        with pytest.raises(DomainError, match=f"^{key} must be"):
            SearchTemplate.from_json({**base, key: value})
    for bad in ("false", 0, None):
        with pytest.raises(InputTypeError):
            SearchTemplate.from_json({**base, "symmetry_reduction": bad})
    for bad in (3, None, ["free-pairs"]):
        with pytest.raises(InputTypeError):
            SearchTemplate.from_json({**base, "body_shape": bad})


def test_estimate_for_uniform_box():
    assert estimate_search_space(SearchTemplate.uniform(5, 2, 2)) == 3125


def test_estimate_groups_free_coordinates_by_bound():
    """One power per distinct bound: a wide box is sized without a product of
    one factor per coordinate, and mixed bounds give the same integer."""
    wide = SearchTemplate.from_json({"n": 200_000, "p": 2, "tail_bounds": 1})
    assert estimate_search_space(wide) == 3**200_000
    bounds = (4, 2, 0, 1, 2, 3, 1, 0, 2)
    mixed = SearchTemplate(n=8, p=2, tail_bounds=bounds)
    assert estimate_search_space(mixed) == 5 * 3 * 5 * 7 * 3 * 5


def placement_box(template):
    """Free-coordinate box times t range width of the placement walked."""
    free, _run, _end, t_range = _placement_geometry(template, _placement(template))
    return prod(2 * template.tail_bounds[i] + 1 for i in free) * len(t_range)


@st.composite
def small_boxes(draw):
    n = draw(st.integers(2, 5))
    p = draw(st.integers(3, n + 1))
    return n, p, draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))


@settings(max_examples=40)
@given(small_boxes())
def test_estimate_is_an_upper_bound_on_small_templates(case):
    """The estimate is the box the walk covers, on mixed bounds (zero
    bounds and empty t ranges included) and on uniform bounds."""
    n, p, bounds = case
    template = SearchTemplate(n=n, p=p, tail_bounds=tuple(bounds))
    assert estimate_search_space(template) == placement_box(template)
    uniform = SearchTemplate.uniform(n, p, bounds[0])
    assert estimate_search_space(uniform) == placement_box(uniform)


def test_cap_refused_before_enumeration():
    template = SearchTemplate.uniform(5, 2, 2)
    with pytest.raises(SearchCapExceeded) as exc:
        configurations(search_hits(template, cap=10))
    assert exc.value.estimate == 3125
    assert exc.value.cap == 10
    with pytest.raises(DomainError):
        configurations(search_hits(template, cap=0))
    assert DEFAULT_CAP >= 3125
    with pytest.raises(SearchCapExceeded):
        configurations(search_hits(SearchTemplate(n=4, p=3, tail_bounds=(5, 0, 0, 5, 5)), cap=1))


@pytest.mark.parametrize("h_bound", [10**5, 10**9])
@pytest.mark.parametrize("n, p, bounds", [(1, 2, (0,)), (3, 3, (2, 2, 2)), (4, 3, (2, 1, 2, 1))])
def test_huge_h_bound_costs_only_reachable_sums(n, p, bounds, h_bound):
    """h is solved, not counted in the estimate, so its bound must not size
    the work: the solution table keeps only the free sums the walk can
    reach, at most twice the placement's box, and the hits are those of a
    small h bound."""
    template = SearchTemplate(n=n, p=p, tail_bounds=(h_bound,) + bounds)
    geometry = _placement_geometry(template, _placement(template))
    free, _run, _end, t_range = geometry
    entries = sum(map(len, _solution_table(template, *geometry).values()))
    assert entries <= 2 * prod(2 * template.tail_bounds[i] + 1 for i in free) * len(t_range)
    small = SearchTemplate(n=n, p=p, tail_bounds=(10,) + bounds)
    huge = search_hits(template, cap=estimate_search_space(template))
    assert configurations(huge) == configurations(search_hits(small))


@st.composite
def walkable_templates(draw):
    """p = 2..5, e bounds 0..2 (zero bounds included), and an h bound below
    or far above the reach of the free box; boxes small enough for the
    point walk."""
    p = draw(st.integers(2, 5))
    n = draw(st.integers(max(p - 1, 1), p + 2))
    bounds = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    h_bound = draw(st.one_of(st.integers(0, 3), st.just(10**6)))
    template = SearchTemplate(n=n, p=p, tail_bounds=(h_bound, *bounds))
    assume(estimate_search_space(template) <= 20_000)
    return template


@settings(max_examples=60, deadline=None)
@given(walkable_templates())
def test_magnitude_walk_matches_the_point_walk(template):
    """Walking magnitudes gives one representative per sign orbit, with c0
    and the free magnitudes nonnegative, and expanding the signs at h and
    the free columns gives the tails of the walk over every signed point,
    each exactly once."""
    placement = _placement(template)
    reps = _enumerate_placement(template, placement)
    flips = (0,) + _placement_geometry(template, placement)[0]
    assert len(set(reps)) == len(reps)
    assert all(rep[i] >= 0 for rep in reps for i in flips)
    tails = _expand(flips, reps)
    assert len(set(tails)) == len(tails)
    assert sorted(tails) == sorted(point_walk(template, placement))


@pytest.mark.parametrize(
    "kind, a, count",
    [
        ("3-chain", 7, 3894),
        ("3-chain", 8, 912),
        ("3-chain", 9, 314),
        ("3-chain", 10, 120),
        ("3-chain", 11, 20),
        ("4-chain", 3, 315_488),
        ("4-chain", 4, 19_820),
        ("4-chain", 5, 584),
        ("4-chain", 6, 56),
    ],
)
def test_theta_count_gives_the_probe_counts(kind, a, count, monkeypatch):
    """The question counts from a DP over sums of squares; the walk is
    disabled, so no search runs."""
    monkeypatch.setattr(search_module, "_enumerate_placement", None)
    template = family_question_template(a, kind)
    assert theta_count(template.n, template.p, template.tail_bounds) == count


@settings(max_examples=40, deadline=None)
@given(walkable_templates())
def test_theta_count_matches_search_on_reduced_boxes(template):
    """The count of the one anchored placement, without a walk."""
    count = theta_count(template.n, template.p, template.tail_bounds)
    assert count == len(configurations(search_hits(template)))


def test_search_matches_brute_force():
    hits = configurations(search_hits(SearchTemplate.uniform(5, 2, 2)))
    assert len(hits) == 714
    assert {cfg.classes[0].coeffs for cfg in hits} == brute_force_single_class(5, 2)
    for cfg in hits[:20]:
        assert verify_cp_configuration(cfg.classes, 2).ok


@settings(max_examples=20)
@given(st.integers(1, 4), st.integers(0, 2))
def test_search_matches_brute_force_on_small_boxes(n, bound):
    hits = configurations(search_hits(SearchTemplate.uniform(n, 2, bound)))
    assert {cfg.classes[0].coeffs for cfg in hits} == brute_force_single_class(n, bound)


def test_search_is_deterministic():
    template = SearchTemplate.uniform(5, 2, 2)
    single = configurations(search_hits(template))
    assert configurations(search_hits(template)) == single


@pytest.mark.parametrize(
    "template",
    [
        family_question_template(7, "3-chain"),
        SearchTemplate.uniform(6, 3, 2),
        SearchTemplate.uniform(5, 4, 2),
        SearchTemplate.uniform(5, 2, 2),
    ],
)
def test_hits_sorted_by_all_class_coefficients(template):
    """(body, tail) keys order hits as the flat tuple of every class does."""
    hits = configurations(search_hits(template))
    assert hits == sorted(hits, key=lambda cfg: tuple(u.coeffs for u in cfg.classes))


def test_placement_rows_through_the_verifier():
    """Body rows e_x - e_y of a placement plus a raw tail, as search builds them."""
    lat = AmbientLattice(11)

    def classes(placement, tail):
        x, y = placement
        return [lat.e(x) - lat.e(y), lat.vector(tail)]

    tail = (6,) + (-2,) * 10 + (-1,)
    assert verify_cp_configuration(classes((10, 11), tail), 3).ok
    bad_tail = (6, -3) + (-2,) * 9 + (-1,)
    assert verify_cp_configuration(classes((10, 11), bad_tail), 3).violation == (
        ChainViolation("square", (2,), -5, -10)
    )
    # placement (10, 10) gives a zero body row
    assert verify_cp_configuration(classes((10, 10), tail), 3).violation == (
        ChainViolation("square", (1,), -2, 0)
    )
    assert verify_cp_configuration(classes((9, 10), tail), 3).violation == (
        ChainViolation("consecutive_pairing", (1, 2), 1, 0)
    )


def test_corrupted_hit_raises_consistency_error(monkeypatch):
    """A hit the verifier rejects is an enumerator bug, not a user error: a
    corrupted representative is refused before any hit is built."""
    enumerate_placement = search_module._enumerate_placement

    def corrupted(template, placement):
        reps = enumerate_placement(template, placement)
        rep = reps[0]
        return [(rep[0] + 1,) + rep[1:]] + reps[1:]

    monkeypatch.setattr(search_module, "_enumerate_placement", corrupted)
    with pytest.raises(ConsistencyError, match="fails the Gram check"):
        configurations(search_hits(family_question_template(11, "3-chain")))


def test_enumerate_placement_leaves_no_reference_cycle():
    """The walk refers to itself through its closure cell; the cell is
    cleared after the walk, so a call leaves nothing for the cyclic
    collector and its representatives, table and point go on return."""
    template = family_question_template(8, "3-chain")
    gc.disable()
    try:
        gc.collect()
        assert len(_enumerate_placement(template, _placement(template))) == 74
        assert gc.collect() == 0
    finally:
        gc.enable()


def corrupt_first_tail(monkeypatch, template, corrupt):
    """Make the enumerator return its first representative changed by
    `corrupt`; the (body, bad representative) pair the searches will meet."""
    body = search_hits(template).body
    enumerate_placement = search_module._enumerate_placement
    placement = _placement(template)
    reps = enumerate_placement(template, placement)
    bad = corrupt(reps[0], _placement_geometry(template, placement)[0])

    def corrupted(template, placement):
        return [bad] + enumerate_placement(template, placement)[1:]

    monkeypatch.setattr(search_module, "_enumerate_placement", corrupted)
    return body, bad


def bump_c0(tail, free):
    return (tail[0] + 1,) + tail[1:]


def bump_free(tail, free):
    k = free[0]
    return tail[:k] + (tail[k] + 1,) + tail[k + 1 :]


def orbit_of(template, row):
    """The sign orbit of one row of the template's one placement."""
    return _expand((0,) + _placement_geometry(template, _placement(template))[0], [row])


@pytest.mark.parametrize("corrupt", [bump_c0, bump_free])
def test_search_hits_keep_the_gram_check(monkeypatch, corrupt):
    """A representative the row check rejects is an enumerator bug:
    search_hits raises ConsistencyError around the report the constructor
    gives that row, and the constructor gives every member of the row's
    sign orbit the same report, since the members of an orbit share their
    Gram matrix."""
    template = family_question_template(11, "3-chain")
    body, bad = corrupt_first_tail(monkeypatch, template, corrupt)
    lat = AmbientLattice(template.n)
    with pytest.raises(InvalidConfigurationError) as want:
        CpConfiguration(template.p, body + (ClassVector(lat, bad),))
    with pytest.raises(ConsistencyError, match="fails the Gram check") as rows:
        configurations(search_hits(template))
    assert rows.value.__cause__.report == want.value.report
    assert str(want.value) in str(rows.value)
    orbit = orbit_of(template, bad)
    assert len(orbit) > 1
    for tail in orbit:
        with pytest.raises(InvalidConfigurationError) as member:
            CpConfiguration(template.p, body + (ClassVector(lat, tail),))
        assert member.value.report == want.value.report


@pytest.mark.parametrize(
    "template", [family_question_template(11, "3-chain"), SearchTemplate.uniform(3, 2, 2)]
)
@pytest.mark.parametrize("cut", [lambda tail: tail[:-1], lambda tail: tail + (0,)])
def test_search_hits_refuse_a_tail_of_the_wrong_length(monkeypatch, template, cut):
    """The row check reads the lattice rank, also at p = 2 where the body is
    empty, and raises what ClassVector raises on each member of that
    representative's orbit: the expansion keeps a row's length."""
    if template.p == 2:
        bad = cut(search_module._enumerate_placement(template, ())[0])
        monkeypatch.setattr(search_module, "_enumerate_placement", lambda t, pl: [bad])
    else:
        _, bad = corrupt_first_tail(monkeypatch, template, lambda tail, free: cut(tail))
    with pytest.raises(DomainError) as rows:
        configurations(search_hits(template))
    for tail in orbit_of(template, bad):
        with pytest.raises(DomainError) as want:
            ClassVector(AmbientLattice(template.n), tail)
        assert type(rows.value) is type(want.value)
        assert str(rows.value) == str(want.value)


def test_search_hits_refuse_a_flip_column_on_the_body(monkeypatch):
    """A sign flip is taken on trust only where every body row is 0: a flip
    column on the body support raises ConsistencyError before any row is
    checked, and the constructor rejects every hit that flip adds."""
    template = family_question_template(8, "3-chain")
    body = search_hits(template).body
    placement = _placement(template)
    reps = _enumerate_placement(template, placement)
    free, run, end, t_range = _placement_geometry(template, placement)
    monkeypatch.setattr(search_module, "_enumerate_placement", lambda t, pl: reps)
    monkeypatch.setattr(
        search_module, "_placement_geometry", lambda t, pl: (free + (end,), run, end, t_range)
    )
    with pytest.raises(ConsistencyError, match=rf"sign-flip columns \[{end}\] meet the body"):
        configurations(search_hits(template))
    flips = (0,) + free
    flipped = set(_expand(flips + (end,), reps)) - set(_expand(flips, reps))
    assert flipped
    lat = AmbientLattice(template.n)
    for tail in flipped:
        with pytest.raises(InvalidConfigurationError):
            CpConfiguration(template.p, body + (ClassVector(lat, tail),))


@pytest.mark.parametrize("a, rows, count", [(7, 163, 3894), (8, 74, 912)])
def test_search_hits_check_one_row_per_sign_orbit(monkeypatch, a, rows, count):
    """check_tails receives one representative per sign orbit, and the
    orbits expand to every hit."""
    checked = []
    check_tails = search_module.check_tails

    def counted(p, lattice, body, tails):
        checked.extend(tails)
        return check_tails(p, lattice, body, tails)

    monkeypatch.setattr(search_module, "check_tails", counted)
    hits = search_hits(family_question_template(a, "3-chain"))
    assert (len(checked), hits.count) == (rows, count)


def assert_rows_agree_with_search(template):
    """Every hit passes the constructor on its own, and the configurations
    give back the rows: the body, shared by every hit, and the tails,
    sorted."""
    hits = search_hits(template)
    built = configurations(hits)
    assert all(cfg.classes[:-1] == hits.body for cfg in built)
    assert len(hits.body) == template.p - 2
    assert built == sorted(built, key=lambda cfg: tuple(u.coeffs for u in cfg.classes))
    assert hits.tails == tuple(cfg.classes[-1].coeffs for cfg in built)
    assert hits.count == len(built)
    return hits


@settings(max_examples=60, deadline=None)
@given(walkable_templates())
def test_search_hits_agree_with_search_on_small_templates(template):
    """Hit for hit and in order, on p = 2..5."""
    assert_rows_agree_with_search(template)


@pytest.mark.parametrize(
    "template, count",
    [
        (SearchTemplate.uniform(5, 2, 2), 714),
        (SearchTemplate.uniform(6, 3, 2), 466),
        (SearchTemplate.uniform(5, 4, 2), 61),
        (SearchTemplate.uniform(5, 3, 2), 206),
        (family_question_template(7, "3-chain"), 3894),
    ],
)
def test_search_hits_agree_with_search_hit_for_hit(template, count):
    """p = 2 has an empty body, the others the anchored run."""
    assert assert_rows_agree_with_search(template).count == count


def test_search_hits_build_no_configuration(monkeypatch):
    """Rows are checked, not built: no CpConfiguration is made until asked."""
    template = family_question_template(8, "3-chain")

    def refuse(self):
        raise AssertionError("a CpConfiguration was built")

    monkeypatch.setattr(CpConfiguration, "__post_init__", refuse)
    assert search_hits(template).count == 912
    assert search_family_questions(8, "3-chain").count == 912
    with pytest.raises(AssertionError):
        configurations(search_hits(template))


def test_search_hits_check_a_passing_placement_as_one_batch(monkeypatch):
    """The 3-chain a=7 template has one placement: the representatives of
    its 3,894 hits pass the batch, so no row is checked on its own, and the
    body is paired once per distinct support value, its three run values."""
    body_block = chains_module._body_block
    paired = []

    def counted_block(body):
        *block, pairings = body_block(body)

        def counted(values):
            paired.append(values)
            return pairings(values)

        return (*block, counted)

    monkeypatch.setattr(chains_module, "_body_block", counted_block)
    hits = search_hits(family_question_template(7, "3-chain"))
    assert hits.count == 3894
    assert len(paired) == len(set(paired)) == 3


@pytest.mark.parametrize(
    "kind, a, count",
    [
        ("3-chain", 8, 912),
        ("3-chain", 9, 314),
        ("3-chain", 10, 120),
        ("3-chain", 11, 20),
        ("4-chain", 3, 315_488),
        ("4-chain", 4, 19_820),
        ("4-chain", 5, 584),
        ("4-chain", 6, 56),
    ],
)
def test_search_hits_give_the_probe_counts(kind, a, count):
    report = search_family_questions(a, kind)
    assert report.count == len(report.hits.tails) == count


def test_question_dimensions():
    assert family_question_dimensions(3, "3-chain") == (11, 3)
    assert family_question_dimensions(8, "3-chain") == (26, 23)
    assert family_question_dimensions(6, "4-chain") == (26, 25)
    with pytest.raises(DomainError):
        family_question_dimensions(3, "5-chain")


def test_question_template_shape():
    template = family_question_template(8, "3-chain")
    assert template.n == 26
    assert template.p == 23
    assert template.tail_bounds == (11, 7) + (2,) * 24 + (1,)
    with pytest.raises(TemplateError):
        family_question_template(13, "3-chain")


def test_question_probe_rediscovers_the_family():
    report = search_family_questions(11, "3-chain")
    assert report.count == 20
    assert "homological only" in report.label
    model = family_configuration(11, 1)
    built = configurations(report.hits)
    assert model in built
    for cfg in built:
        assert verify_cp_configuration(cfg.classes, cfg.p).ok


def test_question_probe_empty_past_the_family():
    template = family_question_template(12, "3-chain")
    assert estimate_search_space(template) == 3
    assert configurations(search_hits(template)) == []


def test_four_chain_probe():
    report = search_family_questions(6, "4-chain")
    assert report.count == 56
    assert report.template.p == 25


def load_probe_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "probe_open_range.py"
    spec = spec_from_file_location("probe_open_range", path)
    script = module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_probe_script_labels_shaped_and_uniform_alike():
    script = load_probe_script()
    uniform = script.probe(11, "3-chain", 1, DEFAULT_CAP)
    shaped = script.probe(11, "3-chain", None, DEFAULT_CAP)
    assert uniform["status"] == shaped["status"] == "ok"
    assert uniform["label"] == shaped["label"] == FamilySearchReport.label
    assert "homological only, inside the searched box" in shaped["label"]


def test_probe_script_rows_match_golden_digest():
    """The probe rows of the six questions the bench runs."""
    script = load_probe_script()
    lines = []
    for kind, a in [("3-chain", a) for a in range(8, 12)] + [("4-chain", 5), ("4-chain", 6)]:
        row = script.probe(a, kind, None, DEFAULT_CAP)
        lines.append(json.dumps(row, sort_keys=True) + "\n")
    digest = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
    assert digest == "2daeda0a31afe909dec0e24f56de4cdda9da791c1089c976b9381852d2a6775e"


def test_probe_script_writes_each_row_as_its_json_dumps(capsys, monkeypatch):
    """write_row writes the tails in chunks after the rest of the row; the
    bytes are json.dumps(row, sort_keys=True) and a newline, with a partial
    last chunk, whole chunks only, no tails, and a row without tails."""
    script = load_probe_script()
    monkeypatch.setattr(script, "TAILS_CHUNK", 8)
    rows = [
        script.probe(10, "3-chain", None, DEFAULT_CAP),  # 120 tails: 15 chunks
        script.probe(11, "3-chain", None, DEFAULT_CAP),  # 20 tails: 2 chunks and 4
        {"a": 1, "count": 0, "status": "ok", "tails": []},
        script.probe(10, "3-chain", None, 1),  # cap-exceeded: no tails
    ]
    assert [len(row.get("tails", ())) for row in rows] == [120, 20, 0, 0]
    expected = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    for row in rows:
        script.write_row(row)
    assert capsys.readouterr().out == expected


def test_question_probe_validation():
    with pytest.raises(DomainError):
        search_family_questions(3, "5-chain")
    with pytest.raises(DomainError):
        search_family_questions(12, "3-chain")
    with pytest.raises(DomainError):
        search_family_questions(7, "4-chain")

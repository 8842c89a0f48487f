"""Bounded configuration search and the open-range question probes."""

import hashlib
import json
import time
from importlib import import_module
from importlib.util import module_from_spec, spec_from_file_location
from itertools import permutations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbdcalc.chains import ChainViolation, verify_cp_configuration
from rbdcalc.errors import (
    ConsistencyError,
    DomainError,
    InputTypeError,
    SearchCapExceeded,
    TemplateError,
)
from rbdcalc.families import family_configuration
from rbdcalc.lattice import AmbientLattice
from rbdcalc.search import (
    DEFAULT_CAP,
    FamilySearchReport,
    SearchTemplate,
    _placement_geometry,
    _placements,
    _solution_table,
    estimate_search_space,
    family_question_dimensions,
    family_question_template,
    search,
    search_family_questions,
)


# the package re-exports the search function under the module's name
search_module = import_module("rbdcalc.search")


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
    with pytest.raises(DomainError):
        SearchTemplate(n=5, p=2, tail_bounds=(2,) * 6, body_shape="spiral")
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
    """bool("false") is True, so a string flag would turn the reduction on."""
    base = {"n": 5, "p": 2, "tail_bounds": 2}
    off = SearchTemplate.from_json({**base, "symmetry_reduction": False})
    assert off.symmetry_reduction is False
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


def placement_box_sum(template):
    """Free-coordinate box times t range width, summed over every placement walked."""
    total = 0
    for placement in _placements(template):
        free, _run, _end, t_range = _placement_geometry(template, placement)
        total += prod(2 * template.tail_bounds[i] + 1 for i in free) * len(t_range)
    return total


def unreduced_free_pairs(bounds, p=3):
    return SearchTemplate(
        n=len(bounds) - 1,
        p=p,
        tail_bounds=tuple(bounds),
        body_shape="free-pairs",
        symmetry_reduction=False,
    )


@pytest.mark.parametrize(
    "bounds, p, true_sum",
    [
        ((5, 0, 0, 5, 5), 3, 108),
        ((3, 0, 0, 2, 2, 2, 2, 2, 2), 3, 150_000),
        ((2, 1, 0, 3, 0, 2), 4, None),
        ((1, 0, 4, 0, 1, 2), 3, None),
    ],
)
def test_unreduced_free_pairs_estimate_bounds_every_placement(bounds, p, true_sum):
    """The smallest-bound placement can have an empty t range; the estimate
    is still the sum of the boxes actually walked."""
    template = unreduced_free_pairs(bounds, p)
    walked = placement_box_sum(template)
    assert true_sum is None or walked == true_sum
    assert estimate_search_space(template) == walked > 0


@st.composite
def small_free_pairs_boxes(draw):
    n = draw(st.integers(2, 5))
    p = draw(st.integers(3, n + 1))
    return n, p, draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))


@settings(max_examples=40)
@given(small_free_pairs_boxes())
def test_estimate_is_an_upper_bound_on_small_templates(case):
    """The closed form equals the sum over every placement walked, on mixed
    and on uniform bounds."""
    n, p, bounds = case
    template = unreduced_free_pairs(bounds, p)
    assert estimate_search_space(template) == placement_box_sum(template)
    uniform = SearchTemplate.uniform(n, p, bounds[0], "free-pairs", symmetry_reduction=False)
    assert estimate_search_space(uniform) == placement_box_sum(uniform)


@settings(max_examples=40)
@given(small_free_pairs_boxes())
def test_unreduced_free_pairs_lists_exactly_the_walkable_placements(case):
    """Every injective sequence with a nonempty t range, and no other, so
    each listed placement counts at least 1 in the estimate."""
    n, p, bounds = case
    template = unreduced_free_pairs(bounds, p)
    walkable = {
        pl for pl in permutations(range(1, n + 1), p - 1) if _placement_geometry(template, pl)[3]
    }
    listed = _placements(template)
    assert len(listed) == len(set(listed)) and set(listed) == walkable


def test_unreduced_free_pairs_zero_estimate_lists_nothing():
    """With every e bound 0 each t range is empty, the estimate is 0, and
    the n(n - 1) empty placements are not built one by one."""
    n = 400
    template = unreduced_free_pairs((1,) + (0,) * n)
    assert estimate_search_space(template) == 0
    started = time.perf_counter()
    assert search(template, cap=1) == []
    assert time.perf_counter() - started < 0.5


def test_cap_refused_before_enumeration():
    template = SearchTemplate.uniform(5, 2, 2)
    with pytest.raises(SearchCapExceeded) as exc:
        search(template, cap=10)
    assert exc.value.estimate == 3125
    assert exc.value.cap == 10
    with pytest.raises(DomainError):
        search(template, cap=0)
    assert DEFAULT_CAP >= 3125
    with pytest.raises(SearchCapExceeded):
        search(unreduced_free_pairs((5, 0, 0, 5, 5)), cap=1)


@pytest.mark.parametrize("h_bound", [10**5, 10**9])
@pytest.mark.parametrize("n, p, bounds", [(1, 2, (0,)), (3, 3, (2, 2, 2)), (4, 3, (2, 1, 2, 1))])
def test_huge_h_bound_costs_only_reachable_sums(n, p, bounds, h_bound):
    """h is solved, not counted in the estimate, so its bound must not size
    the work: the solution table keeps only the free sums the walk can
    reach, at most twice the placement's box, and the hits are those of a
    small h bound."""
    template = SearchTemplate(n=n, p=p, tail_bounds=(h_bound,) + bounds)
    (placement,) = _placements(template)
    geometry = _placement_geometry(template, placement)
    free, _run, _end, t_range = geometry
    entries = sum(map(len, _solution_table(template, *geometry).values()))
    assert entries <= 2 * prod(2 * template.tail_bounds[i] + 1 for i in free) * len(t_range)
    small = SearchTemplate(n=n, p=p, tail_bounds=(10,) + bounds)
    assert search(template, cap=estimate_search_space(template)) == search(small)


def test_search_matches_brute_force():
    hits = search(SearchTemplate.uniform(5, 2, 2))
    assert len(hits) == 714
    assert {cfg.classes[0].coeffs for cfg in hits} == brute_force_single_class(5, 2)
    for cfg in hits[:20]:
        assert verify_cp_configuration(cfg.classes, 2).ok


@settings(max_examples=20)
@given(st.integers(1, 4), st.integers(0, 2))
def test_search_matches_brute_force_on_small_boxes(n, bound):
    hits = search(SearchTemplate.uniform(n, 2, bound))
    assert {cfg.classes[0].coeffs for cfg in hits} == brute_force_single_class(n, bound)


def test_search_is_deterministic():
    template = SearchTemplate.uniform(5, 2, 2)
    single = search(template)
    assert search(template) == single


@pytest.mark.parametrize(
    "template",
    [
        family_question_template(7, "3-chain"),
        SearchTemplate.uniform(6, 3, 2, symmetry_reduction=False),
        SearchTemplate.uniform(5, 3, 2, body_shape="free-pairs", symmetry_reduction=False),
        SearchTemplate.uniform(5, 2, 2),
    ],
)
def test_hits_sorted_by_all_class_coefficients(template):
    """(body, tail) keys order hits as the flat tuple of every class does."""
    hits = search(template)
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
    """A hit the verifier rejects is an enumerator bug, not a user error."""
    enumerate_placement = search_module._enumerate_placement

    def corrupted(template, placement):
        hits = enumerate_placement(template, placement)
        pl, tail = hits[0]
        return [(pl, (tail[0] + 1,) + tail[1:])] + hits[1:]

    monkeypatch.setattr(search_module, "_enumerate_placement", corrupted)
    with pytest.raises(ConsistencyError, match="fails the Gram check"):
        search(family_question_template(11, "3-chain"))


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
    assert model in report.configurations
    for cfg in report.configurations:
        assert verify_cp_configuration(cfg.classes, cfg.p).ok


def test_question_probe_empty_past_the_family():
    template = family_question_template(12, "3-chain")
    assert estimate_search_space(template) == 3
    assert search(template) == []


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
    assert "homological only" in shaped["label"]


def test_probe_script_rows_match_golden_digest():
    """The probe rows, wall time aside, of the six questions the bench runs."""
    script = load_probe_script()
    lines = []
    for kind, a in [("3-chain", a) for a in range(8, 12)] + [("4-chain", 5), ("4-chain", 6)]:
        row = script.probe(a, kind, None, DEFAULT_CAP)
        del row["seconds"]
        lines.append(json.dumps(row, sort_keys=True) + "\n")
    digest = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
    assert digest == "36716a71dc2f77d25fca947faecfa5a04198d8aad673b78f0ffb5f7cdb052104"


def test_question_probe_validation():
    with pytest.raises(DomainError):
        search_family_questions(3, "5-chain")
    with pytest.raises(DomainError):
        search_family_questions(12, "3-chain")
    with pytest.raises(DomainError):
        search_family_questions(7, "4-chain")

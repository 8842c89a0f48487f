"""Chamber bookkeeping for the blowdown invariant of a descended class."""

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbdcalc.chains import (
    CpConfiguration,
    cp_det,
    cp_divisors,
    cp_scaled_inverse,
)
from rbdcalc.errors import LatticeMismatchError, PreconditionError
from rbdcalc.lattice import AmbientLattice, pairing
from rbdcalc.sw import (
    CharacteristicData,
    PeriodPoint,
    d_invariant,
    lift_admissible,
    restriction_conditions,
    sw_on_blowdown,
    wall_crossing,
)

from families import (
    family_configuration,
    family_lift,
    family_period_point,
)
from oracles import cremona, det, intersection_matrix, smith_normal_form, standard_configuration

NINE_CASES = [(a, 1) for a in range(3, 8)] + [(a, 2) for a in range(3, 7)]


def family_inputs(a, family):
    cfg = family_configuration(a, family)
    k = CharacteristicData(family_lift(a, family))
    h = PeriodPoint(family_period_point(a, family))
    return cfg, k, h


def test_dimension_examples():
    lat = AmbientLattice(0)
    assert d_invariant(CharacteristicData(lat.vector([3]))) == 0
    lat10 = AmbientLattice(10)
    assert d_invariant(CharacteristicData(lat10.vector([1] + [1] * 10))) == -2


@settings(max_examples=150)
@given(st.integers(0, 12).flatmap(
    lambda n: st.lists(st.integers(-20, 19).map(lambda c: 2 * c + 1), min_size=n + 1, max_size=n + 1)
))
def test_dimension_is_an_even_integer_for_every_characteristic_class(coeffs):
    """Odd squares are 1 mod 8, so K^2 = 1 - n (mod 8) and d = (K^2 - 9 + n)/4
    is even for every characteristic K (van der Blij: K^2 = sigma mod 8)."""
    k = CharacteristicData(AmbientLattice(len(coeffs) - 1).vector(coeffs))
    d = d_invariant(k)
    assert 4 * d == k.k.square() - 9 + k.k.lattice.n
    assert d % 2 == 0


def test_characteristic_data_rejects_even_coefficients():
    lat = AmbientLattice(2)
    with pytest.raises(PreconditionError):
        CharacteristicData(lat.vector([3, -1, 0]))


def test_period_point_preconditions():
    lat = AmbientLattice(2)
    with pytest.raises(PreconditionError):
        PeriodPoint(lat.e(1))
    with pytest.raises(PreconditionError):
        PeriodPoint(lat.vector([-1, 0, 0]))
    with pytest.raises(PreconditionError):
        PeriodPoint(lat.vector([1, 1, 0]))


def test_wall_crossing_on_zero_dimensional_class():
    lat = AmbientLattice(10)
    k = CharacteristicData(lat.vector([3] + [-1] * 10))
    assert d_invariant(k) == 0
    pos = PeriodPoint(lat.h())
    neg = PeriodPoint(lat.vector([10] + [-3] * 9 + [-4]))
    assert pairing(k.k, pos.vector) == 3
    assert pairing(k.k, neg.vector) == -1
    assert wall_crossing(k, pos, neg, 0) == 1
    assert wall_crossing(k, neg, pos, 0) == -1
    assert wall_crossing(k, pos, pos, 7) == 7


def test_wall_crossing_on_two_dimensional_class():
    lat = AmbientLattice(18)
    k = CharacteristicData(lat.vector([5, 3] + [1] * 17))
    assert d_invariant(k) == 2
    start = PeriodPoint(lat.h())
    end = PeriodPoint(lat.vector([51, 30] + [10] * 17))
    assert end.vector.square() == 1
    assert pairing(k.k, end.vector) == -5
    assert wall_crossing(k, start, end, 0) == -1
    assert wall_crossing(k, end, start, 0) == 1


def test_wall_crossing_rejects_walls():
    lat = AmbientLattice(10)
    k = CharacteristicData(lat.vector([3] + [-1] * 10))
    wall = PeriodPoint(lat.vector([10] + [-3] * 10))
    assert wall.vector.square() == 10
    assert pairing(k.k, wall.vector) == 0
    chamber = PeriodPoint(lat.h())
    with pytest.raises(PreconditionError):
        wall_crossing(k, wall, chamber, 0)
    with pytest.raises(PreconditionError):
        wall_crossing(k, chamber, wall, 0)


def test_wall_crossing_rejects_negative_dimension():
    lat = AmbientLattice(10)
    k = CharacteristicData(lat.vector([1] + [1] * 10))
    with pytest.raises(PreconditionError):
        wall_crossing(k, PeriodPoint(lat.h()), PeriodPoint(lat.h()), 0)


def test_wall_crossing_rejects_foreign_period_point():
    lat = AmbientLattice(10)
    k = CharacteristicData(lat.vector([3] + [-1] * 10))
    with pytest.raises(LatticeMismatchError):
        wall_crossing(k, PeriodPoint(AmbientLattice(2).h()), PeriodPoint(lat.h()), 0)


def test_lift_admissibility_pairings():
    cfg = family_configuration(3, 1)
    report = lift_admissible(CharacteristicData(family_lift(3, 1)), cfg)
    assert report.ok
    assert report.pairings == (0, -3)
    cfg7 = family_configuration(7, 1)
    report7 = lift_admissible(CharacteristicData(family_lift(7, 1)), cfg7)
    assert report7.ok
    assert report7.pairings == (0,) * 17 + (-19,)


def test_inadmissible_lift_reported():
    cfg = family_configuration(3, 1)
    k = CharacteristicData(cfg.lattice.vector([1] + [1] * 11))
    report = lift_admissible(k, cfg)
    assert not report.ok
    assert report.pairings == (0, 27)


@pytest.mark.parametrize("p", [2, 5, 12])
def test_restriction_square_for_minimal_lifts(p):
    """K = h - e_1 - ... - e_{p-1} restricts with square exactly 1 - p."""
    cfg = standard_configuration(p)
    k = CharacteristicData(cfg.lattice.vector([1] + [-1] * (p - 1)))
    adm = lift_admissible(k, cfg)
    assert adm.ok
    report = restriction_conditions(adm)
    assert report.square == (1 - p, 1)
    assert report.gram_divisors == (1,) * (p - 2) + (p * p,)


def test_restriction_refuses_a_lift_that_does_not_descend():
    """A lift pairing 0, not +/-2, with the C_2 class (rational square 0)
    has no restriction certificate."""
    lat = AmbientLattice(4)
    cfg = CpConfiguration(2, (lat.vector([0, 1, 1, 1, 1]),))
    k = CharacteristicData(lat.vector([1, 1, 1, -1, -1]))
    adm = lift_admissible(k, cfg)
    assert (adm.ok, adm.pairings) == (False, (0,))
    with pytest.raises(PreconditionError, match=r"does not descend: pairings \[0\] are not"):
        restriction_conditions(adm)


def test_restriction_report_for_smallest_family_case():
    cfg = family_configuration(3, 1)
    report = restriction_conditions(lift_admissible(CharacteristicData(family_lift(3, 1)), cfg))
    assert report.square == (-2, 1)
    assert report.gram_divisors == (1, 9)
    payload = report.to_json()
    assert payload["square"] == [-2, 1]


def fraction_solve(mat, rhs):
    """Oracle: Gaussian elimination and back substitution over the
    rationals, for a regular M. Rows already zero in the pivot column are
    left alone, so a tridiagonal M costs O(n^2), not O(n^3)."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    x = [Fraction(0)] * n
    for r in reversed(range(n)):
        x[r] = (a[r][n] - sum(a[r][c] * x[c] for c in range(r + 1, n) if a[r][c])) / a[r][r]
    return x


def oracle_restriction(k, cfg):
    """(square, gram_divisors) from the configuration's own Gram matrix: a
    rational solve of Q x = k and a fresh Smith normal form."""
    q = intersection_matrix(cfg.classes)
    kv = [pairing(k.k, u) for u in cfg.classes]
    square = sum(a * b for a, b in zip(kv, fraction_solve(q, kv)))
    return square, smith_normal_form(q).diagonal


def move(coeffs, target, signs):
    """e_i -> signs[i-1] e_{target[i-1]}: an isometry fixing h."""
    row = [coeffs[0]] + [0] * (len(coeffs) - 1)
    for c, t, sign in zip(coeffs[1:], target, signs):
        row[t] = sign * c
    return row


def signed_permutation(cfg, target, signs):
    lat = cfg.lattice
    return CpConfiguration(cfg.p, tuple(lat.vector(move(u.coeffs, target, signs)) for u in cfg.classes))


@st.composite
def chains_and_admissible_lifts(draw, p):
    """A signed permutation of the standard C_p in n >= p - 1, and an
    admissible lift on it: an odd K whose coefficients on the chain's
    indices e_1..e_{p-1} are all s = +/-1, so that it pairs (0, ..., 0, -sp)
    with the chain; every admissible lift has this form."""
    n = draw(st.integers(p - 1, p + 2))
    odd = st.integers(-7, 6).map(lambda c: 2 * c + 1)
    coeffs = draw(st.lists(odd, min_size=n + 1, max_size=n + 1))
    coeffs[1:p] = [draw(st.sampled_from((1, -1)))] * (p - 1)
    target = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    cfg = signed_permutation(standard_configuration(p, n), target, signs)
    return cfg, CharacteristicData(cfg.lattice.vector(move(coeffs, target, signs)))


@pytest.mark.parametrize("p", range(2, 36))
@settings(max_examples=8)
@given(data=st.data())
def test_restriction_matches_rational_solve_oracle(p, data):
    """On every admissible lift, solving with the configuration's own Gram
    matrix gives the closed form's square 1 - p and divisors; p = 35 is the
    3-chain a = 11 probe question."""
    cfg, k = data.draw(chains_and_admissible_lifts(p))
    adm = lift_admissible(k, cfg)
    assert adm.ok
    report = restriction_conditions(adm)
    square, divisors = oracle_restriction(k, cfg)
    assert square == 1 - p
    assert report.square == (square.numerator, square.denominator)
    assert report.gram_divisors == divisors


@pytest.mark.parametrize("p", range(2, 41))
def test_closed_forms_match_the_chain_gram_smith_form_and_det(p):
    """cp_divisors, cp_det and cp_scaled_inverse against a fresh Smith form
    and Bareiss determinant of the configuration's own Gram matrix Q: the
    last row of U is row 1 of p^2 Q^{-1} mod p^2, and Q (p^2 Q^{-1} e_j) =
    p^2 e_j for every j."""
    cfg = standard_configuration(p, p + 1)
    moved = signed_permutation(cfg, list(range(p + 1, 0, -1)), [(-1) ** i for i in range(p + 1)])
    p2 = p * p
    unit = [[int(i == j) for j in range(p - 1)] for i in range(p - 1)]
    columns = [cp_scaled_inverse(p, e) for e in unit]
    for chain in (cfg, moved):
        q = intersection_matrix(chain.classes)
        s = smith_normal_form(q)
        assert cp_divisors(p) == s.diagonal
        assert cp_det(p) == det(q)
        assert [u % p2 for u in s.u[-1]] == [x % p2 for x in columns[0]]
        for e, x in zip(unit, columns):
            assert [sum(map(mul, row, x)) for row in q] == [p2 * c for c in e]


@pytest.mark.parametrize("a, family", NINE_CASES)
def test_pipeline_certifies_all_nine_cases(a, family):
    cfg, k, h = family_inputs(a, family)
    outcome = sw_on_blowdown(cfg, k, h)
    assert outcome.value == 1
    assert outcome.d == 0
    assert outcome.base_value == 0
    assert outcome.branch == "positive-to-negative"
    assert outcome.exotic_certificate
    assert outcome.note is None
    assert outcome.restriction.square == (1 - cfg.p, 1)


@pytest.mark.parametrize("a, family", NINE_CASES)
def test_pipeline_is_antisymmetric_in_the_class(a, family):
    cfg, k, h = family_inputs(a, family)
    negated = sw_on_blowdown(cfg, CharacteristicData(-k.k), h)
    assert negated.value == -1
    assert negated.branch == "negative-to-positive"
    assert negated.exotic_certificate


def shifted_lift_inputs():
    """The (cfg, K, H) of test_pipeline_positive_dimension_without_crossing:
    family 1 at a = 3 with K + 2H, d = 22, on the no-crossing branch."""
    cfg, k, h = family_inputs(3, 1)
    return cfg, CharacteristicData(k.k + 2 * h.vector), h


@st.composite
def fixture_images(draw):
    """One of the nine fixtures' (cfg, K, H), or shifted_lift_inputs(), under
    one to three isometries of Z^{1,n}: signed permutations of e_1..e_n, and
    Cremona reflections in h - e_i - e_j - e_k, which move h; K and H move
    with the classes."""
    cfg, k, h = draw(st.one_of(
        st.sampled_from(NINE_CASES).map(lambda case: family_inputs(*case)),
        st.builds(shifted_lift_inputs),
    ))
    n = cfg.lattice.n
    rows = [u.coeffs for u in cfg.classes] + [k.k.coeffs, h.vector.coeffs]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            rows = cremona(rows, *draw(st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True)))
        else:
            target = draw(st.permutations(range(1, n + 1)))
            signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
            rows = [move(row, target, signs) for row in rows]
    *classes, k_row, h_row = map(cfg.lattice.vector, rows)
    return CpConfiguration(cfg.p, tuple(classes)), CharacteristicData(k_row), PeriodPoint(h_row)


def test_negating_the_lift_negates_the_value():
    """-K keeps d and admissibility and flips the signs of K.h and K.H, so
    its value is -value on every branch of the crossing rule; each branch
    is drawn."""
    branches = set()

    @settings(max_examples=80)
    @given(fixture_images())
    def check(inputs):
        cfg, k, h = inputs
        outcome = sw_on_blowdown(cfg, k, h)
        negated = sw_on_blowdown(cfg, CharacteristicData(-k.k), h)
        assert negated.value == -outcome.value
        assert negated.d == outcome.d in (0, 22)
        assert negated.admissibility.ok and outcome.admissibility.ok
        assert negated.admissibility.pairings == tuple(-v for v in outcome.admissibility.pairings)
        branches.update((outcome.branch, negated.branch))

    check()
    assert branches == {"no-crossing", "positive-to-negative", "negative-to-positive"}


def test_pipeline_value_is_chamber_independent():
    cfg, k, h = family_inputs(3, 1)
    lat = cfg.lattice
    others = [
        PeriodPoint(5 * h.vector),
        PeriodPoint(lat.vector([69, -37, -17] + [-18] * 9)),
    ]
    for other in others:
        for u in cfg.classes:
            assert pairing(other.vector, u) == 0
        assert sw_on_blowdown(cfg, k, other).value == 1


def test_pipeline_rejects_nonorthogonal_period_point():
    cfg, k, _ = family_inputs(3, 1)
    with pytest.raises(PreconditionError, match="not orthogonal"):
        sw_on_blowdown(cfg, k, PeriodPoint(cfg.lattice.h()))


def test_pipeline_rejects_inadmissible_lift():
    cfg, _, h = family_inputs(3, 1)
    bad = CharacteristicData(cfg.lattice.vector([1] + [1] * 11))
    with pytest.raises(PreconditionError, match="does not descend"):
        sw_on_blowdown(cfg, bad, h)


def test_pipeline_rejects_a_lift_or_period_point_of_another_lattice():
    """The lift and H are paired with the configuration, which refuses a
    class of another lattice."""
    cfg, k, h = family_inputs(3, 1)
    other = AmbientLattice(cfg.lattice.n + 1)
    foreign_k = CharacteristicData(other.vector(k.k.coeffs + (1,)))
    foreign_h = PeriodPoint(other.vector(h.vector.coeffs + (0,)))
    with pytest.raises(LatticeMismatchError, match="configuration in n = 11"):
        sw_on_blowdown(cfg, foreign_k, h)
    with pytest.raises(LatticeMismatchError, match="configuration in n = 11"):
        sw_on_blowdown(cfg, k, foreign_h)


def test_pipeline_rejects_large_remaining_negative_part():
    cfg = standard_configuration(2, n=11)
    k = CharacteristicData(cfg.lattice.vector([1] + [1] * 11))
    with pytest.raises(PreconditionError, match="b2-"):
        sw_on_blowdown(cfg, k, PeriodPoint(cfg.lattice.h()))


def test_pipeline_negative_dimension_branch():
    cfg, _, h = family_inputs(3, 1)
    lat = cfg.lattice
    k = CharacteristicData(lat.vector([3, -3, 1] + [-1] * 9))
    assert lift_admissible(k, cfg).ok
    assert d_invariant(k) == -2
    outcome = sw_on_blowdown(cfg, k, h)
    assert outcome.value == 0
    assert outcome.branch == "negative-dimension"
    assert not outcome.exotic_certificate
    assert "vanishes in every chamber" in outcome.note


def test_pipeline_positive_dimension_without_crossing():
    cfg, k, h = family_inputs(3, 1)
    shifted = CharacteristicData(k.k + 2 * h.vector)
    assert d_invariant(shifted) == 22
    outcome = sw_on_blowdown(cfg, shifted, h)
    assert outcome.value == 0
    assert outcome.branch == "no-crossing"
    assert outcome.note is None
    assert not outcome.exotic_certificate


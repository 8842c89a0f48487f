"""Arithmetic in the odd unimodular lattice Z^{1,n}."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbdcalc.errors import DomainError, InputTypeError, LatticeMismatchError
from rbdcalc.lattice import (
    AmbientLattice,
    dual_coefficients,
    is_characteristic,
    orthogonal_complement_basis,
    pairing,
)
from rbdcalc.snf import smith_normal_form

from families import family_configuration


def coeff_lists(rank, bound=9):
    return st.lists(
        st.integers(min_value=-bound, max_value=bound),
        min_size=rank,
        max_size=rank,
    )


@st.composite
def vector_pairs(draw, count=2):
    lat = AmbientLattice(draw(st.integers(min_value=0, max_value=8)))
    vecs = [lat.vector(draw(coeff_lists(lat.rank))) for _ in range(count)]
    return (lat, *vecs)


def test_rank_and_signature():
    lat = AmbientLattice(11)
    assert lat.rank == 12


def test_rank_zero_lattice_is_just_h():
    lat = AmbientLattice(0)
    assert lat.rank == 1
    assert lat.h().square() == 1


def test_negative_exceptional_count_rejected():
    with pytest.raises(DomainError):
        AmbientLattice(-1)


def test_vector_length_must_match_rank():
    lat = AmbientLattice(2)
    with pytest.raises(DomainError):
        lat.vector([1, 2])


@pytest.mark.parametrize("bad", [1.9, 2.0, True, "1", None])
def test_vector_coefficients_must_be_integers(bad):
    """int() would truncate 1.9 and read true as 1; both are refused, and the
    message names the first bad value, also after a valid big int."""
    message = f"coefficient must be an integer, got {bad!r}"
    with pytest.raises(InputTypeError) as caught:
        AmbientLattice(2).vector([0, bad, 1])
    assert str(caught.value) == message
    with pytest.raises(InputTypeError) as caught:
        AmbientLattice(3).vector([10**40, bad, 2.5, 1])
    assert str(caught.value) == message


def test_basis_pairings():
    lat = AmbientLattice(3)
    assert pairing(lat.h(), lat.h()) == 1
    assert pairing(lat.e(1), lat.e(1)) == -1
    assert pairing(lat.h(), lat.e(1)) == 0
    assert pairing(lat.e(1), lat.e(2)) == 0


def test_pairing_example_chain_tail():
    lat = AmbientLattice(11)
    body = lat.e(10) - lat.e(11)
    tail = lat.vector([6] + [-2] * 10 + [-1])
    assert pairing(body, tail) == 1
    assert body.square() == -2
    assert tail.square() == -5
    assert (body + tail).square() == -5


def test_square_of_lightlike_vector():
    lat = AmbientLattice(1)
    assert lat.vector([1, 1]).square() == 0


def test_characteristic_examples():
    lat = AmbientLattice(11)
    assert is_characteristic(lat.vector([3] + [-1] * 11))
    assert not is_characteristic(lat.vector([3] + [-1] * 10 + [0]))
    assert is_characteristic(AmbientLattice(0).vector([1]))
    assert not is_characteristic(AmbientLattice(0).vector([2]))


def test_mixed_lattices_rejected():
    a = AmbientLattice(2)
    b = AmbientLattice(3)
    with pytest.raises(LatticeMismatchError):
        pairing(a.h(), b.h())
    with pytest.raises(LatticeMismatchError):
        a.h() + b.h()


def test_vector_algebra():
    lat = AmbientLattice(2)
    x = lat.vector([1, 2, 3])
    y = lat.vector([4, 0, -1])
    assert (x + y).coeffs == (5, 2, 2)
    assert (x - y).coeffs == (-3, 2, 4)
    assert (-x).coeffs == (-1, -2, -3)
    assert (2 * x).coeffs == (2, 4, 6)
    assert (x * 2).coeffs == (2, 4, 6)
    assert pairing(x, y) == 1 * 4 - 2 * 0 - 3 * (-1)


@given(vector_pairs())
def test_pairing_is_symmetric(data):
    _, x, y = data
    assert pairing(x, y) == pairing(y, x)


@given(vector_pairs(count=3), st.integers(-5, 5), st.integers(-5, 5))
def test_pairing_is_bilinear(data, a, b):
    _, x, y, z = data
    assert pairing(a * x + b * y, z) == a * pairing(x, z) + b * pairing(y, z)


@given(vector_pairs(count=1), st.integers(-7, 7))
def test_scaling_squares(data, c):
    _, x = data
    assert (c * x).square() == c * c * x.square()


@given(vector_pairs(count=1))
def test_characteristic_congruence_or_witness(data):
    lat, k = data
    if is_characteristic(k):
        for i in range(lat.rank):
            b = lat.basis_vector(i)
            assert (pairing(k, b) - b.square()) % 2 == 0
    else:
        assert any(
            (pairing(k, lat.basis_vector(i)) - lat.basis_vector(i).square()) % 2
            for i in range(lat.rank)
        )


@given(vector_pairs(count=1))
def test_dual_coefficients_agree_with_pairings(data):
    lat, x = data
    dual = dual_coefficients(x)
    assert len(dual) == lat.rank
    for i in range(lat.rank):
        assert dual[i] == pairing(x, lat.basis_vector(i))


def test_complement_of_one_exceptional_class():
    lat = AmbientLattice(2)
    basis = orthogonal_complement_basis([lat.e(1)])
    assert len(basis) == 2
    for v in basis:
        assert pairing(v, lat.e(1)) == 0
        assert v.coeffs[1] == 0
    cols = [[v.coeffs[i] for v in basis] for i in range(lat.rank)]
    assert smith_normal_form(cols).solve(list(lat.h().coeffs)) is not None
    assert smith_normal_form(cols).solve(list(lat.e(2).coeffs)) is not None


def test_complement_of_family_configuration():
    cfg = family_configuration(3, 1)
    basis = orthogonal_complement_basis(list(cfg.classes))
    assert len(basis) == 10
    for v in basis:
        for u in cfg.classes:
            assert pairing(v, u) == 0
    target = cfg.lattice.vector([23, -12] + [-6] * 10)
    cols = [[v.coeffs[i] for v in basis] for i in range(cfg.lattice.rank)]
    assert smith_normal_form(cols).solve(list(target.coeffs)) is not None


@given(vector_pairs(count=2))
def test_complement_rank_is_complementary(data):
    lat, x, y = data
    classes = [v for v in (x, y) if any(v.coeffs)]
    if not classes:
        return
    basis = orthogonal_complement_basis(classes)
    span_rank = smith_normal_form([list(v.coeffs) for v in classes]).rank
    assert len(basis) == lat.rank - span_rank
    for v in basis:
        for u in classes:
            assert pairing(v, u) == 0


def test_empty_complement_needs_a_lattice():
    with pytest.raises(DomainError):
        orthogonal_complement_basis([])


def test_json_round_trip():
    lat = AmbientLattice(2)
    x = lat.vector([5, -1, 2])
    assert x.to_json() == [5, -1, 2]
    assert lat.vector(x.to_json()) == x

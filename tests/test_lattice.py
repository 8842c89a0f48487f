"""Arithmetic on the class rows of the odd unimodular lattice Z^{1,n}."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbdcalc.errors import DomainError, InputTypeError, LatticeMismatchError
from rbdcalc.chains import CpConfiguration, parse_configuration
from rbdcalc.lattice import class_row, is_characteristic, row_pairing
from rbdcalc.snf import Section

from families import family_configuration
from oracles import (
    basis_row,
    combine,
    dual_coefficients,
    orthogonal_complement_basis,
    same_lattice,
    smith_normal_form,
)


def coeff_lists(rank, bound=9):
    return st.lists(
        st.integers(min_value=-bound, max_value=bound),
        min_size=rank,
        max_size=rank,
    )


@st.composite
def vector_pairs(draw, count=2):
    n = draw(st.integers(min_value=0, max_value=8))
    rows = [class_row(draw(coeff_lists(n + 1)), n) for _ in range(count)]
    return (n, *rows)


def test_rank_and_signature():
    """The form on the n + 1 basis rows of Z^{1,11} is diag(1, -1, ..., -1)."""
    basis = [basis_row(11, i) for i in range(12)]
    gram = [[row_pairing(x, y) for y in basis] for x in basis]
    assert gram == [[(1 if i == 0 else -1) * (i == j) for j in range(12)] for i in range(12)]


def test_rank_zero_lattice_is_just_h():
    h = class_row([1], 0)
    assert h == (1,)
    assert row_pairing(h, h) == 1


def test_negative_exceptional_count_rejected():
    """A payload with n < 0 is refused before its rows are read."""
    with pytest.raises(DomainError, match=r"^need n >= 0, got n = -1$"):
        parse_configuration({"p": 2, "n": -1, "classes": [[]]})


def test_vector_length_must_match_rank():
    with pytest.raises(DomainError, match=r"^expected 3 coefficients \(h first\), got 2$"):
        class_row([1, 2], 2)


@pytest.mark.parametrize("bad", [1.9, 2.0, True, "1", None])
def test_vector_coefficients_must_be_integers(bad):
    """int() would truncate 1.9 and read true as 1; both are refused, and the
    message names the first bad value, also after a valid big int."""
    message = f"coefficient must be an integer, got {bad!r}"
    with pytest.raises(InputTypeError) as caught:
        class_row([0, bad, 1], 2)
    assert str(caught.value) == message
    with pytest.raises(InputTypeError) as caught:
        class_row([10**40, bad, 2.5, 1], 3)
    assert str(caught.value) == message


def test_basis_pairings():
    h, e1, e2 = (basis_row(3, i) for i in range(3))
    assert row_pairing(h, h) == 1
    assert row_pairing(e1, e1) == -1
    assert row_pairing(h, e1) == 0
    assert row_pairing(e1, e2) == 0


def test_pairing_example_chain_tail():
    body = combine(1, basis_row(11, 10), -1, basis_row(11, 11))
    tail = class_row([6] + [-2] * 10 + [-1], 11)
    assert row_pairing(body, tail) == 1
    assert row_pairing(body, body) == -2
    assert row_pairing(tail, tail) == -5
    both = combine(1, body, 1, tail)
    assert row_pairing(both, both) == -5


def test_square_of_lightlike_vector():
    x = class_row([1, 1], 1)
    assert row_pairing(x, x) == 0


def test_characteristic_examples():
    assert is_characteristic(class_row([3] + [-1] * 11, 11))
    assert not is_characteristic(class_row([3] + [-1] * 10 + [0], 11))
    assert is_characteristic(class_row([1], 0))
    assert not is_characteristic(class_row([2], 0))


def test_mixed_lattices_rejected():
    """A row of another length is refused where rows meet a configuration
    or another class's lattice."""
    cfg = CpConfiguration(2, ((0, 2, 0),))
    with pytest.raises(LatticeMismatchError, match="class lives in n = 3, configuration in n = 2"):
        cfg.pairings((1, 0, 0, 0))
    with pytest.raises(LatticeMismatchError):
        orthogonal_complement_basis([(1, 0, 0), (1, 0, 0, 0)])


@given(vector_pairs())
def test_pairing_is_symmetric(data):
    _, x, y = data
    assert row_pairing(x, y) == row_pairing(y, x)


@given(vector_pairs(count=3), st.integers(-5, 5), st.integers(-5, 5))
def test_pairing_is_bilinear(data, a, b):
    _, x, y, z = data
    assert row_pairing(combine(a, x, b, y), z) == a * row_pairing(x, z) + b * row_pairing(y, z)


@given(vector_pairs(count=1), st.integers(-7, 7))
def test_scaling_squares(data, c):
    _, x = data
    cx = combine(c, x, 0, x)
    assert row_pairing(cx, cx) == c * c * row_pairing(x, x)


@given(vector_pairs(count=1))
def test_characteristic_congruence_or_witness(data):
    n, k = data
    basis = [basis_row(n, i) for i in range(n + 1)]
    defects = [(row_pairing(k, b) - row_pairing(b, b)) % 2 for b in basis]
    assert is_characteristic(k) == (not any(defects))


@given(vector_pairs(count=1))
def test_dual_coefficients_agree_with_pairings(data):
    n, x = data
    dual = dual_coefficients(x)
    assert len(dual) == n + 1
    for i in range(n + 1):
        assert dual[i] == row_pairing(x, basis_row(n, i))


def test_complement_of_one_exceptional_class():
    """The oracle's complement of e_1 is spanned by h and e_2, and so are
    the section's generators of the complement of the C_2 class 2 e_1."""
    h, e1, e2 = (basis_row(2, i) for i in range(3))
    basis = orthogonal_complement_basis([e1])
    assert len(basis) == 2
    for v in basis:
        assert row_pairing(v, e1) == 0
        assert v[1] == 0
    assert same_lattice(basis, [h, e2])
    assert same_lattice(Section(CpConfiguration(2, ((0, 2, 0),))).complement(), basis)


def test_complement_of_family_configuration():
    """The section's n + 2 generators and the oracle's basis of rank 10
    span one lattice, which holds the period point."""
    cfg = family_configuration(3, 1)
    basis = orthogonal_complement_basis(list(cfg.classes))
    assert len(basis) == 10
    for v in basis:
        for u in cfg.classes:
            assert row_pairing(v, u) == 0
    target = class_row([23, -12] + [-6] * 10, cfg.n)
    cols = [[v[i] for v in basis] for i in range(cfg.n + 1)]
    assert smith_normal_form(cols).solve(list(target)) is not None
    generators = list(Section(cfg).complement())
    assert len(generators) == cfg.n + 2
    assert same_lattice(generators, basis)


@given(vector_pairs(count=2))
def test_complement_rank_is_complementary(data):
    n, x, y = data
    classes = [v for v in (x, y) if any(v)]
    if not classes:
        return
    basis = orthogonal_complement_basis(classes)
    span_rank = smith_normal_form([list(v) for v in classes]).rank
    assert len(basis) == n + 1 - span_rank
    for v in basis:
        for u in classes:
            assert row_pairing(v, u) == 0


def test_empty_complement_needs_a_lattice():
    with pytest.raises(DomainError):
        orthogonal_complement_basis([])


def test_json_round_trip():
    """A row reads back from the JSON list it encodes to."""
    x = class_row([5, -1, 2], 2)
    assert list(x) == [5, -1, 2]
    assert class_row(list(x), 2) == x

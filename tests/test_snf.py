"""Smith normal form and the exact linear algebra built on it."""

import math
from itertools import combinations, permutations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rbdcalc.errors import InputTypeError
from rbdcalc.snf import (
    kernel_basis,
    smith_normal_form,
)

from oracles import det, intersection_matrix, matmul, standard_configuration

entries = st.integers(min_value=-30, max_value=30)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@st.composite
def square_matrices(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


def permutation_det(mat):
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= mat[i][perm[i]]
        total += sign * prod
    return total


def minor_gcd(mat, k):
    rows = range(len(mat))
    cols = range(len(mat[0]))
    g = 0
    for rs in combinations(rows, k):
        for cs in combinations(cols, k):
            sub = [[mat[i][j] for j in cs] for i in rs]
            g = math.gcd(g, permutation_det(sub))
    return g


def test_diagonal_examples():
    assert smith_normal_form([[-4]]).diagonal == (4,)
    assert smith_normal_form([[-2, 1], [1, -5]]).diagonal == (1, 9)
    assert smith_normal_form([[1, 0], [0, 1]]).diagonal == (1, 1)
    assert smith_normal_form([[2, 0], [0, 4]]).diagonal == (2, 4)


@pytest.mark.parametrize(
    "call, mat",
    [
        pytest.param(smith_normal_form, [[2.7]], id="float"),
        pytest.param(smith_normal_form, [["3"]], id="str"),
        pytest.param(smith_normal_form, [[True, 0]], id="bool"),
        pytest.param(kernel_basis, [[1.5, 1]], id="kernel-float"),
    ],
)
def test_entries_that_are_not_ints_are_refused(call, mat):
    """No entry is read through int(): 2.7 is not 2, "3" is not 3, true is
    not 1, and [[1.5, 1]] has no kernel vector [-1, 1]."""
    with pytest.raises(InputTypeError, match="matrix entry must be an integer"):
        call(mat)


def test_rank_counts_nonzero_entries():
    s = smith_normal_form([[1, 2], [2, 4]])
    assert s.diagonal == (1, 0)
    assert s.rank == 1


@given(matrices())
def test_reconstruction(mat):
    s = smith_normal_form(mat)
    d = matmul(matmul([list(r) for r in s.u], mat), [list(r) for r in s.v])
    for i in range(s.rows):
        for j in range(s.cols):
            expected = s.diagonal[i] if i == j and i < len(s.diagonal) else 0
            assert d[i][j] == expected


@given(matrices())
def test_transforms_are_unimodular(mat):
    s = smith_normal_form(mat)
    assert abs(det([list(r) for r in s.u])) == 1
    assert abs(det([list(r) for r in s.v])) == 1


@given(matrices())
def test_diagonal_divisibility_chain(mat):
    diag = smith_normal_form(mat).diagonal
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag[: len(nonzero)] == tuple(nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


@given(square_matrices())
def test_det_matches_permutation_expansion(mat):
    assert det(mat) == permutation_det(mat)


@given(square_matrices(max_dim=3))
def test_diagonal_matches_minor_gcds(mat):
    diag = smith_normal_form(mat).diagonal
    prod = 1
    for k in range(1, len(mat) + 1):
        prod *= diag[k - 1]
        assert prod == minor_gcd(mat, k)


@given(matrices())
@example([])
def test_kernel_annihilates_and_has_full_count(mat):
    s = smith_normal_form(mat)
    basis = kernel_basis(mat)
    assert len(basis) == (len(mat[0]) if mat else 0) - s.rank
    for vec in basis:
        assert all(
            sum(row[j] * vec[j] for j in range(len(vec))) == 0 for row in mat
        )
    if basis:
        assert all(d == 1 for d in smith_normal_form(basis).diagonal)


@given(matrices(), st.data())
def test_integer_solve_round_trip(mat, data):
    cols = len(mat[0])
    x = data.draw(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)
    )
    rhs = [sum(row[j] * x[j] for j in range(cols)) for row in mat]
    sol = smith_normal_form(mat).solve(rhs)
    assert sol is not None
    assert [sum(row[j] * sol[j] for j in range(cols)) for row in mat] == rhs


@pytest.mark.parametrize(
    "rhs", [[2.0, 3.0], [True, 0], ["2", 3]], ids=["float", "bool", "str"]
)
def test_solve_refuses_a_right_hand_side_that_is_not_ints(rhs):
    """2.0 is not 2 (no float solution [1.0, 1.0]), true is not 1, and "2"
    raises InputTypeError, not a bare TypeError."""
    with pytest.raises(InputTypeError, match="right-hand side entry must be an integer"):
        smith_normal_form([[2, 0], [0, 3]]).solve(rhs)


def test_integer_solve_detects_unsolvable_systems():
    assert smith_normal_form([[2]]).solve([1]) is None
    assert smith_normal_form([[1], [1]]).solve([1, 2]) is None


def test_smith_form_is_deterministic():
    m = [[6, 4, 2], [4, 8, 0], [2, 0, 10]]
    first = smith_normal_form(m)
    second = smith_normal_form([row[:] for row in m])
    assert first.diagonal == second.diagonal
    assert first.u == second.u
    assert first.v == second.v


@pytest.mark.parametrize("p", range(2, 11))
def test_chain_gram_divisors(p):
    """The chain's Gram matrix presents a cyclic group of order p squared."""
    gram = intersection_matrix(standard_configuration(p).classes)
    diag = smith_normal_form(gram).diagonal
    assert diag == (1,) * (p - 2) + (p * p,)

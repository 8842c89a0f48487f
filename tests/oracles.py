"""Reference computations the tests check the package against.

Nothing in the package calls these; they restate a result by an
independent or deliberately slower route, so a test can compare the two.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import Sequence

from rbdcalc.blowdown import H1Certificate, _basis_witness, _condition
from rbdcalc.errors import DomainError
from rbdcalc.lattice import dual_coefficients, pairing
from rbdcalc.snf import smith_normal_form


def matmul(a, b) -> list[list[int]]:
    """The integer matrix product a b."""
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


def evaluate_neg_cf(terms: Sequence[int]) -> Fraction:
    """Value of [a_1, a_2, ...] = a_1 - 1/(a_2 - 1/(...)). Inverse of lens_space_cf."""
    if not terms:
        raise DomainError("empty continued fraction")
    val = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        if val == 0:
            raise DomainError("continued fraction hits a zero tail")
        val = t - 1 / val
    return val


def intersection_matrix(classes) -> list[list[int]]:
    """Gram matrix of the given classes under the ambient pairing."""
    return [[pairing(x, y) for y in classes] for x in classes]


def signed_permutation(rows, target: Sequence[int], signs: Sequence[int]) -> list[list[int]]:
    """Rows with e_i sent to signs[i-1] e_{target[i-1]}: an isometry fixing h."""
    n = len(target)
    out = []
    for row in rows:
        new = [row[0]] + [0] * n
        for i in range(1, n + 1):
            new[target[i - 1]] = signs[i - 1] * row[i]
        out.append(new)
    return out


def h1_by_smith_normal_form(x, cfg) -> H1Certificate:
    """The H1 certificate without a delta, read off one Smith normal form of
    the restriction map for every body: the route the closed form replaces."""
    p = cfg.p
    restriction = [dual_coefficients(u) for u in cfg.classes]
    snf = smith_normal_form(restriction)
    divisors = snf.diagonal
    order = gcd(prod(divisors), p)
    if order > 1:
        return H1Certificate(
            verdict="nontrivial" if x.simply_connected else "inconclusive",
            condition=None,
            witness=None,
            pairings=None,
            order=order if x.simply_connected else None,
            restriction_divisors=divisors,
        )
    coeffs = _basis_witness(restriction, p) or snf.solve([0] * (p - 2) + [1])
    witness = x.lattice.vector(coeffs)
    pairings = cfg.pairings(witness)
    return H1Certificate(
        verdict="trivial",
        condition=_condition(pairings, p),
        witness=witness,
        pairings=pairings,
        order=order,
        restriction_divisors=divisors,
    )

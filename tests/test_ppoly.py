"""Tests for exact polynomial arithmetic and the recursion polynomials
P[k, m] / their integer suffix form P0[k, m]: values and domain errors.  Their
identities (the vanishing window, the leading coefficients, the
elementary-symmetric-sum characterization and the falling-factorial
expansion) are checks of the registry in ``srscorr.verify``."""

import inspect
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from srscorr import ppoly
from srscorr.errors import DomainError
from srscorr.exactnum import stirling_first_unsigned
from srscorr.ppoly import (
    Poly,
    elementary_sum_oracle,
    falling_factorial_via_p0,
    p0_eval,
    p_poly,
    weighted_prefix_poly,
)


# ---------------------------------------------------------------------------
# Poly basics


def test_poly_strips_trailing_zeros_and_reports_degree():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0, 0]).coeffs == ()
    assert Poly().degree == -1
    assert Poly([5]).degree == 0
    assert Poly([0, 0, Fraction(1, 3)]).degree == 2
    assert Poly([1, 2]).coefficient(0) == 1
    assert Poly([1, 2]).coefficient(7) == 0


def test_poly_evaluation():
    p = Poly([1, -2, 3])  # 1 - 2x + 3x^2
    assert p(0) == 1
    assert p(2) == 9
    assert p(Fraction(1, 2)) == Fraction(3, 4)
    assert Poly()(11) == 0
    assert Poly([1])(11) == 1
    assert Poly([0, 1])(11) == 11


def test_poly_arithmetic():
    p = Poly([1, 1])
    q = Poly([0, 0, 2])
    assert p * q == Poly([0, 0, 2, 2])
    assert p * 3 == Poly([3, 3])
    assert p * Fraction(1, 2) == Poly([Fraction(1, 2), Fraction(1, 2)])
    assert p**0 == Poly([1])
    assert p**3 == Poly([1, 3, 3, 1])


def test_poly_is_immutable_and_hashable():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert hash(Poly([1, 2])) == hash(p)
    assert len({Poly([1]), Poly([1]), Poly([2])}) == 2


# ---------------------------------------------------------------------------
# weighted prefix sums


@given(
    st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=60), min_size=1, max_size=13).filter(
        lambda cs: cs[-1] != 0
    )
)
@example([1])
@example([1, 1])
@example([0, 2, 0, 1])
@example([Fraction(1, 2), -3])
def test_weighted_prefix_poly_matches_direct_sums(coeffs):
    q = Poly(coeffs)
    s = weighted_prefix_poly(q)
    assert s.degree == q.degree + 2
    assert s(0) == 0
    for j in range(0, 12):
        assert s(j) == sum(t * q(t + 1) for t in range(1, j))


def test_weighted_prefix_poly_rejects_a_non_poly():
    with pytest.raises(DomainError):
        weighted_prefix_poly("not a poly")


# ---------------------------------------------------------------------------
# recursion polynomials


def test_p_poly_base_and_small_values():
    # m = 0 is the constant 1 (degree 0) for every k
    assert all(p_poly(k, 0) == Poly([1]) for k in range(9))
    # P[5, 1](j) = sum_{q=j}^{4} q, so at j = 2 it is 2 + 3 + 4 = 9.
    assert p_poly(5, 1)(2) == 9
    assert p_poly(5, 1)(5) == 0


@st.composite
def _poly_tables_indices(draw):
    k = draw(st.integers(0, 60))
    m = draw(st.integers(0, min(k, 19)))
    return k, m, draw(st.integers(0, k))


@given(_poly_tables_indices())
@example((60, 19, 0))
@example((60, 19, 41))  # j = k - m + 1, the first zero of the vanishing window
@example((24, 19, 24))
def test_p_poly_agrees_with_p0_eval_at_benchmark_scale(indices):
    # the registry's prefix-suffix-agreement check stops at k <= 14
    k, m, j = indices
    assert p_poly(k, m)(j) == p0_eval(k, m, j)


@given(st.integers(0, 60), st.integers(1, 19))
@example(60, 19)
@example(24, 19)
@example(3, 19)  # m > k + 1, where the head is 0
def test_p_poly_matches_one_faulhaber_step_at_benchmark_scale(k, m):
    # the registry's weighted-prefix-direct-sum check takes this step for k <= 12
    prefix = weighted_prefix_poly(p_poly(k, m - 1))
    head = prefix(k - m + 1) if k - m + 1 >= 0 else 0
    assert p_poly(k, m) == Poly([head - prefix.coefficient(0), *(-c for c in prefix.coeffs[1:])])


def test_p_poly_at_large_m_keeps_the_closed_form_leading_terms():
    # the lead and sub-lead of the registry's leading-coefficients check,
    # here far past m = k
    m = 120
    poly = p_poly(2, m)
    denom = 2**m * math.factorial(m)
    assert poly.degree == 2 * m
    assert poly.coefficient(2 * m) == Fraction((-1) ** m, denom)
    assert poly.coefficient(2 * m - 1) == Fraction((-1) ** m * m * (2 * m - 5), 3 * denom)


def test_p_poly_builds_a_long_chain_without_recursion():
    # k = 97 is used by no other test, so P[97, 40] starts cold
    entries = len(ppoly._P_CACHE)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        poly = p_poly(97, 40)
    finally:
        sys.setrecursionlimit(limit)
    assert poly.degree == 80
    assert poly(97) == 0
    # only the finished polynomial is memoised, no level below it
    assert len(ppoly._P_CACHE) == entries + 1
    assert p_poly(97, 40) is poly


def test_p_poly_rejects_negative_indices():
    with pytest.raises(DomainError):
        p_poly(-1, 0)
    with pytest.raises(DomainError):
        p_poly(3, -2)


def test_p0_eval_values():
    assert p0_eval(6, 0, 3) == 1
    assert p0_eval(4, 1, 5) == 0
    assert p0_eval(4, 1, 2) == 5
    assert p0_eval(4, 2, 1) == 11
    with pytest.raises(DomainError):
        p0_eval(3, 1, -1)


@st.composite
def _p0_indices(draw):
    k = draw(st.integers(0, 80))
    return k, draw(st.integers(1, k + 2)), draw(st.integers(0, k + 2))


@given(_p0_indices())
@example((9, 4, 5))  # j = k - m, the last entry of the row
@example((9, 4, 6))  # j = k - m + 1, the first empty sum
@example((9, 10, 0))  # m = k + 1, no row at all
@example((80, 80, 0))
def test_p0_eval_satisfies_its_definition(indices):
    # the registry reads P0 directly only for k <= 14 and j <= 10
    k, m, j = indices
    assert p0_eval(k, m, j) == sum(q * p0_eval(k, m - 1, q + 1) for q in range(j, k - m + 1))


def test_p0_eval_builds_a_long_chain_without_recursion():
    # k = 97 is used by no other P0 read, so the rows up to m = 60 start cold
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        value = p0_eval(97, 60, 0)
    finally:
        sys.setrecursionlimit(limit)
    assert value == stirling_first_unsigned(97, 37)  # P0[k, m](0) = c(k, k - m)
    # an empty sum is answered without building a row, even for a huge m
    entries = len(ppoly._P0_CACHE)
    assert p0_eval(5, 10**6, 0) == 0
    assert len(ppoly._P0_CACHE) == entries


# ---------------------------------------------------------------------------
# elementary symmetric sums and falling-factorial expansion


def test_elementary_sum_oracle_values():
    assert elementary_sum_oracle(3, 0, 1) == 1
    assert elementary_sum_oracle(3, 2, 1) == 11
    assert elementary_sum_oracle(2, 3, 1) == 0
    # empty window: only the v = 0 empty product survives
    assert elementary_sum_oracle(0, 0, 1) == 1
    assert elementary_sum_oracle(0, 1, 1) == 0


def test_elementary_sum_oracle_errors():
    with pytest.raises(DomainError):
        elementary_sum_oracle(1, 0, 3)  # window ends before it starts
    with pytest.raises(DomainError):
        elementary_sum_oracle(3, -1, 1)
    with pytest.raises(DomainError):
        elementary_sum_oracle(3, 1, -1)


def test_falling_factorial_via_p0_values():
    assert falling_factorial_via_p0(3, 3, Fraction(9, 7)) == 1
    assert falling_factorial_via_p0(2, 0, 5) == 20
    assert falling_factorial_via_p0(4, 1, 6) == 60


def test_falling_factorial_via_p0_rejects_bad_indices():
    with pytest.raises(DomainError):
        falling_factorial_via_p0(3, 4, 1)
    with pytest.raises(DomainError):
        falling_factorial_via_p0(3, -1, 1)

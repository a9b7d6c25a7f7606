"""Tests for the exact inclusion correlations Corr(k), their scaled limits,
the alpha-coefficient table, and the convergence scan."""

import warnings
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from srscorr.correlation import (
    AlphaTable,
    CorrRecord,
    LimitSpec,
    alpha_coefficients,
    coefficient_limit,
    convergence_scan,
    corr_exact,
    evaluate_correlation,
    limit_spec,
    parity_exponent,
    theorem_limit,
)
from srscorr.errors import DomainError
from srscorr.exactnum import binomial, falling_factorial


# ---------------------------------------------------------------------------
# corr_exact


def test_known_pair_correlation():
    assert corr_exact(2, 10, 5) == Fraction(-1, 36)


def test_corr_exact_boundary_samples():
    # n = 0 and n = N are deterministic samples: Corr(k) = (-f)^k or (1-f)^k.
    for N in range(1, 8):
        for k in range(0, N + 1):
            assert corr_exact(k, N, 0) == 0 ** k if k else corr_exact(0, N, 0) == 1
            assert corr_exact(k, N, N) == 0 ** k if k else corr_exact(0, N, N) == 1


def test_corr_exact_domain_errors():
    with pytest.raises(DomainError):
        corr_exact(2, 0, 0)
    with pytest.raises(DomainError):
        corr_exact(2, 5, 6)
    with pytest.raises(DomainError):
        corr_exact(2, 5, -1)
    with pytest.raises(DomainError):
        corr_exact(-1, 5, 2)
    with pytest.raises(DomainError):
        corr_exact(6, 5, 2)  # k may not exceed the population size


def _moment_expansion(k, N, n):
    """The moment expansion, the definition of Corr(k), summed term by term
    in ``Fraction``s: a reference that shares no arithmetic with the integer
    common-denominator sum in ``corr_exact``."""
    f = Fraction(n, N)
    total = Fraction(0)
    for j in range(k + 1):
        c = binomial(k, j)
        ratio = falling_factorial(n, j) / falling_factorial(N, j)
        total += c * ratio * (-f) ** (k - j)
    return total


@st.composite
def _designs(draw):
    N = draw(st.integers(1, 10**7))
    n = draw(st.integers(0, N))
    k = draw(st.integers(0, min(N, 40)))
    return k, N, n


_alpha_table = cache(alpha_coefficients)


@given(_designs())
@example((0, 9_876_543, 3_950_617))  # k = 0
@example((1, 9_876_543, 3_950_617))  # k = 1
@example((7, 7, 3))  # k = N
@example((5, 12, 0))  # n = 0
@example((5, 12, 12))  # n = N
@example((9, 30, 4))  # k > n
@example((40, 10**7, 10**7 - 1))  # largest order at the largest population
@example((60, 1_000_003, 400_001))  # the benchmark's largest alpha order
def test_corr_exact_matches_moment_expansion_symmetry_and_alpha_table(design):
    k, N, n = design
    value = corr_exact(k, N, n)
    assert value == _moment_expansion(k, N, n)
    assert value == (-1) ** k * corr_exact(k, N, N - n)
    assert value == _alpha_table(k).corr(N, n)


# ---------------------------------------------------------------------------
# limits


def test_parity_exponent():
    assert [parity_exponent(k) for k in range(0, 10)] == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5]


def test_theorem_limit_known_values():
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    assert theorem_limit(2, half) == Fraction(-1, 4)
    assert theorem_limit(3, third) == Fraction(4, 27)
    assert theorem_limit(0, half) == 1
    assert theorem_limit(1, half) == 0


def test_theorem_limit_rejects_boundary_fractions():
    with pytest.raises(DomainError):
        theorem_limit(4, 0)
    with pytest.raises(DomainError):
        theorem_limit(4, 1)
    with pytest.raises(DomainError):
        theorem_limit(4, Fraction(7, 5))
    with pytest.raises(DomainError):
        theorem_limit(-1, Fraction(1, 2))


def test_limit_spec_record():
    spec = limit_spec(3, Fraction(1, 3))
    assert spec == LimitSpec(k=3, f=Fraction(1, 3), value=Fraction(4, 27), exponent=2)


# ---------------------------------------------------------------------------
# alpha table


def test_alpha_table_order_two():
    table = alpha_coefficients(2)
    assert isinstance(table, AlphaTable)
    # alpha(2) = N f (f - 1): one N-linear term per power of f.
    assert table.f_coefficient(0, 7) == 7
    assert table.f_coefficient(1, 7) == -7
    assert table.corr(10, 5) == Fraction(-1, 36)


def test_alpha_table_requires_population_at_least_k():
    table = alpha_coefficients(4)
    with pytest.raises(DomainError):
        table.corr(3, 2)


def test_coefficient_limit_small_orders():
    # k = 2: alpha/N^1 -> f^2 - f, so the limits are (1, -1, 0).
    assert [coefficient_limit(2, v) for v in range(3)] == [1, -1, 0]
    # k = 3: limit polynomial 2(2f-1)f(f-1) = 4f^3 - 6f^2 + 2f.
    assert [coefficient_limit(3, v) for v in range(4)] == [4, -6, 2, 0]


# ---------------------------------------------------------------------------
# records and scans


def test_evaluate_correlation_record():
    rec = evaluate_correlation(2, 10, 5)
    assert rec.k == 2 and rec.N == 10 and rec.n == 5
    assert rec.f == Fraction(1, 2)
    assert rec.corr == Fraction(-1, 36)
    assert rec.scaled == Fraction(-5, 18)  # N^e(2) * corr with e(2) = 1
    assert rec.limit == theorem_limit(2, Fraction(1, 2))
    assert rec.abs_error == abs(rec.scaled - rec.limit)


def test_evaluate_correlation_with_explicit_limit_f():
    rec = evaluate_correlation(2, 10, 5, limit_f=Fraction(2, 5))
    assert rec.limit == theorem_limit(2, Fraction(2, 5))


def test_evaluate_correlation_rejects_boundary_designs():
    # n = 0 and n = N give f outside (0, 1), where no limit exists; a full
    # record cannot be assembled there.
    with pytest.raises(DomainError):
        evaluate_correlation(2, 10, 0)
    with pytest.raises(DomainError):
        evaluate_correlation(2, 10, 10)


def test_convergence_scan_example():
    rows = convergence_scan(2, Fraction(1, 2), [10])
    assert len(rows) == 1
    rec = rows[0]
    assert rec.n == 5
    assert rec.scaled == Fraction(-5, 18)
    assert rec.limit == Fraction(-1, 4)


def test_convergence_scan_rounds_sample_size_half_up():
    rows = convergence_scan(2, Fraction(1, 3), [10, 11])
    # n = floor(f N + 1/2): 10/3 + 1/2 -> 3, 11/3 + 1/2 -> 4
    assert [r.n for r in rows] == [3, 4]
    # the limit column is pinned at the target fraction, not at n/N
    assert all(r.limit == theorem_limit(2, Fraction(1, 3)) for r in rows)


def test_convergence_scan_errors_decrease_along_doubling_grid():
    for k in range(2, 6):
        rows = convergence_scan(k, Fraction(2, 5), [500, 1000, 2000])
        errs = [r.abs_error for r in rows]
        assert errs[0] > errs[1] > errs[2] > 0


def test_convergence_scan_skips_degenerate_sample_sizes():
    # f so small the rounded sample size hits 0: the row is skipped with a
    # warning rather than fabricating a correlation without a limit.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = convergence_scan(2, Fraction(1, 100), [10, 200])
    assert [r.N for r in rows] == [200]
    assert len(caught) == 1
    assert "skip" in str(caught[0].message).lower()


def test_convergence_scan_grid_validation():
    with pytest.raises(DomainError):
        convergence_scan(2, Fraction(1, 2), [])
    with pytest.raises(DomainError):
        convergence_scan(2, Fraction(1, 2), [10, 10])
    with pytest.raises(DomainError):
        convergence_scan(2, Fraction(1, 2), [20, 10])
    with pytest.raises(DomainError):
        convergence_scan(2, Fraction(1, 2), [1, 10])
    with pytest.raises(DomainError):
        convergence_scan(1, Fraction(1, 2), [10])
    with pytest.raises(DomainError):
        convergence_scan(2, Fraction(3, 2), [10])


def test_corr_record_is_frozen():
    rec = evaluate_correlation(2, 10, 5)
    assert isinstance(rec, CorrRecord)
    with pytest.raises(AttributeError):
        rec.corr = 0

"""Tests for the exact inclusion correlations Corr(k), their scaled limits,
the alpha-coefficient table, and the convergence scan."""

import dataclasses
import hashlib
import warnings
from fractions import Fraction
from math import floor
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from srscorr import correlation
from srscorr.correlation import (
    _ALPHA_CACHE,
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
from srscorr.exactnum import binomial, falling_factorial, rational_str
from srscorr.verify import _alpha_expansion


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


@given(_designs())
@example((0, 9_876_543, 3_950_617))  # k = 0
@example((1, 9_876_543, 3_950_617))  # k = 1
@example((7, 7, 3))  # k = N
@example((5, 12, 0))  # n = 0
@example((5, 12, 12))  # n = N
@example((9, 30, 4))  # k > n
@example((40, 10**7, 10**7 - 1))  # largest order at the largest population
@example((60, 1_000_003, 400_001))  # the benchmark's largest alpha order
@example((128, 9_999_991, 4_000_003))  # the benchmark's largest scan order
def test_corr_exact_matches_moment_expansion_symmetry_and_alpha_table(design):
    k, N, n = design
    value = corr_exact(k, N, n)
    assert value == _moment_expansion(k, N, n)
    assert value == (-1) ** k * corr_exact(k, N, N - n)
    assert value == alpha_coefficients(k).corr(N, n)


def test_corr_exact_at_the_budget_ceiling_is_pinned():
    # sha256 of rational_str(corr_exact(11500, 16000, 15999)), the largest
    # `corr` design the digit budget admits, taken from the division-per-step
    # Horner loop that the division-free one replaced
    text = rational_str(corr_exact(11500, 16000, 15999))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2e5c4d85c399d065e391a122ad18b755d278493a04469dacd25f6c65918a385a"
    )


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


@st.composite
def _fractions(draw):
    q = draw(st.integers(2, 10**12))
    return Fraction(draw(st.integers(1, q - 1)), q)


@given(_designs(), _fractions())
@example((0, 1, 0), Fraction(1, 2))  # the smallest results, 1 and 1
@example((40, 10**7, 10**7 - 1), Fraction(999_999_999_999, 10**12))
def test_each_result_size_estimate_bounds_the_digits(design, f):
    """With the budget one digit below a result's actual size, the call
    that gives it is refused: each estimate is an upper bound."""
    k, N, n = design
    for call in (lambda: corr_exact(k, N, n), lambda: theorem_limit(k, f)):
        value = call()
        digits = max(len(str(abs(value.numerator))), len(str(value.denominator)))
        with mock.patch.object(correlation, "RESULT_DIGIT_BUDGET", digits - 1):
            with pytest.raises(DomainError, match="past the budget"):
                call()


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


@given(st.integers(0, 40))
@example(0)
@example(1)
@example(60)
@example(61)
@example(76)
def test_alpha_table_matches_reference_route_and_is_memoised_by_k(k):
    _ALPHA_CACHE.clear()
    table = alpha_coefficients(k)
    half, full = k // 2, _alpha_expansion(k)
    assert len(table.coeffs) == k + 1 and all(len(row) == half + 1 for row in table.coeffs)
    assert table.coeffs == tuple(row[: half + 1] for row in full)
    assert not any(any(row[half + 1 :]) for row in full)  # the cut entries are 0
    assert _ALPHA_CACHE.keys() == {k} and _ALPHA_CACHE[k] is table
    assert alpha_coefficients(k) is table
    alpha_coefficients(k + 1)
    assert _ALPHA_CACHE.keys() == {k, k + 1}


# sha256 of repr(alpha_coefficients(k).coeffs), the digest perfbench's alpha
# ops report, at k = 0, 1, 2 and at the benchmark's eight alpha orders.
_ALPHA_SHA256 = {
    0: "8349bb5d2d44e8d655364829a2ce742165d10f6cb3966ecc05e35fb83ab9f28c",
    1: "b0d08f477f7f39696560a85c78ebccb7e919a5eeba0bf9466346cb173616fe5b",
    2: "27d27df45a4c84a5fddb07a3e2c33ce53526e3575d8ad82d72775d815a1b94bf",
    24: "dcc1987b631c6da2c9891543ab992b8c973523d112bffac2db18e523a7c66a09",
    27: "e79d40ccf0d49c79b26bb2f9d6bd823cf83111a8bbdd0d72d749cf12010af157",
    31: "2faed94c2069f1d804a2cc894d9df3f118e5bd2b0f52ba498dac05ca6b23887c",
    36: "dc6fd9845c4f11da7419549bd4d4730ae1fc39ce4e9d2e5869bb083caf8e3561",
    41: "dd611000d7acd7aecd026d96be6e9404381750bce38415168291bd3999b01fd6",
    46: "542f730063a939a52e121a619ea153f9414c0eb39b7084c7c6ce8d53e6899d2b",
    53: "2a673e223fc90230d1fbca4f8c04bb60296a01459d11d02720cb79a59afe0bd9",
    60: "92e38330a245f4d7ea70582bcc3f56f853294380a565b6c465d2b88d7f57bcca",
}


@pytest.mark.parametrize("k", sorted(_ALPHA_SHA256))
def test_alpha_table_bytes_are_pinned(k):
    coeffs = repr(alpha_coefficients(k).coeffs).encode()
    assert hashlib.sha256(coeffs).hexdigest() == _ALPHA_SHA256[k]


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


@st.composite
def _scans(draw):
    k = draw(st.integers(2, 40))
    q = draw(st.integers(2, 97))
    f = Fraction(draw(st.integers(1, q - 1)), q)
    grid = sorted(draw(st.sets(st.integers(k, 10**7), min_size=1, max_size=6)))
    return k, f, grid


@given(_scans())
@example((2, Fraction(1, 97), [2, 48, 49]))  # two boundary entries, then the first interior one
def test_convergence_scan_matches_evaluate_correlation(scan):
    """The scan, which computes its limit once, gives at each interior grid
    entry the record that ``evaluate_correlation`` gives at the half-up
    rounded sample size, with the limit at the target f rather than at the
    realized n/N, and warns once for each skipped entry."""
    k, f, grid = scan
    designs = [(N, floor(f * N + Fraction(1, 2))) for N in grid]
    limit = theorem_limit(k, f)
    expected = [dataclasses.replace(evaluate_correlation(k, N, n), limit=limit) for N, n in designs if 0 < n < N]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if not expected:
            with pytest.raises(DomainError):
                convergence_scan(k, f, grid)
            return
        assert convergence_scan(k, f, grid) == expected
    assert len(caught) == len(grid) - len(expected)


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

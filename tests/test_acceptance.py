"""Acceptance gate: the ten end-to-end checks this library must pass.

Every criterion is exact (rational equality) unless it is explicitly a
stochastic bracket, and each test prints a single

    ACCEPTANCE nn <name>: PASS|FAIL

line.  Run ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete; the whole gate runs in well under five minutes.  Criteria 1
and 5-9 are checks of the identity registry (``srscorr.verify.CHECKS``), read
through the session-cached ``check_result`` fixture, so no check runs twice.
"""

import contextlib
import time
from fractions import Fraction

from srscorr.correlation import convergence_scan, corr_exact, theorem_limit
from srscorr.exactnum import normal_moment
from srscorr.oracle import DEFAULT_MC_SEED, monte_carlo_corr
from srscorr.verify import CHECKS


@contextlib.contextmanager
def _criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _assert_checks_pass(check_result, *identities):
    for identity in identities:
        result, _ = check_result(identity)
        assert result.passed and result.cases > 0, (identity, result.detail)


def test_criterion_01_exact_formula_equals_enumeration(check_result):
    # every design with N <= 14, 1 <= n <= N-1 and k <= min(n+2, 8, N)
    with _criterion(1, "exact formula equals subset enumeration"):
        result, seconds = check_result("brute-force-equivalence")
        assert result.passed and result.cases > 0, result.detail
        assert seconds <= 60.0


def test_criterion_02_limit_table_orders_two_through_nine():
    with _criterion(2, "limit table k = 2..9 at four fractions"):
        for f in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
            g = f * (f - 1)
            assert theorem_limit(2, f) == g
            assert theorem_limit(3, f) == 2 * g * (2 * f - 1)
            assert theorem_limit(4, f) == 3 * g**2
            assert theorem_limit(5, f) == 20 * g**2 * (2 * f - 1)
            assert theorem_limit(6, f) == 15 * g**3
            assert theorem_limit(7, f) == 210 * g**3 * (2 * f - 1)
            assert theorem_limit(8, f) == 105 * g**4
            assert theorem_limit(9, f) == 2520 * g**4 * (2 * f - 1)


def test_criterion_03_limit_constants_are_gaussian_moments():
    with _criterion(3, "limit constants from Gaussian moments"):
        assert [normal_moment(k) for k in (2, 4, 6, 8)] == [1, 3, 15, 105]
        odd = {3: 2, 5: 20, 7: 210, 9: 2520}
        for k in (3, 5, 7, 9):
            assert Fraction(k - 1, 3) * normal_moment(k + 1) == odd[k]


def test_criterion_04_error_halves_when_population_doubles():
    with _criterion(4, "scaled error shrinks like 1/N at f = 2/5"):
        start = time.perf_counter()
        f = Fraction(2, 5)
        for k in range(2, 8):
            err_2000, err_4000 = (r.abs_error for r in convergence_scan(k, f, [2000, 4000]))
            assert err_4000 < err_2000, k
            ratio = err_2000 / err_4000
            assert Fraction(3, 2) <= ratio <= 3, (k, float(ratio))
        assert time.perf_counter() - start <= 30.0


def test_criterion_05_recursion_polynomials_vanish_on_window(check_result):
    # P[k, m] vanishes on k-m+1..k for k <= 18, and agrees with P0 on 0..k for k <= 14
    with _criterion(5, "recursion polynomials vanish on their window"):
        _assert_checks_pass(check_result, "vanishing-window", "prefix-suffix-agreement")


def test_criterion_06_leading_coefficients(check_result):
    # the x^(2m) and x^(2m-1) coefficients of P[k, m] for 1 <= m <= k <= 12
    with _criterion(6, "leading coefficients of the recursion polynomials"):
        _assert_checks_pass(check_result, "leading-coefficients")


def test_criterion_07_falling_factorial_expansion(check_result):
    # (x - k)_(j-k) from the suffix values for k <= j <= 12, and the suffix
    # values as elementary symmetric sums for j <= 10
    with _criterion(7, "falling factorials expand through the suffix values"):
        _assert_checks_pass(check_result, "falling-factorial-expansion", "elementary-sum-equivalence")


def test_criterion_08_alpha_tables_and_coefficient_limits(check_result):
    # alpha tables for k <= 8, N <= 40, all n; coefficient limits against the
    # limit polynomial for 2 <= k <= 9
    with _criterion(8, "alpha tables reconstruct exactly; coefficients agree in the limit"):
        _assert_checks_pass(check_result, "alpha-table-reconstruction", "coefficient-sum-identity")


def test_criterion_09_identity_suite_is_green(check_result):
    with _criterion(9, "alternating-sum identity suite"):
        _assert_checks_pass(
            check_result,
            "stirling2-alternating-power-sum",
            "power-sum-closed-form",
            "unit-step-binomial-sum",
            "delta-binomial-sum",
            "gamma-ratio-binomial-sum",
            "weighted-gamma-ratio-sum",
            "affine-fraction-sum-closed-form",
        )
        _assert_checks_pass(check_result, *(check.identity for check in CHECKS if check.suite == "exactnum"))


def test_criterion_10_monte_carlo_brackets_and_reproduces():
    with _criterion(10, "Monte Carlo brackets the exact value, bit-for-bit rerunnable"):
        start = time.perf_counter()
        k, N, n, trials = 3, 100, 37, 10**6
        est = monte_carlo_corr(k, N, n, trials=trials, seed=DEFAULT_MC_SEED)
        exact = float(corr_exact(k, N, n))
        assert abs(est.mean - exact) <= 4 * est.stderr, (est.mean, exact, est.stderr)
        again = monte_carlo_corr(k, N, n, trials=trials, seed=DEFAULT_MC_SEED)
        assert est == again
        assert time.perf_counter() - start <= 30.0

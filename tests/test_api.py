"""The public surface: the exported names, the exact domain messages of
the functions that take a (k, N, n) design, and the argument checks of the
other entry points."""

import re

import pytest

import srscorr
from srscorr.correlation import (
    alpha_coefficients,
    coefficient_limit,
    corr_exact,
    evaluate_correlation,
    parity_exponent,
)
from srscorr.errors import DomainError
from srscorr.exactnum import (
    bernoulli,
    double_factorial_odd,
    normal_moment,
    power_sum_coefficients,
    stirling_first_unsigned,
    stirling_second,
    sum_of_powers,
)
from srscorr.oracle import brute_force_corr, hypergeom_inclusion_prob, monte_carlo_corr, trial_stream_seed
from srscorr.ppoly import Poly
from srscorr.report import emit_report
from srscorr.verify import run_suite


def test_public_names_are_pinned():
    # A removal or addition must be made here explicitly.
    assert sorted(srscorr.__all__) == [
        "AlphaTable", "CheckResult", "CorrRecord", "DEFAULT_MC_SEED", "DomainError",
        "EnumerationBoundError", "LimitSpec", "McEstimate", "Poly", "PolyRecord", "SplitMix64",
        "SrsCorrError", "alpha_coefficients", "alternating_fraction_sum", "bernoulli",
        "binomial", "brute_force_corr", "coefficient_limit", "convergence_scan", "corr_exact",
        "decimal_str", "elementary_sum_oracle", "emit_report", "evaluate_correlation",
        "falling_factorial", "falling_factorial_via_p0", "gamma_ratio", "hypergeom_inclusion_prob",
        "limit_spec", "monte_carlo_corr", "normal_moment", "p0_eval", "p_poly", "parity_exponent",
        "parse_rational", "rational_str", "run_suite", "sample_srs", "stirling_first_unsigned",
        "stirling_second", "sum_of_powers", "theorem_limit", "weighted_prefix_poly",
    ]


_DESIGN_FUNCTIONS = {
    "AlphaTable.corr": lambda k, N, n: alpha_coefficients(k).corr(N, n),
    "brute_force_corr": brute_force_corr,
    "corr_exact": corr_exact,
    "hypergeom_inclusion_prob": hypergeom_inclusion_prob,
    "monte_carlo_corr": lambda k, N, n: monte_carlo_corr(k, N, n, trials=1),
}


@pytest.mark.parametrize("name", sorted(_DESIGN_FUNCTIONS))
@pytest.mark.parametrize(
    "k, N, n, message",
    [
        (0, 0, 0, "requires N >= 1, got N=0"),
        (1, 5, 6, "requires 0 <= n <= N, got n=6, N=5"),
        (6, 5, 2, "requires 0 <= k <= N, got k=6, N=5"),
    ],
)
def test_design_domain_messages(name, k, N, n, message):
    with pytest.raises(DomainError, match=f"^{re.escape(f'{name} {message}')}$"):
        _DESIGN_FUNCTIONS[name](k, N, n)


_CORR_ROW = evaluate_correlation(2, 10, 5)

# call as written -> (the call, a substring of its DomainError message)
_ARGUMENT_CHECKS = {
    "parity_exponent(-1)": (lambda: parity_exponent(-1), "parity_exponent requires k >= 0"),
    "alpha_coefficients(-1)": (lambda: alpha_coefficients(-1), "alpha_coefficients requires k >= 0"),
    "f_coefficient(4, 10) at k=3": (
        lambda: alpha_coefficients(3).f_coefficient(4, 10),
        "f_coefficient requires 0 <= v <= 3",
    ),
    "coefficient_limit(-1, 0)": (lambda: coefficient_limit(-1, 0), "coefficient_limit requires k, v >= 0"),
    "stirling_first_unsigned(-1, 0)": (
        lambda: stirling_first_unsigned(-1, 0),
        "stirling_first_unsigned requires j >= 0",
    ),
    "stirling_second(-1, 0)": (lambda: stirling_second(-1, 0), "stirling_second requires m, k >= 0"),
    "bernoulli(-1)": (lambda: bernoulli(-1), "bernoulli requires p >= 0"),
    "power_sum_coefficients(-1)": (lambda: power_sum_coefficients(-1), "power_sum_coefficients requires m >= 0"),
    "sum_of_powers(-1, 0)": (lambda: sum_of_powers(-1, 0), "sum_of_powers requires k, m >= 0"),
    "normal_moment(-1)": (lambda: normal_moment(-1), "normal_moment requires k >= 0"),
    "double_factorial_odd(-2)": (lambda: double_factorial_odd(-2), "double_factorial_odd requires t >= -1"),
    "Poly.coefficient(-1)": (lambda: Poly([1]).coefficient(-1), "coefficient index must be >= 0"),
    "Poly ** -1": (lambda: Poly([1]) ** -1, "Poly exponent must be a non-negative int"),
    "trial_stream_seed(0, -1)": (lambda: trial_stream_seed(0, -1), "trial index must be >= 0"),
    "emit_report precision=0": (
        lambda: emit_report([_CORR_ROW], "json", precision=0),
        "emit_report requires precision >= 1",
    ),
    "emit_report of mixed rows": (
        lambda: emit_report([_CORR_ROW, monte_carlo_corr(2, 10, 5, trials=10)], "json"),
        "all rows in a report must share the same columns",
    ),
    "run_suite('nope')": (lambda: run_suite("nope"), "unknown suite 'nope'"),
    "run_suite('all', -1)": (lambda: run_suite("all", -1), "max_k must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", list(_ARGUMENT_CHECKS))
def test_argument_checks_raise_domain_error(case):
    call, message = _ARGUMENT_CHECKS[case]
    with pytest.raises(DomainError, match=re.escape(message)):
        call()

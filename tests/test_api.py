"""The public surface: the exported names, and the exact domain messages of
the functions that take a (k, N, n) design."""

import re

import pytest

import srscorr
from srscorr.correlation import alpha_coefficients, corr_exact
from srscorr.errors import DomainError
from srscorr.oracle import brute_force_corr, hypergeom_inclusion_prob, monte_carlo_corr


def test_public_names_are_pinned():
    # A removal or addition must be made here explicitly.
    assert sorted(srscorr.__all__) == [
        "AlphaTable", "CheckResult", "CorrRecord", "DEFAULT_MC_SEED", "DomainError",
        "EnumerationBoundError", "LimitSpec", "McEstimate", "Poly", "PolyRecord", "SampleSubset",
        "SplitMix64", "SrsCorrError", "alpha_coefficients", "alternating_fraction_sum", "bernoulli",
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

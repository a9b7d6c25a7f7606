"""srscorr: exact high-order inclusion correlations of simple random
sampling, their polynomial coefficient expansions, and the scaled
large-population limits — cross-validated by enumeration and Monte Carlo.
"""

from types import ModuleType as _ModuleType

from .correlation import (
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
from .errors import DomainError, EnumerationBoundError, SrsCorrError
from .exactnum import (
    alternating_fraction_sum,
    bernoulli,
    binomial,
    falling_factorial,
    gamma_ratio,
    normal_moment,
    parse_rational,
    rational_str,
    stirling_first_unsigned,
    stirling_second,
    sum_of_powers,
)
from .oracle import (
    DEFAULT_MC_SEED,
    McEstimate,
    SplitMix64,
    brute_force_corr,
    hypergeom_inclusion_prob,
    monte_carlo_corr,
    sample_srs,
)
from .ppoly import (
    Poly,
    PolyRecord,
    elementary_sum_oracle,
    falling_factorial_via_p0,
    p0_eval,
    p_poly,
    weighted_prefix_poly,
)
from .report import decimal_str, emit_report
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

# The public API is exactly the names imported above.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)

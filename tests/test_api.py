"""The public surface: the exported names, the exact domain messages of
the functions that take a (k, N, n) design, and the argument checks of the
other entry points."""

import contextlib
import pkgutil
import re
import time
from fractions import Fraction
from unittest import mock

import pytest

import srscorr
from srscorr import cli, correlation, oracle, ppoly, report
from srscorr.correlation import (
    alpha_coefficients,
    coefficient_limit,
    corr_exact,
    evaluate_correlation,
    parity_exponent,
    theorem_limit,
)
from srscorr.errors import DomainError, EnumerationBoundError, int_str
from srscorr.exactnum import (
    bernoulli,
    double_factorial_odd,
    normal_moment,
    power_sum_coefficients,
    stirling_first_unsigned,
    stirling_second,
    sum_of_powers,
)
from srscorr.oracle import (
    SplitMix64,
    brute_force_corr,
    hypergeom_inclusion_prob,
    monte_carlo_corr,
    sample_srs,
    trial_stream_seed,
)
from srscorr.ppoly import Poly, p_poly
from srscorr.report import decimal_str, emit_report
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


_BIG = 10**5000  # past the interpreter's 4300-digit int-to-str limit

# call as written -> (the call, its whole DomainError message)
_BIG_INT_CHECKS = {
    "corr_exact(2, 10**5000, 10**5000 + 1)": (
        lambda: corr_exact(2, _BIG, _BIG + 1),
        f"corr_exact requires 0 <= n <= N, got n={int_str(_BIG + 1)}, N={int_str(_BIG)}",
    ),
    "sample_srs(10**5000, 10**5000 + 1, SplitMix64(1))": (
        lambda: sample_srs(_BIG, _BIG + 1, SplitMix64(1)),
        f"sample_srs requires 0 <= n <= N, got n={int_str(_BIG + 1)}, N={int_str(_BIG)}",
    ),
    "SplitMix64(1).next_below(2**70000)": (
        lambda: SplitMix64(1).next_below(2**70000),
        f"next_below requires 1 <= bound <= 2^64, got {int_str(2**70000)}",
    ),
    "monte_carlo_corr(2, 10**5000, 3, 10)": (
        lambda: monte_carlo_corr(2, _BIG, 3, 10),
        f"monte_carlo_corr requires N < 2^64, got N={int_str(_BIG)}",
    ),
    "monte_carlo_corr(2, 10, 3, -10**5000)": (
        lambda: monte_carlo_corr(2, 10, 3, -_BIG),
        f"monte_carlo_corr requires trials >= 1, got {int_str(-_BIG)}",
    ),
    "trial_stream_seed(0, -10**5000)": (
        lambda: trial_stream_seed(0, -_BIG),
        f"trial index must be >= 0, got {int_str(-_BIG)}",
    ),
    "decimal_str(1, -10**5000)": (
        lambda: decimal_str(1, -_BIG),
        f"decimal rendering requires 1 <= digits <= 100000, got {int_str(-_BIG)}",
    ),
    "emit_report precision=-10**5000": (
        lambda: emit_report([_CORR_ROW], "json", precision=-_BIG),
        f"emit_report requires precision >= 1 and <= 100000, got {int_str(-_BIG)}",
    ),
}


@pytest.mark.parametrize("case", list(_BIG_INT_CHECKS))
def test_messages_repeat_ints_past_the_str_digit_limit(case):
    # str() of such an int raises a bare ValueError, so the check must not use it
    call, message = _BIG_INT_CHECKS[case]
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message and "\n" not in message


# ---------------------------------------------------------------------------
# budgets


def _scan(*argv):
    """The records of ``srscorr scan ARGV``, before they are rendered."""
    return cli._VERBS["scan"][2](cli._parse(["scan", *argv]))


_NEAR_10_7, _NEAR_10_6 = (",".join(str(N + i) for i in range(1000)) for N in (10**7, 10**6))
_REFUSAL = "[a-z_]+: .+ is past the budget of {}$"  # caller: what

# "module.NAME" of each public budget -> (its value; (cost, call) pairs, each passing at that budget and refused one
# below; calls past the budget; the (owner, name) of the work that they must not reach; argvs of a verb past it)
_BUDGETS = {
    "correlation.RESULT_DIGIT_BUDGET": (
        10**5,
        [(5, lambda: corr_exact(2, 10, 5)), (4, lambda: theorem_limit(2, Fraction(1, 3)))],
        # limit --k 200000 took 19.7 s before the budget; for N past 4300 digits the estimate reads N.bit_length()
        [lambda: theorem_limit(200_000, Fraction(1, 3)), lambda: corr_exact(2, 10**60_000, 1),
         lambda: corr_exact(100_000, 10**7, 4 * 10**6)],
        [(correlation, "perm"), (correlation, "normal_moment")],
        [["limit", "--k", "200000", "--f", "1/3"], ["corr", "--k", "100000", "--N", "10000000", "--n", "4000000"]],
    ),
    "oracle.ENUMERATION_BUDGET": (
        10_000_000,
        [(20, lambda: brute_force_corr(2, 6, 3))],
        # C(10^7 + 1, 1) is one past; C(26, 13) > 10^7 > C(24, 12); C(10^6, 5 10^5) in full took 11.7 s
        [lambda: brute_force_corr(1, 10**7 + 1, 1), lambda: brute_force_corr(2, 26, 13),
         lambda: brute_force_corr(2, 10**6, 5 * 10**5)],
        [(oracle.itertools, "combinations")],
        [],
    ),
    "oracle.MC_STEP_BUDGET": (
        2**32,  # trials x max(n, 1): each batch seeds its states even when n = 0
        [(100, lambda: monte_carlo_corr(2, 10, 5, trials=20)), (100, lambda: monte_carlo_corr(2, 10, 0, trials=100))],
        [lambda: monte_carlo_corr(3, 100, 50, trials=10**11), lambda: monte_carlo_corr(2, 10, 0, trials=2**32 + 1)],
        [(oracle, "_intersection_histogram")],
        [["mc", "--k", "3", "--N", "100", "--n", "50", "--trials", "100000000000"]],
    ),
    "ppoly.PPOLY_BUDGET": (
        200_000,  # m * max(2m, k) additions build the value rows
        [(200_000, lambda: p_poly(2000, 100))],
        [lambda: p_poly(200_001, 1), lambda: p_poly(2, 317), lambda: p_poly(2001, 100)],
        [(ppoly, "_p_step")],
        [["ppoly", "--k", "2", "--m", "2000"]],
    ),
    "report.PRECISION_BUDGET": (
        10**5,  # rendering time grows with the square of the digits, so 10^8 would run for days
        [(10**5, lambda: decimal_str(Fraction(1, 3), 10**5)), (12, lambda: emit_report([_CORR_ROW], "csv", 12))],
        [lambda: decimal_str(Fraction(1, 3), 10**5 + 1), lambda: emit_report([_CORR_ROW], "json", 10**8)],
        [(report, "int_str"), (report, "row_to_obj")],
        [["corr", "--k", "3", "--N", "10", "--n", "5", "--precision", "100000000"]],
    ),
    "cli.SCAN_DIGIT_BUDGET": (
        10**6,
        [  # 5 + 7 result digits and four 12-digit decimal columns; 5 digits and two of 30
            (60, lambda: _scan("--k", "2", "--f", "1/2", "--grid", "10,20")),
            (65, lambda: _scan("--k", "2", "--f", "1/2", "--grid", "10", "--precision", "30")),
        ],
        [],
        [(correlation, "corr_exact")],
        [  # about 14 and 8 minutes of scanning
            ["scan", "--k", "6000", "--f", "1/3", "--grid", _NEAR_10_7],
            ["scan", "--k", "2", "--f", "1/3", "--grid", _NEAR_10_6, "--precision", "100000"],
        ],
    ),
}


def test_every_public_budget_has_a_row():
    modules = [info.name for info in pkgutil.iter_modules(srscorr.__path__) if info.name != "__main__"]
    names = {f"{m}.{name}" for m in modules for name in vars(getattr(srscorr, m))}
    assert {name for name in names if name.endswith("_BUDGET") and "._" not in name} == set(_BUDGETS)
    assert issubclass(EnumerationBoundError, DomainError)  # so every budget refusal is a DomainError


@pytest.mark.parametrize("name", sorted(_BUDGETS))
def test_each_budget_admits_its_ceiling_and_refuses_past_it_up_front(name, capsys):
    value, ceilings, past, work, argvs = _BUDGETS[name]
    module, constant = getattr(srscorr, name.split(".")[0]), name.split(".")[1]
    assert getattr(module, constant) == value
    error = EnumerationBoundError if constant == "ENUMERATION_BUDGET" else DomainError
    for cost, call in ceilings:
        with mock.patch.object(module, constant, cost):
            call()
        with mock.patch.object(module, constant, cost - 1), pytest.raises(error, match=_REFUSAL.format(cost - 1)):
            call()
    with contextlib.ExitStack() as stack:
        for owner, attr in work:
            stack.enter_context(mock.patch.object(owner, attr, side_effect=AssertionError(f"reached {attr}")))
        for call in past:
            start = time.perf_counter()
            with pytest.raises(error, match=f"^{_REFUSAL.format(value)}"):
                call()
            assert time.perf_counter() - start < 0.5
        for argv in argvs:
            start = time.perf_counter()
            assert cli.run(argv) == 2 and time.perf_counter() - start < 0.5
            out, err = capsys.readouterr()
            assert out == "" and re.fullmatch(f"error: {_REFUSAL.format(value)}\n", err)

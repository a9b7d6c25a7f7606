"""The public surface: the exported names, the exact domain messages of
the functions that take a (k, N, n) design, and the argument checks of the
other entry points."""

import ast
import contextlib
import pathlib
import pkgutil
import re
import time
from fractions import Fraction
from unittest import mock

import pytest

import srscorr
from srscorr import cli, correlation, oracle, ppoly, report, verify
from srscorr.correlation import (
    alpha_coefficients,
    coefficient_limit,
    convergence_scan,
    corr_exact,
    evaluate_correlation,
    parity_exponent,
    theorem_limit,
)
from srscorr.errors import DomainError, EnumerationBoundError, check_at_least, int_str
from srscorr.exactnum import (
    alternating_fraction_sum,
    bernoulli,
    binomial,
    double_factorial_odd,
    falling_factorial,
    gamma_ratio,
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
from srscorr.ppoly import Poly, elementary_sum_oracle, falling_factorial_via_p0, p0_eval, p_poly
from srscorr.report import decimal_str, emit_report
from srscorr.verify import run_suite


def test_public_names_are_pinned():
    # A removal or addition must be made here explicitly.
    assert sorted(srscorr.__all__) == [
        "AlphaTable", "CheckResult", "CorrRecord", "DEFAULT_MC_SEED", "DomainError",
        "EnumerationBoundError", "LimitSpec", "McEstimate", "PolyRecord", "SplitMix64",
        "SrsCorrError", "alpha_coefficients", "binomial", "brute_force_corr", "coefficient_limit",
        "convergence_scan", "corr_exact", "decimal_str", "emit_report", "evaluate_correlation",
        "falling_factorial", "hypergeom_inclusion_prob", "limit_spec", "monte_carlo_corr",
        "normal_moment", "p0_eval", "p_poly", "parity_exponent", "parse_rational", "rational_str",
        "run_suite", "sample_srs", "theorem_limit",
    ]


def test_run_suite_and_check_result_are_the_verify_objects():
    # the package resolves run_suite on first access; CheckResult lives in report and verify re-exports it
    assert srscorr.run_suite is verify.run_suite
    assert srscorr.CheckResult is verify.CheckResult


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from srscorr import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == sorted(srscorr.__all__)
    assert len(srscorr.__all__) == 33


def test_proof_kernels_are_imported_from_their_modules_only():
    # verify, the demos and the tests reach these through their modules, not the package
    kernels = {
        srscorr.exactnum: ["alternating_fraction_sum", "bernoulli", "gamma_ratio", "stirling_first_unsigned",
                           "stirling_second", "sum_of_powers"],
        ppoly: ["Poly", "elementary_sum_oracle", "falling_factorial_via_p0", "weighted_prefix_poly"],
    }
    for module, names in kernels.items():
        for name in names:
            assert callable(getattr(module, name)), name
            assert not hasattr(srscorr, name), name
    assert type(p_poly(2, 1)) is Poly


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
_BIG = 10**5000  # past the interpreter's 4300-digit int-to-str limit
_MINUS_BIG = int_str(-_BIG)

# call as written -> (the call, its whole DomainError message).  Every
# ``check_at_least`` call site has a row for each name it checks, called with
# -10**5000, and so has every two-sided check that repeats an int, called with
# ±10**5000 where it can; hand-written compares also have rows at their edges.
_REFUSALS = {
    # exactnum
    "binomial(-10**5000, 1)": (lambda: binomial(-_BIG, 1), f"binomial requires n >= 0, got n={_MINUS_BIG}"),
    "falling_factorial(3, -10**5000)": (
        lambda: falling_factorial(3, -_BIG),
        f"falling_factorial requires j >= 0, got j={_MINUS_BIG}",
    ),
    "stirling_first_unsigned(-10**5000, 0)": (
        lambda: stirling_first_unsigned(-_BIG, 0),
        f"stirling_first_unsigned requires j >= 0, got j={_MINUS_BIG}",
    ),
    "stirling_second(2, -10**5000)": (
        lambda: stirling_second(2, -_BIG),
        f"stirling_second requires k >= 0, got k={_MINUS_BIG}",
    ),
    "stirling_second(-10**5000, 0)": (
        lambda: stirling_second(-_BIG, 0),
        f"stirling_second requires m >= 0, got m={_MINUS_BIG}",
    ),
    "bernoulli(-10**5000)": (lambda: bernoulli(-_BIG), f"bernoulli requires p >= 0, got p={_MINUS_BIG}"),
    "power_sum_coefficients(-10**5000)": (
        lambda: power_sum_coefficients(-_BIG),
        f"power_sum_coefficients requires m >= 0, got m={_MINUS_BIG}",
    ),
    "sum_of_powers(3, -10**5000)": (
        lambda: sum_of_powers(3, -_BIG),
        f"sum_of_powers requires m >= 0, got m={_MINUS_BIG}",
    ),
    "sum_of_powers(-10**5000, 0)": (
        lambda: sum_of_powers(-_BIG, 0),
        f"sum_of_powers requires k >= 0, got k={_MINUS_BIG}",
    ),
    "normal_moment(-10**5000)": (lambda: normal_moment(-_BIG), f"normal_moment requires k >= 0, got k={_MINUS_BIG}"),
    "double_factorial_odd(-10**5000)": (
        lambda: double_factorial_odd(-_BIG),
        f"double_factorial_odd requires t >= -1, got t={_MINUS_BIG}",
    ),
    "double_factorial_odd(-2)": (lambda: double_factorial_odd(-2), "double_factorial_odd requires t >= -1, got t=-2"),
    "gamma_ratio(-10**5000, 1)": (lambda: gamma_ratio(-_BIG, 1), f"gamma_ratio requires m >= 1, got m={_MINUS_BIG}"),
    "gamma_ratio(1, -10**5000)": (
        lambda: gamma_ratio(1, -_BIG),
        f"gamma_ratio requires beta > 0, got beta={_MINUS_BIG}",
    ),
    "gamma_ratio(1, 1/10**5000)": (
        lambda: gamma_ratio(1, Fraction(1, _BIG)),
        f"1/{int_str(_BIG)} is neither an integer nor a half-integer",
    ),
    "alternating_fraction_sum(-10**5000, 1, 1, 1, 1)": (
        lambda: alternating_fraction_sum(-_BIG, 1, 1, 1, 1),
        f"alternating_fraction_sum requires m >= 1, got m={_MINUS_BIG}",
    ),
    "alternating_fraction_sum(1, 1, 1, 1, -10**5000)": (
        lambda: alternating_fraction_sum(1, 1, 1, 1, -_BIG),
        f"alternating_fraction_sum requires beta/gamma > 0, got {_MINUS_BIG}",
    ),
    # correlation, and check_design's N >= 1
    "corr_exact(2, -10**5000, 1)": (lambda: corr_exact(2, -_BIG, 1), f"corr_exact requires N >= 1, got N={_MINUS_BIG}"),
    "corr_exact(2, 10**5000, 10**5000 + 1)": (
        lambda: corr_exact(2, _BIG, _BIG + 1),
        f"corr_exact requires 0 <= n <= N, got n={int_str(_BIG + 1)}, N={int_str(_BIG)}",
    ),
    "parity_exponent(-10**5000)": (
        lambda: parity_exponent(-_BIG),
        f"parity_exponent requires k >= 0, got k={_MINUS_BIG}",
    ),
    "theorem_limit(-10**5000, 1/3)": (
        lambda: theorem_limit(-_BIG, Fraction(1, 3)),
        f"theorem_limit requires k >= 0, got k={_MINUS_BIG}",
    ),
    "alpha_coefficients(-10**5000)": (
        lambda: alpha_coefficients(-_BIG),
        f"alpha_coefficients requires k >= 0, got k={_MINUS_BIG}",
    ),
    "f_coefficient(10**5000, 10) at k=3": (
        lambda: alpha_coefficients(3).f_coefficient(_BIG, 10),
        f"f_coefficient requires 0 <= v <= 3, got v={int_str(_BIG)}",
    ),
    "f_coefficient(4, 10) at k=3": (
        lambda: alpha_coefficients(3).f_coefficient(4, 10),
        "f_coefficient requires 0 <= v <= 3, got v=4",
    ),
    "f_coefficient(-1, 10) at k=3": (
        lambda: alpha_coefficients(3).f_coefficient(-1, 10),
        "f_coefficient requires 0 <= v <= 3, got v=-1",
    ),
    "coefficient_limit(2, -10**5000)": (
        lambda: coefficient_limit(2, -_BIG),
        f"coefficient_limit requires v >= 0, got v={_MINUS_BIG}",
    ),
    "coefficient_limit(-10**5000, 0)": (
        lambda: coefficient_limit(-_BIG, 0),
        f"coefficient_limit requires k >= 0, got k={_MINUS_BIG}",
    ),
    "convergence_scan(-10**5000, 1/2, [10])": (
        lambda: convergence_scan(-_BIG, Fraction(1, 2), [10]),
        f"convergence_scan requires k >= 2, got k={_MINUS_BIG}",
    ),
    "convergence_scan(2, 1/2, [-10**5000, 10])": (
        lambda: convergence_scan(2, Fraction(1, 2), [-_BIG, 10]),
        f"convergence_scan requires N >= 2, got N={_MINUS_BIG}",
    ),
    # ppoly
    "Poly.coefficient(-10**5000)": (
        lambda: Poly([1]).coefficient(-_BIG),
        f"Poly.coefficient requires i >= 0, got i={_MINUS_BIG}",
    ),
    "Poly ** -10**5000": (lambda: Poly([1]) ** -_BIG, f"Poly exponent must be a non-negative int, got {_MINUS_BIG}"),
    "p_poly(-10**5000, 1)": (lambda: p_poly(-_BIG, 1), f"p_poly requires k >= 0, got k={_MINUS_BIG}"),
    "p_poly(1, -10**5000)": (lambda: p_poly(1, -_BIG), f"p_poly requires m >= 0, got m={_MINUS_BIG}"),
    # p0_eval compares inline and calls check_at_least only to refuse, so its rows include each bound's edge
    "p0_eval(-10**5000, 2, 1)": (lambda: p0_eval(-_BIG, 2, 1), f"p0_eval requires k >= 0, got k={_MINUS_BIG}"),
    "p0_eval(1, -10**5000, 1)": (lambda: p0_eval(1, -_BIG, 1), f"p0_eval requires m >= 0, got m={_MINUS_BIG}"),
    "p0_eval(1, 2, -10**5000)": (lambda: p0_eval(1, 2, -_BIG), f"p0_eval requires j >= 0, got j={_MINUS_BIG}"),
    "p0_eval(-1, 0, 0)": (lambda: p0_eval(-1, 0, 0), "p0_eval requires k >= 0, got k=-1"),
    "p0_eval(0, -1, 0)": (lambda: p0_eval(0, -1, 0), "p0_eval requires m >= 0, got m=-1"),
    "p0_eval(0, 0, -1)": (lambda: p0_eval(0, 0, -1), "p0_eval requires j >= 0, got j=-1"),
    "elementary_sum_oracle(3, 1, -10**5000)": (
        lambda: elementary_sum_oracle(3, 1, -_BIG),
        f"elementary_sum_oracle requires u >= 0, got u={_MINUS_BIG}",
    ),
    "elementary_sum_oracle(3, -10**5000, 0)": (
        lambda: elementary_sum_oracle(3, -_BIG, 0),
        f"elementary_sum_oracle requires v >= 0, got v={_MINUS_BIG}",
    ),
    "elementary_sum_oracle(-10**5000, 0, 5)": (
        lambda: elementary_sum_oracle(-_BIG, 0, 5),
        f"elementary_sum_oracle window ends before it starts: j_top={_MINUS_BIG}, u=5",
    ),
    "falling_factorial_via_p0(1, -10**5000, 0)": (
        lambda: falling_factorial_via_p0(1, -_BIG, 0),
        f"falling_factorial_via_p0 requires 0 <= k <= j, got (j=1, k={_MINUS_BIG})",
    ),
    # oracle
    "sample_srs(10**5000, 10**5000 + 1, SplitMix64(1))": (
        lambda: sample_srs(_BIG, _BIG + 1, SplitMix64(1)),
        f"sample_srs requires 0 <= n <= N, got n={int_str(_BIG + 1)}, N={int_str(_BIG)}",
    ),
    "SplitMix64(1).next_below(2**70000)": (
        lambda: SplitMix64(1).next_below(2**70000),
        f"next_below requires 1 <= bound <= 2^64, got {int_str(2**70000)}",
    ),
    "trial_stream_seed(0, -10**5000)": (
        lambda: trial_stream_seed(0, -_BIG),
        f"trial_stream_seed requires t >= 0, got t={_MINUS_BIG}",
    ),
    "brute_force_corr(1, 3, 1, members=(-10**5000,))": (
        lambda: brute_force_corr(1, 3, 1, members=(-_BIG,)),
        f"H must be k distinct units from 0..2, got ({_MINUS_BIG})",
    ),
    "monte_carlo_corr(2, 10**5000, 3, 10)": (
        lambda: monte_carlo_corr(2, _BIG, 3, 10),
        f"monte_carlo_corr requires N < 2^64, got N={int_str(_BIG)}",
    ),
    "monte_carlo_corr(2, 10, 3, -10**5000)": (
        lambda: monte_carlo_corr(2, 10, 3, -_BIG),
        f"monte_carlo_corr requires trials >= 1, got trials={_MINUS_BIG}",
    ),
    # report and verify
    "decimal_str(1, -10**5000)": (
        lambda: decimal_str(1, -_BIG),
        f"decimal_str requires digits >= 1, got digits={_MINUS_BIG}",
    ),
    "emit_report precision=-10**5000": (
        lambda: emit_report([_CORR_ROW], "json", precision=-_BIG),
        f"emit_report requires precision >= 1, got precision={_MINUS_BIG}",
    ),
    "emit_report precision=0": (
        lambda: emit_report([_CORR_ROW], "json", precision=0),
        "emit_report requires precision >= 1, got precision=0",
    ),
    "emit_report of mixed rows": (
        lambda: emit_report([_CORR_ROW, monte_carlo_corr(2, 10, 5, trials=10)], "json"),
        "all rows in a report must share the same columns",
    ),
    "run_suite('all', -10**5000)": (
        lambda: run_suite("all", -_BIG),
        f"run_suite requires max_k >= 0, got max_k={_MINUS_BIG}",
    ),
    "run_suite('nope')": (
        lambda: run_suite("nope"),
        "unknown suite 'nope'; choose from ('exactnum', 'ppoly', 'correlation', 'oracle', 'all')",
    ),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_each_refusal_is_one_whole_line(case):
    # str() of an int past the digit limit raises a bare ValueError, so no message may use it
    call, message = _REFUSALS[case]
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message and "\n" not in message


def test_check_at_least_admits_its_bound_and_names_the_first_value_below_it():
    check_at_least("caller", -1, t=-1, u=0)
    with pytest.raises(DomainError, match=r"^caller requires u >= -1, got u=-2$"):
        check_at_least("caller", -1, t=5, u=-2, v=-3)


def _check_at_least_sites():
    """(caller, low, names) of every ``check_at_least`` call in the package
    source, with caller None where it is not a literal."""
    sites = []
    for path in sorted(pathlib.Path(srscorr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_at_least":
                caller, low = node.args
                name = caller.value if isinstance(caller, ast.Constant) else None
                sites.append((name, ast.literal_eval(low), [keyword.arg for keyword in node.keywords]))
    return sites


def test_every_check_at_least_site_has_a_refusal_row():
    sites = _check_at_least_sites()
    assert len(sites) >= 25  # the walk found the package source
    messages = [message for _, message in _REFUSALS.values()]
    for caller, low, names in sites:
        caller = r"\S+" if caller is None else re.escape(caller)
        for name in names:
            pattern = rf"{caller} requires {name} >= {low}, got {name}="
            assert any(re.match(pattern, message) for message in messages), f"no row for {pattern}"


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
        # limit --k 200000 took 19.7 s before the budget; for N past 4300 digits the estimate reads N.bit_length();
        # brute_force_corr(2 10^6, 2 10^6, 0) has one subset, but building N^k took 9 s
        [lambda: theorem_limit(200_000, Fraction(1, 3)), lambda: corr_exact(2, 10**60_000, 1),
         lambda: corr_exact(100_000, 10**7, 4 * 10**6), lambda: brute_force_corr(2 * 10**6, 2 * 10**6, 0)],
        [(correlation, "perm"), (correlation, "normal_moment")],
        [["limit", "--k", "200000", "--f", "1/3"], ["corr", "--k", "100000", "--N", "10000000", "--n", "4000000"]],
    ),
    "oracle.ENUMERATION_BUDGET": (
        10_000_000,  # C(N, n) x (n + k + 6): each sample costs n + k steps and about 6 more to draw it
        [(220, lambda: brute_force_corr(2, 6, 3))],
        # C(26, 13) > 10^7; C(10^6, 5 10^5) in full took 11.7 s; C(10^7, 10^7 - 1) = 10^7 subsets of 10^7 steps
        # each, where the time grows as N^2 (1.66 s at N = 10^4); 2 10^6 one-unit subsets cost 7 steps each
        [lambda: brute_force_corr(1, 10**7 + 1, 1), lambda: brute_force_corr(2, 26, 13),
         lambda: brute_force_corr(2, 10**6, 5 * 10**5), lambda: brute_force_corr(2, 10**7, 10**7 - 1),
         lambda: brute_force_corr(0, 2 * 10**6, 1)],
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
    "cli.GRID_GEOM_BUDGET": (
        10**9,  # limb products, estimated from bit lengths
        [(12, lambda: _scan("--k", "2", "--f", "1/2", "--grid-geom", "10:2:4"))],
        [lambda: cli._geom_sizes(2, 10**200 + 1, 10**100, 1000)],
        [(cli, "convergence_scan")],
        [  # 70 s and 2.5 s of building the sizes
            ["scan", "--k", "2", "--f", "1/3", "--grid-geom", f"2:{10**200 + 1}/{10**100}:1000"],
            ["scan", "--k", "2", "--f", "1/3", "--grid-geom", f"2:{10**40 + 1}/{10**20}:1000"],
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

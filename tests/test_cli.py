"""End-to-end tests of the command line: verbs, output formats, exit
codes, and the --out byte stream."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srscorr import cli
from srscorr.correlation import CorrRecord, LimitSpec, evaluate_correlation, limit_spec
from srscorr.oracle import DEFAULT_MC_SEED, McEstimate, monte_carlo_corr
from srscorr.ppoly import PolyRecord, p_poly
from srscorr.report import columns_of, parse_corr_row, parse_mc_row, parse_row
from srscorr.verify import SUITE_NAMES, CheckResult


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verbs


def test_corr_verb_json(capsys):
    code, out, err = run_cli(capsys, "corr", "--k", "2", "--N", "10", "--n", "5")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["corr"] == "-1/36"
    assert obj["scaled"] == "-5/18"
    assert obj["limit"] == "-1/4"
    assert obj["f"] == "1/2"


def test_corr_verb_csv(capsys):
    code, out, _ = run_cli(capsys, "corr", "--k", "2", "--N", "10", "--n", "5", "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    assert header.startswith("k,N,n,f,corr,scaled")
    assert row.startswith("2,10,5,1/2,-1/36")


def test_limit_verb(capsys):
    code, out, _ = run_cli(capsys, "limit", "--k", "3", "--f", "1/3")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == "4/27"
    assert obj["exponent"] == 2


def test_scan_verb_matches_documented_example(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--k", "2", "--f", "1/2", "--grid", "10", "--precision", "6"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["scaled"] == "-5/18"
    assert obj["limit"] == "-1/4"
    assert obj["scaled_decimal"] == "-0.277778"


def test_scan_verb_emits_one_line_per_population_size(capsys):
    code, out, _ = run_cli(capsys, "scan", "--k", "3", "--f", "2/5", "--grid", "20,40,80")
    assert code == 0
    lines = out.splitlines()
    assert [json.loads(line)["N"] for line in lines] == [20, 40, 80]


def test_scan_geometric_grid(capsys):
    code, out, _ = run_cli(capsys, "scan", "--k", "2", "--f", "1/2", "--grid-geom", "10:2:4")
    assert code == 0
    assert [json.loads(line)["N"] for line in out.splitlines()] == [10, 20, 40, 80]


def test_scan_geometric_grid_rational_factor(capsys):
    # 10 * (3/2)^i rounded half-up: 10, 15, 22.5 -> 23, 33.75 -> 34
    code, out, _ = run_cli(capsys, "scan", "--k", "2", "--f", "1/2", "--grid-geom", "10:3/2:4")
    assert code == 0
    assert [json.loads(line)["N"] for line in out.splitlines()] == [10, 15, 23, 34]


def test_scan_warns_and_continues_on_degenerate_sizes(capsys):
    code, out, err = run_cli(capsys, "scan", "--k", "2", "--f", "1/100", "--grid", "10,200")
    assert code == 0
    assert [json.loads(line)["N"] for line in out.splitlines()] == [200]
    assert "warning" in err.lower()


def test_ppoly_verb_round_trips_coefficients(capsys):
    code, out, _ = run_cli(capsys, "ppoly", "--k", "6", "--m", "2")
    assert code == 0
    record = parse_row(PolyRecord, out)
    assert record.degree == 4
    assert record.coefficients == p_poly(6, 2).coeffs


def test_mc_verb_is_reproducible_and_matches_library(capsys):
    args = ("mc", "--k", "2", "--N", "10", "--n", "5", "--trials", "20000")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    est = monte_carlo_corr(2, 10, 5, trials=20000, seed=DEFAULT_MC_SEED)
    assert obj["mean"] == est.mean
    assert obj["stderr"] == est.stderr
    assert obj["seed"] == DEFAULT_MC_SEED


def test_mc_verb_memory_does_not_grow_with_population(capsys):
    for N in (2**31 + 5, 10**12):
        tracemalloc.start()
        try:
            code = cli.run(["mc", "--k", "3", "--N", str(N), "--n", "3", "--trials", "2000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        est = parse_mc_row(capsys.readouterr().out)
        assert (est.k, est.N, est.n, est.trials) == (3, N, 3, 2000)
        assert peak < 16 * 2**20, (N, peak)


def test_verify_verb_passes_on_a_small_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "exactnum", "--max-k", "6")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all(row["passed"] is True for row in rows)
    assert all(row["suite"] == "exactnum" for row in rows)


def test_verify_verb_reports_failures_with_exit_3(capsys, monkeypatch):
    failing = CheckResult(
        suite="exactnum", identity="forced-failure", params="k <= 1", passed=False, detail="boom"
    )
    monkeypatch.setattr(cli, "run_suite", lambda name, max_k: [failing])
    code, out, _ = run_cli(capsys, "verify", "--suite", "exactnum")
    assert code == 3
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["corr", "--k", "2", "--N", "10", "--n", "5"], CorrRecord),
        (["limit", "--k", "3", "--f", "1/3"], LimitSpec),
        (["scan", "--k", "2", "--f", "1/2", "--grid", "10,20"], CorrRecord),
        (["mc", "--k", "2", "--N", "10", "--n", "5", "--trials", "100"], McEstimate),
        (["ppoly", "--k", "2", "--m", "1"], PolyRecord),
        (["verify", "--suite", "exactnum", "--max-k", "2"], CheckResult),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_csv_header_is_the_record_kinds_columns(capsys, argv, kind):
    # the verb table names no record kind: the header comes from the rows the verb returns
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and err == ""
    assert tuple(next(csv.reader(io.StringIO(out)))) == columns_of(kind)


# ---------------------------------------------------------------------------
# output plumbing


def test_out_writes_identical_bytes(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "corr", "--k", "4", "--N", "30", "--n", "12", "--out", str(target))
    assert code == 0
    assert target.read_bytes() == out.encode("utf-8")


def test_csv_out_is_rfc4180_parseable(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "ppoly", "--max-k", "4", "--format", "csv", "--out", str(target)
    )
    assert code == 0
    import csv as csvmod
    import io

    rows = list(csvmod.reader(io.StringIO(target.read_text())))
    assert rows[0] == ["suite", "identity", "params", "passed", "cases", "detail"]
    assert all(row[3] == "true" for row in rows[1:])


@pytest.mark.parametrize("target", [".", "missing/x"], ids=["a directory", "a missing parent"])
def test_unwritable_out_exits_2_with_one_line(target, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "srscorr", "corr", "--k", "2", "--N", "10", "--n", "5", "--out", str(tmp_path / target)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert parse_corr_row(proc.stdout) == evaluate_correlation(2, 10, 5)


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_2_with_one_line(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "srscorr", "limit", "--k", "3", "--f", "1/3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def _int_max_str_digits():
    # the process-wide limit exists from Python 3.11 (and 3.10.7) on
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_limit_past_the_int_to_str_digit_limit_is_exact(capsys):
    before = _int_max_str_digits()
    for format in ("json", "csv"):
        code, out, err = run_cli(capsys, "limit", "--k", "10000", "--f", "1/3", "--format", format)
        assert code == 0 and err == ""
        rows = [json.loads(out)] if format == "json" else list(csv.DictReader(io.StringIO(out)))
        assert [parse_row(LimitSpec, row) for row in rows] == [limit_spec(10000, Fraction(1, 3))]
        assert len(rows[0]["value"]) > 4300
    assert _int_max_str_digits() == before


def test_precision_past_the_int_to_str_digit_limit_is_exact(capsys):
    before = _int_max_str_digits()
    code, out, err = run_cli(capsys, "corr", "--k", "2", "--N", "10", "--n", "5", "--precision", "5000")
    assert code == 0 and err == ""
    assert parse_corr_row(out) == evaluate_correlation(2, 10, 5)
    obj = json.loads(out)
    for column, value in (("scaled_decimal", Fraction(-5, 18)), ("abs_error_decimal", Fraction(1, 36))):
        whole, frac = obj[column].split(".")
        assert len(frac) == 5000
        # round() of a Fraction rounds half to even in exact integer arithmetic
        assert int(Decimal(whole + frac)) == round(value * 10**5000)
    assert _int_max_str_digits() == before


def test_large_output_exits_zero_without_a_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "srscorr", "limit", "--k", "10000", "--f", "1/3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert parse_row(LimitSpec, proc.stdout) == limit_spec(10000, Fraction(1, 3))


def test_scan_past_the_int_to_str_digit_limit_exits_2_with_one_line(capsys):
    # factor 10^100 over 50 sizes puts N past 4300 digits, which the int column cannot print
    for format in ("json", "csv"):
        argv = ["scan", "--k", "2", "--f", "1/2", "--grid-geom", f"10:{10**100}:50", "--format", format]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: column 'N'") and err.count("\n") == 1


def _fraction_grid(start, factor, count):
    """The geometric grid as the CLI defined it first, in ``Fraction``s."""
    grid, value = [], Fraction(start)
    for _ in range(count):
        entry = floor(value + Fraction(1, 2))
        if not grid or entry != grid[-1]:
            grid.append(entry)
        value *= factor
    return grid


@given(
    st.integers(-(10**7), 10**7),
    st.integers(1, 10**4).flatmap(lambda q: st.tuples(st.integers(q + 1, 100 * q), st.just(q))),
    st.integers(1, 12),
)
@example(-7, (3, 2), 5)  # a negative start rounds half up too: -7 * 3/2 = -10.5 -> -10
@example(5, (11, 10), 12)  # 5.5 rounds up to 6, and 6.05 then collides with it
def test_grid_geom_matches_the_fraction_loop(start, factor, count):
    p, q = factor
    assert cli._geom_sizes(*cli._grid_geom(f"{start}:{p}/{q}:{count}")) == _fraction_grid(start, Fraction(p, q), count)


def test_grid_geom_count_past_the_cap_is_refused_up_front(capsys):
    # at k = 2 a scan over 10^4 sizes took 11 s and printed 77 MB; 10^9 would never end
    assert len(cli._geom_sizes(*cli._grid_geom(f"2:2:{cli._GRID_MAX}"))) == cli._GRID_MAX
    start = time.perf_counter()
    for count in (cli._GRID_MAX + 1, 10**9):
        code, out, err = run_cli(capsys, "scan", "--k", "2", "--f", "1/2", "--grid-geom", f"2:2:{count}")
        assert code == 1 and out == ""
        assert err.startswith("usage error: --grid-geom") and "count must be <= 1000" in err
        assert err.count("\n") == 1
    assert time.perf_counter() - start < 0.5


def test_grid_past_the_cap_is_refused_up_front(capsys):
    # the cap --grid-geom has: a --grid of 10^4 sizes at k = 2 ran 0.24 s and printed 1.8 MB
    sizes = [str(N) for N in range(10, 10 + cli._GRID_MAX + 1)]
    assert cli._grid_csv(",".join(sizes[:-1])) == list(range(10, 10 + cli._GRID_MAX))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "scan", "--k", "2", "--f", "1/2", "--grid", ",".join(sizes))
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err.startswith("usage error: --grid") and "at most 1000 sizes" in err
    assert err.count("\n") == 1


def test_help_exits_zero(capsys):
    helps = {}
    for argv in (["--help"], ["-h"], ["corr", "--help"], ["corr", "--k", "2", "--help"], ["verify", "-h"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv
        helps[" ".join(argv)] = out  # help goes to stdout
    assert all(verb in helps["--help"] for verb in ("corr", "limit", "scan", "mc", "ppoly", "verify"))
    assert helps["-h"] == helps["--help"]
    for flag in ("--k", "--N", "--n", "--format", "--precision", "--out"):
        assert re.search(rf"{flag}\b", helps["corr --help"]), flag
    assert helps["corr --k 2 --help"] == helps["corr --help"]


# ---------------------------------------------------------------------------
# exit codes


_CORR_2_10_5 = (
    '{"k": 2, "N": 10, "n": 5, "f": "1/2", "corr": "-1/36", "scaled": "-5/18", '
    '"scaled_decimal": "-0.277777777778", "limit": "-1/4", "abs_error_decimal": "0.027777777778"}\n'
)
_SCAN_4_CSV = (
    "k,N,n,f,corr,scaled,scaled_decimal,limit,abs_error_decimal\n"
    "4,100,40,2/5,586/32676875,9376/52283,0.179331713941,108/625,0.006531713941\n"
    "4,200,80,2/5,1186/269520625,75904/431233,0.176016213972,108/625,0.003216213972\n"
)


def test_usage_errors_exit_1(capsys):
    bad_argvs = [
        [],  # no verb
        ["frobnicate"],  # unknown verb
        ["corr", "--k", "2", "--N", "10"],  # missing --n
        ["corr", "--k", "2.5", "--N", "10", "--n", "5"],  # malformed integer
        ["limit", "--k", "2", "--f", "0.5"],  # float literal rejected
        ["corr", "--k", "2", "--N", "10", "--n", "5", "--format", "yaml"],
        ["corr", "--k", "2", "--N", "10", "--n", "5", "--frob"],
        ["scan", "--k", "2", "--f", "1/2"],  # no grid at all
        ["scan", "--k", "2", "--f", "1/2", "--grid-geom", "10:1:3"],  # factor not > 1
        ["verify", "--suite", "nonsense"],
        ["corr", "--k"],  # no value
        ["corr", "--k", "--N", "10", "--n", "5"],  # a flag where a value belongs
        ["corr", "--k", "2", "--N", "10", "--n", "5", "stray"],
        ["scan", "--k", "2", "--f", "1/2", "--grid", "10", "--grid-geom", "10:2:3"],  # both grids
        ["scan", "--k", "2", "--f", "1/2", "--gri", "10"],  # ambiguous prefix of --grid and --grid-geom
    ]
    for argv in bad_argvs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("usage error:") and err.count("\n") == 1, argv
    # after the usage errors, run() still prints what a fresh process prints
    # (the pinned bytes below)
    scan = ["scan", "--k", "4", "--f", "2/5", "--grid", "100,200", "--format", "csv"]
    assert run_cli(capsys, "corr", "--k", "2", "--N", "10", "--n", "5") == (0, _CORR_2_10_5, "")
    assert run_cli(capsys, *scan) == (0, _SCAN_4_CSV, "")


def test_flag_spellings_give_the_same_record(capsys):
    """``--flag=value``, a repeated flag (the last value wins) and a unique
    prefix (``--prec``) read as the plain spelling does."""
    for argv in (
        ["corr", "--k=2", "--N", "10", "--n=5"],
        ["corr", "--k", "9", "--k", "2", "--N", "10", "--n", "5"],
        ["corr", "--k", "2", "--N", "10", "--n", "5", "--prec", "12"],
    ):
        assert run_cli(capsys, *argv) == (0, _CORR_2_10_5, ""), argv


def test_computation_errors_exit_2(capsys):
    bad_argvs = [
        ["corr", "--k", "2", "--N", "10", "--n", "11"],  # n > N
        ["corr", "--k", "2", "--N", "10", "--n", "0"],  # no limit at f = 0
        ["limit", "--k", "2", "--f", "7/5"],  # fraction outside (0,1)
        ["scan", "--k", "1", "--f", "1/2", "--grid", "10,20"],  # order below 2
        ["scan", "--k", "2", "--f", "1/2", "--grid", "20,10"],  # non-ascending grid
        ["scan", "--k", "2", "--f", "1/100", "--grid", "10"],  # every grid point rounds to n = 0: no record
        ["mc", "--k", "2", "--N", "10", "--n", "5", "--trials", "0"],
        ["mc", "--k", "3", "--N", "100", "--n", "50", "--trials", "100000000000"],  # past the Monte Carlo budget
        ["verify", "--max-k", "-1"],  # negative cap
        ["corr", "--k", "2", "--N", "10", "--n", "5", "--precision", "0"],  # no decimal digits
        ["corr", "--k", "3", "--N", "10", "--n", "5", "--precision", "100000000"],  # past the precision budget
    ]
    for argv in bad_argvs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


# value pools of the argv fuzzer below
_INTS = st.integers(-1, 60).map(str)
# The widest int that argv parses has 4300 digits, and a rational literal has no digit limit.
_K, _N, _M, _Z = "9" * 4299, "9" * 4300, "9" * 2200, "1" + "0" * 5000
_ORDERS = st.one_of(_INTS, st.sampled_from(["200000", _K]))
_RATIONALS = st.sampled_from(["0", "1", "1/100", "1/3", "2/5", "7/5", "0.5", "1/0", "p/q", _Z, f"1/{_Z}"])
_SIZES = st.lists(st.integers(-1, 60), max_size=5)
_GRID = st.one_of(_SIZES, _SIZES.map(sorted), st.just(list(range(2, 1003)))).map(
    lambda sizes: ",".join(map(str, sizes))
)
_GRID_GEOM = st.tuples(_INTS, _RATIONALS, st.one_of(st.integers(-1, 5), st.just(10**9))).map(
    lambda parts: ":".join(map(str, parts))
)
_OUT = "<out>"  # replaced by a path under the test's temporary directory
_EXTRA_FLAGS = {
    "--format": st.sampled_from(["json", "csv", "yaml"]),
    "--precision": st.one_of(_INTS, st.just("100000000")),
    "--out": st.just(_OUT),
    "--frob": _INTS,  # no verb has it
}
# verb -> (flags always given, so that no draw runs long; the verb's other
# flags, each dropped now and then; flags the fuzzer adds now and then)
_VERB_FLAGS = {
    "corr": ({}, {"--k": _ORDERS, "--N": _INTS, "--n": _INTS}, {}),
    "limit": ({}, {"--k": _ORDERS, "--f": _RATIONALS}, {}),
    "scan": ({}, {"--k": _ORDERS, "--f": _RATIONALS, "--grid": _GRID}, {"--grid-geom": _GRID_GEOM}),
    "mc": (
        {"--trials": st.one_of(_INTS, st.sampled_from(["2000", "100000000000", _K]))},
        {"--k": _INTS, "--N": _INTS, "--n": _INTS},
        {"--seed": _INTS},
    ),
    "ppoly": ({}, {"--k": _INTS, "--m": st.one_of(_INTS, st.sampled_from(["2000", _K]))}, {}),
    "verify": (
        {"--max-k": st.sampled_from(["-1", "0", "1"])},
        {},
        {"--suite": st.sampled_from(SUITE_NAMES + ("all", "nope"))},
    ),
}


@st.composite
def _argvs(draw):
    verb = draw(st.sampled_from(sorted(_VERB_FLAGS)))
    always, usual, extra = _VERB_FLAGS[verb]
    pools = {**always, **usual, **extra, **_EXTRA_FLAGS}
    dropped = draw(st.sampled_from(sorted(usual))) if usual and draw(st.integers(0, 3)) == 0 else None
    added = draw(st.lists(st.sampled_from(sorted({**extra, **_EXTRA_FLAGS})), unique=True, max_size=2))
    flags = [*always, *(flag for flag in usual if flag != dropped), *added]
    if draw(st.integers(0, 4)) == 0:
        flags.append(draw(st.sampled_from(flags)))  # a repeated flag: its last value wins
    argv = [verb]
    for flag in draw(st.permutations(flags)):
        value = draw(pools[flag])
        # joined only when the two-token spelling reads the value as a value, not a flag
        if not value.startswith("-") and draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


def _run_quietly(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=200)
@given(_argvs())
@example(["scan", "--k", "2", "--f", "1/100", "--grid", "10,200", "--precision", "0"])  # a warning, then an error
# each of these raised ValueError while building its message, before every message named its budget, not its cost
@example(["corr", "--k", _K, "--N", _N, "--n", "1"])
@example(["limit", "--k", _K, "--f", "1/3"])
@example(["ppoly", "--k", "2", "--m", _M])
@example(["mc", "--k", "2", "--N", "18000000000000000000", "--n", "10000000000000000000", "--trials", _K])
# and these while echoing f or the grid
@example(["limit", "--k", "2", "--f", _Z])
@example(["scan", "--k", "2", "--f", f"1/{_Z}", "--grid", "10"])
@example(["scan", "--k", "2", "--f", "1/3", "--grid-geom", f"1:{_Z}:3"])
# past the scan budget alone: 5 x 2 x 10^5 decimal digits and the result digits
@example(["scan", "--k", "2", "--f", "1/3", "--grid-geom", "1000000:2:5", "--precision", "100000"])
def test_any_argv_exits_with_a_documented_code_and_one_line(tmp_path_factory, argv):
    """``cli.run`` returns 0-3 for any argv drawn from each verb's own flags,
    the shared flags and one unknown flag, and never raises; a usage error
    (1) or a computation error (2) prints exactly one stderr line.  Each
    ``--flag=value`` reads as ``--flag value`` does: the same exit code and
    the same stdout.  Every int is at most 60, and ``verify`` always gets a
    ``--max-k`` of at most 1, so no draw can run long.  The ``--k`` of
    ``corr``, ``limit`` and ``scan`` may also be 2 * 10^5 or a 4299-digit
    int, which the result digit budget or the scan budget refuses.  A
    ``--grid`` has at most 5 sizes, or 1001, which the size cap refuses, and
    a ``--grid-geom`` COUNT is at most 5, or 10^9, which the COUNT cap
    refuses.  A rational may have 5001 digits (10^5000 or its reciprocal),
    as an ``--f`` or a ``--grid-geom`` factor.  MC runs at most 2000 trials,
    or 10^11 or a 4299-digit count, which the Monte Carlo budget refuses;
    ``--precision`` is at most 60, or 10^8, which the precision budget (or,
    in a scan, the scan budget) refuses; ppoly's ``--m`` is at most 60, or
    2000 or a 4299-digit int, which the ppoly budget refuses.  The examples
    include argvs that once ended in a traceback, and a scan that only the
    scan budget refuses."""
    out = tmp_path_factory.getbasetemp() / "fuzz-out"
    argv = [token.replace(_OUT, str(out)) for token in argv]
    code, stdout, err = _run_quietly(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code in (1, 2):
        assert err.startswith("usage error:" if code == 1 else "error:"), (argv, err)
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    two_tokens = [part for token in argv for part in (token.split("=", 1) if token.startswith("--") else [token])]
    if two_tokens != argv:
        assert _run_quietly(two_tokens)[:2] == (code, stdout), (argv, two_tokens)


def test_mc_population_beyond_64_bits_exits_2(capsys):
    code = cli.run(["mc", "--k", "2", "--N", str(2**64), "--n", "3", "--trials", "10"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "srscorr", "limit", "--k", "2", "--f", "1/2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "-1/4"


def test_import_loads_no_argparse():
    """The CLI parses argv from its verb table, so importing it loads none of
    argparse or the gettext and locale modules that argparse pulls in."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = "import sys, srscorr.cli; print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

"""Tests for exact decimal rendering and the JSON-lines / CSV report
emitters, including loss-free round trips of evaluated records."""

import csv
import io
import json
from decimal import ROUND_05UP, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from srscorr.correlation import CorrRecord, LimitSpec, evaluate_correlation, limit_spec
from srscorr.errors import DomainError
from srscorr.oracle import McEstimate, monte_carlo_corr
from srscorr.ppoly import PolyRecord
from srscorr.report import (
    CORR_COLUMNS,
    columns_of,
    decimal_str,
    emit_report,
    parse_corr_row,
    parse_mc_row,
    parse_row,
    row_to_obj,
)
from srscorr.verify import CheckResult


# ---------------------------------------------------------------------------
# decimal rendering


def test_decimal_str_plain_values():
    assert decimal_str(Fraction(1, 4), 2) == "0.25"
    assert decimal_str(Fraction(-1, 4), 2) == "-0.25"
    assert decimal_str(Fraction(5, 1), 3) == "5.000"
    assert decimal_str(0, 4) == "0.0000"
    assert decimal_str(7, 1) == "7.0"
    assert decimal_str(Fraction(-1, 36), 6) == "-0.027778"


def test_decimal_str_rounds_half_to_even():
    assert decimal_str(Fraction(1, 8), 2) == "0.12"  # 0.125 -> even digit 2
    assert decimal_str(Fraction(3, 8), 2) == "0.38"  # 0.375 -> even digit 8
    assert decimal_str(Fraction(-1, 8), 2) == "-0.12"
    assert decimal_str(Fraction(25, 2), 1) == "12.5"
    assert decimal_str(Fraction(1, 40), 2) == "0.02"  # 0.025 -> even digit 2
    assert decimal_str(Fraction(3, 40), 2) == "0.08"  # 0.075 -> even digit 8


@st.composite
def _value_and_digits(draw):
    digits = draw(st.integers(1, 80))
    num = draw(st.integers(-(10**40), 10**40))
    den = draw(
        st.one_of(
            st.integers(1, 10**40),
            st.just(2 * 10**digits),  # with an odd numerator, an exact tie at the last digit
            st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 150), st.integers(0, 150)),
        )
    )
    return Fraction(num, den), digits


@given(_value_and_digits())
@example((Fraction(1, 8), 2))
@example((Fraction(-3, 8), 2))
@example((Fraction(-1, 3000), 3))
def test_decimal_str_equals_decimal_half_even_quantize(case):
    value, digits = case
    # ROUND_05UP keeps the digit that half-even needs, given at least one
    # digit beyond the quantum, so the two roundings equal one exact rounding
    whole_digits = len(str(abs(value.numerator) // value.denominator))
    with localcontext(prec=whole_digits + digits + 3, rounding=ROUND_05UP):
        approx = Decimal(value.numerator) / Decimal(value.denominator)
        expected = approx.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN)
    if expected.is_zero():
        expected = expected.copy_abs()  # decimal_str never prints -0
    assert decimal_str(value, digits) == format(expected, "f")


def test_decimal_str_never_prints_negative_zero():
    assert decimal_str(Fraction(-1, 10**9), 3) == "0.000"
    assert decimal_str(Fraction(-1, 3 * 10**8), 2) == "0.00"


def test_decimal_str_is_exact_not_float():
    # 10^-20 is far below float resolution; exact integer arithmetic keeps it
    assert decimal_str(Fraction(1, 10**20), 20) == "0.00000000000000000001"
    assert decimal_str(Fraction(10**40 + 1, 10**40), 40) == "1." + "0" * 39 + "1"


def test_decimal_str_requires_at_least_one_digit():
    # the renderer always prints a decimal point, so digits >= 1
    with pytest.raises(DomainError):
        decimal_str(Fraction(1, 2), 0)
    with pytest.raises(DomainError):
        decimal_str(Fraction(1, 2), -1)


# ---------------------------------------------------------------------------
# emitters


def test_emit_json_lines_for_corr_records():
    rows = [evaluate_correlation(2, N, N // 2) for N in (10, 20)]
    text = emit_report(rows, "json", precision=6)
    lines = text.splitlines()
    assert len(lines) == 2
    obj = json.loads(lines[0])
    assert obj["k"] == 2 and obj["N"] == 10 and obj["n"] == 5
    assert obj["f"] == "1/2"
    assert obj["corr"] == "-1/36"
    assert obj["scaled"] == "-5/18"
    assert obj["scaled_decimal"] == "-0.277778"
    assert obj["limit"] == "-1/4"
    assert obj["abs_error_decimal"] == "0.027778"
    assert list(obj.keys()) == list(CORR_COLUMNS)


def test_emit_csv_for_corr_records():
    rows = [evaluate_correlation(2, 10, 5)]
    text = emit_report(rows, "csv", precision=6)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == list(CORR_COLUMNS)
    record = dict(zip(parsed[0], parsed[1]))
    assert record["corr"] == "-1/36"
    assert record["scaled_decimal"] == "-0.277778"
    assert len(parsed) == 2


def test_emit_csv_header_only_when_empty():
    text = emit_report([], "csv", columns=CORR_COLUMNS)
    assert text.splitlines() == [",".join(CORR_COLUMNS)]
    assert emit_report([], "json") == ""


def test_emit_report_rejects_unknown_format():
    with pytest.raises(DomainError):
        emit_report([], "xml")


def test_limit_rows():
    text = emit_report([limit_spec(3, Fraction(1, 3))], "json", precision=8)
    obj = json.loads(text)
    assert list(obj.keys()) == list(columns_of(LimitSpec))
    assert obj["value"] == "4/27"
    assert obj["value_decimal"] == "0.14814815"
    assert obj["exponent"] == 2


def test_mc_rows_carry_floats_exactly():
    est = monte_carlo_corr(2, 10, 5, trials=3000, seed=17)
    text = emit_report([est], "json")
    obj = json.loads(text)
    assert list(obj.keys()) == list(columns_of(McEstimate))
    assert obj["mean"] == est.mean  # repr round-trip keeps every bit
    assert obj["stderr"] == est.stderr
    assert obj["trials"] == 3000 and obj["seed"] == 17


@pytest.mark.parametrize("format", ["json", "csv"])
def test_an_int_past_the_digit_limit_is_refused_by_name(format):
    # neither JSON nor CSV parsing could read such an int back, so no output is the exact answer
    est = McEstimate(k=2, N=10**5000, n=3, trials=10, seed=1, mean=0.0, stderr=0.0)
    with pytest.raises(DomainError, match="column 'N'"):
        emit_report([est], format)


def test_row_to_obj_passes_prebuilt_dicts_through():
    # callers handing in dicts are responsible for JSON-safe values already
    obj = row_to_obj({"a": "1/3", "b": 2, "flag": True}, precision=4)
    assert obj == {"a": "1/3", "b": 2, "flag": True}
    with pytest.raises(DomainError):
        row_to_obj(object(), precision=4)


# ---------------------------------------------------------------------------
# round trips: emit -> parse is the identity for every record kind


_ints = st.integers(-(10**30), 10**30)
# 7^5200 has 4395 digits and 11^4400 has 4583, so many of the large rationals
# run past the interpreter's 4300-digit int-to-str limit on one side of the
# fraction bar or both
_huge = st.builds(
    lambda p, q, e, d: Fraction(p, q) * Fraction(7) ** e / Fraction(11) ** d,
    st.integers(-(10**9), 10**9),
    st.integers(1, 10**9),
    st.integers(-5200, 5200),
    st.sampled_from([0, 4400, 4700]),
)
_rationals = st.one_of(st.fractions(), _huge)
_text = st.text()

_RECORDS = {
    CorrRecord: st.builds(
        CorrRecord,
        k=_ints, N=_ints, n=_ints, f=_rationals, corr=_rationals, scaled=_rationals, limit=_rationals
    ),
    LimitSpec: st.builds(LimitSpec, k=_ints, f=_rationals, value=_rationals, exponent=_ints),
    McEstimate: st.builds(
        McEstimate,
        k=_ints, N=_ints, n=_ints, trials=_ints, seed=_ints,
        mean=st.floats(allow_nan=False, allow_infinity=False),
        stderr=st.floats(allow_nan=False, allow_infinity=False),
    ),
    PolyRecord: st.builds(
        PolyRecord, k=_ints, m=_ints, degree=_ints, coefficients=st.lists(_rationals, max_size=4).map(tuple)
    ),
    CheckResult: st.builds(
        CheckResult, suite=_text, identity=_text, params=_text, passed=st.booleans(), cases=_ints, detail=_text
    ),
}


def _parse_document(kind, text: str, format: str) -> list:
    if format == "json":
        return [parse_row(kind, line) for line in text.splitlines()]
    return [parse_row(kind, row) for row in csv.DictReader(io.StringIO(text))]


@pytest.mark.parametrize("format", ["json", "csv"])
@pytest.mark.parametrize("kind", list(_RECORDS), ids=lambda kind: kind.__name__)
# no shrink phase: shrinking records of 5000-digit rationals takes minutes,
# so a failure reports the first example that broke the identity
@settings(
    max_examples=25,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_emit_then_parse_is_identity(kind, format, data):
    records = data.draw(st.lists(_RECORDS[kind], min_size=1, max_size=3))
    precision = data.draw(st.integers(1, 60))
    text = emit_report(records, format, precision)
    assert _parse_document(kind, text, format) == records
    assert emit_report(records, format, precision) == text


def test_parse_corr_and_mc_rows_accept_lines_and_row_dicts():
    rec = evaluate_correlation(4, 26, 11)
    assert parse_corr_row(emit_report([rec], "json")) == rec
    (row,) = csv.DictReader(io.StringIO(emit_report([rec], "csv")))
    assert parse_corr_row(row) == rec
    est = monte_carlo_corr(3, 12, 5, trials=4000, seed=23)
    assert parse_mc_row(emit_report([est], "json")) == est
    (row,) = csv.DictReader(io.StringIO(emit_report([est], "csv")))
    assert parse_mc_row(row) == est


def test_csv_quotes_a_report_with_a_lone_carriage_return():
    result = CheckResult(suite="s", identity="i", params="p", passed=True, detail="a\rb")
    text = emit_report([result], "csv")
    assert text.splitlines()[0] == '"suite","identity","params","passed","cases","detail"'
    assert _parse_document(CheckResult, text, "csv") == [result]

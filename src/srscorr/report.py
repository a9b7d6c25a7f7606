"""Serialization of result rows: JSON lines and RFC-4180 CSV.

Each record kind has one field spec in ``SCHEMAS``, and its columns, emitted
rows and parsed records are all derived from it.  Exact rationals are
rendered canonically as ``p/q`` (lowest terms, positive denominator) or bare
``p`` for integers, at any length, so parsing them back loses nothing.
Decimal columns are display-only: rendered by exact integer arithmetic with
half-to-even rounding at a configurable number of digits (the float never
enters), and never parsed.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from functools import partial

from .correlation import CorrRecord, LimitSpec
from .errors import DomainError, check_at_least, check_budget, int_str
from .exactnum import parse_rational, rational_str
from .oracle import McEstimate
from .ppoly import PolyRecord
from .verify import CheckResult

__all__ = [
    "decimal_str",
    "PRECISION_BUDGET",
    "row_to_obj",
    "emit_report",
    "parse_row",
    "parse_corr_row",
    "parse_mc_row",
    "columns_of",
    "SCHEMAS",
    "CORR_COLUMNS",
]


# The most fractional digits a decimal column may have.  Rendering time grows
# with the square of the digits: on a 2-core host one column of 10^5 digits
# takes about 0.2 s, and one of 4 * 10^5 digits 3.4 s.
PRECISION_BUDGET = 10**5


def decimal_str(value: Fraction | int, digits: int) -> str:
    """Fixed-point decimal string of an exact rational, rounded half-to-even
    at ``digits`` fractional digits, computed in integer arithmetic."""
    check_at_least("decimal_str", 1, digits=digits)
    check_budget("decimal_str", "the digit count", digits, PRECISION_BUDGET)
    if not isinstance(value, (Fraction, int)):
        value = Fraction(value)
    negative = value < 0
    num, den = abs(value.numerator), value.denominator
    scaled = num * 10**digits
    q, r = divmod(scaled, den)
    double = 2 * r
    if double > den or (double == den and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, 10**digits)
    sign = "-" if negative and q != 0 else ""
    return f"{sign}{int_str(whole)}.{int_str(frac).rjust(digits, '0')}"


def _same(value, precision):
    return value


def _parse_bool(cell) -> bool:
    return cell if isinstance(cell, bool) else {"true": True, "false": False}[cell]


def _parse_rationals(cell) -> tuple[Fraction, ...]:
    return tuple(parse_rational(item) for item in (json.loads(cell) if isinstance(cell, str) else cell))


# A codec is (emit, parse): emit(value, precision) gives a JSON-safe value;
# parse reads it back, as JSON decodes it or as a CSV cell, and is None for
# a display-only column.
INT = (_same, int)
RATIONAL = (lambda value, precision: rational_str(value), parse_rational)
DECIMAL = (decimal_str, None)
FLOAT = (_same, float)
BOOL = (_same, _parse_bool)
TEXT = (_same, str)
RATIONALS = (lambda values, precision: [rational_str(v) for v in values], _parse_rationals)


def _fields(codec, names: str) -> tuple:
    """(column, attribute, codec) for columns named after the attribute they read."""
    return tuple((name, name, codec) for name in names.split())


def _decimal(attr: str) -> tuple:
    """The display-only ``<attr>_decimal`` column."""
    return ((f"{attr}_decimal", attr, DECIMAL),)


# One field spec per record kind, in column order.
SCHEMAS: dict[type, tuple] = {
    CorrRecord: (
        _fields(INT, "k N n") + _fields(RATIONAL, "f corr scaled") + _decimal("scaled")
        + _fields(RATIONAL, "limit") + _decimal("abs_error")
    ),
    LimitSpec: _fields(INT, "k") + _fields(RATIONAL, "f value") + _decimal("value") + _fields(INT, "exponent"),
    McEstimate: _fields(INT, "k N n trials seed") + _fields(FLOAT, "mean stderr"),
    PolyRecord: _fields(INT, "k m degree") + _fields(RATIONALS, "coefficients"),
    CheckResult: (
        _fields(TEXT, "suite identity params") + _fields(BOOL, "passed") + _fields(INT, "cases")
        + _fields(TEXT, "detail")
    ),
}


def columns_of(kind: type) -> tuple[str, ...]:
    """Column names of a record kind, in output order."""
    return tuple(name for name, _, _ in SCHEMAS[kind])


CORR_COLUMNS = columns_of(CorrRecord)


def row_to_obj(row, precision: int) -> dict:
    """Flatten a record into an ordered plain dict of JSON-safe values; a
    plain dict row is passed through as it is.

    The passthrough has a caller outside the package: the benchmark's ppoly
    check (``perfbench/checks.py``, ``_check_ppoly``) re-emits a plain dict,
    so removing it would fail every ppoly op of the poly-tables and
    cli-coldstart workloads."""
    if isinstance(row, dict):
        return dict(row)
    schema = SCHEMAS.get(type(row))
    if schema is None:
        raise DomainError(f"cannot serialize row of type {type(row).__name__}")
    return {name: emit(getattr(row, attr), precision) for name, attr, (emit, _) in schema}


def parse_row(kind: type, line_or_obj):
    """Rebuild a record of type ``kind`` from one emitted JSON line or a
    parsed CSV row dict.  Every column but the display-only decimals is read
    back exactly."""
    obj = json.loads(line_or_obj) if isinstance(line_or_obj, str) else line_or_obj
    return kind(**{attr: parse(obj[name]) for name, attr, (_, parse) in SCHEMAS[kind] if parse})


parse_corr_row = partial(parse_row, CorrRecord)
parse_mc_row = partial(parse_row, McEstimate)


def emit_report(rows, format: str, precision: int = 12, columns=None) -> str:
    """Render rows to a complete output document.

    ``format`` is ``"json"`` (one JSON object per line) or ``"csv"``
    (header plus one record per line, RFC-4180 quoting).  All rows of one
    report must share a schema.  ``columns`` supplies the header for an
    empty CSV report; otherwise it is taken from the first row.
    """
    if format not in ("json", "csv"):
        raise DomainError(f"unknown report format: {format!r}")
    check_at_least("emit_report", 1, precision=precision)
    check_budget("emit_report", "the precision", precision, PRECISION_BUDGET)
    objs = [row_to_obj(row, precision) for row in rows]
    keys = list(objs[0].keys()) if objs else list(columns or ())
    for obj in objs:
        if list(obj.keys()) != keys:
            raise DomainError("all rows in a report must share the same columns")
    try:
        if format == "json":
            return "".join(json.dumps(obj) + "\n" for obj in objs)
        cells = [[_csv_cell(obj[key]) for key in keys] for obj in objs]
    except ValueError:
        column = _unprintable_column(objs, keys)
        if column is None:
            raise
        # neither format's parser could read such an int back, so refuse it
        raise DomainError(f"column {column!r} holds an integer past the int-to-str digit limit") from None
    if not keys:
        return ""
    # minimal quoting leaves a lone carriage return bare, and readers split lines there
    bare_cr = any("\r" in cell for row in cells for cell in row)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL if bare_cr else csv.QUOTE_MINIMAL)
    writer.writerow(keys)
    writer.writerows(cells)
    return buf.getvalue()


def _unprintable_column(objs, keys):
    """The first column whose value JSON cannot render (an int past the digit limit), or None."""
    for obj in objs:
        for key in keys:
            try:
                json.dumps(obj[key])
            except ValueError:
                return key
    return None


def _csv_cell(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)

"""Output checks, run by the parent after the timed passes.

Exact values are compared with references written here from the definitions,
not with the package's own routines: Corr(k) as a sum over the hypergeometric
pmf of |sample & H| (``math.comb``/``math.perm`` only), the scaled limit from
its closed form, and decimal columns from ``round`` on the exact rational.
Two checks compare with another package route instead: ``p_poly`` with
``p0_eval``, and ``AlphaTable.corr`` with ``corr_exact``.  The MC mean must
fall in a Bernstein band around ``corr_exact`` (see ``mc_band``).  Every CLI output must also survive parse -> ``emit_report``
byte for byte.

``check(op, text)`` returns None when the output is right, else a reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from srscorr import report
from srscorr.correlation import LimitSpec, corr_exact
from srscorr.exactnum import parse_rational
from srscorr.ppoly import p0_eval

# Chance that a correct MC mean falls outside its band, per op.
MC_FALSE_FAIL = 1e-9


def _product_law(k: int, N: int, n: int) -> list[tuple[Fraction, Fraction]]:
    """(probability, value) of prod_{A in H} (1_A - n/N) for each size i of
    |sample & H|: hypergeometric pmf C(k,i) (n)_i (N-n)_(k-i) / (N)_k."""
    f = Fraction(n, N)
    return [
        (Fraction(math.comb(k, i) * math.perm(n, i) * math.perm(N - n, k - i), math.perm(N, k)), (1 - f) ** i * (-f) ** (k - i))
        for i in range(k + 1)
    ]


def corr_reference(k: int, N: int, n: int) -> Fraction:
    """E prod_{A in H} (1_A - n/N) summed over the hypergeometric pmf."""
    return sum((p * v for p, v in _product_law(k, N, n)), Fraction(0))


def mc_band(k: int, N: int, n: int, trials: int) -> float:
    """Half-width of the band a correct MC mean stays in with probability
    1 - MC_FALSE_FAIL: Bernstein's inequality, a z-band with
    z = sqrt(2 ln(2/delta)) ~ 6.5 plus a term for the largest single
    outcome.  The range term matters when a rare outcome (all k units
    sampled, say) is heavy next to the standard error, where a plain z-band
    would fail correct runs."""
    law = _product_law(k, N, n)
    mean = sum((p * v for p, v in law), Fraction(0))
    variance = sum((p * (v - mean) ** 2 for p, v in law), Fraction(0))
    reach = max(abs(v - mean) for p, v in law if p)
    log_term = math.log(2 / MC_FALSE_FAIL)
    return math.sqrt(2 * variance * log_term / trials) + 2 * float(reach) * log_term / (3 * trials)


def _odd_double_factorial(m: int) -> int:
    return math.prod(range(1, m + 1, 2))


def limit_reference(k: int, f: Fraction) -> Fraction:
    """Closed-form limit of N^e(k) Corr(k) at fraction f."""
    ff = f * (f - 1)
    if k % 2 == 0:
        return ff ** (k // 2) * _odd_double_factorial(k - 1)
    return ff ** ((k - 1) // 2) * (2 * f - 1) * Fraction(k - 1, 3) * _odd_double_factorial(k)


def decimal_reference(value: Fraction, digits: int) -> str:
    q = round(value * 10**digits)  # Fraction rounds half to even
    whole, frac = divmod(abs(q), 10**digits)
    return f"{'-' if q < 0 else ''}{whole}.{frac:0{digits}d}"


def _rows(op: dict, text: str) -> list[dict]:
    if op["format"] == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    return [json.loads(line) for line in text.splitlines()]


def _round_trip(op: dict, text: str, records, columns=None) -> str | None:
    again = report.emit_report(records, op["format"], op["precision"], columns=columns)
    return None if again == text else "parse -> emit_report does not reproduce the output"


def _scan_grid(params: dict) -> list[tuple[int, int]]:
    start, factor, count = params["grid_geom"].split(":")
    factor, f = Fraction(factor), Fraction(params["f"])
    designs, last = [], None
    for i in range(int(count)):
        N = math.floor(int(start) * factor**i + Fraction(1, 2))
        if N == last:
            continue
        last = N
        n = math.floor(f * N + Fraction(1, 2))
        if 0 < n < N:
            designs.append((N, n))
    return designs


def _check_corr_rows(op: dict, text: str) -> str | None:
    params, precision = op["params"], op["precision"]
    rows = _rows(op, text)
    records = [report.parse_corr_row(row) for row in rows]
    if op["verb"] == "scan":
        expected = _scan_grid(params)
        target = Fraction(params["f"])
    else:
        expected = [(params["N"], params["n"])]
        target = None
    if [(r.N, r.n) for r in records] != expected:
        return f"designs {[(r.N, r.n) for r in records]} != expected {expected}"
    k = params["k"]
    for row, rec in zip(rows, records):
        if rec.k != k or rec.f != Fraction(rec.n, rec.N):
            return f"record header wrong at N={rec.N}"
        if rec.corr != corr_reference(k, rec.N, rec.n):
            return f"corr wrong at N={rec.N}"
        if rec.scaled != Fraction(rec.N) ** ((k + 1) // 2) * rec.corr:
            return f"scaled != N^e(k) corr at N={rec.N}"
        if rec.limit != limit_reference(k, target if target is not None else rec.f):
            return f"limit wrong at N={rec.N}"
        if row["scaled_decimal"] != decimal_reference(rec.scaled, precision):
            return f"scaled_decimal wrong at N={rec.N}"
        if row["abs_error_decimal"] != decimal_reference(abs(rec.scaled - rec.limit), precision):
            return f"abs_error_decimal wrong at N={rec.N}"
    return _round_trip(op, text, records, report.CORR_COLUMNS)


def _check_limit(op: dict, text: str) -> str | None:
    (row,) = _rows(op, text)
    k, f = op["params"]["k"], Fraction(op["params"]["f"])
    spec = LimitSpec(k=int(row["k"]), f=parse_rational(row["f"]), value=parse_rational(row["value"]), exponent=int(row["exponent"]))
    if (spec.k, spec.f, spec.exponent) != (k, f, (k + 1) // 2):
        return "limit header wrong"
    if spec.value != limit_reference(k, f):
        return "limit value wrong"
    if row["value_decimal"] != decimal_reference(spec.value, op["precision"]):
        return "value_decimal wrong"
    return _round_trip(op, text, [spec])


def _check_ppoly(op: dict, text: str) -> str | None:
    (row,) = _rows(op, text)
    k, m = op["params"]["k"], op["params"]["m"]
    coeffs = row["coefficients"]
    coeffs = [Fraction(c) for c in (json.loads(coeffs) if isinstance(coeffs, str) else coeffs)]
    if (int(row["k"]), int(row["m"]), int(row["degree"])) != (k, m, len(coeffs) - 1):
        return "ppoly header wrong"
    for j in range(k + 1):
        value = Fraction(0)
        for c in reversed(coeffs):
            value = value * j + c
        if value != p0_eval(k, m, j):
            return f"p_poly({k},{m})({j}) != p0_eval"
    again = {"k": k, "m": m, "degree": len(coeffs) - 1, "coefficients": [str(c) for c in coeffs]}
    return _round_trip(op, text, [again])


def _check_mc(op: dict, text: str) -> str | None:
    rows = _rows(op, text)
    if len(rows) != 1:
        return "mc printed more than one row"
    est = report.parse_mc_row(rows[0])
    p = op["params"]
    if (est.k, est.N, est.n, est.trials, est.seed) != (p["k"], p["N"], p["n"], p["trials"], p["seed"]):
        return "mc header wrong"
    exact = corr_exact(p["k"], p["N"], p["n"])
    band = mc_band(p["k"], p["N"], p["n"], p["trials"])
    if abs(est.mean - exact) > band:
        return f"mc mean {est.mean} is {abs(est.mean - exact) / band:.2f} band widths from {float(exact)}"
    return _round_trip(op, text, [est])


def _check_alpha(op: dict, text: str) -> str | None:
    row = json.loads(text)
    if Fraction(row["corr"]) != corr_exact(op["k"], op["N"], op["n"]):
        return "AlphaTable.corr != corr_exact"
    return None


_CHECKS = {
    "scan": _check_corr_rows,
    "corr": _check_corr_rows,
    "limit": _check_limit,
    "ppoly": _check_ppoly,
    "mc": _check_mc,
    "alpha": _check_alpha,
}


def check(op: dict, text: str) -> str | None:
    try:
        return _CHECKS[op["verb"]](op, text)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return f"unparseable output: {exc!r}"

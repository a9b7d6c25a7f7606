"""Command-line surface: ``srscorr VERB [--FLAG VALUE | --FLAG=VALUE] ...``.

A unique prefix names a flag (an exact name wins), a repeated flag keeps its
last value, and ``-h`` or ``--help`` after the verb, or alone, prints help.

Exit codes: 0 success or help; 1 usage error (an unknown verb or flag, an
ambiguous prefix, a flag with no value or followed by a flag-like token (``-``
then a character other than a digit or a dot), a stray token, a malformed
integer or rational literal or a value outside a flag's choices, a missing
required flag, ``scan`` with both or neither of ``--grid`` and
``--grid-geom``, a ``--grid`` of more than 1000 sizes, or a ``--grid-geom``
factor not above 1 or COUNT outside 1..1000; a usage error repeats at most
160 characters of a value); 2 computation error (a domain violation, e.g.
n > N, or f outside (0,1) as in ``--f -1/3``, or a cost past its budget: a
result's digits, ``--precision``, a Monte Carlo run's lane-steps, a ppoly
level's additions, the limb products that build a ``--grid-geom`` or a
whole scan's digits, each refused before the work with one
``error: CALLER: WHAT is past the budget of B`` line), a stdout
whose reader has closed it, or an ``--out`` file that cannot be written
(stdout has the output by then); 3 verification failure (``verify`` ran and
a check failed or compared nothing).

Rationals are exact literals ``p/q`` or bare integers: float syntax is
rejected, so no result silently inherits binary rounding.
"""

from __future__ import annotations

import os
import re
import sys
import warnings
from types import SimpleNamespace

from .correlation import _corr_digits, convergence_scan, evaluate_correlation, limit_spec
from .errors import SrsCorrError, check_budget
from .exactnum import parse_rational
from .oracle import DEFAULT_MC_SEED, monte_carlo_corr
from .ppoly import PolyRecord, p_poly
from .report import emit_report
from .verify import SUITE_NAMES, run_suite

__all__ = ["run", "main"]


# The most sizes a --grid or --grid-geom may ask for.  On a 2-core host `scan
# --k 2 --grid-geom 2:2:1000` takes about 0.35 s, and 10^4 sizes took 11 s and
# 77 MB of output: the time grows faster than the count.
_GRID_MAX = 1000

# The most digits a scan may compute and render, checked before its first
# record: the sum, over the grid, of each record's result size in digits (as
# ``corr_exact`` bounds it) and --precision for each of its two decimal
# columns.  On a 2-core host ten records near the result-digit ceiling (`scan
# --k 11500 --f 1/3` over N = 16000..16009, 969,560 digits) took 6.8 s, and
# three at `--k 6000` near N = 10^7 took 2.2 s, so 1000 would take 12 min.
SCAN_DIGIT_BUDGET = 10**6

# The most limb products (30-bit digits) that building a --grid-geom may take, as ``_geom_sizes`` estimates them:
# 0.3-1.6 ns each on a 2-core host.  `2:(10^200+1)/10^100:1000` took 70 s before this budget.
GRID_GEOM_BUDGET = 10**9

# The most characters of an argv value, or of the reason it was refused, that
# a usage error repeats: a refused 1001-size --grid is one short line.
_CUT_AT = 160


def _grid_csv(text: str) -> list[int]:
    sizes = [tok for tok in text.split(",") if tok.strip() != ""]
    if len(sizes) > _GRID_MAX:
        raise ValueError(f"at most {_GRID_MAX} sizes, got {len(sizes)}")
    return [int(tok) for tok in sizes]


def _grid_geom(text: str) -> tuple[int, int, int, int]:
    """``(start, p, q, count)`` of START:FACTOR:COUNT with factor p/q, checked; ``_geom_sizes`` builds the sizes."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected start:factor:count")
    start = int(parts[0])
    factor = parse_rational(parts[1])
    count = int(parts[2])
    if factor <= 1:
        raise ValueError("geometric factor must be > 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > _GRID_MAX:
        raise ValueError(f"count must be <= {_GRID_MAX}")
    return start, factor.numerator, factor.denominator, count


def _geom_sizes(start: int, p: int, q: int, count: int) -> list[int]:
    """The sizes floor(start (p/q)^i + 1/2), i < count, in integers, with rounding collisions dropped, built only
    once their limb products are found within ``GRID_GEOM_BUDGET``.  At step i, top = start p^i has at most s + i pb
    bits, bottom = q^i at most i qb + 1 and their quotient at most s + i (pb - qb + 1) + 1; a product costs its
    operands' limbs multiplied, and the division the quotient's limbs times the divisor's."""
    s, pb, qb = abs(start).bit_length(), p.bit_length(), q.bit_length()
    pl, ql = pb // 30 + 1, qb // 30 + 1  # limbs of p and q
    cost = sum(((s + i * pb) // 30 + 1) * pl + ((i * qb + 1) // 30 + 1) * (ql + (s + i * (pb - qb + 1) + 1) // 30 + 1)
               for i in range(count))
    check_budget("scan", "the limb-product count of its --grid-geom", cost, GRID_GEOM_BUDGET)
    grid: list[int] = []
    top, bottom = start, 1  # start (p/q)^i = top / bottom
    for _ in range(count):
        entry = (2 * top + bottom) // (2 * bottom)
        if not grid or entry != grid[-1]:  # drop rounding collisions
            grid.append(entry)
        top, bottom = top * p, bottom * q
    return grid


def _choice(*options: str):
    def convert(text: str) -> str:
        if text not in options:
            raise ValueError(f"choose from {', '.join(options)}")
        return text
    return convert


def _cut(text: str) -> str:
    """``text``, cut past _CUT_AT characters."""
    return text if len(text) <= _CUT_AT else text[:_CUT_AT] + "..."


def _scan(ns):
    grid = ns.grid if ns.grid is not None else _geom_sizes(*ns.grid_geom)
    cost = sum(_corr_digits(ns.k, N) + 2 * max(ns.precision, 0) for N in grid)
    check_budget("scan", "the digit count of its records", cost, SCAN_DIGIT_BUDGET)
    return convergence_scan(ns.k, ns.f, grid)


def _ppoly(ns) -> list[PolyRecord]:
    poly = p_poly(ns.k, ns.m)
    return [PolyRecord(k=ns.k, m=ns.m, degree=poly.degree, coefficients=poly.coeffs)]


# A flag is name -> (converter, default, help).  A flag whose default is
# _REQUIRED must be given, and exactly one of a verb's _ONE_OF flags must be.
_REQUIRED, _ONE_OF = object(), object()
_K, _N = (int, _REQUIRED, "correlation order"), (int, _REQUIRED, "population size")
_COMMON = {
    "format": (_choice("json", "csv"), "json", "output format, json or csv"),
    "precision": (int, 12, "decimal digits for decimal columns"),
    "out": (str, None, "also write the identical bytes to this file"),
}

# verb -> (help line, flags besides _COMMON, rows for the parsed flags): one row at least, or it raises.
# The computations look up module-level names at call time, so patching one takes effect.
_VERBS = {
    "corr": ("exact correlation record for one design",
             {"k": _K, "N": _N, "n": (int, _REQUIRED, "sample size, 0 < n < N so the limit column is defined")},
             lambda ns: [evaluate_correlation(ns.k, ns.N, ns.n)]),
    "limit": ("scaled large-N limit at order k, fraction f",
              {"k": _K, "f": (parse_rational, _REQUIRED, "sampling fraction as p/q in (0,1)")},
              lambda ns: [limit_spec(ns.k, ns.f)]),
    "scan": ("convergence scan over population sizes",
             {"k": _K, "f": (parse_rational, _REQUIRED, "target sampling fraction p/q"),
              "grid": (_grid_csv, _ONE_OF, "population sizes N1,N2,..., ascending (or --grid-geom)"),
              "grid-geom": (_grid_geom, _ONE_OF, "START:FACTOR:COUNT, COUNT sizes from START by FACTOR (or --grid)")},
             _scan),
    "mc": ("reproducible Monte Carlo estimate",
           {"k": _K, "N": _N, "n": (int, _REQUIRED, "sample size"), "trials": (int, 100_000, "number of trials"),
            "seed": (int, DEFAULT_MC_SEED, "PRNG seed")},
           lambda ns: [monte_carlo_corr(ns.k, ns.N, ns.n, ns.trials, ns.seed)]),
    "ppoly": ("recursion polynomial coefficients",
              {"k": _K, "m": (int, _REQUIRED, "recursion level, m >= 0 (degree 2m)")}, _ppoly),
    "verify": ("run identity/invariant suites",
               {"suite": (_choice(*SUITE_NAMES, "all"), "all", f"{', '.join(SUITE_NAMES)} or all"),
                "max-k": (int, None, "cap each check's range; a check capped below its lower bound fails")},
               lambda ns: run_suite(ns.suite, ns.max_k)),
}

_FLAG_LIKE = re.compile(r"-[^\d.]").match  # not a value: '-' then a character other than a digit or a dot


def _flag(token: str, flags) -> str | None:
    """The flag (or ``help``) that ``token`` names: ``-h``, or ``--NAME`` or a unique prefix of it; else None."""
    if token == "-h":
        return "help"
    prefix = token[2:] if token.startswith("--") else ""
    names = [name for name in (*flags, "help") if prefix and name.startswith(prefix)]
    if len(names) > 1 and prefix not in names:
        raise ValueError(f"ambiguous flag {_cut(repr(token))}")
    return prefix if prefix in names else next(iter(names), None)


def _help(verb: str | None) -> None:
    if verb is None:
        verbs = "".join(f"  {name:<8}{spec[0]}\n" for name, spec in _VERBS.items())
        print(f"{__doc__ or ''}\nverbs:\n{verbs}", end="")
        return
    text, flags, _ = _VERBS[verb]
    print(f"usage: srscorr {verb} [--FLAG VALUE ...]\n\n{text}\n\nflags:")
    for name, (_, default, line) in {**flags, **_COMMON}.items():
        note = {_REQUIRED: " (required)", _ONE_OF: "", None: ""}.get(default, f" (default {default})")
        print(f"  {'--' + name:<13}{line}{note}")


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The verb and its flags' values as attributes, or None once help is printed."""
    verb, *rest = argv or [""]
    if verb not in _VERBS:
        if verb.startswith("-") and _flag(verb, ()) == "help":
            return _help(None)
        raise ValueError(f"expected a verb ({', '.join(_VERBS)}), got {_cut(repr(verb))}")
    flags, stray, tokens = {**_VERBS[verb][1], **_COMMON}, None, iter(rest)
    values = {flag: spec[1] for flag, spec in flags.items()}
    for token in tokens:
        name, eq, value = token.partition("=")
        flag = _flag(name, flags)
        if flag is None:  # reported after the loop, so that a later --help still prints help
            stray = stray or token
        elif flag == "help":
            return _help(verb)
        elif not eq and ((value := next(tokens, None)) is None or _FLAG_LIKE(value)):
            raise ValueError(f"--{flag} expects a value")
        else:
            try:
                values[flag] = flags[flag][0](value)
            except ValueError as exc:
                raise ValueError(f"--{flag} {_cut(repr(value))}: {_cut(str(exc))}") from None
    if stray is not None:
        raise ValueError(f"unrecognized argument {_cut(repr(stray))}")
    missing = [f"--{flag}" for flag, value in values.items() if value is _REQUIRED]
    if missing:
        raise ValueError(f"missing {' '.join(missing)}")
    one_of = [flag for flag, spec in flags.items() if spec[1] is _ONE_OF]
    if one_of and sum(values[flag] is not _ONE_OF for flag in one_of) != 1:
        raise ValueError(f"give exactly one of --{' --'.join(one_of)}")
    return SimpleNamespace(verb=verb, **{f.replace("-", "_"): None if v is _ONE_OF else v for f, v in values.items()})


def run(argv) -> int:
    """Entry point with explicit argv (no implicit globals); returns the
    process exit code instead of raising SystemExit."""
    try:
        ns = _parse(list(argv))
    except ValueError as exc:  # argv does not parse
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if ns is None:
        return 0
    compute = _VERBS[ns.verb][2]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = compute(ns)
            text = emit_report(rows, ns.format, ns.precision)
    except SrsCorrError as exc:
        print(f"error: {exc}", file=sys.stderr)  # the one stderr line: warnings of a failed run are dropped
        return 2
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader is gone; point stdout at devnull so the flush at exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 2
    if ns.out:
        try:
            with open(ns.out, "wb") as sink:
                sink.write(text.encode("utf-8"))
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    return 3 if ns.verb == "verify" and not all(row.passed for row in rows) else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

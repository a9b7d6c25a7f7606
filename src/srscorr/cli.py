"""Command-line surface.

Verbs:

* ``corr``   — one exact correlation record for a design (k, N, n)
* ``limit``  — the scaled large-N limit at order k and fraction f
* ``scan``   — convergence scan over a grid of population sizes
* ``mc``     — reproducible Monte Carlo estimate for a design
* ``ppoly``  — coefficients of one recursion polynomial
* ``verify`` — run the identity/invariant checks, one row per check

Exit codes: 0 success; 1 usage error (argv does not parse: unknown verb or
flag, malformed integer or rational literal, missing required flag);
2 computation error (a domain or budget violation raised while executing
the verb, e.g. n > N, f outside (0,1), enumeration guard exceeded), a
stdout whose reader has closed it, or an ``--out`` file that cannot be
written (stdout has the output by then);
3 verification failure (``verify`` ran and a check failed or compared nothing).

Rationals on the command line are always exact literals ``p/q`` (or bare
integers) — float syntax is rejected so results never silently inherit
binary rounding.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from fractions import Fraction
from functools import cache
from math import floor

from .correlation import CorrRecord, LimitSpec, convergence_scan, evaluate_correlation, limit_spec
from .errors import SrsCorrError
from .exactnum import parse_rational
from .oracle import DEFAULT_MC_SEED, McEstimate, monte_carlo_corr
from .ppoly import PolyRecord, p_poly
from .report import columns_of, emit_report
from .verify import SUITE_NAMES, CheckResult, run_suite

__all__ = ["run", "main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exceptions, so the
    package owns its exit codes instead of argparse's default 2."""

    def error(self, message):
        raise _UsageError(message)


def _grid_csv(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _grid_geom(text: str) -> list[int]:
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
    grid: list[int] = []
    value = Fraction(start)
    for _ in range(count):
        entry = floor(value + Fraction(1, 2))
        if not grid or entry != grid[-1]:  # drop rounding collisions
            grid.append(entry)
        value *= factor
    return grid


def build_parser() -> _Parser:
    parser = _Parser(prog="srscorr", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json", help="output format (default json)")
    common.add_argument("--precision", type=int, default=12, help="decimal digits for decimal columns (default 12)")
    common.add_argument("--out", metavar="PATH", help="also write the identical bytes to this file")

    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("corr", parents=[common], help="exact correlation record for one design")
    p.add_argument("--k", type=int, required=True, help="correlation order")
    p.add_argument("--N", type=int, required=True, help="population size")
    p.add_argument("--n", type=int, required=True, help="sample size (0 < n < N so the limit column is defined)")

    p = sub.add_parser("limit", parents=[common], help="scaled large-N limit at order k, fraction f")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--f", type=parse_rational, required=True, help="sampling fraction as p/q in (0,1)")

    p = sub.add_parser("scan", parents=[common], help="convergence scan over population sizes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--f", type=parse_rational, required=True, help="target sampling fraction p/q")
    grids = p.add_mutually_exclusive_group(required=True)
    grids.add_argument("--grid", type=_grid_csv, help="comma-separated population sizes, ascending")
    grids.add_argument(
        "--grid-geom",
        type=_grid_geom,
        metavar="START:FACTOR:COUNT",
        help="geometric grid: COUNT sizes from START scaled by rational FACTOR (half-up rounding)",
    )

    p = sub.add_parser("mc", parents=[common], help="reproducible Monte Carlo estimate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_MC_SEED, help=f"PRNG seed (default {DEFAULT_MC_SEED})")

    p = sub.add_parser("ppoly", parents=[common], help="recursion polynomial coefficients")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("verify", parents=[common], help="run identity/invariant suites")
    p.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    max_k_help = "cap each check's range; a check capped below its lower bound fails"
    p.add_argument("--max-k", type=int, default=None, help=max_k_help)

    return parser


# The parser ``run`` uses, built on the first call rather than at import, so
# importing the package does not pay for it; ``parse_args`` leaves it
# unchanged, so every call can share it.
_shared_parser = cache(build_parser)


def _ppoly(ns) -> list[PolyRecord]:
    poly = p_poly(ns.k, ns.m)
    return [PolyRecord(k=ns.k, m=ns.m, degree=poly.degree, coefficients=poly.coeffs)]


# verb -> (record kind, rows for the parsed arguments).  The computations are
# looked up by module-level name at call time, so patching one takes effect.
_VERBS = {
    "corr": (CorrRecord, lambda ns: [evaluate_correlation(ns.k, ns.N, ns.n)]),
    "limit": (LimitSpec, lambda ns: [limit_spec(ns.k, ns.f)]),
    "scan": (CorrRecord, lambda ns: convergence_scan(ns.k, ns.f, ns.grid if ns.grid is not None else ns.grid_geom)),
    "mc": (McEstimate, lambda ns: [monte_carlo_corr(ns.k, ns.N, ns.n, ns.trials, ns.seed)]),
    "ppoly": (PolyRecord, _ppoly),
    "verify": (CheckResult, lambda ns: run_suite(ns.suite, ns.max_k)),
}


def run(argv) -> int:
    """Entry point with explicit argv (no implicit globals); returns the
    process exit code instead of raising SystemExit."""
    try:
        ns = _shared_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help prints and exits 0
        return 0 if exc.code in (0, None) else 1
    kind, compute = _VERBS[ns.verb]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = compute(ns)
            text = emit_report(rows, ns.format, ns.precision, columns=columns_of(kind))
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
    return 3 if kind is CheckResult and not all(row.passed for row in rows) else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

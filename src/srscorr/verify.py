"""Executable verification: one registry (``CHECKS``) of named checks, one for
each identity or invariant the package relies on, each returning a pass/fail row.

The checks deliberately re-derive everything through an independent route —
term-by-term summation against closed forms, brute-force enumeration against
the moment formula, polynomial expansion against pointwise recursion — so a
single implementation error cannot silently vouch for itself.  All checks
are exact except the ratio band of ``scaled-sequence-boundedness`` (within a
factor of 10); the samplers, too, are checked exactly, on every draw sequence
of small designs.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .correlation import (
    alpha_coefficients,
    coefficient_limit,
    corr_exact,
    parity_exponent,
    theorem_limit,
)
from .errors import DomainError, check_at_least
from .exactnum import (
    alternating_fraction_sum,
    bernoulli,
    binomial,
    double_factorial_odd,
    falling_factorial,
    gamma_ratio,
    kronecker_delta,
    normal_moment,
    power_sum_coefficients,
    stirling_first_unsigned,
    stirling_second,
    sum_of_powers,
)
from .oracle import (
    _GOLDEN,
    _MASK64,
    _MIX1,
    _MIX2,
    DEFAULT_MC_SEED,
    SplitMix64,
    _draw_below,
    _fisher_yates_blocks,
    _mix64,
    _tracked_histogram,
    brute_force_corr,
    hypergeom_inclusion_prob,
    monte_carlo_corr,
    sample_srs,
    trial_stream_seed,
)
from .ppoly import (
    Poly,
    elementary_sum_oracle,
    falling_factorial_via_p0,
    p0_eval,
    p_poly,
    weighted_prefix_poly,
)
from .report import CheckResult

__all__ = ["CHECKS", "Check", "CheckResult", "SUITE_NAMES", "run_suite"]

#: beta (or beta/gamma) values exercised by the Gamma-ratio identities.
_BETA_LATTICE = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))


class _Recorder:
    """Counts the comparisons of one check and keeps its first mismatches."""

    def __init__(self):
        self.cases = 0
        self.failures: list[str] = []

    def expect(self, condition: bool, describe: str) -> None:
        self.cases += 1
        if not condition and len(self.failures) < 4:
            self.failures.append(describe)

    def equal(self, lhs, rhs, where: str) -> None:
        self.cases += 1
        if lhs != rhs and len(self.failures) < 4:
            self.failures.append(f"{where}: {lhs} != {rhs}")


@dataclass(frozen=True)
class Check:
    """One registry entry.  ``body(recorder, top)`` makes the comparisons over
    the check's range up to ``top``; ``cap`` is the full range.  ``run(max_k)``
    caps the range at ``max_k``, and a check capped below its lower bound fails."""

    suite: str
    identity: str
    params: str  # str.format template of the range, filled in with ``top``
    cap: int
    body: object

    def run(self, max_k: int | None = None) -> CheckResult:
        top = self.cap if max_k is None else min(self.cap, max_k)
        params, r = self.params.format(top=top), _Recorder()
        try:
            self.body(r, top)
        except Exception as exc:  # a body that raises fails its own row, and the other rows still run
            detail = " ".join(f"{type(exc).__name__}: {exc}".splitlines())
            return CheckResult(self.suite, self.identity, params, False, r.cases, detail)
        passed = r.cases > 0 and not r.failures
        detail = "; ".join(r.failures) if r.cases else "no cases were compared"
        return CheckResult(self.suite, self.identity, params, passed, r.cases, detail)


#: Every check, in output order: grouped by suite, suites in ``SUITE_NAMES`` order.
CHECKS: list[Check] = []


def _check(suite: str, identity: str, params: str, cap: int):
    """Append the body to ``CHECKS``; ``cap`` is its full range, and capped below its lower bound it fails."""

    def register(body):
        CHECKS.append(Check(suite, identity, params, cap, body))
        return body

    return register


# ----------------------------------------------------------------------
# exactnum suite
# ----------------------------------------------------------------------


@_check("exactnum", "stirling2-alternating-power-sum", "0 <= m,k <= {top}", 14)
def _(r, top):
    for m in range(top + 1):
        for k in range(top + 1):
            lhs = sum((-1) ** j * binomial(k, j) * j**m for j in range(k + 1))
            rhs = (-1) ** k * math.factorial(k) * stirling_second(m, k)
            r.equal(lhs, rhs, f"m={m} k={k}")


@_check("exactnum", "bernoulli-recurrence", "0 <= m <= {top}", 24)
def _(r, top):
    for m in range(top + 1):
        lhs = sum(binomial(m + 1, j) * bernoulli(j) for j in range(m + 1))
        r.equal(lhs, kronecker_delta(m), f"m={m}")


@_check("exactnum", "power-sum-closed-form", "m <= {top}, k <= 50", 12)
def _(r, top):
    for m in range(top + 1):
        for k in range(51):
            direct = sum(p**m for p in range(k))  # 0**0 == 1 in Python
            r.equal(sum_of_powers(k, m), direct, f"m={m} k={k}")


@_check("exactnum", "power-sum-leading-coefficients", "m <= {top}", 12)
def _(r, top):
    for m in range(top + 1):
        coeffs = power_sum_coefficients(m)
        r.equal(len(coeffs), m + 2, f"m={m} length")
        r.equal(coeffs[0], 0, f"m={m} constant")
        r.equal(coeffs[m + 1], Fraction(1, m + 1), f"m={m} leading")
        if m >= 1:
            r.equal(coeffs[m], Fraction(-1, 2), f"m={m} subleading")


@_check("exactnum", "unit-step-binomial-sum", "1 <= m <= {top}", 12)
def _(r, top):
    for m in range(1, top + 1):
        lhs = sum((-1) ** n * binomial(m, n + 1) for n in range(m))
        r.equal(lhs, 1, f"m={m}")


@_check("exactnum", "delta-binomial-sum", "1 <= m <= {top}", 12)
def _(r, top):
    for m in range(1, top + 1):
        lhs = sum((-1) ** n * binomial(m - 1, n) for n in range(m))
        r.equal(lhs, kronecker_delta(m - 1), f"m={m}")


@_check("exactnum", "gamma-ratio-binomial-sum", "m <= {top}, beta in {{1/2,1,3/2,2,3}}", 12)
def _(r, top):
    for m in range(1, top + 1):
        for beta in _BETA_LATTICE:
            lhs = sum(Fraction((-1) ** n * binomial(m - 1, n)) / (n + beta) for n in range(m))
            r.equal(lhs, gamma_ratio(m, beta), f"m={m} beta={beta}")


@_check("exactnum", "weighted-gamma-ratio-sum", "m <= {top}, beta in {{1/2,1,3/2,2,3}}", 12)
def _(r, top):
    for m in range(1, top + 1):
        for beta in _BETA_LATTICE:
            lhs = sum(Fraction((-1) ** n * binomial(m - 1, n) * n) / (n + beta) for n in range(m))
            rhs = kronecker_delta(m - 1) - beta * gamma_ratio(m, beta)
            r.equal(lhs, rhs, f"m={m} beta={beta}")


@_check(
    "exactnum", "affine-fraction-sum-closed-form",
    "m <= {top}, beta/gamma in {{1/2,1,3/2,2,3}}, mixed affine coefficients", 12,
)
def _(r, top):
    affine_cases = (
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(-3)),
        (Fraction(1, 2), Fraction(5, 3)),
        (Fraction(2, 3), Fraction(-1, 5)),
    )
    for m in range(1, top + 1):
        for ratio in _BETA_LATTICE:
            for gamma in (Fraction(1), Fraction(2), Fraction(1, 3)):
                beta = ratio * gamma
                for alpha, delta in affine_cases:
                    lhs = sum(
                        Fraction((-1) ** n * binomial(m - 1, n)) * (alpha * n + delta) / (gamma * n + beta)
                        for n in range(m)
                    )
                    rhs = alternating_fraction_sum(m, alpha, delta, gamma, beta)
                    r.equal(lhs, rhs, f"m={m} alpha={alpha} delta={delta} gamma={gamma} beta={beta}")


@_check("exactnum", "gamma-half-integer-closed-form", "1 <= m <= {top}", 12)
def _(r, top):
    for m in range(1, top + 1):
        expected = Fraction(math.factorial(m - 1) ** 2 * 2 ** (2 * m - 1), math.factorial(2 * m - 1))
        r.equal(gamma_ratio(m, Fraction(1, 2)), expected, f"m={m}")


@_check("exactnum", "normal-moment-double-factorial", "k <= {top}", 20)
def _(r, top):
    for k in range(top + 1):
        if k % 2 == 1:
            r.equal(normal_moment(k), 0, f"k={k}")
        else:
            odd_product = math.prod(range(1, k, 2))
            r.equal(normal_moment(k), odd_product, f"k={k}")
            r.equal(double_factorial_odd(k - 1), odd_product, f"k={k} ({k - 1})!!")


@_check("exactnum", "falling-factorial-stirling1", "j <= {top}", 10)
def _(r, top):
    for j in range(top + 1):
        symbolic = Poly([1])
        for i in range(j):
            symbolic = symbolic * Poly([-i, 1])
        for v in range(j + 1):
            expected = stirling_first_unsigned(j, v) * (-1) ** (j - v)
            r.equal(symbolic.coefficient(v), expected, f"j={j} v={v}")


# ----------------------------------------------------------------------
# ppoly suite
# ----------------------------------------------------------------------

#: Fixed evaluation points for the falling-factorial expansion check:
#: 20 distinct rationals mixing signs, integers, halves and thirds.  Both
#: sides are polynomials in x of degree j - k <= 12, so agreeing at these 20
#: points proves they agree at every x.
_X_SAMPLES = tuple(
    Fraction(p, q)
    for p, q in (
        (-5, 1), (-7, 2), (-2, 1), (-4, 3), (-1, 1), (-1, 2), (0, 1), (1, 3), (1, 1), (3, 2),
        (2, 1), (7, 3), (3, 1), (7, 2), (4, 1), (9, 2), (5, 1), (17, 3), (6, 1), (13, 2),
    )
)


@_check("ppoly", "vanishing-window", "k <= {top}, m <= k, k-m+1 <= j <= k", 18)
def _(r, top):
    for k in range(top + 1):
        for m in range(k + 1):
            poly = p_poly(k, m)
            for j in range(k - m + 1, k + 1):
                r.equal(poly(j), 0, f"k={k} m={m} j={j}")


@_check("ppoly", "prefix-suffix-agreement", "k <= {top}, m <= k, 0 <= j <= k", 14)
def _(r, top):
    for k in range(top + 1):
        for m in range(k + 1):
            poly = p_poly(k, m)
            for j in range(k + 1):
                r.equal(poly(j), p0_eval(k, m, j), f"k={k} m={m} j={j}")


@_check("ppoly", "weighted-prefix-direct-sum", "k <= {top}, m <= k, Q = P[k, m], 0 <= j <= k+1", 12)
def _(r, top):
    for k in range(top + 1):
        for m in range(k + 1):
            q_poly = p_poly(k, m)
            prefix = weighted_prefix_poly(q_poly)
            r.equal(prefix.degree, q_poly.degree + 2, f"k={k} m={m} degree")
            direct = 0  # sum_{q=1}^{j-1} q Q(q+1)
            for j in range(k + 2):
                r.equal(prefix(j), direct, f"k={k} m={m} j={j}")
                direct += j * q_poly(j + 1)
            # the Faulhaber route to the next level, independent of the
            # value rows p_poly interpolates: P[k, m+1] = S(k-m) - S
            step = p_poly(k, m + 1)
            head = prefix(k - m)
            for i in range(max(len(step.coeffs), len(prefix.coeffs))):
                expected = (head if i == 0 else 0) - prefix.coefficient(i)
                r.equal(step.coefficient(i), expected, f"k={k} m={m + 1} x^{i}")


@_check("ppoly", "leading-coefficients", "1 <= m <= k <= {top}", 12)
def _(r, top):
    for k in range(1, top + 1):
        for m in range(1, k + 1):
            poly = p_poly(k, m)
            denom = 2**m * math.factorial(m)
            r.equal(poly.degree, 2 * m, f"k={k} m={m} degree")
            r.equal(poly.coefficient(2 * m), Fraction((-1) ** m, denom), f"k={k} m={m} lead")
            expected_sub = Fraction((-1) ** m * m * (2 * m - 5), 3 * denom)
            r.equal(poly.coefficient(2 * m - 1), expected_sub, f"k={k} m={m} sublead")


@_check("ppoly", "point-form-remainder-degree", "1 <= v <= {top}, window j = v..3v+2", 12)
def _(r, top):
    for v in range(1, top + 1):
        denom = 2**v * math.factorial(v)
        window = range(v, 3 * v + 3)
        deviations = [
            p0_eval(j, v, 1)
            - (j ** (2 * v) - Fraction(v * (2 * v + 1), 3) * j ** (2 * v - 1)) / denom
            for j in window
        ]
        for _ in range(2 * v - 1):  # finite differences of order 2v - 1
            deviations = [b - a for a, b in zip(deviations, deviations[1:])]
        r.expect(
            all(d == 0 for d in deviations),
            f"v={v}: deviation from the two-term main part exceeds degree {2 * v - 2}",
        )


@_check("ppoly", "elementary-sum-equivalence", "v <= j <= {top}, 0 <= k <= j", 10)
def _(r, top):
    # The suffix value P0[j, v](k) is the v-th elementary symmetric sum of
    # the integer window {k, ..., j-1} (the j-k roots of (x-k)_(j-k)), so the
    # oracle window top is j-1.  Both sides satisfy the same recursion
    # sum_{q=k}^{j-v} q * (...)(q+1) with base 1 at v = 0.
    for j in range(top + 1):
        for v in range(j + 1):
            for k in range(j + 1):
                lhs = elementary_sum_oracle(j - 1, v, k)
                r.equal(lhs, p0_eval(j, v, k), f"j={j} v={v} k={k}")


@_check("ppoly", "falling-factorial-expansion", "k <= j <= {top}, 20 rational points", 12)
def _(r, top):
    for j in range(top + 1):
        for k in range(j + 1):
            for x in _X_SAMPLES:
                lhs = falling_factorial_via_p0(j, k, x)
                rhs = falling_factorial(x - k, j - k)
                r.equal(lhs, rhs, f"j={j} k={k} x={x}")


@_check("ppoly", "suffix-value-agrees-at-0-and-1", "v <= j <= {top}", 12)
def _(r, top):
    for j in range(top + 1):
        for v in range(j + 1):
            r.equal(p0_eval(j, v, 0), p0_eval(j, v, 1), f"j={j} v={v}")


# ----------------------------------------------------------------------
# correlation suite
# ----------------------------------------------------------------------


@_check("correlation", "trivial-orders", "k in {{0,1}}, N <= {top}, all n", 12)
def _(r, top):
    for N in range(1, top + 1):
        for n in range(N + 1):
            r.equal(corr_exact(0, N, n), 1, f"N={N} n={n} k=0")
            r.equal(corr_exact(1, N, n), 0, f"N={N} n={n} k=1")


@_check("correlation", "brute-force-equivalence", "N <= 14, 1 <= n <= N-1, k <= min(n+2, {top}, N)", 8)
def _(r, top):
    for N in range(2, 15):
        for n in range(1, N):
            for k in range(min(n + 2, top, N) + 1):
                r.equal(corr_exact(k, N, n), brute_force_corr(k, N, n), f"k={k} N={N} n={n}")


@_check("correlation", "pair-closed-form", "k = 2, N <= {top}, all n", 100)
def _(r, top):
    for N in range(2, top + 1):
        for n in range(N + 1):
            expected = Fraction(-n * (N - n), N * N * (N - 1))
            r.equal(corr_exact(2, N, n), expected, f"N={N} n={n}")


@_check("correlation", "alpha-table-reconstruction", "k <= {top}, k <= N <= 40, all n", 8)
def _(r, top):
    for k in range(top + 1):
        table = alpha_coefficients(k)
        for N in range(max(k, 1), 41):
            for n in range(N + 1):
                r.equal(table.corr(N, n), corr_exact(k, N, n), f"k={k} N={N} n={n}")


@_check("correlation", "coefficient-sum-identity", "2 <= k <= {top}", 9)
def _(r, top):
    for k in range(2, top + 1):
        collected = Poly([coefficient_limit(k, k - i) for i in range(k + 1)])  # coefficient of f^i at index i
        # theorem_limit(k, f) as an exact polynomial in f
        base = Poly([0, -1, 1])  # f^2 - f
        if k % 2 == 0:
            limit_poly = base ** (k // 2) * normal_moment(k)
        else:
            limit_poly = base ** ((k - 1) // 2) * Poly([-1, 2]) * Fraction(k - 1, 3) * normal_moment(k + 1)
        r.equal(collected, limit_poly, f"k={k}")
        for f in (Fraction(1, 10), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(9, 10)):
            r.equal(limit_poly(f), theorem_limit(k, f), f"k={k} f={f}")


@_check("correlation", "alpha-top-column-is-limit", "2 <= k <= {top}, 0 <= v <= k", 60)
def _(r, top):
    # N^e(k) Corr(k) = N^e(k) alpha / (N)_k with e(k) + k//2 = k, so the N^(k//2) column is the limit
    for k in range(2, top + 1):
        table = alpha_coefficients(k)
        for v in range(k + 1):
            r.equal(table.coeffs[v][k // 2], coefficient_limit(k, v), f"k={k} v={v}")


def _alpha_expansion(k: int) -> tuple[tuple[int, ...], ...]:
    """The whole (k+1) x (k+1) alpha table, entry [v][r] at f^(k-v) N^r, by
    one integer update per (j, v, i) term of the defining expansion (see
    ``alpha_coefficients``): no slices, no memo and no degree bound."""
    table = [[0] * (k + 1) for _ in range(k + 1)]
    for j in range(k + 1):
        scale = (-1) ** (k - j) * binomial(k, j)
        head = [(-1) ** v * stirling_first_unsigned(j, j - v) for v in range(j + 1)]
        tail = [(-1) ** i * p0_eval(k, i, j) for i in range(k - j + 1)]
        for v, h in enumerate(head):
            row = table[v]
            for i, t in enumerate(tail):
                row[k - v - i] += scale * h * t
    return tuple(tuple(row) for row in table)


@_check("correlation", "alpha-degree-bound", "2 <= k <= {top}", 60)
def _(r, top):
    # the theorem's boundedness: no term of alpha above N^(k//2) survives, so the table holds only N^0..N^(k//2)
    for k in range(2, top + 1):
        half, full = k // 2, _alpha_expansion(k)
        r.expect(not any(any(row[half + 1 :]) for row in full), f"k={k}: a term above N^{half} survives")
        cut = tuple(row[: half + 1] for row in full)
        r.expect(alpha_coefficients(k).coeffs == cut, f"k={k}: the table differs from the expansion cut at N^{half}")


@_check(
    "correlation", "scaled-sequence-boundedness",
    "2 <= k <= {top}, f = 2/5, N = 2^9..2^14 within factor 10 of final", 8,
)
def _(r, top):
    f = Fraction(2, 5)
    for k in range(2, top + 1):
        e = parity_exponent(k)
        scaled_abs = {}
        for exp in range(7, 15):
            N = 2**exp
            n = math.floor(f * N + Fraction(1, 2))
            scaled_abs[exp] = abs(Fraction(N) ** e * corr_exact(k, N, n))
        final = scaled_abs[14]
        r.expect(final != 0, f"k={k}: scaled value vanished at N=2^14")
        if final != 0:
            for exp in range(9, 15):
                ratio = scaled_abs[exp] / final
                r.expect(
                    Fraction(1, 10) < ratio < Fraction(10),
                    f"k={k} N=2^{exp}: |scaled|/|final| = {float(ratio):.4f}",
                )


@_check("correlation", "complement-sign-symmetry", "k <= {top}, N <= 12, all n", 6)
def _(r, top):
    for N in range(1, 13):
        for k in range(min(top, N) + 1):
            for n in range(N + 1):
                lhs = corr_exact(k, N, n)
                rhs = (-1) ** k * corr_exact(k, N, N - n)
                r.equal(lhs, rhs, f"k={k} N={N} n={n}")


# ----------------------------------------------------------------------
# oracle suite
# ----------------------------------------------------------------------


class _ScriptedDraws:
    """Stands in for ``SplitMix64``: ``next_below`` returns the scripted draws
    in order (0 once they run out) and records each bound it is asked for."""

    def __init__(self, draws):
        self.draws, self.bounds = iter(draws), []

    def next_below(self, bound: int) -> int:
        self.bounds.append(bound)
        return next(self.draws, 0)


def _unmix64(y: int) -> int:
    """The input that ``_mix64`` scrambles to ``y``: each multiply is undone by
    its inverse mod 2^64, and each xorshift z ^ (z >> s) by feeding the shifted
    guess back until every bit is settled."""

    def unshift(y: int, s: int) -> int:
        z = y
        for _ in range(64 // s):
            z = y ^ (z >> s)
        return z

    z = unshift(y, 31) * pow(_MIX2, -1, 1 << 64) & _MASK64
    z = unshift(z, 27) * pow(_MIX1, -1, 1 << 64) & _MASK64
    return unshift(z, 30)


@_check("oracle", "moment-expansion-vs-enumeration", "N <= 12, all n, k <= min({top}, N)", 8)
def _(r, top):
    # enumeration against corr_exact and an independent moment expansion
    for N in range(1, 13):
        for n in range(N + 1):
            f = Fraction(n, N)
            for k in range(min(top, N) + 1):
                enumerated = brute_force_corr(k, N, n)
                expanded = sum(
                    binomial(k, j) * hypergeom_inclusion_prob(j, N, n) * (-f) ** (k - j)
                    for j in range(k + 1)
                )
                r.equal(expanded, enumerated, f"k={k} N={N} n={n}")
                r.equal(corr_exact(k, N, n), enumerated, f"k={k} N={N} n={n} corr_exact")


@_check("oracle", "unit-set-exchangeability", "5 random unit sets per design", 4)
def _(r, top):
    rng = SplitMix64(7)
    for k, N, n in ((2, 8, 3), (3, 9, 4), (4, 10, 5)):
        if k > top:  # a cap drops only trailing designs, so the others keep their draws
            break
        reference = brute_force_corr(k, N, n)
        for _ in range(5):
            members = sample_srs(N, k, rng)
            r.equal(
                brute_force_corr(k, N, n, members=members),
                reference,
                f"k={k} N={N} n={n} H={members}",
            )


@_check(
    "oracle", "sampler-enumeration",
    "N <= {top}, all n, k <= N; one lane per call at (N,n,k) = (10,3,1),(11,3,1),(12,2,1),(20,2,2), k <= {top}", 7,
)
def _(r, top):
    # Partial Fisher-Yates maps the N!/(N-n)! draw sequences one to one onto
    # ordered n-tuples: fed each sequence once, a sampler gives each n-subset
    # n! times, and n! C(k, x) C(N-k, n-x) samples meet {0..k-1} in x labels.
    import numpy as np
    designs = [(N, n, range(N + 1), False) for N in range(top + 1) for n in range(N + 1)]
    designs += [(N, n, [k], True) for N, n, k in ((10, 3, 1), (11, 3, 1), (12, 2, 1), (20, 2, 2)) if k <= top]
    for N, n, orders, one_lane_per_call in designs:  # one lane per call: 8 lanes k < N, so the event path
        sequences, fact = list(itertools.product(*(range(N - i) for i in range(n)))), math.factorial(n)
        rngs = [_ScriptedDraws(draws) for draws in sequences]
        counts = collections.Counter(sample_srs(N, n, rng) for rng in rngs)
        r.equal({tuple(rng.bounds) for rng in rngs}, {tuple(range(N, N - n, -1))}, f"N={N} n={n} bounds asked")
        odd = next((s for s in itertools.combinations(range(N), n) if counts[s] != fact), None)
        r.expect(odd is None, f"N={N} n={n}: subset {odd} drawn {counts[odd]} times, not {fact}")
        width = np.min_scalar_type(N - 1)  # lane t's step-i partner is i + the i-th draw of sequence t
        block = np.array(sequences, dtype=width).reshape(len(sequences), n).T + np.arange(n, dtype=width)[:, None]
        lanes = [block[:, t : t + 1] for t in range(len(sequences))] if one_lane_per_call else [block]
        for k in orders:
            hist = sum(_tracked_histogram(k, N, n, lane.shape[1], [(0, lane)] if n else []) for lane in lanes)
            law = [fact * binomial(k, x) * binomial(N - k, n - x) for x in range(k + 1)]
            r.equal(hist.tolist(), law, f"N={N} n={n} k={k} tracker")


@_check(
    "oracle", "lockstep-rejection",
    "64 lanes x 8 steps at bounds 2^63+1 and 3*2^62+1; 4 lanes x 12 steps at N=1000 with one lane rejected at step 5", 2,
)
def _(r, top):
    # about half and a quarter of all raw outputs are rejected at these bounds
    if top < 2:
        return
    import numpy as np
    seeds = [trial_stream_seed(5, t) for t in range(64)]
    z, tmp = np.empty((2, len(seeds)), dtype=np.uint64)
    for bound in (2**63 + 1, 3 * 2**62 + 1):
        rngs, states = [SplitMix64(seed) for seed in seeds], np.array(seeds, dtype=np.uint64)
        lockstep = [_draw_below(states, bound, z, tmp).tolist() for _ in range(8)]
        r.equal(lockstep, [[rng.next_below(bound) for rng in rngs] for _ in range(8)], f"bound={bound} draws")
        r.equal(states.tolist(), [rng.state for rng in rngs], f"bound={bound} final states")
        r.expect(states.tolist() != [(s + 8 * _GOLDEN) % 2**64 for s in seeds], f"bound={bound}: no lane redrew")
    # few lanes at N <= 2^32 draw in multi-step blocks; lane 0's raw output at
    # step 5 is 2^64 - 1, above the acceptance limit of every bound that is not
    # a power of two, so the 12-step block must be cut there
    N, n = 1000, 12
    seeds = [(_unmix64(_MASK64) - 6 * _GOLDEN) % 2**64] + seeds[:3]
    states = np.array(seeds, dtype=np.uint64)
    blocks = [block.tolist() for _, block in _fisher_yates_blocks(states, N, n, np.dtype(np.uint64))]
    rngs = [SplitMix64(seed) for seed in seeds]
    replay = [[i + rng.next_below(N - i) for rng in rngs] for i in range(n)]
    r.equal([row for block in blocks for row in block], replay, f"N={N} block partners")
    r.equal(states.tolist(), [rng.state for rng in rngs], f"N={N} final states")
    r.equal([len(block) for block in blocks], [5, 1, 6], f"N={N} block sizes")
    r.equal(_mix64(_unmix64(_MASK64)), _MASK64, "unmixed output")


@_check("oracle", "mc-bit-reproducibility", "(k,N,n)=(2,10,5), 20000 trials, fixed seed", 2)
def _(r, top):
    if top < 2:
        return
    first = monte_carlo_corr(2, 10, 5, 20_000, seed=DEFAULT_MC_SEED)
    second = monte_carlo_corr(2, 10, 5, 20_000, seed=DEFAULT_MC_SEED)
    r.equal(first, second, "repeated run")


SUITE_NAMES = tuple(dict.fromkeys(check.suite for check in CHECKS))


def run_suite(name: str, max_k: int | None = None) -> list[CheckResult]:
    """Run the checks of one named suite, or every check for ``name == "all"``.

    ``max_k`` caps the range of each check (useful for quick smoke runs);
    ``None`` keeps every check at its full stated range.  A check capped
    below its lower bound has nothing to compare, so it fails.
    """
    if max_k is not None:
        check_at_least("run_suite", 0, max_k=max_k)
    if name != "all" and name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return [check.run(max_k) for check in CHECKS if name in ("all", check.suite)]

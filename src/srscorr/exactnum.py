"""Exact combinatorial kernel: binomials, Stirling numbers, Bernoulli numbers,
power sums, Gaussian moments, Gamma-function ratios, and the alternating
binomial sums built from them.

Everything here is exact.  Integer-valued quantities are computed as Python
ints; everything else is a ``fractions.Fraction``.  No floating point is used
anywhere in this module, so every equality elsewhere in the package that
bottoms out here is an equality of rational numbers, not an approximation.

Memo caches are plain dicts (or ``functools.cache``) with idempotent entries:
concurrent callers may duplicate a computation but always observe identical
values, so the functions are safe to call from multiple threads.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import repeat
from operator import add, mul

from .errors import DomainError, check_at_least, int_str

__all__ = [
    "binomial",
    "falling_factorial",
    "stirling_first_unsigned",
    "stirling_second",
    "bernoulli",
    "power_sum_coefficients",
    "sum_of_powers",
    "normal_moment",
    "double_factorial_odd",
    "gamma_ratio",
    "alternating_fraction_sum",
    "kronecker_delta",
    "parse_rational",
    "rational_str",
]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical rational literal ``p/q`` or ``p``, of any length.

    Only integer and slash forms are accepted; decimal strings such as
    ``"0.3"`` are rejected so that callers can never smuggle a float
    approximation into an exact computation.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise DomainError(f"malformed rational literal: {text!r} (expected 'p/q' or integer)")
    num, _, den = text.strip().partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or 1)))  # no digit limit; see int_str


def rational_str(value: Fraction | int) -> str:
    """Canonical string form of an exact rational: ``p/q`` in lowest terms
    with positive denominator, or plain ``p`` when the denominator is 1.
    A ``Fraction`` or an int is read as it is; anything else is converted."""
    q = value if isinstance(value, (Fraction, int)) else Fraction(value)
    num = int_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{int_str(q.denominator)}"


def kronecker_delta(n: int) -> int:
    """delta(n): 1 at n == 0, else 0."""
    return 1 if n == 0 else 0


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 for k < 0 or k > n."""
    check_at_least("binomial", 0, n=n)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def falling_factorial(x: Fraction | int, j: int) -> Fraction:
    """(x)_j = x (x-1) ... (x-j+1), with (x)_0 = 1.  The factors keep the
    type of x, so an int x is multiplied out in integers."""
    check_at_least("falling_factorial", 0, j=j)
    return Fraction(math.prod(x - i for i in range(j)))


@cache
def stirling_first_unsigned(j: int, v: int) -> int:
    """Unsigned Stirling number of the first kind: the number of
    permutations of j elements with v cycles.

    Read from a row prefix c(j, 0..w) built by ``_stirling_first_prefix``,
    so a call never recurses, whatever j is.  The count is 0 outside the
    triangle 0 <= v <= j, including for negative v.
    """
    check_at_least("stirling_first_unsigned", 0, j=j)
    if v < 0 or v > j:
        return 0
    return _stirling_first_prefix(j, _prefix_width(v, j))[v]


@cache
def stirling_second(m: int, k: int) -> int:
    """Stirling number of the second kind: the number of partitions of an
    m-element set into k non-empty blocks.

    Read from a row prefix S(m, 0..w) built by ``_stirling_second_prefix``,
    so a call never recurses, whatever m is.
    """
    check_at_least("stirling_second", 0, m=m, k=k)
    if k > m:
        return 0
    return _stirling_second_prefix(m, _prefix_width(k, m))[k]


def _prefix_width(v: int, top: int) -> int:
    """The power of two above v, at most top + 1: the widths a kernel's
    prefixes come in, so reading a whole row of order top builds
    O(log top) prefixes and O(top^2) entries in all."""
    return min(top + 1, 1 << v.bit_length())


@cache
def _stirling_first_prefix(j: int, width: int) -> tuple[int, ...]:
    """c(j, 0..width-1), filled bottom-up one row at a time from the
    triangular recurrence c(i+1, w) = i c(i, w) + c(i, w-1)."""
    row = [1] + [0] * (width - 1)  # c(0, 0..width-1)
    for i in range(j):
        row = [0, *map(add, map(mul, repeat(i), row[1:]), row)]
    return tuple(row)


@cache
def _stirling_second_prefix(m: int, width: int) -> tuple[int, ...]:
    """S(m, 0..width-1), filled bottom-up one row at a time from
    S(i+1, w) = w S(i, w) + S(i, w-1)."""
    row = [1] + [0] * (width - 1)  # S(0, 0..width-1)
    for _ in range(m):
        row = [0, *map(add, map(mul, range(1, width), row[1:]), row)]
    return tuple(row)


@cache
def bernoulli(p: int) -> Fraction:
    """Bernoulli number B_p in the convention with B_1 = -1/2.

    Defined by B_0 = 1 and the recurrence
    ``sum_{j=0}^{m} C(m+1, j) B_j = 0`` for m >= 1, i.e. the recurrence is
    the ground truth here rather than any zeta-function shortcut.
    """
    check_at_least("bernoulli", 0, p=p)
    if p == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(p):
        acc += binomial(p + 1, j) * bernoulli(j)
    return -acc / (p + 1)


@cache
def power_sum_coefficients(m: int) -> tuple[Fraction, ...]:
    """Coefficients (lowest degree first) of the degree-(m+1) polynomial
    F_m with F_m(k) = sum_{p=0}^{k-1} p^m for every integer k >= 0.

    Faulhaber's closed form: F_m(k) = (1/(m+1)) sum_{p=0}^{m} C(m+1, p) B_p
    k^(m+1-p).  The polynomial has no constant term.
    """
    check_at_least("power_sum_coefficients", 0, m=m)
    coeffs = [Fraction(0)] * (m + 2)
    for p in range(m + 1):
        coeffs[m + 1 - p] = Fraction(binomial(m + 1, p), m + 1) * bernoulli(p)
    return tuple(coeffs)


def sum_of_powers(k: int, m: int) -> Fraction:
    """sum_{p=0}^{k-1} p^m evaluated through the Bernoulli closed form
    (with the 0^0 = 1 convention for m = 0).  Always integer-valued."""
    check_at_least("sum_of_powers", 0, k=k, m=m)
    coeffs = power_sum_coefficients(m)
    out = Fraction(0)
    kk = Fraction(1)
    for c in coeffs:
        out += c * kk
        kk *= k
    return out


def normal_moment(k: int) -> int:
    """E Z^k for Z standard normal: 0 for odd k and
    k! / (2^(k/2) (k/2)!) = (k-1)!! for even k."""
    check_at_least("normal_moment", 0, k=k)
    if k % 2 == 1:
        return 0
    h = k // 2
    return math.factorial(k) // (2**h * math.factorial(h))


def double_factorial_odd(t: int) -> int:
    """Product of the positive odd integers <= t, with the empty product 1
    (so t = -1 and t = 0 both give 1)."""
    check_at_least("double_factorial_odd", -1, t=t)
    out = 1
    for q in range(1, t + 1, 2):
        out *= q
    return out


def _half_lattice(value: Fraction | int) -> Fraction:
    """``value`` as a Fraction, if it is an integer or a half-integer."""
    q = Fraction(value)
    if q.denominator not in (1, 2):
        raise DomainError(f"{rational_str(q)} is neither an integer nor a half-integer")
    return q


def gamma_ratio(m: int, beta: Fraction | int) -> Fraction:
    """Gamma(m) Gamma(beta) / Gamma(m + beta) as an exact rational.

    Requires m >= 1 and beta a positive integer or half-integer.  For integer
    m, Gamma(m + beta) = Gamma(beta) beta (beta+1) ... (beta+m-1), so the
    ratio is (m-1)! over that rising product; with beta = p/q it is the
    integer quotient

        (m-1)! q^m / prod_{i=0}^{m-1} (p + i q).
    """
    check_at_least("gamma_ratio", 1, m=m)
    beta = _half_lattice(beta)
    if beta <= 0:
        raise DomainError(f"gamma_ratio requires beta > 0, got beta={rational_str(beta)}")
    p, q = beta.numerator, beta.denominator
    return Fraction(math.factorial(m - 1) * q**m, math.prod(p + i * q for i in range(m)))


def alternating_fraction_sum(
    m: int,
    alpha: Fraction | int,
    delta: Fraction | int,
    gamma: Fraction | int,
    beta: Fraction | int,
) -> Fraction:
    """Closed form of the alternating binomial sum

        sum_{n=0}^{m-1} (-1)^n C(m-1, n) (alpha n + delta) / (gamma n + beta)

    namely ``(alpha/gamma) delta(m-1) + G(m, beta/gamma) (delta - alpha
    beta/gamma) / gamma`` with G the exact Gamma ratio above.  The ratio
    beta/gamma must be a positive integer or half-integer so that G is
    rational; all coefficients are otherwise arbitrary rationals.
    """
    check_at_least("alternating_fraction_sum", 1, m=m)
    alpha, delta, gamma, beta = (Fraction(x) for x in (alpha, delta, gamma, beta))
    if gamma == 0:
        raise DomainError("alternating_fraction_sum requires gamma != 0")
    ratio = _half_lattice(beta / gamma)
    if ratio <= 0:
        raise DomainError(f"alternating_fraction_sum requires beta/gamma > 0, got {rational_str(ratio)}")
    out = (alpha / gamma) * kronecker_delta(m - 1)
    out += gamma_ratio(m, ratio) * (delta - alpha * ratio) / gamma
    return out

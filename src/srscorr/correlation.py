"""High-order inclusion correlations of simple random sampling and their
scaled large-population limits.

For a simple random sample of size n drawn without replacement from a
population of N units, let 1_A be the inclusion indicator of unit A and
f = n/N the sampling fraction.  The k-th order inclusion correlation is

    Corr(k) = E prod_{A in H} (1_A - f)        for any k distinct units H,

which by exchangeability depends on H only through k.  It is defined by the
hypergeometric moment expansion

    Corr(k) = sum_{j=0}^{k} C(k, j) (n)_j / (N)_j (-n/N)^(k-j).

``corr_exact`` evaluates that sum over its common denominator N^k (N)_k, which
is non-zero for 0 <= k <= N: term j times N^k (N)_k is the integer
C(k, j) (n)_j N^j (N-j)_(k-j) (-n)^(k-j), so the numerator is one integer sum
and the canonical ``Fraction`` costs one gcd.  The result is the same rational
as the term-by-term sum, exactly.

Scaled limits (``theorem_limit``): with f fixed and e(k) the parity exponent
(k+1)//2, the sequence N^e(k) Corr(k) converges to

    even k:  (f (f-1))^(k/2) E Z^k
    odd  k:  (f (f-1))^((k-1)/2) (2f - 1) ((k-1)/3) E Z^(k+1)

where Z is standard normal.  ``alpha_coefficients`` expands Corr(k) (N)_k
into integer coefficients of f-powers and N-powers: the power-basis row of
(n)_j follows from the row of (n)_(j-1) by the recurrence
(n)_j = (n)_(j-1) (n - j + 1), and the row of (N-j)_(k-j) is read from the
suffix-form recursion polynomials P0.

The N-degree of alpha is at most k//2, which is the theorem's boundedness,
since e(k) + k//2 = k.  The cumulant route shows why: with
h_f(t) = f log(1 + (1-f)t) + (1-f) log(1 - ft), which starts at t^2,
sum_k C(N, k) Corr(k) t^k = exp(N h_f(t)), so N^r reaches t^k only when
2r <= k.  The table therefore holds only the entries at N^r with r <= k//2.
``coefficient_limit`` gives the limit of each scaled f-coefficient, which is
the table's N^(k//2) column; summing those limits against powers of f
recovers the theorem limit, a polynomial identity the verification suite
checks exactly.

``_ALPHA_CACHE`` holds each finished ``AlphaTable`` by k, in the idiom of
``ppoly._P_CACHE``: the table is frozen and its rows are tuples, so every
caller shares one object, and concurrent first builds do duplicate work at
worst and store equal tables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import factorial, perm
from operator import add, mul, sub

from .errors import DomainError, check_at_least, check_budget, check_design, int_str
from .exactnum import binomial, falling_factorial, normal_moment, rational_str
from .ppoly import p0_eval

__all__ = [
    "RESULT_DIGIT_BUDGET",
    "corr_exact",
    "parity_exponent",
    "theorem_limit",
    "LimitSpec",
    "limit_spec",
    "AlphaTable",
    "alpha_coefficients",
    "coefficient_limit",
    "CorrRecord",
    "evaluate_correlation",
    "convergence_scan",
]


# The most decimal digits that the numerator or the denominator of an exact
# result may reach.  On a 2-core host one `corr` or `limit` record at the
# ceiling takes up to about 1.1 s to compute and render (`corr --k 11500
# --N 16000 --n 15999`), and the cost grows faster than the digits:
# `limit --k 200000 --f 1/3` took 19.7 s and printed 986 kB.
RESULT_DIGIT_BUDGET = 10**5


def _digits(bits: int) -> int:
    """The most decimal digits of an integer below 2^bits: bits log10(2), rounded up."""
    return bits * 30103 // 100000 + 1


def _corr_digits(k: int, N: int) -> int:
    """The most decimal digits of the numerator or denominator of ``corr_exact(k, N, n)``,
    whatever n: both are below 2^(2 k N.bit_length()) (see ``corr_exact``)."""
    return _digits(2 * k * N.bit_length())


def _check_corr_digits(caller: str, k: int, N: int) -> None:
    """Refuse, naming ``caller``, an order and size whose exact Corr(k) has more than ``RESULT_DIGIT_BUDGET`` digits."""
    check_budget(caller, "the exact result's size in digits", _corr_digits(k, N), RESULT_DIGIT_BUDGET)


def corr_exact(k: int, N: int, n: int) -> Fraction:
    """Exact k-th order inclusion correlation for a size-n simple random
    sample from N units.

    Valid for 0 <= k <= N and 0 <= n <= N; k may exceed n (the falling
    factorial (n)_j kills the overweight terms).  Corr(0) = 1 and
    Corr(1) = 0 for every design.

    The moment expansion is summed in integers over its common denominator
    N^k (N)_k (see the module docstring):

        num = sum_j head_j tail_j,  head_j = C(k, j) (n)_j N^j,
                                    tail_j = (N-j)_(k-j) (-n)^(k-j).

    Each head follows from the previous one, head_j = head_(j-1)
    (k-j+1) (n-j+1) N / j, and the tails, tail_(j-1) = tail_j (N-j+1)(-n),
    are applied by Horner's rule.  The loop carries j! times both, so no
    step divides: j! head_j gains the factor (k-j+1) (n-j+1) N, and the
    running sum j! num_j is the previous one times (j-1-N) n j, plus
    j! head_j.  The small factors are multiplied together first, so each
    step costs three big-int operations: two products and a sum.  The sum
    ends as k! num, and one exact division by k! recovers num.  Only
    integers are multiplied, and the ``Fraction`` reduces the quotient once.

    Its cost is bounded up front: the denominator N^k (N)_k is below
    2^(2 k b) with b = N.bit_length(), and |num| is at most the denominator
    since |Corr(k)| <= 1, so a design with 2 k b log10(2) past
    ``RESULT_DIGIT_BUDGET`` digits raises ``DomainError`` before any big-int
    work.  The carried k! num is below k! N^k (N)_k < 2^(3 k b), and no
    partial sum passes 2^(3 k b + k), so the loop's integers have at most
    about 1.5 times the bits that estimate counts.
    """
    check_design("corr_exact", k, N, n)
    _check_corr_digits("corr_exact", k, N)
    num = head = 1
    for j in range(1, k + 1):
        head *= (k - j + 1) * (n - j + 1) * N
        num = num * ((j - 1 - N) * n * j) + head
    return Fraction(num // factorial(k), N**k * perm(N, k))


def parity_exponent(k: int) -> int:
    """e(k) = k/2 for even k, (k+1)/2 for odd k: the power of N at which
    N^e(k) Corr(k) has a finite non-trivial limit."""
    check_at_least("parity_exponent", 0, k=k)
    return (k + k % 2) // 2


def theorem_limit(k: int, f: Fraction | int) -> Fraction:
    """Limit of N^e(k) Corr(k) as N grows with sampling fraction f fixed.

    Exact rational in f.  The parity split gives, with E Z^k the standard
    normal moment,

        even k:  (f(f-1))^(k/2) E Z^k
        odd  k:  (f(f-1))^((k-1)/2) (2f-1) ((k-1)/3) E Z^(k+1)

    The formulas extend consistently to k = 0 (limit 1) and k = 1 (limit 0),
    matching Corr(0) = 1 and Corr(1) = 0, so those orders are admitted too.

    Its cost is bounded up front: with f = p/q, the denominator divides
    3 q^k and the numerator is below q^k k (k+1)!!, which is below 2^bits
    with bits = k q.bit_length() + (k//2 + 2) (k+1).bit_length(), since
    (k+1)!! has at most k//2 + 1 factors, each at most k+1.  An order and
    fraction with bits log10(2) past ``RESULT_DIGIT_BUDGET`` digits raise
    ``DomainError`` before any big-int work.
    """
    check_at_least("theorem_limit", 0, k=k)
    f = Fraction(f)
    if not 0 < f < 1:
        raise DomainError(f"theorem_limit requires 0 < f < 1, got f={rational_str(f)}")
    bits = k * f.denominator.bit_length() + (k // 2 + 2) * (k + 1).bit_length()
    check_budget("theorem_limit", "the exact result's size in digits", _digits(bits), RESULT_DIGIT_BUDGET)
    ff = f * (f - 1)
    if k % 2 == 0:
        return ff ** (k // 2) * normal_moment(k)
    return ff ** ((k - 1) // 2) * (2 * f - 1) * Fraction(k - 1, 3) * normal_moment(k + 1)


@dataclass(frozen=True, slots=True)
class LimitSpec:
    """A scaled-limit statement: N^exponent Corr(k) -> value at fraction f."""

    k: int
    f: Fraction
    value: Fraction
    exponent: int


def limit_spec(k: int, f: Fraction | int) -> LimitSpec:
    """Bundle ``theorem_limit`` with its parity exponent."""
    f = Fraction(f)
    return LimitSpec(k=k, f=f, value=theorem_limit(k, f), exponent=parity_exponent(k))


@dataclass(frozen=True)
class AlphaTable:
    """Integer coefficient table of the correlation numerator.

    For fixed k, Corr(k) at design (N, n) factors as alpha(k, f) / (N)_k
    where f = n/N and

        alpha(k, f) = sum_{v=0}^{k} f^(k-v) sum_{r=0}^{k//2} coeffs[v][r] N^r.

    No term above N^(k//2) survives: that is alpha's N-degree, because the
    cumulant exponent h_f(t) of the module docstring starts at t^2.

    The table is built once per k from the power-basis rows of (n)_j, each
    from the one before it, and the suffix-form recursion polynomials of
    (N-j)_(k-j), and memoised by k, so
    ``alpha_coefficients(k)`` returns the same object on every call.  It is
    exact; reconstructing Corr through it is an independent route that must
    agree with ``corr_exact`` on every admissible design.
    """

    k: int
    coeffs: tuple[tuple[int, ...], ...]  # coeffs[v][r], v in 0..k, r in 0..k//2

    def f_coefficient(self, v: int, N: int) -> int:
        """sum_r coeffs[v][r] N^r: the coefficient of f^(k-v) in alpha."""
        if not 0 <= v <= self.k:
            raise DomainError(f"f_coefficient requires 0 <= v <= {int_str(self.k)}, got v={int_str(v)}")
        total = 0
        for c in reversed(self.coeffs[v]):
            total = total * N + c
        return total

    def corr(self, N: int, n: int) -> Fraction:
        """Reconstruct Corr(k) = alpha(k, n/N) / (N)_k as the integer sum
        sum_v n^(k-v) N^v f_coefficient(v, N) over N^k (N)_k, reduced once."""
        k = self.k
        check_design("AlphaTable.corr", k, N, n)
        num = sum(n ** (k - v) * N**v * self.f_coefficient(v, N) for v in range(k + 1))
        return Fraction(num, N**k * falling_factorial(N, k))


_ALPHA_CACHE: dict[int, AlphaTable] = {}


def alpha_coefficients(k: int) -> AlphaTable:
    """Build the integer coefficient table of alpha(k, f) = Corr(k) (N)_k.

    Each term of the moment form, times (N)_k, is

        C(k, j) (n)_j (N-j)_(k-j) (-f)^(k-j),

    and both falling factorials expand into powers through one row each:

        (n)_j       = sum_v (-1)^v c(j, j-v) n^(j-v)
        (N-j)_(k-j) = sum_i (-1)^i P0[k, i](j) N^(k-j-i)

    where c is the unsigned Stirling number of the first kind.  With n = fN,
    entry (v, i) of the rows' product, times (-1)^(k-j) C(k, j), adds to the
    coefficient of f^(k-v) N^(k-v-i).  All entries are integers.

    The head row of (n)_j is updated in place from the row of (n)_(j-1) by
    (n)_j = (n)_(j-1) (n - j + 1), and its zero constant term (j >= 1) is
    left out.  The tail row comes from P0 through ``p0_eval``.  For each j
    the tail is read in reverse order, so that it lines up with the segment
    N^(j-v)..N^(k-v) of row v; in that order entry r carries the sign
    (-1)^r, so the signs and the C(k, j) scale go in with one slice product
    per parity.  Each head term h then adds h times that tail into its
    segment in one slice assignment.

    The N-degree of alpha is at most k//2 (cumulant route, module
    docstring), so each row holds only N^0..N^(k//2): the tail is read only
    as far as the row whose segment starts lowest needs it, each segment
    stops at the row's end, and rows whose segment starts past it are
    skipped.  The finished table is memoised by k.
    """
    check_at_least("alpha_coefficients", 0, k=k)
    table = _ALPHA_CACHE.get(k)
    if table is not None:
        return table
    half = k // 2  # the N-degree bound: no term past N^half survives
    rows = [[0] * (half + 1) for _ in range(k + 1)]
    # head[v] is the coefficient of n^(j-v) in (n)_j, less the zero constant
    # term of j >= 1, so (n)_0 = 1 and (n)_1 = n share the row [1]
    head = [1]
    for j in range(k + 1):
        if j > 1:  # (n)_j = (n)_(j-1) (n - j + 1)
            head.append(0)
            head[1:] = map(sub, head[1:], map(mul, repeat(j - 1), head[:-1]))
        # tail[r] lands on N^(j-v+r), so row v's segment is j-v..k-v; read in
        # that order, entry r = k-j-i carries the sign (-1)^(k-j+i) = (-1)^r.
        # Only entries r <= top land at or below N^half in some row.
        top = min(k - j, half - j + len(head) - 1)
        tail = [p0_eval(k, i, j) for i in range(k - j, k - j - top - 1, -1)]
        scale = binomial(k, j)
        tail[0::2] = map(mul, repeat(scale), tail[0::2])
        tail[1::2] = map(mul, repeat(-scale), tail[1::2])
        for v in range(max(0, j - half), len(head)):
            row, lo = rows[v], j - v
            row[lo : lo + top + 1] = map(add, row[lo : lo + top + 1], map(mul, repeat(head[v]), tail))
    table = _ALPHA_CACHE[k] = AlphaTable(k=k, coeffs=tuple(map(tuple, rows)))
    return table


def coefficient_limit(k: int, v: int) -> Fraction:
    """Limit of the scaled f^(k-v) coefficient of Corr(k):

        lim N^e(k) [coefficient of f^(k-v) in alpha(k, f) / (N)_k]

    Even k:  (-1)^v E Z^k C(k/2, v) for v <= k/2, else 0.
    Odd  k:  (2/3) (-1)^v (k-1) (k+1-v) / (k+1) E Z^(k+1) C((k+1)/2, v)
             for v <= (k+1)/2, else 0.
    """
    check_at_least("coefficient_limit", 0, k=k, v=v)
    if k % 2 == 0:
        h = k // 2
        return Fraction((-1) ** v * normal_moment(k) * binomial(h, v))
    h = (k + 1) // 2
    return (
        Fraction(2, 3)
        * (-1) ** v
        * (k - 1)
        * Fraction(k + 1 - v, k + 1)
        * normal_moment(k + 1)
        * binomial(h, v)
    )


@dataclass(frozen=True)
class CorrRecord:
    """One evaluated design: the exact correlation, its N^e(k) scaling, the
    limit it converges to, and the exact gap between the two."""

    k: int
    N: int
    n: int
    f: Fraction  # realized sampling fraction n/N
    corr: Fraction
    scaled: Fraction  # N^e(k) * corr
    limit: Fraction

    @property
    def abs_error(self) -> Fraction:
        """|scaled - limit|"""
        return abs(self.scaled - self.limit)


def _record(k: int, N: int, n: int, exponent: int, limit: Fraction) -> CorrRecord:
    """The record of one design, given its order's exponent e(k) and the
    limit it is compared with; ``corr_exact`` checks the design."""
    corr = corr_exact(k, N, n)
    return CorrRecord(k=k, N=N, n=n, f=Fraction(n, N), corr=corr, scaled=N**exponent * corr, limit=limit)


def evaluate_correlation(k: int, N: int, n: int) -> CorrRecord:
    """Evaluate one design into a :class:`CorrRecord`, with its limit at the
    realized fraction n/N (``convergence_scan`` compares with the target f)."""
    check_design("corr_exact", k, N, n)  # before n/N is formed, with the message corr_exact gives
    return _record(k, N, n, parity_exponent(k), theorem_limit(k, Fraction(n, N)))


def convergence_scan(k: int, f: Fraction | int, N_grid) -> list[CorrRecord]:
    """Evaluate Corr(k) along an ascending grid of population sizes at a
    fixed target fraction f.

    For each N the sample size is the half-up rounding n = floor(f N + 1/2);
    the limit column is evaluated at the target f (not at the realized n/N),
    so the error column isolates pure finite-N convergence.  That limit and
    the exponent e(k) are computed once per scan, and each grid entry costs
    one ``corr_exact``.  Grid entries whose rounded n lands on 0 or N have no
    interior design; they are skipped with a warning and the scan continues.
    A scan that skips every grid entry has no record and raises
    ``DomainError``.
    """
    check_at_least("convergence_scan", 2, k=k)
    f = Fraction(f)
    if not 0 < f < 1:
        raise DomainError(f"convergence_scan requires 0 < f < 1, got f={rational_str(f)}")
    grid = [int(N) for N in N_grid]
    if not grid:
        raise DomainError("convergence_scan requires a non-empty grid")
    # each message names one entry, never the whole grid
    check_at_least("convergence_scan", 2, N=min(grid))
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise DomainError(
                f"convergence_scan requires a strictly ascending grid, got N={int_str(b)} after {int_str(a)}"
            )
    exponent, limit = parity_exponent(k), theorem_limit(k, f)
    p, q = f.numerator, f.denominator
    records: list[CorrRecord] = []
    for N in grid:
        n = (2 * p * N + q) // (2 * q)  # floor(f N + 1/2)
        if n <= 0 or n >= N:
            warnings.warn(
                f"convergence_scan: N={int_str(N)} rounds to boundary sample size n={int_str(n)}; entry skipped",
                stacklevel=2,
            )
            continue
        records.append(_record(k, N, n, exponent, limit))
    if not records:
        raise DomainError(
            f"convergence_scan: all {len(grid)} grid entries round to a boundary sample size at f={rational_str(f)}; "
            "no record"
        )
    return records

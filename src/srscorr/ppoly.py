"""Dense exact polynomials and the weighted-prefix recursion family used to
expand the falling factorials (x - k)_(j-k) into powers.

The family is defined, for integers k >= 0, by

    P[k, 0](j) = 1
    P[k, m](j) = sum_{q=1}^{k-m} q P[k, m-1](q+1)  -  sum_{q=1}^{j-1} q P[k, m-1](q+1)

so each level is "total weighted prefix minus weighted prefix up to j".
``p_poly`` materialises P[k, m] as an exact polynomial in j.  On the
integers j >= 0 each level is an integer row, its head minus the running
prefix sum of the row below, so ``p_poly`` builds the rows P[k, m](0..R),
R = max(2m, k), and interpolates once through the 2m + 1 values of the
degree-2m result (Newton's forward differences, one integer vector over
(2m)!).  ``weighted_prefix_poly`` is the independent route the verification
suite compares it with: the weighted prefix of a polynomial Q as one
Faulhaber substitution, with no shift of Q,

    sum_{q=1}^{j-1} q Q(q+1) = sum_m t_m (F_m(j) + j^m) + Q(0),

where t = (x - 1) Q and F_m(j) = sum_{p=0}^{j-1} p^m.  ``p0_eval`` evaluates
the companion suffix form

    P0[k, 0](j) = 1
    P0[k, m](j) = sum_{q=j}^{k-m} q P0[k, m-1](q+1)

as integer rows P0[k, m](0..k-m), each a running suffix sum of the row above.
The two agree on 0 <= j <= k, which is one of the cross-checks wired into the
verification suite.  The payoff of the family is the expansion

    (x - k)_(j-k) = sum_{v=0}^{j-k} (-1)^v P0[j, v](k) x^(j-k-v)

implemented by ``falling_factorial_via_p0`` and checked against both direct
falling factorials and a brute-force elementary-sum oracle.

Caches are dicts with idempotent entries; concurrent use is safe (duplicate
work at worst, identical results always).  ``_P_CACHE`` holds each finished
P[k, m] by (k, m), and no level below it; ``_P0_CACHE`` holds every P0 row
built, by (k, level).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, check_at_least, check_budget, int_str
from .exactnum import power_sum_coefficients

__all__ = [
    "PPOLY_BUDGET",
    "Poly",
    "PolyRecord",
    "weighted_prefix_poly",
    "p_poly",
    "p0_eval",
    "elementary_sum_oracle",
    "falling_factorial_via_p0",
]

#: Hard ceiling on m * max(2m, k), the integer additions that build the value
#: rows of P[k, m]: about 0.2-0.35 s of ``p_poly`` at the ceiling.
PPOLY_BUDGET = 200_000


@dataclass(frozen=True, slots=True)
class Poly:
    """Immutable dense polynomial with exact rational coefficients.

    Coefficients are stored lowest degree first, each a ``Fraction``, with
    trailing zeros stripped; the zero polynomial is the empty tuple and
    reports degree -1.  The operations are evaluation, ``*`` by a polynomial
    or a scalar, ``**`` and ``==``.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of x^i (zero outside the stored range)."""
        check_at_least("Poly.coefficient", 0, i=i)
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for exact arguments."""
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            shown = int_str(exponent) if isinstance(exponent, int) else repr(exponent)
            raise DomainError(f"Poly exponent must be a non-negative int, got {shown}")
        out = Poly([1])
        base = self
        for _ in range(exponent):
            out = out * base
        return out

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly()"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Poly[" + " + ".join(terms) + "]"


def weighted_prefix_poly(q_poly: Poly) -> Poly:
    """Polynomial S with S(j) = sum_{q=1}^{j-1} q * q_poly(q+1) for every
    integer j >= 0 (S(0) = S(1) = 0, the empty sums).

    With u = q + 1 the summand is t(u) for t(x) = (x - 1) * q_poly(x), and
    t(0) = -q_poly(0), t(1) = 0.  Faulhaber's F_m(j) = sum_{p=0}^{j-1} p^m
    gives sum_{u=0}^{j} u^m = F_m(j) + j^m, so no shift is needed:

        S(j) = sum_m t_m * (F_m(j) + j^m) + q_poly(0).

    If q_poly has degree d, the result has degree d + 2.
    """
    if not isinstance(q_poly, Poly):
        raise DomainError(f"weighted_prefix_poly expects a Poly, got {q_poly!r}")
    q = (Fraction(0), *q_poly.coeffs, Fraction(0))  # q[m] is the coefficient of x^(m-1)
    out = [q[1]] + [Fraction(0)] * (len(q) - 1)
    for m in range(len(q) - 1):
        t_m = q[m] - q[m + 1]  # coefficient of x^m in (x - 1) * q_poly
        if t_m:
            for i, c in enumerate(power_sum_coefficients(m)):
                out[i] += t_m * c
            out[m] += t_m
    return Poly(out)


_P_CACHE: dict[tuple[int, int], Poly] = {}


def _p_step(k: int, m: int, below: list[int]) -> list[int]:
    # row[j] = head - sum_{q=1}^{j-1} q * below[q+1], for j = 0..len(below)-1
    prefix = list(itertools.accumulate((q * below[q + 1] for q in range(len(below) - 1)), initial=0))
    head = prefix[k - m + 1] if k - m + 1 >= 0 else 0
    return [head - s for s in prefix]


def p_poly(k: int, m: int) -> Poly:
    """The recursion polynomial P[k, m] as an exact polynomial in j.

    P[k, m] = (total weighted prefix over q = 1..k-m) - S(j) where S is the
    weighted prefix polynomial of P[k, m-1].  For m <= k the constant head
    equals S(k-m+1); for m > k the defining sum is empty, so the head is 0.

    The integer values P[k, m](0..R), R = max(2m, k), are built level by
    level as head minus running prefix sum of the level below (the head
    S(k-m+1) reads index k-m+1 <= k).  P[k, m] has degree 2m, so its forward
    differences at 0 give it once by Newton's formula

        P(x) = sum_{i=0}^{2m} Delta^i P(0) (x)_i / i!,

    multiplied out by Horner's rule as one integer vector over (2m)!.  Only
    the finished polynomial is memoised, by (k, m).
    """
    check_at_least("p_poly", 0, k=k, m=m)
    check_budget("p_poly", "the addition count m * max(2m, k)", m * max(2 * m, k), PPOLY_BUDGET)
    poly = _P_CACHE.get((k, m))
    if poly is not None:
        return poly
    degree = 2 * m
    values = [1] * (max(degree, k) + 1)
    for level in range(1, m + 1):
        values = _p_step(k, level, values)
    values = values[: degree + 1]
    differences = []  # differences[i] = Delta^i P(0)
    while values:
        differences.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    # Q_i = Delta^i P(0) (2m)!/i! + (x - i) Q_{i+1}, down to Q_0 = (2m)! P
    coeffs, scale = [], 1
    for i in range(degree, -1, -1):
        coeffs = [a - i * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
        coeffs[0] += differences[i] * scale
        scale *= i
    denom = math.factorial(degree)
    poly = _P_CACHE[(k, m)] = Poly(Fraction(c, denom) for c in coeffs)
    return poly


@dataclass(frozen=True)
class PolyRecord:
    """One ``ppoly`` result: P[k, m], its degree and its coefficients
    (lowest degree first)."""

    k: int
    m: int
    degree: int
    coefficients: tuple[Fraction, ...]


_P0_CACHE: dict[tuple[int, int], tuple[int, ...]] = {}


def _p0_step(k: int, m: int, below: tuple[int, ...]) -> tuple[int, ...]:
    # row[j] = row[j+1] + j * below[j+1], summed from j = k-m down to 0
    suffix = itertools.accumulate(j * below[j + 1] for j in range(k - m, -1, -1))
    return tuple(suffix)[::-1]


def p0_eval(k: int, m: int, j: int) -> int:
    """The suffix form P0[k, m](j) = sum_{q=j}^{k-m} q * P0[k, m-1](q+1), with
    P0[k, 0] identically 1: an integer read from the row P0[k, m](0..k-m),
    built from the highest cached row below it; every row is memoised by
    (k, level).  For j > k-m (which covers m > k) the sum is empty,
    so the value is 0 and no row is built.
    """
    if k < 0 or m < 0 or j < 0:  # compared inline: alpha_coefficients calls p0_eval thousands of times
        check_at_least("p0_eval", 0, k=k, m=m, j=j)
    if m == 0:
        return 1
    if j > k - m:
        return 0
    level = m
    while (row := _P0_CACHE.get((k, level))) is None and level > 0:
        level -= 1
    if row is None:
        row = _P0_CACHE[(k, 0)] = (1,) * (k + 1)
    for level in range(level + 1, m + 1):
        row = _P0_CACHE[(k, level)] = _p0_step(k, level, row)
    return row[j]


def elementary_sum_oracle(j_top: int, v: int, u: int) -> int:
    """Brute-force elementary symmetric sum over an integer window:

        sum over u <= l_1 < l_2 < ... < l_v <= j_top of  l_1 l_2 ... l_v

    with the empty product equal to 1 (so v = 0 always gives 1, even for an
    empty window, which is why j_top = u - 1 is admitted).  This is the
    independent combinatorial oracle for ``p0_eval``.
    """
    check_at_least("elementary_sum_oracle", 0, v=v, u=u)
    if j_top < u - 1:
        raise DomainError(f"elementary_sum_oracle window ends before it starts: j_top={int_str(j_top)}, u={int_str(u)}")
    total = 0
    for combo in itertools.combinations(range(u, j_top + 1), v):
        total += math.prod(combo)
    return total


def falling_factorial_via_p0(j: int, k: int, x: Fraction | int) -> Fraction:
    """(x - k)_(j - k) reconstructed from the suffix-form expansion

        sum_{v=0}^{j-k} (-1)^v P0[j, v](k) x^(j-k-v).

    Requires 0 <= k <= j.
    """
    if k < 0 or j < k:
        raise DomainError(f"falling_factorial_via_p0 requires 0 <= k <= j, got (j={int_str(j)}, k={int_str(k)})")
    x = Fraction(x)
    total = Fraction(0)
    for v in range(j - k + 1):
        coeff = p0_eval(j, v, k)
        if coeff:
            total += (-1) ** v * coeff * x ** (j - k - v)
    return total

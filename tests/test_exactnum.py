"""Tests for the exact combinatorial kernel: parsing, binomials, Stirling
numbers, Bernoulli numbers, Faulhaber power sums, Gaussian moments, and the
exact Gamma-ratio / alternating-sum closed forms."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from srscorr.errors import DomainError, int_str
from srscorr.exactnum import (
    alternating_fraction_sum,
    bernoulli,
    binomial,
    falling_factorial,
    gamma_ratio,
    normal_moment,
    parse_rational,
    rational_str,
    stirling_first_unsigned,
    stirling_second,
    sum_of_powers,
)


# ---------------------------------------------------------------------------
# rational parsing / printing


def test_parse_rational_accepts_integers_and_fractions():
    assert parse_rational("3") == 3
    assert parse_rational("-7") == -7
    assert parse_rational("+2/5") == Fraction(2, 5)
    assert parse_rational("9/10") == Fraction(9, 10)
    assert parse_rational("-6/4") == Fraction(-3, 2)


def test_parse_rational_rejects_everything_else():
    for bad in ["", "0.5", "1e3", "2/0", "2/-3", "1/ 2", "a/b", "1//2", "/3"]:
        with pytest.raises(DomainError):
            parse_rational(bad)
    # surrounding whitespace is tolerated; the literal itself is strict
    assert parse_rational(" 1 ") == 1


def test_rational_str_is_canonical_and_round_trips():
    assert rational_str(Fraction(1, 3)) == "1/3"
    assert rational_str(Fraction(-2, 6)) == "-1/3"
    assert rational_str(Fraction(4, 2)) == "2"
    assert rational_str(0) == "0"
    for num in range(-9, 10):
        for den in range(1, 8):
            q = Fraction(num, den)
            assert parse_rational(rational_str(q)) == q


def test_rational_text_has_no_digit_limit():
    # 7^6000 has 5071 digits, past the interpreter's 4300-digit int-to-str limit
    q = Fraction(-(7**6000), 3**5000)
    text = rational_str(q)
    num, den = text.split("/")
    assert int(Decimal(num)) == q.numerator and int(Decimal(den)) == q.denominator
    assert parse_rational(text) == q
    assert parse_rational("+" + text[1:]) == -q
    assert int_str(10**5000) == "1" + "0" * 5000
    assert int_str(-(10**5000)) == "-1" + "0" * 5000


def test_parse_rational_at_150001_digits_matches_the_decimal_route():
    # int(Decimal(...)) converts at any length in time about the square of
    # the digits; the literal parser halves the digits instead, so compare
    digits = "".join(str((7 * i * i + 3 * i) % 10) for i in range(150_001))
    num = "-00" + digits[2:]  # a sign, then 150,001 digits led by zeros
    den = "9" + digits[:4999]
    value = parse_rational(f"{num}/{den}")
    assert value == Fraction(int(Decimal(num)), int(Decimal(den)))


# ---------------------------------------------------------------------------
# binomial and falling factorial


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(4, 6) == 0
    assert binomial(3, -1) == 0


def test_binomial_matches_pascal_recurrence():
    for n in range(1, 12):
        for k in range(0, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_rejects_negative_n():
    with pytest.raises(DomainError):
        binomial(-1, 0)


def test_falling_factorial_values():
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(Fraction(7, 2), 2) == Fraction(35, 4)
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(Fraction(9, 4), 0) == 1


def test_falling_factorial_recurrence_and_errors():
    # (x)_0 = 1 and (x)_j = (x)_(j-1) (x-j+1) define (x)_j; checked for
    # negative, zero, 0 <= x < j (a zero factor) and large ints, and for
    # non-integer and integral fractions
    xs = [-9, -1, 0, 1, 3, 7, 40, 9_876_543, 10**30 + 7]
    xs += [Fraction(-7, 2), Fraction(1, 3), Fraction(13, 3), Fraction(10**20 + 1, 7), Fraction(6)]
    for x in xs:
        assert falling_factorial(x, 0) == 1
        for j in range(1, 42):
            value = falling_factorial(x, j)
            assert type(value) is Fraction
            assert value == falling_factorial(x, j - 1) * (x - (j - 1)), (x, j)
    with pytest.raises(DomainError):
        falling_factorial(2, -1)


# ---------------------------------------------------------------------------
# Stirling numbers


def test_stirling_first_values():
    assert stirling_first_unsigned(4, 4) == 1
    assert stirling_first_unsigned(3, 1) == 2
    assert stirling_first_unsigned(5, 0) == 0
    assert stirling_first_unsigned(0, 0) == 1


def test_stirling_first_row_sums_are_factorials():
    # sum_v c(j, v) counts all permutations of j elements.
    for j in range(0, 10):
        assert sum(stirling_first_unsigned(j, v) for v in range(j + 1)) == math.factorial(j)


def test_stirling_first_recurrence():
    for j in range(1, 10):
        for v in range(0, j + 1):
            expected = stirling_first_unsigned(j - 1, v - 1) + (j - 1) * stirling_first_unsigned(j - 1, v)
            assert stirling_first_unsigned(j, v) == expected


def test_stirling_first_generates_rising_factorial_coefficients():
    # x(x+1)...(x+j-1) = sum_v c(j, v) x^v, checked pointwise.
    for j in range(0, 8):
        for x in [Fraction(1, 2), 2, Fraction(-3, 4), 5]:
            rising = math.prod([Fraction(x) + i for i in range(j)], start=Fraction(1))
            expanded = sum(stirling_first_unsigned(j, v) * Fraction(x) ** v for v in range(j + 1))
            assert rising == expanded


def test_stirling_second_values():
    assert stirling_second(2, 2) == 1
    assert stirling_second(4, 3) == 6
    assert stirling_second(2, 5) == 0
    assert stirling_second(0, 0) == 1
    assert stirling_second(6, 0) == 0


def test_stirling_second_recurrence():
    for m in range(1, 10):
        assert stirling_second(m, 0) == 0
        for k in range(1, m + 1):
            expected = k * stirling_second(m - 1, k) + stirling_second(m - 1, k - 1)
            assert stirling_second(m, k) == expected


def test_stirling_second_decomposes_powers_into_falling_factorials():
    # x^m = sum_k S(m, k) (x)_k at arbitrary rational points.
    for m in range(0, 9):
        for x in [3, Fraction(7, 2), Fraction(-5, 3), 11]:
            expanded = sum(stirling_second(m, k) * falling_factorial(x, k) for k in range(m + 1))
            assert expanded == Fraction(x) ** m


def test_cold_stirling_kernels_at_large_order_match_closed_forms():
    # orders past the interpreter's recursion limit, read by no other test, so
    # the cache is cold: the bottom-up fill must not recurse through it
    j = m = 1200
    assert stirling_first_unsigned(j, 1) == math.factorial(j - 1)
    harmonic = sum(Fraction(1, i) for i in range(1, j))
    assert stirling_first_unsigned(j, 2) == math.factorial(j - 1) * harmonic
    assert stirling_first_unsigned(j, 5) > 0
    assert stirling_second(m, 3) == (3**m - 3 * 2**m + 3) // 6
    assert stirling_second(m, 2) == 2 ** (m - 1) - 1


# ---------------------------------------------------------------------------
# Bernoulli numbers and power sums


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(3) == 0
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_odd_bernoulli_numbers_vanish():
    for p in range(3, 25, 2):
        assert bernoulli(p) == 0


def test_sum_of_powers_values():
    assert sum_of_powers(5, 1) == 10
    assert sum_of_powers(4, 2) == 14
    assert sum_of_powers(0, 3) == 0
    assert sum_of_powers(10, 0) == 10


# ---------------------------------------------------------------------------
# Gaussian moments


def test_normal_moment_values():
    assert normal_moment(4) == 3
    assert normal_moment(8) == 105
    assert normal_moment(5) == 0
    assert normal_moment(0) == 1
    assert normal_moment(2) == 1
    assert normal_moment(10) == 945


# ---------------------------------------------------------------------------
# Gamma ratios and the alternating fraction sum


def test_gamma_ratio_values():
    assert gamma_ratio(1, Fraction(1, 2)) == 2
    assert gamma_ratio(2, Fraction(1, 2)) == Fraction(4, 3)
    assert gamma_ratio(3, 1) == Fraction(1, 3)
    assert gamma_ratio(1, 1) == 1
    assert gamma_ratio(4, 2) == Fraction(1, 20)


def test_gamma_ratio_is_the_alternating_binomial_sum():
    # G(m, beta) = sum_{i=0}^{m-1} (-1)^i C(m-1, i) / (i + beta).  The registry
    # check gamma-ratio-binomial-sum covers beta in {1/2, 1, 3/2, 2, 3}, as its
    # params text says; this is the one further point.
    beta = Fraction(7, 2)
    for m in range(1, 9):
        direct = sum(Fraction((-1) ** i * binomial(m - 1, i), 1) / (i + beta) for i in range(m))
        assert gamma_ratio(m, beta) == direct


def test_gamma_ratio_functional_equation():
    # G(m+1, beta) = m/(m+beta) G(m, beta): contiguous Beta-function relation.
    for m in range(1, 10):
        for beta in [Fraction(1, 2), 1, 2, Fraction(5, 2)]:
            assert gamma_ratio(m + 1, beta) == Fraction(m, 1) / (m + beta) * gamma_ratio(m, beta)


def test_gamma_ratio_rejects_bad_beta():
    with pytest.raises(DomainError):
        gamma_ratio(3, Fraction(1, 3))
    with pytest.raises(DomainError):
        gamma_ratio(3, 0)
    with pytest.raises(DomainError):
        gamma_ratio(0, 1)


def test_alternating_fraction_sum_values():
    assert alternating_fraction_sum(2, 0, 1, 1, Fraction(1, 2)) == Fraction(4, 3)
    assert alternating_fraction_sum(1, 1, 0, 1, 1) == 0
    assert alternating_fraction_sum(3, 0, 1, 1, 1) == Fraction(1, 3)


def test_alternating_fraction_sum_domain_errors():
    with pytest.raises(DomainError):
        alternating_fraction_sum(0, 0, 1, 1, 1)
    with pytest.raises(DomainError):
        alternating_fraction_sum(2, 0, 1, 0, 1)
    with pytest.raises(DomainError):
        alternating_fraction_sum(2, 0, 1, 1, Fraction(1, 3))
    with pytest.raises(DomainError):
        alternating_fraction_sum(2, 0, 1, 1, -1)

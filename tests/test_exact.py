"""Tests for the integer/rational primitives, and for the integer and float
oracles in ``tests/oracles.py`` that other tests lean on."""

import itertools
import math
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from oracles import multinomial, poisson_cdf, rising_factorial
from screamingtoes import exact
from screamingtoes.exact import (
    derangement_numbers,
    format_fixed,
    format_significant,
    fraction_over_power,
    poisson_partial_sum,
)


class TestFallingFactorial:
    def test_rising(self):
        assert rising_factorial(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
        assert rising_factorial(1, 5) == math.factorial(5)
        assert rising_factorial(F(1, 3), 0) == 1


class TestDerangements:
    def test_small_values(self):
        assert derangement_numbers(0) == [1]
        assert derangement_numbers(1) == [1, 0]
        assert derangement_numbers(2) == [1, 0, 1]

    def test_against_enumeration(self):
        # count the fixed-point-free permutations of 6 objects directly
        count = sum(
            1
            for p in itertools.permutations(range(6))
            if all(p[i] != i for i in range(6))
        )
        assert count == 265
        assert derangement_numbers(6)[6] == 265

    def test_alternating_sum_identity(self):
        derangements = derangement_numbers(30)
        for n in range(0, 31):
            alt = sum(F((-1) ** j, math.factorial(j)) for j in range(n + 1))
            assert F(derangements[n], math.factorial(n)) == alt

    def test_prefix(self):
        assert derangement_numbers(5) == [1, 0, 1, 2, 9, 44]


class TestPoissonPartialSum:
    def test_examples(self):
        assert poisson_partial_sum(2, 0) == 1
        assert poisson_partial_sum(3, 2) == F(17, 2)
        assert poisson_partial_sum(7, -1) == 0

    def test_strictly_increasing_in_k(self):
        for j in (1, 2, 5, 17, 40, 100):
            prev = F(0)
            for k in range(0, 3 * j + 1):
                cur = poisson_partial_sum(j, k)
                assert cur > prev
                prev = cur

    def test_full_sum_close_to_exp(self):
        # with k far beyond 3*rate the sum is essentially e**rate
        val = poisson_partial_sum(5, 60)
        with mpmath.workprec(128):
            err = mpmath.mpf(val.numerator) / val.denominator - mpmath.exp(5)
            assert abs(err) < mpmath.mpf(2) ** -80


class TestMultinomial:
    def test_examples(self):
        assert multinomial(10, 2, 3) == 2520
        assert multinomial(4, 2, 3) == 0  # groups exceed n
        assert multinomial(6, 6) == 1


class TestPoissonCdf:
    def test_matches_exact_rational(self):
        for j in (1, 2, 3, 10, 25):
            for k in (-1, 0, 1, j - 2, j, 2 * j):
                exact_val = float(poisson_partial_sum(j, k)) * math.exp(-j)
                assert poisson_cdf(j, k) == pytest.approx(exact_val, rel=1e-12, abs=1e-300)

    def test_matches_incomplete_gamma(self):
        # P(Po(j) <= k) = Q(k+1, j); both code paths, straddling the log switch
        for j in (150, 699, 700, 701, 705, 2000):
            ours = poisson_cdf(float(j), j - 2)
            ref = float(gammaincc(j - 1, j))
            assert ours == pytest.approx(ref, rel=1e-9)

    def test_domain(self):
        assert poisson_cdf(3.0, -1) == 0.0
        with pytest.raises(ValueError):
            poisson_cdf(0.0, 2)


# integers of up to 10**4 digits, with and without long runs of trailing zero bits
_wide_ints = st.builds(
    lambda head, digits, tail, shift: (head * 10**digits + tail) << shift,
    st.integers(-(10**20), 10**20),
    st.sampled_from([0, 30, 300, 9_980]),
    st.integers(0, 10**20),
    st.sampled_from([0, 1, 64, 1000]),
)


class TestFractionOverPower:
    @given(st.integers(-(10**30), 10**30), st.integers(2, 60), st.integers(0, 40),
           st.integers(0, 80))
    @settings(max_examples=200, deadline=None)
    def test_lowest_terms(self, num, base, exp, extra):
        # num may hold more factors of base than base**exp does
        num *= base**extra
        got = fraction_over_power(num, base, exp)
        assert got == F(num, base**exp)
        assert math.gcd(got.numerator, got.denominator) == 1 and got.denominator > 0

    @given(st.sampled_from([(999, (3, 37)), (1024, (2,)), (9999, (3, 11, 101))]),
           st.lists(st.integers(0, 4000), min_size=3, max_size=3),
           st.integers(-(10**20), 10**20), st.sampled_from([1, 300, 1000]))
    @settings(max_examples=100, deadline=None)
    def test_lowest_terms_at_valuations_in_the_thousands(self, base_primes, powers, unit, exp):
        # the scream law's counts over 999**1000 carry thousands of factors
        # of 3; a valuation may pass the denominator's, which caps the strip
        base, primes = base_primes
        num = unit * math.prod(p**a for p, a in zip(primes, powers))
        got = fraction_over_power(num, base, exp)
        assert got == F(num, base**exp)
        assert math.gcd(got.numerator, got.denominator) == 1 and got.denominator > 0


class TestFormatFixed:
    def test_basic(self):
        assert format_fixed(F(5, 9)) == "0.5556"
        assert format_fixed(F(1, 2)) == "0.5000"
        assert format_fixed(F(0)) == "0.0000"
        assert format_fixed(3) == "3.0000"
        assert format_fixed(F(-1, 3)) == "-0.3333"
        assert format_fixed(F(1251, 1000), places=3) == "1.251"

    def test_half_to_even(self):
        assert format_fixed(F(5, 100000)) == "0.0000"  # 0.00005 ties to even
        assert format_fixed(F(15, 100000)) == "0.0002"
        assert format_fixed(F(25, 100000)) == "0.0002"
        assert format_fixed(F(35, 100000)) == "0.0004"

    def test_places_zero(self):
        assert format_fixed(F(7, 2), places=0) == "4"  # ties to even


def _decimal_oracle(value: F, digits: int) -> Decimal:
    """value to `digits` significant digits, half up, by decimal's own division."""
    context = Context(prec=digits, rounding=ROUND_HALF_UP, Emin=-(10**6), Emax=10**6)
    return context.divide(Decimal(value.numerator), Decimal(value.denominator))


class TestFormatSignificant:
    @given(_wide_ints, _wide_ints, st.sampled_from([1, 2, 7, 20]))
    @settings(max_examples=300, deadline=None)
    def test_digits_match_decimal(self, num, den, digits):
        value = F(num, den or 1)
        text = format_significant(value, digits)
        assert Decimal(text) == _decimal_oracle(value, digits), text

    @given(st.integers(10**19, 10**20 - 1), st.integers(-400, 400), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_exact_ties_round_half_up(self, lead, exp10, negative):
        # (10 lead + 5) 10**e has 21 digits and lies exactly halfway between
        # two 20-digit values; half up takes the one farther from zero
        sign = -1 if negative else 1
        value = sign * (10 * lead + 5) * F(10) ** exp10
        text = format_significant(value)
        assert Decimal(text) == sign * (lead + 1) * Decimal(10) ** (exp10 + 1)
        assert Decimal(text) == _decimal_oracle(value, 20)

    def test_zero(self):
        assert format_significant(F(0)) == format_significant(0) == "0.0"
        with pytest.raises(ValueError):
            format_significant(F(1, 3), 0)

    @pytest.mark.parametrize("value", [
        F(0), F(1), F(1, 2), F(1, 10**5), F(1, 10**6), F(7, 3 * 10**305), F(-2, 3),
        F(3 * 10**4 + 1, 3), F(10**19) + F(1, 7), F(10**20), F(123456789, 7 * 10**12),
        F(2**64 + 1, 2**64),
    ], ids=str)
    def test_layout_matches_mpmath_nstr(self, value):
        # the 20-digit layout the report's ``exact`` field has always had
        with mpmath.workprec(300):
            expected = mpmath.nstr(mpmath.mpf(value.numerator) / value.denominator, 20)
        assert format_significant(value) == expected


@given(
    st.fractions(max_denominator=10**9),
    st.fractions(max_denominator=10**9),
)
@settings(max_examples=300, deadline=None)
def test_rational_roundtrip(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a / b) * b == a

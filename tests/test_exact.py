"""Tests for the integer/rational primitives, and for the integer and float
oracles in ``tests/oracles.py`` that other tests lean on."""

import itertools
import math
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import libmp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from oracles import multinomial, poisson_cdf, rising_factorial
from screamingtoes import exact
from screamingtoes.exact import (
    DEFAULT_PRECISION,
    ScaledExp,
    derangement_number,
    derangement_numbers,
    falling_factorial,
    format_fixed,
    fraction_over_power,
    poisson_partial_sum,
    to_mpf,
)


class TestFallingFactorial:
    def test_examples(self):
        assert falling_factorial(10, 2) == 90
        assert falling_factorial(7, 0) == 1
        assert falling_factorial(5, 6) == 0  # the factor (5-5) appears
        assert falling_factorial(4, 4) == 24

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            falling_factorial(5, -1)

    @given(st.integers(0, 50), st.data())
    @settings(max_examples=200, deadline=None)
    def test_split_product(self, n, data):
        r = data.draw(st.integers(0, n))
        s = data.draw(st.integers(0, n - r))
        assert falling_factorial(n, r) * falling_factorial(n - r, s) == falling_factorial(n, r + s)

    def test_rising(self):
        assert rising_factorial(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
        assert rising_factorial(1, 5) == math.factorial(5)
        assert rising_factorial(F(1, 3), 0) == 1


class TestDerangements:
    def test_small_values(self):
        assert derangement_number(0) == 1
        assert derangement_number(1) == 0
        assert derangement_number(2) == 1

    def test_against_enumeration(self):
        # count the fixed-point-free permutations of 6 objects directly
        count = sum(
            1
            for p in itertools.permutations(range(6))
            if all(p[i] != i for i in range(6))
        )
        assert count == 265
        assert derangement_number(6) == 265

    def test_alternating_sum_identity(self):
        for n in range(0, 31):
            alt = sum(F((-1) ** j, math.factorial(j)) for j in range(n + 1))
            assert F(derangement_number(n), math.factorial(n)) == alt

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
        val = to_mpf(poisson_partial_sum(5, 60))
        with mpmath.workprec(128):
            assert abs(val - mpmath.exp(5)) < mpmath.mpf(2) ** -80


class TestMultinomial:
    def test_examples(self):
        assert multinomial(10, 2, 3) == 2520
        assert multinomial(4, 2, 3) == 0  # groups exceed n
        assert multinomial(6, 6) == 1


class TestPoissonCdf:
    def test_matches_exact_rational(self):
        for j in (1, 2, 3, 10, 25):
            for k in (-1, 0, 1, j - 2, j, 2 * j):
                exact_val = float(to_mpf(poisson_partial_sum(j, k) if k >= 0 else F(0))) * math.exp(-j)
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


class TestScaledExp:
    def test_product_and_power(self):
        a = ScaledExp(F(3, 2), -2)
        b = ScaledExp(F(4, 3), 5)
        assert a * b == ScaledExp(F(2), 3)
        assert a**3 == ScaledExp(F(27, 8), -6)
        assert a * 2 == ScaledExp(F(3), -2)

    def test_zero_normalises_epow(self):
        assert ScaledExp(F(0), 7) == ScaledExp(F(0), 0)

    def test_as_fraction(self):
        assert ScaledExp(F(5, 9), 0).as_fraction() == F(5, 9)
        with pytest.raises(ValueError):
            ScaledExp(F(1), -1).as_fraction()

    def test_to_float(self):
        val = float(ScaledExp(F(3, 2), -2))
        assert val == pytest.approx(1.5 * math.exp(-2), rel=1e-15)


class TestToMpf:
    def test_correctly_rounded_rational(self):
        x = to_mpf(F(1, 3), prec=100)
        with mpmath.workprec(200):
            err = abs(x - mpmath.fraction(1, 3))
            assert err <= mpmath.mpf(2) ** -101

    def test_big_integers(self):
        x = to_mpf(F(10**40 + 1, 7), prec=120)
        with mpmath.workprec(240):
            err = abs(x - mpmath.fraction(10**40 + 1, 7)) / mpmath.fraction(10**40, 7)
            assert err <= mpmath.mpf(2) ** -119


def _mpf_div_route(value: F, prec: int) -> tuple:
    """The conversion by one mpmath division of the exact operands."""
    num, den = libmp.from_int(value.numerator), libmp.from_int(value.denominator)
    return libmp.mpf_div(num, den, prec, libmp.round_nearest)


# integers of up to 10**4 digits, with and without long runs of trailing zero bits
_wide_ints = st.builds(
    lambda head, digits, tail, shift: (head * 10**digits + tail) << shift,
    st.integers(-(10**20), 10**20),
    st.sampled_from([0, 30, 300, 9_980]),
    st.integers(0, 10**20),
    st.sampled_from([0, 1, 64, 1000]),
)


class TestToMpfDivision:
    @given(_wide_ints, _wide_ints, st.sampled_from([53, DEFAULT_PRECISION, 200]))
    @settings(max_examples=300, deadline=None)
    def test_equals_mpf_div(self, num, den, prec):
        if den == 0:
            den = 1
        value = F(num, den)
        assert to_mpf(value, prec)._mpf_ == _mpf_div_route(value, prec)

    @given(st.integers(-(10**9), 10**9), st.integers(1, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_small_and_zero(self, num, den):
        value = F(num, den)
        assert to_mpf(value)._mpf_ == _mpf_div_route(value, DEFAULT_PRECISION)
        assert to_mpf(F(0))._mpf_ == libmp.fzero

    @given(st.integers(2 ** (DEFAULT_PRECISION - 1), 2**DEFAULT_PRECISION - 1),
           st.integers(-400, 400), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_exact_ties_round_to_even(self, mantissa, exp2, negative):
        # (2m+1) 2**e has one bit more than the working precision and lies
        # exactly halfway between m 2**(e+1) and (m+1) 2**(e+1)
        sign = -1 if negative else 1
        value = F(sign * (2 * mantissa + 1)) * F(2) ** exp2
        even = mantissa if mantissa % 2 == 0 else mantissa + 1
        got = to_mpf(value)._mpf_
        assert got == libmp.from_man_exp(sign * even, exp2 + 1)
        assert got == _mpf_div_route(value, DEFAULT_PRECISION)


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


@given(
    st.fractions(max_denominator=10**9),
    st.fractions(max_denominator=10**9),
)
@settings(max_examples=300, deadline=None)
def test_rational_roundtrip(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a / b) * b == a

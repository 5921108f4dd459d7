"""Exact integer and rational primitives shared by all distribution laws.

Rational values are carried by ``fractions.Fraction`` (arbitrary precision,
always in lowest terms, positive denominator, exact arithmetic); it is the
one representation of an exact law.  A Poisson probability such as
P(Po(j) <= k) is held as its rational part, :func:`poisson_partial_sum`,
with the factor e**(-j) left out: wherever a law multiplies it, that factor
cancels against an e**j from the same formula.  Decimal output happens only
at the very end, either through exact fixed-point rounding
(:func:`format_fixed`) or through a high-precision float conversion
(:func:`to_mpf`, default 128 bits).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

import mpmath
from mpmath import libmp

#: Working precision, in bits, for conversions of exact values to floats.
DEFAULT_PRECISION = 128

RationalLike = Union[int, Fraction]


def falling_factorial(n: int, r: int) -> int:
    """n_[r] = n(n-1)...(n-r+1); 1 when r = 0, and 0 as soon as a factor is 0."""
    if r < 0:
        raise ValueError("order r must be nonnegative")
    out = 1
    for i in range(r):
        out *= n - i
        if out == 0:
            return 0
    return out


_DERANGEMENTS = [1, 0]  # D_0, D_1; extended on demand


def derangement_number(n: int) -> int:
    """Number D_n of permutations of n objects with no fixed point.

    Computed by the integer recurrence D_n = (n-1)(D_{n-1} + D_{n-2}) with
    D_0 = 1, D_1 = 0, which avoids the cancellation of the alternating-sum
    definition and never leaves the integers.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_DERANGEMENTS) <= n:
        m = len(_DERANGEMENTS)
        _DERANGEMENTS.append((m - 1) * (_DERANGEMENTS[m - 1] + _DERANGEMENTS[m - 2]))
    return _DERANGEMENTS[n]


def derangement_numbers(n: int) -> list[int]:
    """The prefix [D_0, D_1, ..., D_n]."""
    derangement_number(n)
    return _DERANGEMENTS[: n + 1]


def poisson_partial_sum(rate: int, k: int) -> Fraction:
    """Exact sum_{i=0}^{k} rate**i / i! as a Fraction; 0 for k < 0.

    Scaled by e**(-rate) this is P(Po(rate) <= k).  Accumulated as a single
    integer over the common denominator k! so no per-term gcd is needed.
    """
    if rate < 1:
        raise ValueError("rate must be a positive integer")
    if k < 0:
        return Fraction(0)
    acc = 1  # sum_{i<=l} rate**i * l!/i!, built up over l = 0..k
    power = 1
    for i in range(1, k + 1):
        power *= rate
        acc = acc * i + power
    return Fraction(acc, math.factorial(k))


def _rational_to_mpf(num: int, den: int, prec: int) -> mpmath.mpf:
    """num/den (den > 0, not necessarily in lowest terms) rounded to `prec`
    bits, half to even.

    One integer divmod gives the quotient to prec + 2 or prec + 3 bits; the
    bits below `prec` and a sticky bit for a nonzero remainder decide the
    rounding.  This is the value ``libmp.mpf_div`` returns for the same
    operands, without building mpfs of the operands first: that strips their
    trailing zero bits eight at a time, which is quadratic for the
    ten-thousand-bit integers of the n = 1000 laws.
    """
    if num == 0:
        return mpmath.mp.make_mpf(libmp.fzero)
    mag = abs(num)
    shift = prec + 2 - (mag.bit_length() - den.bit_length())
    if shift >= 0:
        quot, rem = divmod(mag << shift, den)
    else:
        quot, rem = divmod(mag, den << -shift)
    extra = quot.bit_length() - prec
    man = quot >> extra
    low = quot & ((1 << extra) - 1)
    half = 1 << (extra - 1)
    if low > half or (low == half and (rem or man & 1)):
        man += 1
    raw = libmp.from_man_exp(-man if num < 0 else man, extra - shift)
    return mpmath.mp.make_mpf(raw)


def to_mpf(value: RationalLike, prec: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """Correctly rounded conversion of an exact rational to an mpf of `prec` bits."""
    value = Fraction(value)
    return _rational_to_mpf(value.numerator, value.denominator, prec)


def _coprime_fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for coprime num and den > 0, without the full-width
    gcd the constructor would redo.  Uses CPython's private fast path where
    there is one and the plain constructor elsewhere."""
    make = getattr(Fraction, "_from_coprime_ints", None)  # Python >= 3.12
    if make is not None:
        return make(num, den)
    try:
        return Fraction(num, den, _normalize=False)  # Python <= 3.11
    except TypeError:
        return Fraction(num, den)


def fraction_over_power(num: int, base: int, exp: int) -> Fraction:
    """num / base**exp in lowest terms, for base >= 2 and exp >= 0.

    A common factor of num and base**exp divides base**exp, so it is found
    by repeated gcds against the small `base` (one linear pass over num
    each) instead of one quadratic gcd against base**exp; a count of
    mappings over (n-1)**n is reduced this way in microseconds at n = 1000.
    """
    den = base**exp
    if num == 0:
        return Fraction(0)
    common = 1
    for _ in range(exp):
        step = math.gcd(num, base)
        if step == 1:
            break
        num //= step
        common *= step
    return _coprime_fraction(num, den // common)


def format_fixed(value: RationalLike, places: int = 4) -> str:
    """Exact fixed-point decimal string, rounding half to even.

    Rounding happens in integer arithmetic on the exact rational, so the
    printed digits are the true rounded digits (no binary float detour).
    """
    if places < 0:
        raise ValueError("places must be nonnegative")
    scale = 10**places
    scaled = round(Fraction(value) * scale)  # Fraction.__round__ is exact half-even
    sign = "-" if scaled < 0 else ""
    mag = abs(scaled)
    if places == 0:
        return f"{sign}{mag}"
    return f"{sign}{mag // scale}.{mag % scale:0{places}d}"

"""Exact integer and rational primitives shared by all distribution laws.

The module holds the derangement numbers D_r (:func:`derangement_numbers`),
the rational part of a Poisson probability (:func:`poisson_partial_sum`),
a count over a power in lowest terms (:func:`fraction_over_power`) and the
two decimal formatters.  The falling factorials n_[r] of the laws are the
standard library's ``math.perm(n, r)``.  Nothing here keeps state between
calls: each function's result depends on its arguments alone, and the one
cache, the prime factors of a base, only memoizes such a function.

Rational values are carried by ``fractions.Fraction`` (arbitrary precision,
always in lowest terms, positive denominator, exact arithmetic); it is the
one representation of an exact law.  A Poisson probability such as
P(Po(j) <= k) is held as its rational part, :func:`poisson_partial_sum`,
with the factor e**(-j) left out: wherever a law multiplies it, that factor
cancels against an e**j from the same formula.  An exact value leaves this
representation only at the very end, rounded once from the rational itself:
to a float by ``float(value)`` (CPython's correctly rounded integer
division), or to decimals by :func:`format_fixed` (fixed places) and
:func:`format_significant` (significant digits).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

RationalLike = Union[int, Fraction]


def derangement_numbers(n: int) -> list[int]:
    """The prefix [D_0, D_1, ..., D_n] of the numbers D_r of permutations of
    r objects with no fixed point.

    Computed by the integer recurrence D_r = (r-1)(D_{r-1} + D_{r-2}) with
    D_0 = 1, D_1 = 0, which avoids the cancellation of the alternating-sum
    definition and never leaves the integers.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = [1, 0]
    for r in range(2, n + 1):
        out.append((r - 1) * (out[r - 1] + out[r - 2]))
    return out[: n + 1]


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


@lru_cache(maxsize=16)
def _prime_powers(base: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, e) with p**e exactly dividing base >= 1, by trial division."""
    found = []
    p = 2
    while p * p <= base:
        if base % p == 0:
            e = 0
            while base % p == 0:
                base //= p
                e += 1
            found.append((p, e))
        p += 1 if p == 2 else 2
    if base > 1:
        found.append((base, 1))
    return tuple(found)


#: Powers of a prime below this are one digit of a CPython int; dividing by
#: one is a single linear pass.
_DIGIT = 1 << 30


def _strip_prime(num: int, p: int, most: int) -> tuple[int, int, int]:
    """Factors of the prime p in num != 0, up to `most` of them: returns
    (num / p**v, p**v, p**low) with v + low = min(v_p(num), most), where
    p**low, the last few factors, is left for the caller to divide out.

    The first rung of the ladder is p**k, the widest power of p below one
    digit, and each further rung squares the one before.  num is divided
    by the rungs while that is exact and within `most`, then once more on
    the way down; that leaves fewer than k factors of p, and these show in
    the remainder of num by p**k.  A count with a few factors of p thus
    costs one division with remainder, and one with thousands about
    2 log2(v) divisions by powers no wider than p**v, where stripping one
    factor at a time would take v linear passes over num.
    """
    first, k = p, 1
    while k < most and first * p < _DIGIT:
        first, k = first * p, k + 1
    ladder, v, rem = [], 0, None
    power, width = first, k
    while width <= most - v:
        quot, rem = divmod(num, power)
        if rem:
            break
        num, v = quot, v + width
        ladder.append((power, width))
        power, width = power * power, 2 * width
    if ladder or rem is None:
        for power, width in reversed(ladder):
            if width <= most - v:
                quot, rest = divmod(num, power)
                if not rest:
                    num, v = quot, v + width
        rem = num % first
    low = 0
    while v + low < most and rem % p == 0:  # rem is 0 only where `most` stops this
        rem //= p
        low += 1
    return num, p**v, p**low


def fraction_over_power(num: int, base: int, exp: int) -> Fraction:
    """num / base**exp in lowest terms, for base >= 1 and exp >= 0.

    A common factor of num and base**exp is a product of primes of the
    small `base`, so it is found prime by prime instead of by one quadratic
    gcd against base**exp: one gcd against `base` finds the primes that
    divide num at all, and :func:`_strip_prime` strips each of them, up to
    its multiplicity in base**exp.  Over 999**1000, the toes core-size
    counts take about 35 microseconds each, and the scream law's counts,
    which carry thousands of factors of 3, about 0.1 ms.
    """
    den = base**exp
    if num == 0:
        return Fraction(0)
    shared = math.gcd(num, base)
    if shared == 1:
        return _coprime_fraction(num, den)
    common = low = 1
    for p, e in _prime_powers(base):
        if shared % p == 0:
            num, stripped, left = _strip_prime(num, p, e * exp)
            common *= stripped
            low *= left
    return _coprime_fraction(num // low, den // (common * low))


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


def format_significant(value: RationalLike, digits: int = 20) -> str:
    """Decimal string of an exact rational to `digits` significant digits,
    rounding half up (away from zero).

    The layout is fixed-point while the leading digit's decimal exponent e
    has -6 < e < digits, and ``d.ddde-N`` / ``d.ddde+N`` otherwise; trailing
    zeros are stripped down to one digit after the point (``0.0``, ``1.0``).
    This is the layout of a report's ``exact`` field.  One integer division
    gives the leading digits plus one to three guard digits, so the rational
    is never reduced and its numerator is never written out in decimal.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    num, den = value.numerator, value.denominator
    if num == 0:
        return "0.0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    # the bit lengths put |value| within a factor of 10 either side of 10**guess
    guess = math.floor((num.bit_length() - den.bit_length()) * math.log10(2))
    shift = digits + 1 - guess
    lead = str(num * 10**shift // den if shift >= 0 else num // (den * 10**-shift))
    exp = len(lead) - 1 - shift
    mant = int(lead[:digits]) + (lead[digits] >= "5")  # the guard digits floor the value
    if mant == 10**digits:  # 9.99...95 and up round to the next power of ten
        mant //= 10
        exp += 1
    text = str(mant).rstrip("0")
    if not -6 < exp < digits:
        return f"{sign}{text[0]}.{text[1:] or '0'}e{exp:+d}"
    if exp < 0:
        return f"{sign}0.{'0' * (-exp - 1)}{text}"
    return f"{sign}{text[:exp + 1].ljust(exp + 1, '0')}.{text[exp + 1:] or '0'}"

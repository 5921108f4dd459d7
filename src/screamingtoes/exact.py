"""Exact integer and rational primitives shared by all distribution laws.

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
from typing import Union

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

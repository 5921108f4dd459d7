"""Closed-form laws for random mappings, exact in rational arithmetic.

Two models of a random function f on n points are covered:

* ``"standard"``: f is uniform over all n**n mappings.
* ``"toes"``: f(i) != i for every i, uniform over the (n-1)**n admissible
  mappings.  This is the screaming toes game: n players each look at
  another player's feet; the functional graph of "looks at" decomposes into
  components, each a directed cycle of rooted trees, and since nobody looks
  at their own feet the cyclic part (the core) is a fixed-point-free
  permutation.  A 2-cycle in the core is a screaming pair.

Every probability and moment here is computed as an exact ``Fraction``.
Powers of e that appear in intermediate factors are tracked symbolically by
``ScaledExp`` and must cancel on the support; the code asserts that instead
of rounding.  Results are bit-reproducible and feed both the CLI tables and
the samplers' inverse-CDF tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Literal, Mapping, NamedTuple

import numpy as np
from scipy.special import gammaincc

from .exact import (
    ScaledExp,
    binomial,
    derangement_number,
    derangement_numbers,
    falling_factorial,
    fraction_over_power,
    multinomial,
    poisson_partial_sum,
    rising_factorial,
)

Model = Literal["standard", "toes"]
CycleModel = Literal["standard", "toes", "derangement"]

MODELS = ("standard", "toes")
CYCLE_MODELS = ("standard", "toes", "derangement")


class ConsistencyError(RuntimeError):
    """Two formulas for the same quantity disagreed: an internal bug, not bad input."""


def _check_model(model: str, allowed: tuple[str, ...]) -> None:
    if model not in allowed:
        raise ValueError(f"unknown model {model!r}; expected one of {allowed}")


# ---------------------------------------------------------------------------
# Size spectra and pmf table checks


@dataclass(frozen=True)
class Spectrum:
    """Multiset of sizes encoded as counts: ``counts`` holds (size, multiplicity).

    Used both for component sizes (n = number of mapped points) and for
    cycle lengths (n = number of core elements).  A complete spectrum
    accounts for everything: sum of size*multiplicity equals n.  Marginal
    queries (e.g. "two components of size 3, rest unspecified") carry
    ``complete=False``.
    """

    n: int
    counts: tuple[tuple[int, int], ...]
    complete: bool = True

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("total size must be nonnegative")
        seen = set()
        for size, mult in self.counts:
            if size < 1 or mult < 1:
                raise ValueError("sizes and multiplicities must be positive")
            if size in seen:
                raise ValueError("duplicate size entry")
            seen.add(size)
        if tuple(sorted(self.counts)) != self.counts:
            raise ValueError("counts must be sorted by size")
        if self.complete and self.total != self.n:
            raise ValueError(
                f"complete spectrum must satisfy sum(size*mult) == n; "
                f"got {self.total} != {self.n}"
            )

    @classmethod
    def from_counts(cls, n: int, counts: Mapping[int, int], complete: bool = True) -> Spectrum:
        items = tuple(sorted((int(j), int(a)) for j, a in counts.items() if a != 0))
        return cls(n, items, complete)

    @classmethod
    def from_sizes(cls, sizes: Iterable[int], n: int | None = None) -> Spectrum:
        sizes = tuple(sizes)
        total = sum(sizes)
        counts: dict[int, int] = {}
        for s in sizes:
            counts[s] = counts.get(s, 0) + 1
        return cls.from_counts(total if n is None else n, counts, complete=n is None or n == total)

    @property
    def total(self) -> int:
        return sum(j * a for j, a in self.counts)

    @property
    def num_groups(self) -> int:
        return sum(a for _, a in self.counts)

    def get(self, size: int) -> int:
        for j, a in self.counts:
            if j == size:
                return a
        return 0

    def sizes(self) -> tuple[int, ...]:
        """Expanded, ascending multiset of sizes, e.g. (2, 2, 3)."""
        return tuple(
            itertools.chain.from_iterable([j] * a for j, a in self.counts)
        )


def _check_sums_to_one(pmf: dict, what: str, n: int) -> None:
    """A pmf table must sum to exactly 1 over its support, so a broken
    formula fails loudly rather than giving a slightly-off table."""
    total = sum(pmf.values())
    if total != 1:
        raise ConsistencyError(f"{what} table for n={n} sums to {total}, not 1")


def partitions(n: int, min_part: int = 1, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Integer partitions of n with parts in [min_part, max_part], descending tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, max_part), min_part - 1, -1):
        for rest in partitions(n - p, min_part, p):
            yield (p,) + rest


# ---------------------------------------------------------------------------
# Per-size Poisson intensities and single-component probabilities


def lambda_std(j: int) -> ScaledExp:
    """Limit intensity of size-j components of a standard mapping.

    lambda_j = (1/j) P(Po(j) < j), held exactly as (rational) * e**(-j).
    """
    if j < 1:
        raise ValueError("component size must be >= 1")
    return ScaledExp(poisson_partial_sum(j, j - 1) / j, -j)


def lambda_toes(j: int) -> ScaledExp:
    """Limit intensity of size-j components when no point maps to itself.

    lambda~_j = (1/j) P(Po(j) < j-1) as (rational) * e**(-j).  Sizes below 2
    are rejected: a component needs a cycle of length at least 2.
    """
    if j < 2:
        raise ValueError("components of size < 2 do not exist in the toes model")
    return ScaledExp(poisson_partial_sum(j, j - 2) / j, -j)


def component_count_with_core(size: int, core: int) -> int:
    """Number of single-component mappings on `size` labelled points whose
    cycle has length `core` (2 <= core <= size): choose the cyclic points,
    arrange them in a cycle, and attach the rest as a forest rooted at them.
    """
    if not 2 <= core <= size:
        raise ValueError("core must satisfy 2 <= core <= size")
    if core == size:
        return math.factorial(size - 1)
    return (
        binomial(size, core)
        * math.factorial(core - 1)
        * core
        * size ** (size - core - 1)
    )


def component_total_count(size: int) -> int:
    """Number of single-component toes mappings on `size` labelled points."""
    if size < 2:
        raise ValueError("size must be >= 2")
    return sum(component_count_with_core(size, c) for c in range(2, size + 1))


def single_component_prob(n: int, model: Model = "toes") -> Fraction:
    """Probability that the whole mapping is one component; exactly rational."""
    _check_model(model, MODELS)
    if model == "standard":
        if n < 1:
            raise ValueError("n must be >= 1")
        value = lambda_std(n) * Fraction(math.factorial(n), n**n) * ScaledExp(Fraction(1), n)
    else:
        if n < 2:
            raise ValueError("n must be >= 2 in the toes model")
        value = lambda_toes(n) * Fraction(math.factorial(n), (n - 1) ** n) * ScaledExp(Fraction(1), n)
    return value.as_fraction()


# ---------------------------------------------------------------------------
# Component-size laws


def component_pmf(
    n: int,
    spectrum: Spectrum,
    model: Model = "toes",
    x: ScaledExp | None = None,
) -> Fraction:
    """Exact probability that the mapping has the given complete size spectrum.

    Returns 0 off the support (sizes not summing to n).  For the toes model
    the pmf comes from a free-parameter representation
    P = x**(-n) n!/(n-1)**n * prod_j (m_j x**j / j!)**a_j / a_j!,
    where m_j counts single components of size j; the value does not depend
    on x > 0, and callers may pass any ScaledExp x (default e**-1) -- the
    independence is checked by the test suite.  All powers of e must cancel
    on the support; failure to cancel raises instead of rounding.
    """
    _check_model(model, MODELS)
    if spectrum.n != n:
        raise ValueError("spectrum is for a different n")
    if not spectrum.complete:
        raise ValueError("component_pmf needs a complete spectrum")
    if model == "toes" and spectrum.get(1) > 0:
        raise ValueError("size-1 components cannot occur in the toes model")
    if spectrum.total != n:
        return Fraction(0)

    if model == "standard":
        value = ScaledExp(Fraction(math.factorial(n), n**n), n)
        for j, a in spectrum.counts:
            value = value * lambda_std(j) ** a / math.factorial(a)
    else:
        if x is None:
            x = ScaledExp(Fraction(1), -1)
        if x.coeff <= 0:
            raise ValueError("the free parameter x must be positive")
        value = ScaledExp(Fraction(math.factorial(n), (n - 1) ** n), 0) / x**n
        for j, a in spectrum.counts:
            factor = x**j * Fraction(component_total_count(j), math.factorial(j))
            value = value * factor**a / math.factorial(a)
    if value.epow != 0:
        raise ConsistencyError("e-powers failed to cancel on the pmf support")
    return value.as_fraction()


def component_pmf_table(n: int, model: Model = "toes") -> dict[tuple[int, ...], Fraction]:
    """component_pmf over every complete spectrum, keyed by ascending size tuple."""
    _check_model(model, MODELS)
    table = {}
    min_part = 2 if model == "toes" else 1
    for parts in partitions(n, min_part):
        spec = Spectrum.from_sizes(parts)
        table[spec.sizes()] = component_pmf(n, spec, model)
    _check_sums_to_one(table, "component-pmf", n)
    return table


def mean_component_count(n: int, j: int, model: Model = "toes") -> Fraction:
    """Expected number of size-j components, exactly.

    Both closed forms (the intensity form and the single-component binomial
    form) are evaluated and must agree; disagreement raises
    ConsistencyError.  Toes-model queries with j = 1 are rejected rather
    than returning 0, to catch confusion with the standard model.
    """
    _check_model(model, MODELS)
    if model == "standard":
        if not 1 <= j <= n:
            raise ValueError("need 1 <= j <= n")
        direct = (
            lambda_std(j)
            * ScaledExp(Fraction(falling_factorial(n, j), n**n), j)
            * ((n - j) ** (n - j) if j < n else 1)
        ).as_fraction()
        via_binom = (
            single_component_prob(j, "standard")
            * binomial(n, j)
            * Fraction(j, n) ** j
            * (1 - Fraction(j, n)) ** (n - j)
        )
    else:
        if j == 1:
            raise ValueError("size-1 components cannot occur in the toes model")
        if not 2 <= j <= n:
            raise ValueError("need 2 <= j <= n")
        direct = (
            lambda_toes(j)
            * ScaledExp(Fraction(falling_factorial(n, j), (n - 1) ** n), j)
            * ((n - j - 1) ** (n - j) if j < n else 1)
        ).as_fraction()
        via_binom = (
            single_component_prob(j, "toes")
            * binomial(n, j)
            * Fraction(j - 1, n - 1) ** j
            * (1 - Fraction(j, n - 1)) ** (n - j)
        )
    if direct != via_binom:
        raise ConsistencyError(f"component-mean forms disagree at n={n}, j={j}")
    return direct


def factorial_moment(n: int, orders: Mapping[int, int]) -> Fraction:
    """Joint falling-factorial moment E prod_j C_j^[r_j] of toes component counts.

    `orders` maps size j (>= 2) to r_j.  The moment vanishes when the sizes
    cannot fit, i.e. m = sum j*r_j > n.
    """
    m = 0
    unit = Fraction(1)
    value = ScaledExp(unit, 0)
    for j, r in sorted(orders.items()):
        if r == 0:
            continue
        if j < 2:
            raise ValueError("size-1 components cannot occur in the toes model")
        if r < 0:
            raise ValueError("orders must be nonnegative")
        m += j * r
        value = value * lambda_toes(j) ** r
    if m > n:
        return Fraction(0)
    value = value * ScaledExp(Fraction(falling_factorial(n, m), (n - 1) ** n), m)
    value = value * ((n - m - 1) ** (n - m) if m < n else 1)
    return value.as_fraction()


def component_pair_moment(n: int, i: int, j: int) -> Fraction:
    """E C~_i C~_j for i != j (and E C~_i^[2] for i = j) via the product form.

    Independent of :func:`factorial_moment`'s route; the two are equal and
    the test suite pins that.  Returns 0 when i + j > n.
    """
    if min(i, j) < 2:
        raise ValueError("sizes must be >= 2 in the toes model")
    if i + j > n:
        return Fraction(0)
    return (
        single_component_prob(i, "toes")
        * single_component_prob(j, "toes")
        * multinomial(n, i, j)
        * Fraction(i - 1, n - 1) ** i
        * Fraction(j - 1, n - 1) ** j
        * (1 - Fraction(i + j, n - 1)) ** (n - i - j)
    )


def expected_num_components(n: int, model: Model = "toes") -> Fraction:
    """Expected total number of components.

    For the toes model the value is computed twice -- once by summing the
    component-mean formula over sizes, once by summing the core cycle-count
    means (components and core cycles are in bijection) -- and the two must
    agree exactly.
    """
    _check_model(model, MODELS)
    if model == "standard":
        if n < 1:
            raise ValueError("n must be >= 1")
        return sum(
            (mean_component_count(n, j, "standard") for j in range(1, n + 1)),
            Fraction(0),
        )
    if n < 2:
        raise ValueError("n must be >= 2 in the toes model")
    via_components = sum(
        (mean_component_count(n, j, "toes") for j in range(2, n + 1)), Fraction(0)
    )
    via_cycles = sum(
        (mean_cycle_count(n, j, "toes") for j in range(2, n + 1)), Fraction(0)
    )
    if via_components != via_cycles:
        raise ConsistencyError(f"component/cycle count means disagree at n={n}")
    return via_components


# ---------------------------------------------------------------------------
# Core-size laws


def _base(n: int, model: Model) -> int:
    """Admissible images per point: the model has _base(n)**n mappings."""
    return n - 1 if model == "toes" else n


@lru_cache(maxsize=4)
def core_size_counts(n: int, model: Model = "toes") -> tuple[int, ...]:
    """N_r, the number of mappings whose core has r elements, for r = 0..n.

    The core is a permutation (standard model) or a derangement (toes) of
    r chosen points, and the other n - r points form a forest rooted at the
    core, of which there are r * n**(n-r-1):
    N_r = C(n,r) * P_r * r * n**(n-r-1) for r < n and N_n = P_n, with P_r
    = r! or D_r.  Built by running products from r = n down, and checked to
    sum to the model's number of mappings, (n-1)**n or n**n, in integers.
    """
    _check_model(model, MODELS)
    lo = 2 if model == "toes" else 1
    if n < lo:
        raise ValueError(f"need n >= {lo} in the {model} model")
    if model == "toes":
        arrangements = derangement_numbers(n)
    else:
        arrangements = [1] * (n + 1)
        for r in range(1, n + 1):
            arrangements[r] = arrangements[r - 1] * r
    counts = [0] * (n + 1)
    counts[n] = arrangements[n]
    binom, forests = n, 1  # C(n, r) and n**(n-r-1) at r = n-1
    for r in range(n - 1, 0, -1):
        counts[r] = binom * arrangements[r] * r * forests
        binom = binom * r // (n - r + 1)
        forests *= n
    if sum(counts) != _base(n, model) ** n:
        raise ConsistencyError(f"{model} core-size counts for n={n} do not sum to the total")
    return tuple(counts)


@lru_cache(maxsize=4)
def _core_size_law(n: int, model: Model) -> tuple[Fraction, ...]:
    """P(core has r elements) = N_r / (model's mappings), r = 0..n, with
    N_r from :func:`core_size_counts`.

    Toes: the only common factors of N_r and (n-1)**n are the few of n-1 in
    C(n,r) D_r r, so :func:`fraction_over_power` reduces it cheaply.
    Standard: N_r / n**n shares most of n**(n-r-1) with n**n, so the law is
    the running product P(1) = 1/n, P(r+1) = P(r) (r+1)(n-r) / (r n),
    reduced step by step and then checked against the counts by
    cross-multiplication.
    """
    counts = core_size_counts(n, model)
    if model == "toes":
        return tuple(fraction_over_power(count, n - 1, n) for count in counts)
    total = n**n
    law = [Fraction(0), Fraction(1, n)]
    for r in range(1, n):
        law.append(law[r] * Fraction((r + 1) * (n - r), r * n))
    if any(p.numerator * total != count * p.denominator for p, count in zip(law, counts)):
        raise ConsistencyError(f"standard core-size law for n={n} disagrees with its counts")
    return tuple(law)


def core_size_pmf(n: int, r: int, model: Model = "toes") -> Fraction:
    """P(core has exactly r elements), exactly."""
    _check_model(model, MODELS)
    lo = 2 if model == "toes" else 1
    if not lo <= r <= n:
        raise ValueError(f"need {lo} <= r <= n in the {model} model")
    return _core_size_law(n, model)[r]


def core_size_tail_std(n: int, j: int) -> Fraction:
    """P(standard-mapping core has >= j elements) = (n-1)_[j-1] / n**(j-1)."""
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    return Fraction(falling_factorial(n - 1, j - 1), n ** (j - 1))


def core_size_table(n: int, model: Model = "toes") -> dict[int, Fraction]:
    """Exact core-size pmf for r over the full support.  Its normalisation
    is checked in integers, on the counts it is read from."""
    _check_model(model, MODELS)
    law = _core_size_law(n, model)
    return {r: law[r] for r in range(2 if model == "toes" else 1, n + 1)}


# ---------------------------------------------------------------------------
# Cycle-count laws


@lru_cache(maxsize=4)
def _cycle_means(n: int, model: Model) -> tuple[Fraction, ...]:
    """E C_j = n_[j] / (j b**j), b = n-1 (toes) or n, for j = 0..n, as the
    running product E C_{j+1} = E C_j (n-j) j / ((j+1) b) from E C_1 = n/b.
    Each step multiplies by a Fraction of small integers, which costs two
    gcds against small integers instead of one of full width.  (The toes
    model has no 1-cycles; its entry 1 only seeds the product.)"""
    base = _base(n, model)
    means = [Fraction(0), Fraction(n, base)]
    for j in range(1, n):
        means.append(means[j] * Fraction((n - j) * j, (j + 1) * base))
    return tuple(means)


def mean_cycle_count(n: int, j: int, model: CycleModel = "toes") -> Fraction:
    """Expected number of length-j cycles.

    * ``standard``: cycles in the core of a standard mapping, j >= 1.
    * ``toes``: cycles in the core of a toes mapping, j >= 2.
    * ``derangement``: cycles of a uniform random derangement of n, j >= 2.
      When n - j = 1 the value is 0 (D_1 = 0: removing the chosen cycles
      cannot strand exactly one non-fixed point), which is valid output,
      not an error.
    """
    _check_model(model, CYCLE_MODELS)
    if model == "standard":
        if not 1 <= j <= n:
            raise ValueError("need 1 <= j <= n")
    elif not 2 <= j <= n:
        raise ValueError(f"need 2 <= j <= n in the {model} model")
    if model == "derangement":
        return (
            Fraction(1, j)
            * Fraction(math.factorial(n), derangement_number(n))
            * Fraction(derangement_number(n - j), math.factorial(n - j))
        )
    return _cycle_means(n, model)[j]


def derangement_two_cycle_pmf(n: int, k: int) -> Fraction:
    """P(uniform random permutation of n has no fixed point and exactly k 2-cycles)."""
    if not 0 <= k <= n // 2:
        raise ValueError("need 0 <= k <= n//2")
    total = Fraction(0)
    for l in range(0, n // 2 - k + 1):
        rest = n - 2 * l - 2 * k
        total += (
            Fraction((-1) ** l, 2**l * math.factorial(l))
            * Fraction(derangement_number(rest), math.factorial(rest))
        )
    return total * Fraction(1, 2**k * math.factorial(k))


def derangement_cycle_type_pmf(r: int, spectrum: Spectrum | Iterable[int]) -> Fraction:
    """P(uniform random derangement of r has the given cycle-length multiset)."""
    sizes = spectrum.sizes() if isinstance(spectrum, Spectrum) else tuple(spectrum)
    if sum(sizes) != r:
        return Fraction(0)
    if any(s < 2 for s in sizes):
        return Fraction(0)
    counts: dict[int, int] = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1
    value = Fraction(math.factorial(r), derangement_number(r))
    for j, a in counts.items():
        value *= Fraction(1, j**a * math.factorial(a))
    return value


def core_identity_sides(n: int, m: int) -> tuple[Fraction, Fraction]:
    """Both sides of the core/derangement summation identity, independently.

    Left: (n/(n-1))**n * sum_{r=m}^{n} (r/n)(n_[r]/n**r) D_{r-m}/(r-m)!.
    Right: n_[m]/(n-1)**m.  They are equal for every n >= 2, 1 <= m <= n;
    the identity is what collapses core-conditioned sums into closed forms.
    """
    if n < 2 or not 1 <= m <= n:
        raise ValueError("need n >= 2 and 1 <= m <= n")
    acc = Fraction(0)
    fal = falling_factorial(n, m - 1)
    for r in range(m, n + 1):
        fal *= n - r + 1
        acc += (
            Fraction(r, n)
            * Fraction(fal, n**r)
            * Fraction(derangement_number(r - m), math.factorial(r - m))
        )
    lhs = Fraction(n, n - 1) ** n * acc
    rhs = Fraction(falling_factorial(n, m), (n - 1) ** m)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Screaming pairs


def _alternating_core_sum(n: int, k: int) -> Fraction:
    """sum_{l=0}^{n//2-k} (-1)**l n_[2l+2k] / (2**l l! (n-1)**(2l))  exactly.

    Accumulated as one integer over the running denominator
    2**l l! (n-1)**(2l), so only a single gcd happens at the end; this keeps
    n = 10**4 (where the terms involve ~40000-digit integers) well under a
    second.
    """
    top = n // 2 - k
    fal = falling_factorial(n, 2 * k)
    num = fal
    for l in range(1, top + 1):
        fal *= (n - 2 * l - 2 * k + 2) * (n - 2 * l - 2 * k + 1)
        num = num * (2 * l * (n - 1) ** 2) + (-1) ** l * fal
    denom = 2**top * math.factorial(top) * (n - 1) ** (2 * top)
    return Fraction(num, denom)


def scream_pmf(n: int, k: int) -> Fraction:
    """P(exactly k screaming pairs), i.e. k 2-cycles in the toes core."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 <= k <= n // 2:
        raise ValueError("need 0 <= k <= n//2")
    return _alternating_core_sum(n, k) * Fraction(
        1, 2**k * math.factorial(k) * (n - 1) ** (2 * k)
    )


def scream_pmf_table(n: int) -> dict[int, Fraction]:
    table = {k: scream_pmf(n, k) for k in range(0, n // 2 + 1)}
    _check_sums_to_one(table, "scream-pmf", n)
    return table


def prob_someone_screams(n: int) -> Fraction:
    """P(at least one screaming pair), q_n = 1 - P(no screaming pair).

    That is one alternating series,
    sum_{l>=1} (-1)**(l-1) n_[2l] / (2**l l! (n-1)**(2l)).
    """
    return 1 - scream_pmf(n, 0)


SCREAM_LIMIT = "1 - e**(-1/2)"  # limiting q_n, about 0.393469


# ---------------------------------------------------------------------------
# Acceptance-rate exponent (partial sums of the slowly converging series)


def spitzer_partial_sum(limit: int = 10**6, method: str = "gamma") -> float:
    """sum_{j=2}^{limit} (1/j) (1/2 - P(Po(j) <= j-2)).

    The series converges to (1 + log 2)/2 with an O(limit**-1/2) tail,
    hence the large default truncation.  ``method="gamma"``
    evaluates the Poisson tail through the regularised incomplete gamma
    function, vectorised; ``method="series"`` uses the term-by-term scaled
    accumulation of :func:`exact.poisson_cdf` and is quadratic in `limit`,
    kept as an independent cross-check for moderate limits.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if method == "series":
        from .exact import poisson_cdf

        return sum((0.5 - poisson_cdf(j, j - 2)) / j for j in range(2, limit + 1))
    if method != "gamma":
        raise ValueError("method must be 'gamma' or 'series'")
    total = 0.0
    chunk = 2_000_000
    for start in range(2, limit + 1, chunk):
        stop = min(limit, start + chunk - 1)
        j = np.arange(start, stop + 1, dtype=np.float64)
        # P(Po(j) <= j-2) is the regularised upper incomplete gamma Q(j-1, j)
        total += float(((0.5 - gammaincc(j - 1, j)) / j).sum())
    return total


# ---------------------------------------------------------------------------
# Ewens sampling formula (exact reference law for the samplers)


def esf_pmf(n: int, theta: Fraction | int, spectrum: Spectrum | Iterable[int]) -> Fraction:
    """Exact cycle-type probability under the Ewens sampling formula.

    P(counts = a) = n!/theta^(n) * prod_j (theta/j)**a_j / a_j!, with
    theta^(n) the rising factorial.  theta = 1 is the uniform random
    permutation; theta = 1/2 is the proposal law of the rejection sampler.
    """
    sizes = spectrum.sizes() if isinstance(spectrum, Spectrum) else tuple(spectrum)
    if sum(sizes) != n:
        return Fraction(0)
    theta = Fraction(theta)
    counts: dict[int, int] = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1
    value = Fraction(math.factorial(n)) / rising_factorial(theta, n)
    for j, a in counts.items():
        value *= (theta / j) ** a / math.factorial(a)
    return value


def esf_mean_cycle_count(n: int, theta: Fraction | int, j: int) -> Fraction:
    """E C_j(n) under ESF(theta): (theta/j) n_[j] theta^(n-j) / theta^(n)."""
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    theta = Fraction(theta)
    return (
        theta
        / j
        * falling_factorial(n, j)
        * rising_factorial(theta, n - j)
        / rising_factorial(theta, n)
    )


# ---------------------------------------------------------------------------
# Repeated-size probabilities (exact joint law of component and cycle sizes)


class NoRepeatProbs(NamedTuple):
    components: Fraction
    cycles: Fraction
    either: Fraction


#: Largest n for which :func:`prob_no_repeated_sizes` runs.  Its joint
#: "either" probability is an exact sum whose memoised states grow by about
#: 2.3x for every 10 added to n: about 0.5 s at n = 60, 3.4 s at n = 80.
REPEATS_MAX_N = 60


def _distinct_block_counts(n: int, structures: list[int]) -> list[int]:
    """0/1 knapsack over labelled blocks: entry s counts the ways to split s
    labelled points into blocks of pairwise distinct sizes j >= 2, a block
    of size j carrying ``structures[j]`` structures (s = 0..n)."""
    ways = [1] + [0] * n
    for j in range(2, n + 1):
        for s in range(n, j - 1, -1):
            if ways[s - j]:
                ways[s] += math.comb(s, j) * structures[j] * ways[s - j]
    return ways


def prob_no_repeated_sizes(n: int) -> NoRepeatProbs:
    """Exact probabilities that a toes mapping has no repeated component size,
    no repeated cycle length, and neither; 2 <= n <= REPEATS_MAX_N.

    Each is a count of mappings over (n-1)**n.  Components: blocks of
    distinct sizes j, each one of the component_total_count(j) connected
    mappings on its points.  Cycles: a core of r points whose cycles have
    distinct lengths j, each in (j-1)! cyclic orders, times the
    C(n,r) r n**(n-r-1) ways to choose the core and root the rest on it.
    Both are 0/1 knapsacks.  The joint needs distinct sizes and distinct
    cores at once, which has no product form: it is summed exactly over
    sizes from the largest down, memoised on (largest size left, points
    left, set of cores already used that a smaller size could still take),
    with g(s, c) = component_count_with_core(s, c).
    """
    if not 2 <= n <= REPEATS_MAX_N:
        raise ValueError(f"need 2 <= n <= {REPEATS_MAX_N} (got {n})")
    sizes = range(2, n + 1)
    comp = _distinct_block_counts(n, [0, 0] + [component_total_count(j) for j in sizes])[n]
    cores = _distinct_block_counts(n, [0, 0] + [math.factorial(j - 1) for j in sizes])
    cyc = cores[n] + sum(
        math.comb(n, r) * r * n ** (n - r - 1) * cores[r] for r in range(2, n)
    )

    g = [[component_count_with_core(s, c) if 2 <= c <= s else 0 for c in range(s + 1)]
         for s in range(n + 1)]

    @lru_cache(maxsize=None)
    def joint(size: int, left: int, used: int) -> int:
        # sizes 2..size are free; `used` has bit c set for each core c <= size taken
        if left == 0:
            return 1
        if size > left:
            size, used = left, used & ((2 << left) - 1)
        if size * (size + 1) // 2 - 1 < left:
            return 0  # even 2 + 3 + ... + size falls short
        below = (1 << size) - 1
        taken = sum(
            g[size][c] * joint(size - 1, left - size, (used | 1 << c) & below)
            for c in range(2, size + 1)
            if not used >> c & 1
        )
        return joint(size - 1, left, used & below) + math.comb(left, size) * taken

    either = joint(n, n, 0)
    return NoRepeatProbs(*(fraction_over_power(count, n - 1, n) for count in (comp, cyc, either)))


# ---------------------------------------------------------------------------
# Mean tables for the harness


def cycle_mean_table(n: int, model: CycleModel = "toes") -> dict[int, Fraction]:
    """mean_cycle_count for every length j."""
    lo = 1 if model == "standard" else 2
    return {j: mean_cycle_count(n, j, model) for j in range(lo, n + 1)}


__all__ = [
    "ConsistencyError",
    "CycleModel",
    "Model",
    "NoRepeatProbs",
    "REPEATS_MAX_N",
    "Spectrum",
    "component_count_with_core",
    "component_pair_moment",
    "component_pmf",
    "component_pmf_table",
    "component_total_count",
    "core_identity_sides",
    "core_size_counts",
    "core_size_pmf",
    "core_size_table",
    "core_size_tail_std",
    "cycle_mean_table",
    "derangement_cycle_type_pmf",
    "derangement_two_cycle_pmf",
    "esf_mean_cycle_count",
    "esf_pmf",
    "expected_num_components",
    "factorial_moment",
    "lambda_std",
    "lambda_toes",
    "mean_component_count",
    "mean_cycle_count",
    "partitions",
    "prob_no_repeated_sizes",
    "prob_someone_screams",
    "scream_pmf",
    "scream_pmf_table",
    "single_component_prob",
    "spitzer_partial_sum",
]

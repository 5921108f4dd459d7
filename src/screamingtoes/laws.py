"""Closed-form laws for random mappings, exact in rational arithmetic.

Two models of a random function f on n points are covered:

* ``"standard"``: f is uniform over all n**n mappings.
* ``"toes"``: f(i) != i for every i, uniform over the (n-1)**n admissible
  mappings.  This is the screaming toes game: n players each look at
  another player's feet; the functional graph of "looks at" decomposes into
  components, each a directed cycle of rooted trees, and since nobody looks
  at their own feet the cyclic part (the core) is a fixed-point-free
  permutation.  A 2-cycle in the core is a screaming pair.

The module holds the laws that the CLI tables, the brute-force validation
and the samplers read: component spectra and means, core size, core cycle
means, screaming pairs and q_n, and no-repeated-size probabilities.
Each per-size law has one shape, a tuple indexed from 0 that holds the
exact law at every index, 0 where the size cannot occur, built whole and
cached: :func:`component_means`, :func:`cycle_means` and
:func:`core_size_law` over j or r = 0..n of a model, and
:func:`scream_law` over k = 0..n//2.  The report tables and the
validation read these tuples whole; the range-checked accessors
(:func:`mean_component_count`, :func:`mean_cycle_count`,
:func:`core_size_pmf`, :func:`scream_pmf`) read one cell.
Beside them are two results of the paper that no table reports, the joint
falling-factorial moments (:func:`factorial_moment`) and the Spitzer-type
sum behind the rejection sampler's acceptance rate
(:func:`spitzer_partial_sum`).  A spectrum, a mapping's component sizes or
its core's cycle type, is the tuple of its sizes in ascending order:
:func:`component_pmf_table` keys its entries so, the enumeration
``samplers.every_mapping_counts`` counts component spectra so, and
:func:`component_pmf` takes the sizes in any order.  The two cycle-type
laws that the samplers draw from are not here: the Ewens sampling formula
given no 1-cycle, and at parameter 1 the derangement cycle-type law, live
in ``samplers`` as its integer weights and its float64 whole-type tables
of n <= ``samplers.TYPE_TABLE_MAX_N``, joined with :func:`core_size_counts`
for the core-joint route.  The reference laws that only check these (the
Ewens sampling formula and the derangement cycle laws as exact Fractions,
and the two sides of the core/derangement identity) live with the tests,
in ``tests/oracles.py``.

Every probability and moment here is computed as an exact ``Fraction``.
The component means, core sizes, screaming pairs and q_n are integer counts
of mappings over a power of the model's base, reduced by the primes of the
base (:func:`fraction_over_power`).  The Poisson intensities carry a factor
e**(-j) that cancels against an e**j of the same formula, so they are held
as their rational part e**j * lambda_j (:func:`_scaled_intensity`) and no
power of e is ever formed; they give the factorial moments, and check the
component means size by size.  The one float table here, the w_j of
:func:`omega`, is also rounded once from exact integers, with e**j summed
far past a float's precision.  Results are bit-reproducible and feed both
the CLI tables and the samplers' inverse-CDF tables.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Literal, Mapping, NamedTuple

import numpy as np

from .exact import (
    derangement_numbers,
    fraction_over_power,
    poisson_partial_sum,
)

Model = Literal["standard", "toes"]

MODELS = ("standard", "toes")


class ConsistencyError(RuntimeError):
    """Two formulas for the same quantity disagreed: an internal bug, not bad input."""


def _check_model(model: str) -> None:
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")


def _shortest_cycle(model: str) -> int:
    """The model's shortest cycle, which is also its smallest component and
    core: 2 in the toes model, where no point maps to itself, and 1 in the
    standard one.  Rejects an unknown model."""
    _check_model(model)
    return 2 if model == "toes" else 1


def _check_n(n: int, model: str) -> int:
    """The model's shortest cycle, after refusing an n below it."""
    lo = _shortest_cycle(model)
    if n < lo:
        raise ValueError(f"need n >= {lo} in the {model} model")
    return lo


def _base(n: int, model: Model) -> int:
    """Admissible images per point: the model has _base(n)**n mappings."""
    return n - 1 if model == "toes" else n


# ---------------------------------------------------------------------------
# Partitions and pmf table checks


def _check_sums_to_one(pmf: dict, what: str, n: int) -> None:
    """A pmf table must sum to exactly 1 over its support, so a broken
    formula fails loudly rather than giving a slightly-off table."""
    total = sum(pmf.values())
    if total != 1:
        raise ConsistencyError(f"{what} table for n={n} sums to {total}, not 1")


def partitions(n: int, min_part: int = 1, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Integer partitions of n with parts in [min_part, max_part], descending
    tuples; min_part must be positive, or a part of 0 would recur forever."""
    if min_part < 1:
        raise ValueError(f"min_part must be >= 1 (got {min_part})")
    return _partitions(n, min_part, n if max_part is None else max_part)


def _partitions(n: int, min_part: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for p in range(min(n, max_part), min_part - 1, -1):
        for rest in _partitions(n - p, min_part, p):
            yield (p,) + rest


# ---------------------------------------------------------------------------
# Per-size Poisson intensities and single-component probabilities


def _scaled_intensity(j: int, model: Model) -> Fraction:
    """e**j lambda_j, the rational part of the limit intensity of size-j
    components: lambda_j = (1/j) P(Po(j) <= j-1) for standard mappings and
    lambda~_j = (1/j) P(Po(j) <= j-2) when no point maps to itself; it
    equals T_j / j!.  The e**(-j) of lambda_j cancels in every law here,
    so it is never formed.  Callers check j against the model's sizes.
    """
    return poisson_partial_sum(j, j - _shortest_cycle(model)) / j


#: Largest j whose w_j :func:`omega` rounds from the exact law; above it
#: Ramanujan's expansion is within 1 ulp of a 200-bit evaluation (checked for
#: j = 101..3000, and exact at j = 10**4, 10**5 and 10**6).
OMEGA_EXACT_MAX_J = 100


@lru_cache(maxsize=None)
def _omega_exact(j: int) -> float:
    """w_j for 2 <= j <= OMEGA_EXACT_MAX_J, one correctly rounded rational:
    the Poisson partial sum up to j-2 over the sum up to K = 2j + 200,
    which is e**j to far more bits than a float holds; each j is computed
    on its own, about 12 ms for all of them."""
    # the terms past K are below 2**-250 of e**j for j <= 100
    return float(poisson_partial_sum(j, j - 2) / poisson_partial_sum(j, 2 * j + 200))


def omega(j: np.ndarray) -> np.ndarray:
    """w_j = P(Po(j) <= j-2) = j lambda~_j, elementwise over integers j >= 2,
    as float64.  This is the regularised upper incomplete gamma Q(j-1, j).

    Up to :data:`OMEGA_EXACT_MAX_J` each value is one correctly rounded
    ratio of exact integers (:func:`_omega_exact`).  Above it, Ramanujan's
    expansion (Flajolet, Grabner, Kirschenhofer and Prodinger 1995, "On
    Ramanujan's Q-function") gives
    w_j = 1/2 - (1 + theta_j) t_j, with t_j = P(Po(j) = j) = e**-j j**j / j!
    from Stirling's series and
    theta_j = 1/3 + 4/(135j) - 8/(2835j**2) - 16/(8505j**3)
              + 8992/(12629925j**4) + 334144/(492567075j**5).
    Cutting theta_j there errs by 1.8e-17 at j = 101, a third of an ulp,
    and the error falls like j**-6.5.
    """
    j = np.asarray(j, dtype=np.int64)
    if j.size and j.min() < 2:
        raise ValueError("w_j is defined for j >= 2")
    w = np.empty(j.shape)
    small = j <= OMEGA_EXACT_MAX_J
    w[small] = [_omega_exact(k) for k in j[small].tolist()]
    large = j[~small].astype(np.float64)
    x = 1.0 / large
    theta = 1 / 3 + x * (4 / 135 + x * (-8 / 2835 + x * (
        -16 / 8505 + x * (8992 / 12629925 + x * (334144 / 492567075)))))
    t = np.exp(x * (-1 / 12 + x * x * (1 / 360 - x * x / 1260))) / np.sqrt(2 * np.pi * large)
    w[~small] = 0.5 - (1.0 + theta) * t
    return w


def component_count_with_core(size: int, core: int) -> int:
    """Number of single-component mappings on `size` labelled points whose
    cycle has length `core` (2 <= core <= size): choose the cyclic points,
    arrange them in a cycle, and attach the rest as a forest rooted at them.
    """
    if not 2 <= core <= size:
        raise ValueError("core must satisfy 2 <= core <= size")
    if core == size:
        return math.factorial(size - 1)
    return math.perm(size, core) * size ** (size - core - 1)


def _connected_count(size: int, model: Model) -> int:
    """T_j, the number of connected mappings on j = `size` labelled points
    (j >= 2 in the toes model, j >= 1 in the standard one), counted over
    the length c of their one cycle.

    Choosing and ordering the cycle and rooting a forest on it gives
    j_[c] j**(j-1-c) mappings for c < j and (j-1)! for c = j, so
    T_j = sum_{c=lo}^{j-1} j_[c] j**(j-1-c) + (j-1)!, lo = 2 (toes) or 1
    (standard), summed by Horner's rule in j.  Integers only: no Poisson
    partial sum, which the intensity forms use.
    """
    lo = _shortest_cycle(model)
    fal = math.perm(size, lo)  # size_[c], from c = lo
    acc = 0
    for c in range(lo, size):
        acc = acc * size + fal
        fal *= size - c
    return acc + fal // size  # fal is now size!


def single_component_prob(n: int, model: Model = "toes") -> Fraction:
    """Probability that the whole mapping is one component, T_n / b**n with
    b**n the model's mappings; exactly rational."""
    _check_n(n, model)
    return fraction_over_power(_connected_count(n, model), _base(n, model), n)


# ---------------------------------------------------------------------------
# Component-size laws


def component_pmf(n: int, sizes: Iterable[int], model: Model = "toes") -> Fraction:
    """Exact probability that the mapping's component sizes are ``sizes``,
    a multiset given in any order.

    Splitting the n points into a_j blocks of each size j and making every
    block one connected mapping gives
    P = n!/b**n * prod_j (T_j / j!)**a_j / a_j!, where b**n counts the
    model's mappings and T_j its connected mappings on j points
    (:func:`_connected_count`).  Raises ValueError unless every size is at
    least 1 and the sizes sum to n, for a size 1 or n = 1 in the toes model.
    """
    _check_n(n, model)
    counts = Counter(sizes)
    if min(counts, default=1) < 1:
        raise ValueError("component sizes must be positive")
    if sum(j * a for j, a in counts.items()) != n:
        raise ValueError(f"component sizes must sum to n = {n}")
    if model == "toes" and 1 in counts:
        raise ValueError("size-1 components cannot occur in the toes model")
    value = Fraction(math.factorial(n), _base(n, model) ** n)
    for j, a in counts.items():
        value *= Fraction(_connected_count(j, model), math.factorial(j)) ** a / math.factorial(a)
    return value


def component_pmf_table(n: int, model: Model = "toes") -> dict[tuple[int, ...], Fraction]:
    """component_pmf over every spectrum, keyed by ascending size tuple."""
    table = {}
    for parts in partitions(n, _check_n(n, model)):
        sizes = parts[::-1]
        table[sizes] = component_pmf(n, sizes, model)
    _check_sums_to_one(table, "component-pmf", n)
    return table


@lru_cache(maxsize=None)
def _checked_connected_count(size: int, model: Model) -> int:
    """T_j of :func:`_connected_count`, checked against the intensity form
    of the component means: j! e**j lambda_j, from the Poisson partial sum
    of :func:`_scaled_intensity`, must equal it (ConsistencyError if not).
    Neither side depends on n, so each (j, model) is counted and checked
    once per process, whatever n the tables ask for; the cache holds about
    0.7 MB per model for j <= 1000."""
    connected = _connected_count(size, model)
    if _scaled_intensity(size, model) * math.factorial(size) != connected:
        raise ConsistencyError(f"component-mean forms disagree at j={size}")
    return connected


def _mappings_outside(n: int, m: int, model: Model) -> int:
    """(b-m)**(n-m), b = n-1 (toes) or n: the mappings of the n-m points
    outside a given m-set among themselves, 1 when m = n."""
    return (_base(n, model) - m) ** (n - m)


@lru_cache(maxsize=4)
def component_means(n: int, model: Model) -> tuple[Fraction, ...]:
    """E C_j, the expected number of size-j components, for j = 0..n (0
    below the model's smallest component): the count C(n,j) T_j (b-j)**(n-j)
    of mappings in which a given j-set is one component, over b**n, with
    b = n-1 (toes) or n and T_j counted in integers by
    :func:`_connected_count`.  Each count is reduced once by the primes of
    b (:func:`fraction_over_power`), as the core, scream and q_n laws are.

    Two checks raise ConsistencyError.  The intensity form of the same mean,
    (e**j lambda_j) n_[j] (b-j)**(n-j) / b**n with e**j lambda_j the Poisson
    partial sum of :func:`_scaled_intensity`, differs from the count form
    only in j! e**j lambda_j against T_j, which does not depend on n; so
    the two are compared at every j, once per process
    (:func:`_checked_connected_count`).  The counts are also checked to
    cover every point once, sum_j j C(n,j) T_j (b-j)**(n-j) = n b**n, in
    integers, for every n: it sees the factor (b-j)**(n-j) that the first
    check does not.
    """
    lo = _check_n(n, model)
    base = _base(n, model)
    counts = [0] * (n + 1)
    binom = 1  # C(n,j), from j = 0
    for j in range(1, n + 1):
        binom = binom * (n - j + 1) // j
        if j < lo:
            continue
        counts[j] = binom * _checked_connected_count(j, model) * _mappings_outside(n, j, model)
    if sum(j * count for j, count in enumerate(counts)) != n * base**n:
        raise ConsistencyError(f"{model} component counts for n={n} do not cover every point")
    return tuple(fraction_over_power(count, base, n) for count in counts)


def mean_component_count(n: int, j: int, model: Model = "toes") -> Fraction:
    """Expected number of size-j components, exactly; the first call for an
    (n, model) builds (and caches) the whole checked table,
    :func:`component_means`.  Toes-model queries with j = 1 are rejected
    rather than returning 0, to catch confusion with the standard model.
    """
    lo = _shortest_cycle(model)
    if not lo <= j <= n:
        raise ValueError(f"need {lo} <= j <= n in the {model} model")
    return component_means(n, model)[j]


def factorial_moment(n: int, orders: Mapping[int, int]) -> Fraction:
    """Joint falling-factorial moment E prod_j C_j^[r_j] of toes component counts.

    `orders` maps size j (>= 2) to r_j.  With m = sum j*r_j it is
    prod_j (e**j lambda~_j)**r_j n_[m] (n-m-1)**(n-m) / (n-1)**n, the
    intensities' factors e**(-m) cancelling the e**m of the law; it
    vanishes when the sizes cannot fit, m > n.  Needs n >= 2.
    """
    _check_n(n, "toes")
    m = 0
    value = Fraction(1)
    for j, r in sorted(orders.items()):
        if r == 0:
            continue
        if j < 2:
            raise ValueError("size-1 components cannot occur in the toes model")
        if r < 0:
            raise ValueError("orders must be nonnegative")
        m += j * r
        value = value * _scaled_intensity(j, "toes") ** r
    if m > n:
        return Fraction(0)
    return value * Fraction(math.perm(n, m), (n - 1) ** n) * _mappings_outside(n, m, "toes")


def expected_num_components(n: int, model: Model = "toes") -> Fraction:
    """Expected total number of components, the sum of the component means.

    Components and core cycles are in bijection, so the sum of the cycle
    means is the same value, found apart; the two sums must agree exactly
    (ConsistencyError if not).
    """
    total = sum(component_means(n, model))
    if total != sum(cycle_means(n, model)):
        raise ConsistencyError(f"component/cycle count means disagree at n={n}")
    return total


# ---------------------------------------------------------------------------
# Core-size laws


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
    _check_n(n, model)
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
def core_size_law(n: int, model: Model) -> tuple[Fraction, ...]:
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
    lo = _shortest_cycle(model)
    if not lo <= r <= n:
        raise ValueError(f"need {lo} <= r <= n in the {model} model")
    return core_size_law(n, model)[r]


# ---------------------------------------------------------------------------
# Cycle-count laws


@lru_cache(maxsize=4)
def cycle_means(n: int, model: Model) -> tuple[Fraction, ...]:
    """E C_j, the expected number of length-j core cycles, for j = 0..n:
    n_[j] / (j b**j), b = n-1 (toes) or n, as the running product
    E C_{j+1} = E C_j (n-j) j / ((j+1) b) from n_[1] / b = n/b.  Each step
    multiplies by a Fraction of small integers, which costs two gcds against
    small integers instead of one of full width.  The toes model has no
    1-cycles: n/b only seeds its product, and its entry 1 is 0."""
    _check_n(n, model)
    base = _base(n, model)
    means = [Fraction(0), Fraction(n, base)]
    for j in range(1, n):
        means.append(means[j] * Fraction((n - j) * j, (j + 1) * base))
    if model == "toes":
        means[1] = Fraction(0)
    return tuple(means)


def mean_cycle_count(n: int, j: int, model: Model = "toes") -> Fraction:
    """Expected number of length-j cycles in the core: j >= 1 in the
    standard model, j >= 2 in the toes model."""
    lo = _shortest_cycle(model)
    if not lo <= j <= n:
        raise ValueError(f"need {lo} <= j <= n in the {model} model")
    return cycle_means(n, model)[j]


# ---------------------------------------------------------------------------
# Screaming pairs


#: Largest n for which :func:`scream_pmf` builds its table.  The table
#: itself, n//2 + 1 reductions of integers of O(n log n) bits by the primes
#: of n-1, takes about 0.06 s at n = 1000 and 0.4 s at n = 3000; the emit
#: of its rationals costs more, and `exact --format json` takes 2.9-3.2 s
#: at n = 3000 and 9 s at n = 4000.
SCREAM_MAX_N = 3000


def _no_scream_count(n: int) -> int:
    """P(no screaming pair) (n-1)**(2J), J = n//2, an integer: the
    alternating series N = sum_{l=0}^{J} (-1)**l M_l (n-1)**(2(J-l)), where
    M_l = n_[2l] / (2**l l!) = C(n,2l) (2l-1)!! counts the l-matchings of n
    points, so M_l = M_{l-1} (n-2l+2)(n-2l+1) / (2l).

    Its terms have the ratio -(n-2l+2)(n-2l+1) / (2l (n-1)**2), which
    binary splitting sums as one fraction T/Q over
    Q = 2**J J! (n-1)**(2J): N = (Q + T) / (2**J J!), checked to divide
    exactly.  The products are balanced, so n = 10**4 (terms of about 40000
    digits) takes a few hundredths of a second.
    """
    square = (n - 1) ** 2

    def split(lo: int, hi: int) -> tuple[int, int, int]:
        # P, Q: the products of the ratios' numerators and denominators over
        # l = lo..hi-1; T/Q: the sum over l of the products from lo to l
        if hi - lo == 1:
            p = -(n - 2 * lo + 2) * (n - 2 * lo + 1)
            return p, 2 * lo * square, p
        mid = (lo + hi) // 2
        p_lo, q_lo, t_lo = split(lo, mid)
        p_hi, q_hi, t_hi = split(mid, hi)
        return p_lo * p_hi, q_lo * q_hi, t_lo * q_hi + p_lo * t_hi

    half = n // 2
    _, q, t = split(1, half + 1)
    count, rest = divmod(q + t, 2**half * math.factorial(half))
    if rest:
        raise ConsistencyError(f"q_n series leaves a remainder at n={n}")
    return count


def _scream_counts(n: int) -> list[int]:
    """C_k = P(S = k) (n-1)**(2J) for k = 0..J, J = n//2, with S the number
    of 2-cycles of the toes core; integers, since by inclusion-exclusion
    C_k = sum_l (-1)**(l-k) C(l,k) M_l (n-1)**(2(J-l)), with M_l the
    l-matchings of :func:`_no_scream_count`.

    S has factorial moments E S_[m] = n_[2m] / (2 (n-1)**2)**m, so its pgf
    is G(z) = F((z-1) / (2 (n-1)**2)) with F(u) = sum_m n_[2m] u**m / m!.
    The coefficients of F satisfy (m+1) c_{m+1} = (n-2m)(n-2m-1) c_m, that
    is F' = (n - 2uD)(n - 1 - 2uD) F with D = d/du, which in z reads
    2(n-1)**2 G' = n(n-1) G - (4n-6)(z-1) G' + 4 (z-1)**2 G''.  Its
    coefficients of z**k give the three-term recurrence, for k = J-1..0,
    (n-2k)(n-2k-1) C_k = (k+1)(8k - 4n + 6 + 2(n-1)**2) C_{k+1}
                         - 4(k+1)(k+2) C_{k+2},
    from C_{J+1} = 0 and C_J = M_J = n_[2J] / (2**J J!) (all J pairs
    scream).  Every division, that one included, is checked to be exact,
    raising ConsistencyError.
    """
    half = n // 2
    counts = [0] * (half + 2)
    counts[half], rest = divmod(math.perm(n, 2 * half), 2**half * math.factorial(half))
    if rest:
        raise ConsistencyError(f"the {half}-matchings of n={n} points are not an integer")
    shift = 2 * (n - 1) ** 2 - 4 * n + 6
    for k in range(half - 1, -1, -1):
        step = (k + 1) * ((8 * k + shift) * counts[k + 1] - 4 * (k + 2) * counts[k + 2])
        counts[k], rest = divmod(step, (n - 2 * k) * (n - 2 * k - 1))
        if rest:
            raise ConsistencyError(f"scream recurrence leaves a remainder at n={n}, k={k}")
    return counts[:-1]


@lru_cache(maxsize=4)
def scream_law(n: int) -> tuple[Fraction, ...]:
    """P(S = k) = C_k / (n-1)**(2J) for k = 0..J, J = n//2, with S the
    screaming pairs of the toes model, 2 <= n <= SCREAM_MAX_N, and C_k the
    integers of :func:`_scream_counts`.  The recurrence makes the table one
    exact division and one reduction by the primes of n-1
    (:func:`fraction_over_power`) per cell, where an alternating sum per
    cell would be O(n) and a gcd against the whole denominator quadratic.

    Checked in integers, raising ConsistencyError: the C_k sum to
    (n-1)**(2J), and C_0 equals the k = 0 series that q_n is built from
    (:func:`_no_scream_count`), summed apart from the recurrence.
    """
    if not 2 <= n <= SCREAM_MAX_N:
        raise ValueError(f"need 2 <= n <= {SCREAM_MAX_N} (got {n})")
    counts = _scream_counts(n)
    power = 2 * (n // 2)
    if sum(counts) != (n - 1) ** power:
        raise ConsistencyError(f"scream counts for n={n} do not sum to (n-1)**(2J)")
    if counts[0] != _no_scream_count(n):
        raise ConsistencyError(f"scream recurrence and q_n series disagree at n={n}")
    return tuple(fraction_over_power(count, n - 1, power) for count in counts)


def scream_pmf(n: int, k: int) -> Fraction:
    """P(exactly k screaming pairs), i.e. k 2-cycles in the toes core;
    2 <= n <= SCREAM_MAX_N.  The first call for an n builds (and caches)
    the whole table, :func:`scream_law`."""
    law = scream_law(n)
    if not 0 <= k < len(law):
        raise ValueError("need 0 <= k <= n//2")
    return law[k]


def prob_someone_screams(n: int) -> Fraction:
    """P(at least one screaming pair), q_n = 1 - P(no screaming pair).

    That is one alternating series,
    sum_{l>=1} (-1)**(l-1) n_[2l] / (2**l l! (n-1)**(2l)), summed in
    integers over (n-1)**(2J) by :func:`_no_scream_count`; it needs no
    scream table, so any n >= 2 is allowed.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    power = 2 * (n // 2)
    return fraction_over_power((n - 1) ** power - _no_scream_count(n), n - 1, power)


# ---------------------------------------------------------------------------
# Acceptance-rate exponent (partial sums of the slowly converging series)


def spitzer_partial_sum(limit: int = 10**6) -> float:
    """sum_{j=2}^{limit} (1/j) (1/2 - P(Po(j) <= j-2)).

    The series converges to (1 + log 2)/2 with an O(limit**-1/2) tail,
    hence the large default truncation.  The Poisson tails Q(j-1, j) come
    from :func:`omega`, vectorised.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    total = 0.0
    chunk = 2_000_000
    for start in range(2, limit + 1, chunk):
        j = np.arange(start, min(limit, start + chunk - 1) + 1)
        total += float(((0.5 - omega(j)) / j).sum())
    return total


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
    distinct sizes j, each one of the T_j connected toes mappings on its
    points.  Cycles: a core of r points whose cycles have distinct lengths
    j, each in (j-1)! cyclic orders, times the C(n,r) r n**(n-r-1) ways to
    choose the core and root the rest on it.
    Both are 0/1 knapsacks.  The joint needs distinct sizes and distinct
    cores at once, which has no product form: it is summed exactly over
    sizes from the largest down, memoised on (largest size left, points
    left, set of cores already used that a smaller size could still take),
    with g(s, c) = component_count_with_core(s, c).
    """
    if not 2 <= n <= REPEATS_MAX_N:
        raise ValueError(f"need 2 <= n <= {REPEATS_MAX_N} (got {n})")
    sizes = range(2, n + 1)
    comp = _distinct_block_counts(n, [0, 0] + [_connected_count(j, "toes") for j in sizes])[n]
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


__all__ = [
    "ConsistencyError",
    "Model",
    "NoRepeatProbs",
    "OMEGA_EXACT_MAX_J",
    "REPEATS_MAX_N",
    "SCREAM_MAX_N",
    "component_count_with_core",
    "component_means",
    "component_pmf",
    "component_pmf_table",
    "core_size_counts",
    "core_size_law",
    "core_size_pmf",
    "cycle_means",
    "expected_num_components",
    "factorial_moment",
    "mean_component_count",
    "mean_cycle_count",
    "omega",
    "partitions",
    "prob_no_repeated_sizes",
    "prob_someone_screams",
    "scream_law",
    "scream_pmf",
    "single_component_prob",
    "spitzer_partial_sum",
]

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
means, screaming pairs and q_n, and no-repeated-size probabilities.  Beside
them are two results of the paper that no table reports, the joint
falling-factorial moments (:func:`factorial_moment`) and the Spitzer-type
sum behind the rejection sampler's acceptance rate
(:func:`spitzer_partial_sum`).  The reference laws that only check these
(the Ewens sampling formula, the derangement cycle laws and the two sides
of the core/derangement identity) live with the tests, in
``tests/oracles.py``.

Every probability and moment here is computed as an exact ``Fraction``.
The Poisson intensities of the component laws carry a factor e**(-j) that
cancels against an e**j of the same formula, so they are held as their
rational part e**j * lambda_j (:func:`_scaled_intensity`) and no power of e
is ever formed.  Results are bit-reproducible and feed both the CLI tables
and the samplers' inverse-CDF tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Literal, Mapping, NamedTuple

import mpmath
import numpy as np

from .exact import (
    DEFAULT_PRECISION,
    derangement_numbers,
    falling_factorial,
    fraction_over_power,
    poisson_partial_sum,
    to_mpf,
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


def _base(n: int, model: Model) -> int:
    """Admissible images per point: the model has _base(n)**n mappings."""
    return n - 1 if model == "toes" else n


# ---------------------------------------------------------------------------
# Size spectra and pmf table checks


@dataclass(frozen=True)
class Spectrum:
    """Multiset of sizes encoded as counts: ``counts`` holds (size, multiplicity).

    Used both for component sizes (n = number of mapped points) and for
    cycle lengths (n = number of core elements).  A spectrum accounts for
    everything: sum of size*multiplicity equals n.
    """

    n: int
    counts: tuple[tuple[int, int], ...]

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
        if self.total != self.n:
            raise ValueError(
                "a spectrum must satisfy sum(size*mult) == n; "
                f"got {self.total} != {self.n}"
            )

    @classmethod
    def from_counts(cls, n: int, counts: Mapping[int, int]) -> Spectrum:
        items = tuple(sorted((int(j), int(a)) for j, a in counts.items() if a != 0))
        return cls(n, items)

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> Spectrum:
        sizes = tuple(sizes)
        counts: dict[int, int] = {}
        for s in sizes:
            counts[s] = counts.get(s, 0) + 1
        return cls.from_counts(sum(sizes), counts)

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


def _scaled_intensity(j: int, model: Model) -> Fraction:
    """e**j lambda_j, the rational part of the limit intensity of size-j
    components: lambda_j = (1/j) P(Po(j) <= j-1) for standard mappings and
    lambda~_j = (1/j) P(Po(j) <= j-2) when no point maps to itself.  Its
    callers multiply it by an e**(-j) that cancels, so that factor is never
    formed.  Callers check j against the model's sizes.
    """
    return poisson_partial_sum(j, j - _shortest_cycle(model)) / j


#: Largest j whose w_j :func:`omega` rounds from the exact law; above it
#: Ramanujan's expansion is within 1 ulp of a 200-bit evaluation (checked for
#: j = 101..3000, and exact at j = 10**4, 10**5 and 10**6).
OMEGA_EXACT_MAX_J = 100


@lru_cache(maxsize=1)
def _omega_exact() -> np.ndarray:
    """w_j for j = 0..OMEGA_EXACT_MAX_J (zero below 2), each the exact
    Poisson partial sum times e**(-j) at DEFAULT_PRECISION bits, rounded to
    a float; about 7 ms for the whole table."""
    w = np.zeros(OMEGA_EXACT_MAX_J + 1)
    with mpmath.workprec(DEFAULT_PRECISION):
        for j in range(2, OMEGA_EXACT_MAX_J + 1):
            w[j] = float(to_mpf(poisson_partial_sum(j, j - 2)) * mpmath.exp(-j))
    return w


def omega(j: np.ndarray) -> np.ndarray:
    """w_j = P(Po(j) <= j-2) = j lambda~_j, elementwise over integers j >= 2,
    as float64.  This is the regularised upper incomplete gamma Q(j-1, j).

    Up to :data:`OMEGA_EXACT_MAX_J` each value is the exact law rounded
    once.  Above it, Ramanujan's expansion (Flajolet, Grabner, Kirschenhofer
    and Prodinger 1995, "On Ramanujan's Q-function") gives
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
    w[small] = _omega_exact()[j[small]]
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
    return (
        math.comb(size, core)
        * math.factorial(core - 1)
        * core
        * size ** (size - core - 1)
    )


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
    fal = falling_factorial(size, lo)  # size_[c], from c = lo
    acc = 0
    for c in range(lo, size):
        acc = acc * size + fal
        fal *= size - c
    return acc + fal // size  # fal is now size!


def component_total_count(size: int) -> int:
    """Number of single-component toes mappings on `size` labelled points."""
    if size < 2:
        raise ValueError("size must be >= 2")
    return _connected_count(size, "toes")


def single_component_prob(n: int, model: Model = "toes") -> Fraction:
    """Probability that the whole mapping is one component, T_n / b**n with
    b**n the model's mappings; exactly rational."""
    lo = _shortest_cycle(model)
    if n < lo:
        raise ValueError(f"need n >= {lo} in the {model} model")
    return fraction_over_power(_connected_count(n, model), _base(n, model), n)


# ---------------------------------------------------------------------------
# Component-size laws


def component_pmf(n: int, spectrum: Spectrum, model: Model = "toes") -> Fraction:
    """Exact probability that the mapping has the given size spectrum.

    Splitting the n points into a_j blocks of each size j and making every
    block one connected mapping gives
    P = n!/b**n * prod_j (T_j / j!)**a_j / a_j!, where b**n counts the
    model's mappings and T_j its connected mappings on j points
    (:func:`_connected_count`).
    """
    _check_model(model)
    if spectrum.n != n:
        raise ValueError("spectrum is for a different n")
    if model == "toes" and spectrum.get(1) > 0:
        raise ValueError("size-1 components cannot occur in the toes model")
    value = Fraction(math.factorial(n), _base(n, model) ** n)
    for j, a in spectrum.counts:
        value *= Fraction(_connected_count(j, model), math.factorial(j)) ** a / math.factorial(a)
    return value


def component_pmf_table(n: int, model: Model = "toes") -> dict[tuple[int, ...], Fraction]:
    """component_pmf over every spectrum, keyed by ascending size tuple."""
    table = {}
    for parts in partitions(n, _shortest_cycle(model)):
        spec = Spectrum.from_sizes(parts)
        table[spec.sizes()] = component_pmf(n, spec, model)
    _check_sums_to_one(table, "component-pmf", n)
    return table


def mean_component_count(n: int, j: int, model: Model = "toes") -> Fraction:
    """Expected number of size-j components, exactly.

    Two independent closed forms are evaluated and must agree; disagreement
    raises ConsistencyError.  The intensity form is
    (e**j lambda_j) n_[j] (b-j)**(n-j) / b**n, with e**j lambda_j the
    Poisson partial sum of :func:`_scaled_intensity`; the count form is
    C(n,j) T_j (b-j)**(n-j) / b**n, the mappings in which a given j-set is
    one component, with T_j counted in integers by
    :func:`_connected_count`.  Here b = n-1 (toes) or n.
    Toes-model queries with j = 1 are rejected rather than returning 0, to
    catch confusion with the standard model.
    """
    lo = _shortest_cycle(model)
    if not lo <= j <= n:
        raise ValueError(f"need {lo} <= j <= n in the {model} model")
    base = _base(n, model)
    rest = (base - j) ** (n - j)  # mappings of the other n-j points among themselves
    direct = _scaled_intensity(j, model) * Fraction(falling_factorial(n, j), base**n) * rest
    count = math.comb(n, j) * _connected_count(j, model) * rest
    if direct.numerator * base**n != count * direct.denominator:  # direct == count / base**n
        raise ConsistencyError(f"component-mean forms disagree at n={n}, j={j}")
    return direct


def factorial_moment(n: int, orders: Mapping[int, int]) -> Fraction:
    """Joint falling-factorial moment E prod_j C_j^[r_j] of toes component counts.

    `orders` maps size j (>= 2) to r_j.  With m = sum j*r_j it is
    prod_j (e**j lambda~_j)**r_j n_[m] (n-m-1)**(n-m) / (n-1)**n, the
    intensities' factors e**(-m) cancelling the e**m of the law; it
    vanishes when the sizes cannot fit, m > n.
    """
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
    value = value * Fraction(falling_factorial(n, m), (n - 1) ** n)
    return value * ((n - m - 1) ** (n - m) if m < n else 1)


def expected_num_components(n: int, model: Model = "toes") -> Fraction:
    """Expected total number of components.

    For the toes model the value is computed twice -- once by summing the
    component-mean formula over sizes, once by summing the core cycle-count
    means (components and core cycles are in bijection) -- and the two must
    agree exactly.
    """
    lo = _shortest_cycle(model)
    if n < lo:
        raise ValueError(f"need n >= {lo} in the {model} model")
    via_components = sum(
        (mean_component_count(n, j, model) for j in range(lo, n + 1)), Fraction(0)
    )
    if model == "standard":
        return via_components
    via_cycles = sum(
        (mean_cycle_count(n, j, "toes") for j in range(2, n + 1)), Fraction(0)
    )
    if via_components != via_cycles:
        raise ConsistencyError(f"component/cycle count means disagree at n={n}")
    return via_components


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
    lo = _shortest_cycle(model)
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
    lo = _shortest_cycle(model)
    if not lo <= r <= n:
        raise ValueError(f"need {lo} <= r <= n in the {model} model")
    return _core_size_law(n, model)[r]


def core_size_table(n: int, model: Model = "toes") -> dict[int, Fraction]:
    """Exact core-size pmf for r over the full support.  Its normalisation
    is checked in integers, on the counts it is read from."""
    lo = _shortest_cycle(model)
    law = _core_size_law(n, model)
    return {r: law[r] for r in range(lo, n + 1)}


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


def mean_cycle_count(n: int, j: int, model: Model = "toes") -> Fraction:
    """Expected number of length-j cycles in the core: j >= 1 in the
    standard model, j >= 2 in the toes model."""
    lo = _shortest_cycle(model)
    if not lo <= j <= n:
        raise ValueError(f"need {lo} <= j <= n in the {model} model")
    return _cycle_means(n, model)[j]


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


def prob_someone_screams(n: int) -> Fraction:
    """P(at least one screaming pair), q_n = 1 - P(no screaming pair).

    That is one alternating series,
    sum_{l>=1} (-1)**(l-1) n_[2l] / (2**l l! (n-1)**(2l)).
    """
    return 1 - scream_pmf(n, 0)


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


def cycle_mean_table(n: int, model: Model = "toes") -> dict[int, Fraction]:
    """mean_cycle_count for every length j."""
    lo = _shortest_cycle(model)
    return {j: mean_cycle_count(n, j, model) for j in range(lo, n + 1)}


__all__ = [
    "ConsistencyError",
    "Model",
    "NoRepeatProbs",
    "OMEGA_EXACT_MAX_J",
    "REPEATS_MAX_N",
    "Spectrum",
    "component_count_with_core",
    "component_pmf",
    "component_pmf_table",
    "component_total_count",
    "core_size_counts",
    "core_size_pmf",
    "core_size_table",
    "cycle_mean_table",
    "expected_num_components",
    "factorial_moment",
    "mean_component_count",
    "mean_cycle_count",
    "omega",
    "partitions",
    "prob_no_repeated_sizes",
    "prob_someone_screams",
    "scream_pmf",
    "single_component_prob",
    "spitzer_partial_sum",
]

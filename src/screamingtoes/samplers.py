"""Random generation of fixed-point-free mappings by three routes.

1. Direct: draw each image uniformly from the other n-1 points and
   decompose the functional graph (components, core, cycles).
2. Rejection: draw a cycle-count vector from the Ewens sampling formula
   with theta = 1/2 and accept it with probability
   1{no 1-cycles} * prod_j (2 w_j)**a_j, where w_j = P(Po(j) <= j-2).
   Accepted vectors are distributed as the component-size spectrum of the
   mapping.
3. Core-joint: draw the core size from its exact inverse CDF, then the
   cycle type of a uniform random derangement of that size, both in blocks
   of ``ROW_CHUNK`` replicates, so that a batch's memory does not grow with
   its size.

Every sampler takes a ``numpy.random.Generator`` and is bit-reproducible
for a fixed seed and call sequence; the harness gives each batch its own
generator, spawned from the master seed by numpy's ``SeedSequence``.  Each
route has one implementation, a vectorised kernel that takes (n, count,
rng, keys) and returns the batch's whole tally, and the direct route and
the brute-force oracle decompose their mappings by one kernel,
:func:`decompose_batch`.

Above :data:`TYPE_TABLE_MAX_N`, routes 2 and 3 share one kernel,
:func:`_cycles_without_fixed_points`: it draws ESF(theta) conditioned on
having no 1-cycle, one cycle at a time from one exact cumulative table, so
a replicate costs O(its cycles) random numbers and memory, not O(n).  At
theta = 1 that is a uniform derangement's cycle type; at theta = 1/2 it is
a rejection proposal that has already passed the no-1-cycle test, which one
uniform against P(a_1 = 0) decides.

Up to :data:`TYPE_TABLE_MAX_N`, where a replicate's cycle type takes only a
few hundred values, each route draws it whole with one double, by one
search of one exact cumulative table over its outcomes.  These tables hold
the laws that both routes sample, as float64 CDFs rounded once from exact
integers: the Ewens sampling formula given a_1 = 0 by Cauchy's cycle-type
count (:func:`_cycle_types`), at theta = 1/2 for rejection proposals
(:func:`_proposal_type_table`, with each type's acceptance threshold), and
at theta = 1, the derangement cycle-type law, joined with the core-size
counts of ``laws`` for the core-joint route (:func:`_core_type_table`).
One builder, :func:`_cumulative_table`, makes both, and the core-size CDF
that route 3 searches above :data:`TYPE_TABLE_MAX_N`
(:func:`_core_size_cdf`): a law over (size, type of that size) pairs, each
running sum rounded once, checked to reach its total, the last entry 1.0.

There is one tally format and one fold.  Every kernel, the brute-force
oracle's :func:`every_mapping_counts` too, hands its groups (components or
cycles) to :func:`_tally_pairs` as (row, size) pairs, one pair per group,
with a weight per row: a row is one replicate, weight 1, or, drawing whole
types, one type of a table, weighted by how many replicates drew it.  That
fold builds every integer tally of :func:`zero_tally`; nothing builds a
per-replicate (rows, n+1) count matrix.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import laws


# ---------------------------------------------------------------------------
# Direct simulation


def _check_batch(n: int, count: int) -> None:
    """Refuse, before any work, a batch that no route can draw: every route
    kernel and :func:`sample_mappings_batch` give these two messages."""
    if n < 2:
        raise ValueError("need n >= 2")
    if count < 0:
        raise ValueError(f"need count >= 0 (got {count})")


def sample_mappings_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n) array of independent uniform fixed-point-free mappings.

    Per coordinate, a uniform draw u from {0, ..., n-2} is shifted past i
    (u -> u+1 when u >= i), which hits [n] \\ {i} uniformly with no
    rejection loop.

    Drawing ``count`` rows in several calls gives the same rows as one call
    (numpy's bounded integers take whole 32-bit draws per value), which is
    what lets the direct route draw a batch in chunks of :func:`chunk_rows`.
    """
    _check_batch(n, count)
    u = rng.integers(0, n - 1, size=(count, n), dtype=np.int64)
    u += u >= np.arange(n, dtype=np.int64)
    return u


@dataclass
class DecompositionBatch:
    """(replicate, size) pairs from a batch decomposition, in replicate order.

    ``components`` is the pair of arrays (replicate, size) with one entry
    per component (None when the call skipped them); ``cycles`` likewise,
    one entry per cycle.  ``core`` holds the flat indices (row b, element i
    is b*n + i) of the cyclic elements, ascending.
    """

    components: tuple[np.ndarray, np.ndarray] | None
    cycles: tuple[np.ndarray, np.ndarray]
    core: np.ndarray


#: Squarings of the whole successor map before :func:`decompose_batch`
#: compacts to the image of the power they reach, f**16, about a ninth of
#: the cells at n = 1000.  The split pays only when the rounds left on the
#: image are at least as many: at n = 33 to 64 it was 10 % slower per
#: chunk, at n = 100 as fast, from n = 200 on 15-20 % faster (2-vCPU host).
FULL_ROUNDS = 4


def decompose_batch(
    images: np.ndarray, scratch: tuple | None = None, components: bool = True
) -> DecompositionBatch:
    """Vectorised decomposition of a (B, n) batch of mappings.

    Works on flat indices (row b, element i is b*n + i).  Any power f**m
    with m at least every tail height lands each element on its own cycle,
    and f**m permutes the core, so its image is the core; K = ceil(log2 n)
    squarings of the flat successor map reach m = 2**K >= n.  They run in
    two stages.  The first squares the whole map ``FULL_ROUNDS`` times, to
    f**16, whose image S holds about 2n/16 points of a row (Flajolet and
    Odlyzko 1989: the image of f**k has about 2n/k).  f**16 maps S into
    itself, so the second stage takes S to compact positions and does the
    remaining K - 4 squarings there; the core is the image of that power
    on S.  When K < 2 * ``FULL_ROUNDS`` (n <= 128) the first stage does all
    K rounds and S is the core: below that the second stage saves less than
    its bookkeeping costs.

    The core, about sqrt(pi n / 2) of n elements, is compacted too, and
    only there does pointer doubling find each element's orbit minimum,
    which labels its cycle.  An element's component is the cycle it lands
    on, which does not depend on m: each point of S takes the label of the
    cycle its power lands on, and one gather through f**16 labels every
    cell (:func:`_component_pairs`, skipped when ``components`` is false,
    which leaves ``components`` None).  Everything else is bincounts, whose
    nonzero entries are the groups.

    Working memory is three index arrays and a mask of B*n entries each,
    plus arrays the size of S; callers bound it by the number of rows they
    pass.  ``scratch``, from :func:`_decomposition_scratch` for at least
    B*n cells, lends the first four, so that a caller decomposing many
    blocks allocates them once.
    """
    images = np.asarray(images)
    batch, n = images.shape
    cells = batch * n
    if scratch is None:
        scratch = _decomposition_scratch(cells)
    landed, spare, at, mask = (array[:cells] for array in scratch)
    np.add(images, np.arange(0, cells, n)[:, None], out=landed.reshape(batch, n))
    rounds = (n - 1).bit_length()
    full = FULL_ROUNDS if rounds >= 2 * FULL_ROUNDS else rounds
    for _ in range(full):  # mode="clip" skips take's bounds check, and its copy
        np.take(landed, landed, out=spare, mode="clip")
        landed, spare = spare, landed
    image = _image_of(landed, mask)
    power = None
    core = image
    if full < rounds:
        # the power on S, through a flat-to-S map whose entries off S are
        # never read
        at[image] = np.arange(image.size)
        power = at[landed[image]]
        for _ in range(rounds - full):
            power = power[power]
        core = image[_image_of(power, mask[:image.size])]
    # the core's successor map on core positions, through a flat-to-core map
    # whose entries off the core are never read
    at[core] = np.arange(core.size)
    hop = at[images.ravel()[core] + (core - core % n)]
    cycle = np.arange(core.size)
    for _ in range(rounds):
        np.minimum(cycle, cycle[hop], out=cycle)
        hop = hop[hop]
    return DecompositionBatch(
        _component_pairs(cycle, core, image, power, landed, at, spare, n) if components else None,
        _label_pairs(cycle, core, n),
        core,
    )


def _image_of(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending, marked in ``mask``
    (one entry per possible value)."""
    mask[:] = False
    mask[values] = True
    return np.flatnonzero(mask)


def _component_pairs(
    cycle: np.ndarray,
    core: np.ndarray,
    image: np.ndarray,
    power: np.ndarray | None,
    landed: np.ndarray,
    at: np.ndarray,
    out: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The (row, size) pairs of the components of :func:`decompose_batch`.
    Each core point takes its cycle label, then each point of the image S
    the label of the core point it lands on, ``image[power]`` (S is the core
    when ``power`` is None); ``landed`` maps every cell into S, so one
    gather through it labels every cell, in ``out``."""
    at[core] = cycle
    if power is not None:
        at[image] = at[image[power]]
    return _label_pairs(np.take(at, landed, out=out, mode="clip"), core, n)


def _decomposition_scratch(cells: int) -> tuple[np.ndarray, ...]:
    """Working arrays that :func:`decompose_batch` borrows for up to
    ``cells`` cells: two index buffers that the squaring passes between,
    the flat-to-image map and the image mask."""
    return (*np.empty((3, cells), dtype=np.intp), np.empty(cells, dtype=bool))


def _label_pairs(labels: np.ndarray, core: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (row, size) pairs of the groups that labels name, one label per
    member: a label is the core position of the group's cycle minimum, a
    group's size is the number of its members, and its row is that of the
    cycle minimum's flat index ``core[label]``."""
    sizes = np.bincount(labels)
    label = np.flatnonzero(sizes)
    return core[label] // n, sizes[label]


# ---------------------------------------------------------------------------
# Integer tallies of (replicate, size) pairs

#: Cells (rows times row width) a batch kernel works on at once.  A chunk of
#: this size keeps a direct-route batch under about 6 MB (traced) whatever
#: its size.  Swept for the two-stage :func:`decompose_batch` (CPU of one
#: direct batch, median of 11 alternating runs, 2-vCPU host): chunks of
#: 2**15 to 2**19 cells took 0.16-0.19 s at n = 100 (40 000 rows),
#: 0.33-0.37 s at n = 1000 (10 000 rows) and 0.25-0.28 s at n = 2000 (5000
#: rows), and no size beat 2**17 at all three.  Before the split, 2**21
#: cells took 0.52 s at n = 1000.
CHUNK_CELLS = 1 << 17


def chunk_rows(width: int) -> int:
    """Rows of the given width that fit in one chunk of ``CHUNK_CELLS``."""
    return max(1, CHUNK_CELLS // width)


def zero_tally(n: int, *keys: str) -> dict[str, np.ndarray]:
    """Zeroed int64 tallies for size-n replicates.

    There is one tally format: every route hands its groups to one fold,
    :func:`_tally_pairs`, as (row, size) pairs with a weight per row, and
    these are the tallies it builds, all but ``no_repeat``.  ``<name>_sum``
    and ``<name>_sumsq`` are per-length sums of counts and of squared counts
    (length n+1), ``core_hist`` is a histogram of core sizes (n+1),
    ``scream_hist`` one of 2-cycle counts (n//2 + 1; both come with every
    cycle tally), and ``no_repeat`` counts the replicates with no repeated
    component size, no repeated cycle length, and neither (3), from the
    rows that the fold returns.
    """
    width = {"scream_hist": n // 2 + 1, "no_repeat": 3}
    return {key: np.zeros(width.get(key, n + 1), dtype=np.int64) for key in keys}


def _tally_pairs(
    tally: dict, name: str, rows: np.ndarray, lengths: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Fold a block of (row, group length) pairs, one per group of the rows
    0..weight.size-1, into a tally, row r standing for ``weight[r]``
    (int64) replicates: ``tally[name + "_sum"]`` and ``tally[name + "_sumsq"]``
    get the per-length sums over replicates of the count c of such groups
    and of c**2, and for cycles (``name == "cyc"``) ``scream_hist`` and
    ``core_hist`` the histograms of every replicate's count of 2-cycles and
    of its core size, the sum of its cycle lengths.  Every sum is taken in
    int64, so the tallies stay exact whatever the weights.  Returns the rows
    that have two groups of one length, sorted and once each."""
    width = tally[name + "_sum"].size
    codes, counts = np.unique(rows * width + lengths, return_counts=True)
    row = codes // width  # sorted, as the codes are
    length = codes - row * width
    times = weight[row] * counts
    np.add.at(tally[name + "_sum"], length, times)
    np.add.at(tally[name + "_sumsq"], length, times * counts)
    if name == "cyc":
        twos = np.zeros(weight.size, dtype=np.int64)
        two = length == 2
        twos[row[two]] = counts[two]
        np.add.at(tally["scream_hist"], twos, weight)
        # float64 sums are exact: a row's lengths sum to at most n
        core = np.bincount(rows, weights=lengths, minlength=weight.size).astype(np.int64)
        np.add.at(tally["core_hist"], core, weight)
    repeated = row[counts > 1]
    return repeated[np.diff(repeated, prepend=-1) > 0]


#: The tally keys of whole mappings that the core alone gives: cycles,
#: screaming pairs and core sizes.
_CORE_KEYS = ("cyc_sum", "cyc_sumsq", "scream_hist", "core_hist")

#: The tally keys that need every cell's component label.
_COMPONENT_KEYS = ("comp_sum", "comp_sumsq", "no_repeat")

#: Every tally key of whole mappings.
_MAPPING_KEYS = (*_COMPONENT_KEYS, *_CORE_KEYS)


def _tally_mappings(
    tally: dict, images: np.ndarray, scratch: tuple | None = None
) -> DecompositionBatch:
    """Decompose a (rows, n) block of mappings, in ``scratch`` if given (see
    :func:`decompose_batch`), and fold it into a tally with the keys
    ``_CORE_KEYS``, and ``_COMPONENT_KEYS`` too if it has ``comp_sum``: only
    then are the components labelled.  Each row is one replicate, weight 1,
    in :func:`_tally_pairs`, which also gives the core sizes, from the
    cycles.  Returns the block's decomposition.  The direct route and the
    brute-force oracle both fold through here."""
    components = "comp_sum" in tally
    dec = decompose_batch(images, scratch, components)
    rows = len(images)
    ones = np.ones(rows, dtype=np.int64)
    cyc_repeats = _tally_pairs(tally, "cyc", *dec.cycles, ones)
    if components:
        comp_repeats = _tally_pairs(tally, "comp", *dec.components, ones)
        either = np.zeros(rows, dtype=bool)  # a row mask: np.union1d would import numpy.ma
        either[comp_repeats] = either[cyc_repeats] = True
        tally["no_repeat"] += [
            rows - comp_repeats.size, rows - cyc_repeats.size, rows - np.count_nonzero(either)
        ]
    return dec


def toes_mapping_counts_batch(
    n: int, count: int, rng: np.random.Generator, keys: Iterable[str] = _MAPPING_KEYS
) -> dict:
    """Tallies of ``count`` uniform fixed-point-free mappings by the direct
    route: ``replicates``, the keys ``_CORE_KEYS``, and ``_COMPONENT_KEYS``
    too when ``keys`` names one of them, the only case in which components
    are labelled.  The mappings are drawn and decomposed in chunks of
    :func:`chunk_rows` rows; the chunks' draws are the batch's draws, so no
    tally depends on the chunk size or on ``keys``.  Every chunk is
    decomposed in one set of working arrays, allocated once per batch: fresh
    ones per chunk would be mapped and page-faulted in again each time."""
    _check_batch(n, count)
    components = _COMPONENT_KEYS if any(key in _COMPONENT_KEYS for key in keys) else ()
    tally = zero_tally(n, *components, *_CORE_KEYS)
    step = chunk_rows(n)
    scratch = _decomposition_scratch(min(step, count) * n)
    for done in range(0, count, step):
        _tally_mappings(tally, sample_mappings_batch(n, min(step, count - done), rng), scratch)
    return {"replicates": count, **tally}


#: Largest n that the brute-force oracle enumerates: 6**7, about 280 000
#: toes mappings (7**7, about 820 000, in the standard model).
ENUMERATION_MAX_N = 7


def every_mapping_counts(n: int, model: str) -> tuple[dict[str, np.ndarray], dict]:
    """The brute-force oracle's fold: the tallies (``replicates`` and the
    keys ``_MAPPING_KEYS``) of every mapping of size n, 2 <= n <=
    :data:`ENUMERATION_MAX_N`, with no fixed point in the "toes" model and
    any in the "standard" one, and the number of mappings with each joint
    spectrum (component sizes, cycle lengths), as tuples of sizes.

    The m-th mapping has the base-``choices`` digits of m as images,
    shifted past their own index in the toes model.  A block's joint
    spectra are first base-(n+1) codes, one bincount over its pairs: a
    size-j component adds (n+1)**(j-1) to its mapping's code and a
    length-j cycle (n+1)**(n+j-1).
    """
    laws._check_model(model)
    if not 2 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"brute-force enumeration is limited to 2 <= n <= {ENUMERATION_MAX_N}")
    choices = laws._base(n, model)
    total = choices**n
    tally = zero_tally(n, *_MAPPING_KEYS)
    codes: Counter[int] = Counter()
    place = choices ** np.arange(n, dtype=np.int64)
    digit = (n + 1) ** np.arange(2 * n, dtype=np.int64)
    block = 1 << 14  # mappings decomposed at once: about 6 MB at n = 7
    for start in range(0, total, block):
        images = np.arange(start, min(start + block, total))[:, None] // place % choices
        if model == "toes":
            images += images >= np.arange(n)
        dec = _tally_mappings(tally, images)
        (comp_rows, comp_sizes), (cyc_rows, cyc_lengths) = dec.components, dec.cycles
        # float64 sums are exact: every code is below (n+1)**(2n) <= 2**42
        code = np.bincount(
            np.concatenate([comp_rows, cyc_rows]),
            weights=np.concatenate([digit[comp_sizes - 1], digit[n + cyc_lengths - 1]]),
        ).astype(np.int64)
        values, counts = np.unique(code, return_counts=True)
        codes.update(dict(zip(values.tolist(), counts.tolist())))
    counted = sum(codes.values())
    if counted != total:
        raise laws.ConsistencyError(f"{model} enumeration at n={n} counted {counted} of {total} mappings")

    def sizes(code: int) -> tuple[int, ...]:  # the spectrum in the n low digits
        digits = [code // (n + 1) ** k % (n + 1) for k in range(n)]
        return tuple(j for j, times in enumerate(digits, 1) for _ in range(times))

    joint = {(sizes(c), sizes(c // (n + 1) ** n)): k for c, k in codes.items()}
    return {"replicates": total, **tally}, joint


# ---------------------------------------------------------------------------
# Ewens sampling formula and the rejection sampler


@lru_cache(maxsize=64)
def omega_values(n: int) -> np.ndarray:
    """w_j = P(Po(j) <= j-2) for j = 0..n (zero below j = 2), float64.

    The values of :func:`laws.omega`, which
    :func:`laws.spitzer_partial_sum` sums too; the rejection sampler needs
    every w_j <= 1/2, which holds because j-1 is below the Poisson(j)
    median -- a violation means a numerical bug.
    """
    w = np.zeros(n + 1)
    w[2:] = laws.omega(np.arange(2, n + 1))
    if np.any(w > 0.5):
        raise laws.ConsistencyError("Poisson tail exceeded 1/2; numerical error")
    return w


@lru_cache(maxsize=64)
def _no_fixed_point_table(n: int, theta: Fraction) -> tuple[np.ndarray, float]:
    """The cumulative table c_k = f_0 + ... + f_k, k = 0..n-2, of
    :func:`_cycles_without_fixed_points`, and P(a_1 = 0) under ESF(theta) at
    size n, each rounded once to float64 from the integers of
    :func:`_no_fixed_point_sums`.  f_k = [z**k] exp(-theta z) (1-z)**-theta
    weighs the size-k cycle types with no 1-cycle (f_1 = 0; at theta = 1,
    f_k = D_k/k!).  As n f_n = theta c_{n-2}, P(a_1 = 0) = n! f_n / theta^(n)
    is p q (n-1) C_{n-2} / prod_{i<n} (p + q i) for theta = p/q.
    """
    cdf = np.empty(n - 1)
    for k, (acc, scale) in enumerate(_no_fixed_point_sums(n, theta)):
        cdf[k] = acc / scale
    p, q = theta.numerator, theta.denominator
    return cdf, p * q * (n - 1) * acc / math.prod(p + q * i for i in range(n))


def _no_fixed_point_sums(n: int, theta: Fraction):
    """Yields (C_k, q**k k!) for k = 0..n-2, whose ratio is c_k of
    :func:`_no_fixed_point_table`, theta = p/q.  From
    (1-z) G' = (1 + theta z) G for G = sum_k c_k z**k, the integers follow
    C_0 = 1, C_1 = q and C_k = q k C_{k-1} + p q (k-1) C_{k-2}."""
    p, q = theta.numerator, theta.denominator
    before, acc, scale = 0, 1, 1
    for k in range(n - 1):
        if k:
            before, acc, scale = acc, q * k * acc + p * q * (k - 1) * before, q * k * scale
        yield acc, scale


def _cycles_without_fixed_points(
    sizes: np.ndarray, n: int, theta: Fraction, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The (row, cycle length) pairs of one ESF(theta) cycle type conditioned
    on a_1 = 0 for each size in ``sizes`` (each 2..n), one cycle at a time.

    Of m points left, the cycle through the smallest leaves k = m - L, with
    P(k | m) = theta f_k / (m f_m) for k = 0..m-2 (Arratia, Barbour and
    Tavare 2003), and these sum to one because m f_m = theta c_{m-2}; so
    k is the first index whose c_k exceeds U c_{m-2}, one search of the
    cached table of :func:`_no_fixed_point_table` for every m.  As f_1 = 0,
    k = 1 never comes up: no 1-cycle is drawn and nothing restarts, so a
    row costs O(its cycles).  All rows advance together, one cycle each per
    step.  theta = 1 gives a uniform derangement's cycle type.
    """
    cdf = _no_fixed_point_table(n, theta)[0]
    left = np.asarray(sizes, dtype=np.int64)
    row = np.arange(left.size)
    rows, lengths = [row[:0]], [left[:0]]
    while row.size:
        # U c_{m-2} can round up to c_{m-2}; the clamp keeps k <= m-2
        rest = np.minimum(
            np.searchsorted(cdf, rng.random(row.size) * cdf[left - 2], side="right"), left - 2
        )
        rows.append(row)
        lengths.append(left - rest)
        going = rest > 0
        row, left = row[going], rest[going]
    return np.concatenate(rows), np.concatenate(lengths)


#: Rows (ESF proposals, or core sizes and their derangements) that the
#: rejection and core-joint routes draw, pass to
#: :func:`_cycles_without_fixed_points` and tally at once; their pairs take a
#: few MB, whatever the batch size.  The whole-type tables of
#: :data:`TYPE_TABLE_MAX_N` draw in chunks of as many proposals or replicates.
ROW_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# Whole cycle types from one exact table, at small n

#: Largest n at which the rejection and core-joint routes draw each
#: replicate's whole cycle type with one search of one exact cumulative
#: table (:func:`_proposal_type_table`, :func:`_core_type_table`), not one
#: cycle at a time.  The core-joint table has 41 entries at n = 10 and 626 at
#: n = 20; both tables took 1 ms to build at n = 10, 0.010 s at n = 20,
#: 0.030 s at n = 25 and 0.10 s at n = 30, once per worker.  One default
#: batch of 125 000 replicates took 0.014 s by table and 0.064 s by steps
#: for rejection at n = 20, and 0.005 s and 0.024 s for core-joint (CPU,
#: median of 7, 2-vCPU host, Python 3.11).  At 20 each route's build costs
#: less than it saves on its first batch; at 25 the core-joint table alone
#: took 0.024 s, more than that batch's saving.
TYPE_TABLE_MAX_N = 20


def _cycle_types(m: int, theta: Fraction) -> tuple[list[tuple[int, ...]], list[int]]:
    """The cycle types of size m with no 1-cycle, in ``laws.partitions(m, 2)``
    order, and the integer weight of each under the Ewens sampling formula
    with theta = p/q: m! q**m prod_j (theta/j)**a_j / a_j!, which is
    Cauchy's count m!/prod_j j**a_j a_j! of the permutations of that type
    times p**k q**(m-k) for its k cycles.  The weights must sum to
    m! q**m f_m = (m-1) p q C_{m-2} of :func:`_no_fixed_point_sums`, so their
    ratios to that sum are ESF(theta) given a_1 = 0; at theta = 1 the sum is
    D_m and the ratios are a uniform derangement's cycle-type law."""
    p, q = theta.numerator, theta.denominator
    types = list(laws.partitions(m, 2))
    weights = [
        math.factorial(m) * p ** len(parts) * q ** (m - len(parts))
        // math.prod(j**a * math.factorial(a) for j, a in Counter(parts).items())
        for parts in types
    ]
    *_, (acc, _) = _no_fixed_point_sums(m, theta)
    if sum(weights) != (m - 1) * p * q * acc:
        raise laws.ConsistencyError(f"ESF({theta}) cycle-type weights at size {m} miss their total")
    return types, weights


def _type_pairs(types: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The (type index, cycle length) pairs of a list of cycle types, one
    pair per cycle, which :func:`_tally_pairs` folds."""
    return np.repeat(np.arange(len(types)), [len(parts) for parts in types]), np.concatenate(types)


def _cumulative_table(total: int, masses: dict[int, int], types) -> tuple[np.ndarray, list]:
    """The cumulative law over the pairs (r, type of r), r in ``masses``
    order, then the types of ``types(r)`` = (types, weights) in their order,
    and the list of those types.  The pair's probability is N_r / total,
    N_r = ``masses[r]``, times the type's weight W over the sum S_r of r's
    weights.  Each running sum, over r' before r plus the types of r so far,
    is the exact ratio (N_below S_r + N_r W_acc) / (total S_r), rounded once
    to float64; at the end of r's types it is (N_below + N_r) / total,
    whatever the types.  The masses must reach ``total``; the last entry is
    forced to 1.0, so that no uniform double falls off the end."""
    below, cdf, outcomes = 0, [], []
    for r, mass in masses.items():
        parts, weights = types(r)
        scale = sum(weights)
        cdf += [(below * scale + mass * acc) / (total * scale)
                for acc in itertools.accumulate(weights)]
        outcomes += parts
        below += mass
    if below != total:
        raise laws.ConsistencyError(f"masses sum to {below}, not their total {total}")
    cdf[-1] = 1.0
    return np.array(cdf), outcomes


@lru_cache(maxsize=64)
def _proposal_type_table(n: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The rejection route's table at size n <= :data:`TYPE_TABLE_MAX_N`,
    over the ESF(1/2) cycle types with no 1-cycle in ``laws.partitions(n, 2)``
    order: the cumulative law of a proposal's type given a_1 = 0, by
    :func:`_cumulative_table` with the one size n over the weights of
    :func:`_cycle_types`; each type's acceptance threshold
    P(a_1 = 0) prod_j (2 w_j)**a_j; and the types' (type, cycle length)
    pairs (:func:`_type_pairs`)."""
    cdf, types = _cumulative_table(1, {n: 1}, lambda r: _cycle_types(r, Fraction(1, 2)))
    p_none = _no_fixed_point_table(n, Fraction(1, 2))[1]
    w = omega_values(n)
    threshold = np.array([p_none * math.prod(2.0 * w[j] for j in parts) for parts in types])
    return cdf, threshold, _type_pairs(types)


def _core_masses(n: int) -> dict[int, int]:
    """N_r of :func:`laws.core_size_counts` for the core sizes r = 2..n."""
    counts = laws.core_size_counts(n, "toes")
    return {r: counts[r] for r in range(2, n + 1)}


@lru_cache(maxsize=64)
def _core_type_table(n: int) -> tuple[np.ndarray, tuple]:
    """The core-joint route's table at size n <= :data:`TYPE_TABLE_MAX_N`,
    over the pairs (core size r, cycle type of a derangement of r), r
    ascending, then the types in ``laws.partitions(r, 2)`` order: the
    cumulative joint law and the types' (type, cycle length) pairs
    (:func:`_type_pairs`).

    :func:`_cumulative_table` over (n-1)**n mappings, with the core-size
    counts N_r and the derangement law of :func:`_cycle_types` at theta = 1.
    At the end of each r's types its entry is that of
    :func:`_core_size_cdf`, bit for bit, so a double gives the same core
    size by either table.
    """
    cdf, types = _cumulative_table(
        (n - 1) ** n, _core_masses(n), lambda r: _cycle_types(r, Fraction(1))
    )
    return cdf, _type_pairs(types)


def _accepted_components(n: int, count: int, rng: np.random.Generator):
    """Rejection from ESF(1/2) until ``count`` proposals are accepted.

    Proposals come in chunks of at most ``ROW_CHUNK``, each one a uniform U.
    One with U >= P(a_1 = 0) has a 1-cycle and is rejected undrawn; the
    others are drawn from ESF(1/2) given a_1 = 0 by
    :func:`_cycles_without_fixed_points` and accepted iff
    U < P(a_1 = 0) prod_j (2 w_j)**a_j, the product the exp of log(2 w_len)
    summed along the cycles.  So a proposal is accepted with probability
    1{a_1 = 0} prod_j (2 w_j)**a_j, and acceptances are taken in proposal
    order.  Yields, chunk by chunk, the (replicate, component size) pairs of
    the accepted proposals, replicates numbered 0..count-1 across chunks,
    and the number of proposals consumed so far through the last
    acceptance.
    """
    p_none = _no_fixed_point_table(n, Fraction(1, 2))[1]
    log_ratio = np.zeros(n + 1)
    log_ratio[2:] = np.log(2.0 * omega_values(n)[2:])
    have = attempts = 0
    while have < count:
        chunk = _proposal_chunk(count - have)
        u = rng.random(chunk)
        drawn = np.flatnonzero(u < p_none)
        prop, size = _cycles_without_fixed_points(np.full(drawn.size, n), n, Fraction(1, 2), rng)
        log_acc = np.bincount(prop, weights=log_ratio[size], minlength=drawn.size)
        took = np.flatnonzero(u[drawn] < p_none * np.exp(log_acc))[: count - have]
        attempts += int(drawn[took[-1]]) + 1 if have + took.size == count else chunk
        number = np.full(drawn.size, -1)
        number[took] = np.arange(have, have + took.size)
        keep = number[prop] >= 0
        have += took.size
        yield number[prop[keep]], size[keep], attempts


def _proposal_chunk(left: int) -> int:
    """Proposals that the rejection route draws at once when ``left`` are
    still to be accepted: enough for them at an acceptance rate of 0.2 (it
    is 0.2479 at n = 10 and rises towards 0.2601), at least 4096 and at
    most ``ROW_CHUNK``."""
    return min(max(4096, int(left / 0.2)), ROW_CHUNK)


def _accepted_types(n: int, count: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Rejection from ESF(1/2) until ``count`` proposals are accepted, each
    proposal's whole cycle type drawn from :func:`_proposal_type_table`, at
    n <= :data:`TYPE_TABLE_MAX_N`.

    Doubles 2i and 2i+1 of ``rng`` are proposal i's u and v: v picks its
    type given a_1 = 0, and it is accepted iff u is below the type's
    threshold P(a_1 = 0) prod_j (2 w_j)**a_j, the rule of
    :func:`_accepted_components`.  Proposals come in chunks of
    :func:`_proposal_chunk`, and acceptances are taken in proposal order.
    Returns the histogram of the accepted types and the number of proposals
    consumed through the last acceptance.
    """
    cdf, threshold, _ = _proposal_type_table(n)
    top = threshold.max()
    hist = np.zeros(cdf.size, dtype=np.int64)
    have = attempts = 0
    while have < count:
        chunk = _proposal_chunk(count - have)
        u, v = rng.random((chunk, 2)).T
        live = np.flatnonzero(u < top)  # no type accepts the others
        kind = np.searchsorted(cdf, v[live], side="right")
        took = np.flatnonzero(u[live] < threshold[kind])[: count - have]
        attempts += int(live[took[-1]]) + 1 if have + took.size == count else chunk
        hist += np.bincount(kind[took], minlength=cdf.size)
        have += took.size
    return hist, attempts


def toes_component_counts_batch(
    n: int, count: int, rng: np.random.Generator, keys: Iterable[str] = ()
) -> dict:
    """Tallies of ``count`` component spectra of the toes mapping by
    rejection from ESF(1/2): ``replicates``, ``attempts`` (the proposals
    consumed through the last acceptance) and the ``zero_tally`` keys
    ``comp_sum`` and ``comp_sumsq``, whatever ``keys`` names.  Up to
    :data:`TYPE_TABLE_MAX_N` the table's pairs are folded once, each type
    weighted by its count in the histogram of :func:`_accepted_types`;
    above it each chunk of :func:`_accepted_components` is folded as it
    comes, each replicate once."""
    _check_batch(n, count)
    tally = zero_tally(n, "comp_sum", "comp_sumsq")
    if n <= TYPE_TABLE_MAX_N:
        hist, attempts = _accepted_types(n, count, rng)
        _tally_pairs(tally, "comp", *_proposal_type_table(n)[2], hist)
    else:
        attempts = 0
        once = np.broadcast_to(np.int64(1), count)  # rows run across chunks; a view, no memory
        for rows, lengths, attempts in _accepted_components(n, count, rng):
            _tally_pairs(tally, "comp", rows, lengths, once)
    return {"replicates": count, "attempts": attempts, **tally}


#: Largest n of the exact acceptance probability: its O(n**2) recurrence takes
#: 1.25-1.4 s at n = 3000 and 15 s at n = 10 000 (2-vCPU host, Python 3.11).
ACCEPTANCE_MAX_N = 3000


def exact_acceptance_probability(n: int) -> float:
    """The rejection sampler's exact per-proposal acceptance probability.

    Averaging the acceptance function 1{a_1 = 0} prod_j (2 w_j)**a_j over
    the ESF(1/2) law of the counts a gives n!/(1/2)^(n) times the x**n
    coefficient h_n of exp(sum_{j>=2} w_j x**j / j) (the exp-log schema of
    labelled sets).  Differentiating gives the O(n**2) recurrence
    m h_m = sum_{k=2}^{m} w_k h_{m-k}, h_0 = 1; every term is positive, and
    each sum is taken with fsum.  The large-n limit is e**-1 / sqrt(2),
    about 0.2601.  2 <= n <= ACCEPTANCE_MAX_N.
    """
    if not 2 <= n <= ACCEPTANCE_MAX_N:
        raise ValueError(f"need 2 <= n <= {ACCEPTANCE_MAX_N} (got {n})")
    w = omega_values(n)
    h = [1.0, 0.0]
    for m in range(2, n + 1):
        h.append(math.fsum(w[k] * h[m - k] for k in range(2, m + 1)) / m)
    # n!/(1/2)^(n) = n! 2**n / (1*3*...*(2n-1)), rounded once
    return h[n] * (math.factorial(n) * 2**n / math.prod(range(1, 2 * n, 2)))


# ---------------------------------------------------------------------------
# Core-size plus derangement sampler


@lru_cache(maxsize=64)
def _core_size_cdf(n: int) -> np.ndarray:
    """Cumulative core-size law for r = 2..n as float64: :func:`_cumulative_table`
    over (n-1)**n mappings with one outcome per core size, so each entry is
    the running sum of :func:`laws.core_size_counts` over (n-1)**n, rounded
    once."""
    return _cumulative_table((n - 1) ** n, _core_masses(n), lambda r: ([r], [1]))[0]


def _core_types(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The histogram of ``count`` replicates' (core size, derangement type)
    pairs, indices of :func:`_core_type_table`, at n <=
    :data:`TYPE_TABLE_MAX_N`: double i of ``rng`` is replicate i's, one
    search of the table, in chunks of ``ROW_CHUNK`` doubles."""
    cdf = _core_type_table(n)[0]
    hist = np.zeros(cdf.size, dtype=np.int64)
    for done in range(0, count, ROW_CHUNK):
        kind = np.searchsorted(cdf, rng.random(min(ROW_CHUNK, count - done)), side="right")
        hist += np.bincount(kind, minlength=cdf.size)
    return hist


def toes_core_cycle_counts_batch(
    n: int, count: int, rng: np.random.Generator, keys: Iterable[str] = ()
) -> dict:
    """Tallies of ``count`` replicates by the core-joint route, whatever
    ``keys`` names: ``replicates`` and the keys ``_CORE_KEYS``.

    Up to :data:`TYPE_TABLE_MAX_N` each replicate's core size and cycle type
    come from one double (:func:`_core_types`), and its core size is the one
    that the same double gives by the core-size CDF below; the table's pairs
    are folded once, weighted by that histogram.  Above it, blocks
    of ``ROW_CHUNK`` replicates each draw their core sizes by inverse CDF
    from the exact core-size law, then a uniform derangement of each size,
    ESF(1) conditioned on a_1 = 0 by :func:`_cycles_without_fixed_points`,
    and are tallied as they come, so memory does not grow with ``count``.
    The draws are still those of
    every core size first, then the derangements in block order, and
    ``rng`` ends in that order's state: the core sizes come from a copy of
    ``rng``, which itself skips their ``count`` doubles before it draws the
    derangements.  The skip draws and discards them in chunks of
    ``CHUNK_CELLS`` doubles, 1 MB: any chunking gives the same stream, and
    in ``ROW_CHUNK`` chunks glibc's malloc kept unmapping and faulting in
    again the blocks' 128 KB arrays, twice the page faults of a run at
    n = 10 and about 40 ms more CPU for 10**6 replicates.
    """
    _check_batch(n, count)
    tally = zero_tally(n, *_CORE_KEYS)
    if n <= TYPE_TABLE_MAX_N:
        _tally_pairs(tally, "cyc", *_core_type_table(n)[1], _core_types(n, count, rng))
        return {"replicates": count, **tally}
    cdf = _core_size_cdf(n)
    cores = copy.deepcopy(rng)
    for done in range(0, count, CHUNK_CELLS):
        rng.random(min(CHUNK_CELLS, count - done))
    for done in range(0, count, ROW_CHUNK):
        sizes = 2 + np.searchsorted(cdf, cores.random(min(ROW_CHUNK, count - done)), side="right")
        pairs = _cycles_without_fixed_points(sizes, n, Fraction(1), rng)
        _tally_pairs(tally, "cyc", *pairs, np.ones(sizes.size, dtype=np.int64))
    return {"replicates": count, **tally}


__all__ = [
    "ACCEPTANCE_MAX_N",
    "CHUNK_CELLS",
    "DecompositionBatch",
    "ENUMERATION_MAX_N",
    "ROW_CHUNK",
    "chunk_rows",
    "decompose_batch",
    "every_mapping_counts",
    "exact_acceptance_probability",
    "omega_values",
    "sample_mappings_batch",
    "toes_component_counts_batch",
    "toes_core_cycle_counts_batch",
    "toes_mapping_counts_batch",
    "zero_tally",
]

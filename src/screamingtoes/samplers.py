"""Random generation of fixed-point-free mappings by three routes.

1. Direct: draw each image uniformly from the other n-1 points and
   decompose the functional graph (components, core, cycles).
2. Rejection: draw a cycle-count vector from the Ewens sampling formula
   with theta = 1/2 (via the Feller coupling) and accept it with
   probability 1{no 1-cycles} * prod_j (2 w_j)**a_j, where
   w_j = P(Po(j) <= j-2).  Accepted vectors are distributed as the
   component-size spectrum of the mapping.
3. Core-joint: draw the core size from its exact inverse CDF, then the
   cycle type of a uniform random derangement of that size.

Every sampler takes a ``numpy.random.Generator`` and is bit-reproducible
for a fixed seed and call sequence; the harness gives each batch its own
generator, spawned from the master seed by numpy's ``SeedSequence``.  Each
route has one implementation, a vectorised ``*_batch`` kernel;
:func:`sample_mapping`, :func:`sample_toes_components` and
:func:`sample_toes_core` are one-replicate calls of those kernels, and
:func:`decompose` is one row of the decomposition kernel
:func:`decompose_batch`.

Routes 2 and 3 share one kernel, :func:`_feller_gaps`: the Feller coupling
with record skipping (Arratia, Barbour and Tavare 2003), so a replicate
costs O(its cycles) random numbers and memory, not O(n).  It stops a row at
its first 1-cycle; route 2 rejects that proposal and route 3 restarts the
row, which leaves ESF(1) given a_1 = 0, a uniform derangement's cycle type.

There is one tally format and one fold.  Every kernel, the brute-force
oracle's :func:`every_mapping_counts` too, hands its groups (components or
cycles) to :func:`_tally_pairs` as (replicate, size) pairs, one pair per
group, and that fold builds every integer tally of :func:`zero_tally`;
nothing builds a per-replicate (rows, n+1) count matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import laws
from .laws import Spectrum


@dataclass(frozen=True)
class Mapping:
    """A function on {0, ..., n-1} with image[i] != i (nobody eyes their own feet)."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if n < 2:
            raise ValueError("a fixed-point-free mapping needs n >= 2")
        for i, v in enumerate(self.image):
            if not 0 <= v < n:
                raise ValueError(f"image[{i}] = {v} out of range")
            if v == i:
                raise ValueError(f"image[{i}] is a fixed point")

    @property
    def n(self) -> int:
        return len(self.image)


@dataclass(frozen=True)
class Decomposition:
    """Functional-graph decomposition of a fixed-point-free mapping."""

    component_sizes: Spectrum
    cycle_lengths: Spectrum
    core_size: int
    cyclic: tuple[bool, ...]

    def __post_init__(self) -> None:
        n = len(self.cyclic)
        if self.component_sizes.total != n:
            raise ValueError("component sizes must cover all elements")
        if self.cycle_lengths.total != self.core_size:
            raise ValueError("cycle lengths must cover the core")
        if self.component_sizes.num_groups != self.cycle_lengths.num_groups:
            raise ValueError("each component contains exactly one cycle")
        if any(j < 2 for j, _ in self.cycle_lengths.counts):
            raise ValueError("cycles must have length >= 2")
        if sum(self.cyclic) != self.core_size:
            raise ValueError("cyclic flags disagree with the core size")


def decompose(mapping: Mapping) -> Decomposition:
    """Components, core and cycles of the mapping: one row of :func:`decompose_batch`."""
    dec = decompose_batch(np.array([mapping.image]))
    cyclic = np.zeros(mapping.n, dtype=bool)
    cyclic[dec.core] = True
    return Decomposition(
        component_sizes=Spectrum.from_sizes(dec.components[1].tolist()),
        cycle_lengths=Spectrum.from_sizes(dec.cycles[1].tolist()),
        core_size=dec.core.size,
        cyclic=tuple(cyclic.tolist()),
    )


# ---------------------------------------------------------------------------
# Direct simulation


def sample_mapping(n: int, rng: np.random.Generator) -> Mapping:
    """One uniform fixed-point-free mapping: row 0 of :func:`sample_mappings_batch`."""
    if n < 2:
        raise ValueError("need n >= 2")
    return Mapping(tuple(sample_mappings_batch(n, 1, rng)[0].tolist()))


def sample_mappings_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n) array of independent uniform fixed-point-free mappings.

    Per coordinate, a uniform draw u from {0, ..., n-2} is shifted past i
    (u -> u+1 when u >= i), which hits [n] \\ {i} uniformly with no
    rejection loop.

    Drawing ``count`` rows in several calls gives the same rows as one call
    (numpy's bounded integers take whole 32-bit draws per value), which is
    what lets the direct route draw a batch in chunks of :func:`chunk_rows`.
    """
    u = rng.integers(0, n - 1, size=(count, n), dtype=np.int64)
    u += u >= np.arange(n, dtype=np.int64)
    return u


@dataclass
class DecompositionBatch:
    """(replicate, size) pairs from a batch decomposition, in replicate order.

    ``components`` is the pair of arrays (replicate, size) with one entry
    per component; ``cycles`` likewise, one entry per cycle.  ``core``
    holds the flat indices (row b, element i is b*n + i) of the cyclic
    elements, ascending.
    """

    components: tuple[np.ndarray, np.ndarray]
    cycles: tuple[np.ndarray, np.ndarray]
    core: np.ndarray


def decompose_batch(images: np.ndarray, scratch: tuple | None = None) -> DecompositionBatch:
    """Vectorised decomposition of a (B, n) batch of mappings.

    Works on flat indices (row b, element i is b*n + i).  Squaring the flat
    successor map K = ceil(log2 n) times gives f**(2**K), which lands every
    element on its cycle, as 2**K >= n exceeds every tail height; the landed
    elements are the core.  The core, about sqrt(pi n / 2) of n elements, is
    compacted, and only there does pointer doubling find each element's
    orbit minimum, which labels its cycle; an element's component is the
    cycle it lands on.  Everything else is bincounts, whose nonzero entries
    are the groups.

    Working memory is three index arrays and a mask of B*n entries each,
    plus arrays the size of the core; callers bound it by the number of rows
    they pass.  ``scratch``, from :func:`_decomposition_scratch` for at least
    B*n cells, lends those arrays, so that a caller decomposing many blocks
    allocates them once.
    """
    images = np.asarray(images)
    batch, n = images.shape
    cells = batch * n
    if scratch is None:
        scratch = _decomposition_scratch(cells)
    landed, spare, at, is_core = (array[:cells] for array in scratch)
    np.add(images, np.arange(0, cells, n)[:, None], out=landed.reshape(batch, n))
    rounds = (n - 1).bit_length()
    for _ in range(rounds):  # mode="clip" skips take's bounds check, and its copy
        np.take(landed, landed, out=spare, mode="clip")
        landed, spare = spare, landed
    is_core[:] = False
    is_core[landed] = True
    core = np.flatnonzero(is_core)
    # the core's successor map on core positions, through a flat-to-core map
    # whose entries off the core are never read
    at[core] = np.arange(core.size)
    hop = at[images.ravel()[core] + (core - core % n)]
    cycle = np.arange(core.size)
    for _ in range(rounds):
        np.minimum(cycle, cycle[hop], out=cycle)
        hop = hop[hop]
    at[core] = cycle
    component = np.take(at, landed, out=spare, mode="clip")
    return DecompositionBatch(
        _label_pairs(component, core, n),
        _label_pairs(cycle, core, n),
        core,
    )


def _decomposition_scratch(cells: int) -> tuple[np.ndarray, ...]:
    """Working arrays that :func:`decompose_batch` borrows for up to
    ``cells`` cells: two index buffers that the squaring passes between,
    the flat-to-core map and the core mask."""
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
#: its size.  In a sweep of 10 000-row batches at n = 1000 (2-vCPU host),
#: chunks of 2**16 to 2**19 cells took 0.37-0.43 s of CPU a batch, 2**15
#: cells 0.42-0.44 s and 2**21 cells 0.52 s.
CHUNK_CELLS = 1 << 17


def chunk_rows(width: int) -> int:
    """Rows of the given width that fit in one chunk of ``CHUNK_CELLS``."""
    return max(1, CHUNK_CELLS // width)


def zero_tally(n: int, *keys: str) -> dict[str, np.ndarray]:
    """Zeroed int64 tallies for size-n replicates.

    There is one tally format: every route hands its groups to one fold,
    :func:`_tally_pairs`, as (replicate, size) pairs, and these are the
    tallies it builds.  ``<name>_sum`` and ``<name>_sumsq`` are per-length
    sums of counts and of squared counts (length n+1), ``core_hist`` is a
    histogram of core sizes (n+1), ``scream_hist`` one of 2-cycle counts
    (n//2 + 1; every cycle tally has one), and ``no_repeat`` counts the
    replicates with no repeated component size, no repeated cycle length,
    and neither (3).
    """
    width = {"scream_hist": n // 2 + 1, "no_repeat": 3}
    return {key: np.zeros(width.get(key, n + 1), dtype=np.int64) for key in keys}


def _tally_pairs(
    tally: dict, name: str, rows: np.ndarray, lengths: np.ndarray, num_rows: int
) -> np.ndarray:
    """Fold a block of (row, group length) pairs, one per group of the rows
    0..num_rows-1, into a tally: ``tally[name + "_sum"]`` and
    ``tally[name + "_sumsq"]`` get the per-length sums over rows of the
    count c of such groups and of c**2, and for cycles (``name == "cyc"``)
    ``scream_hist`` gets every row's count of 2-cycles.  Returns the rows
    that have two groups of one length, sorted and once each."""
    width = tally[name + "_sum"].size
    codes, counts = np.unique(rows * width + lengths, return_counts=True)
    length = codes % width
    tally[name + "_sum"] += np.bincount(length, weights=counts, minlength=width).astype(np.int64)
    tally[name + "_sumsq"] += np.bincount(
        length, weights=counts * counts, minlength=width
    ).astype(np.int64)
    if name == "cyc":
        twos = counts[length == 2]
        hist = tally["scream_hist"]
        hist += np.bincount(twos, minlength=hist.size)
        hist[0] += num_rows - twos.size
    repeated = codes[counts > 1] // width  # sorted, as the codes are
    return repeated[np.diff(repeated, prepend=-1) > 0]


#: The tally keys of whole mappings, which :func:`_tally_mappings` fills.
_MAPPING_KEYS = (
    "comp_sum", "comp_sumsq", "cyc_sum", "cyc_sumsq", "scream_hist", "core_hist", "no_repeat",
)


def _tally_mappings(
    tally: dict, images: np.ndarray, scratch: tuple | None = None
) -> DecompositionBatch:
    """Decompose a (rows, n) block of mappings, in ``scratch`` if given (see
    :func:`decompose_batch`), and fold its component and cycle pairs into a
    tally with the keys ``_MAPPING_KEYS``; returns the block's
    decomposition.  The direct route and the brute-force oracle both fold
    through here."""
    dec = decompose_batch(images, scratch)
    rows, n = images.shape
    comp_repeats = _tally_pairs(tally, "comp", *dec.components, rows)
    cyc_repeats = _tally_pairs(tally, "cyc", *dec.cycles, rows)
    core_sizes = np.bincount(dec.core // n, minlength=rows)
    tally["core_hist"] += np.bincount(core_sizes, minlength=tally["core_hist"].size)
    either = np.union1d(comp_repeats, cyc_repeats)
    tally["no_repeat"] += [rows - comp_repeats.size, rows - cyc_repeats.size, rows - either.size]
    return dec


def toes_mapping_counts_batch(
    n: int, count: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Tallies (keys ``_MAPPING_KEYS``) of ``count`` uniform fixed-point-free
    mappings by the direct route, drawn and decomposed in chunks of
    :func:`chunk_rows` rows; the chunks' draws are the batch's draws, so the
    tallies do not depend on the chunk size.  Every chunk is decomposed in
    one set of working arrays, allocated once per batch: fresh ones per
    chunk would be mapped and page-faulted in again each time."""
    tally = zero_tally(n, *_MAPPING_KEYS)
    step = chunk_rows(n)
    scratch = _decomposition_scratch(min(step, count) * n)
    for done in range(0, count, step):
        _tally_mappings(tally, sample_mappings_batch(n, min(step, count - done), rng), scratch)
    return tally


#: Largest n that the brute-force oracle enumerates: 6**7, about 280 000
#: toes mappings (7**7, about 820 000, in the standard model).
ENUMERATION_MAX_N = 7


def every_mapping_counts(n: int, model: str) -> tuple[dict[str, np.ndarray], dict]:
    """The brute-force oracle's fold: the tallies (``replicates`` and the
    keys ``_MAPPING_KEYS``) of every mapping of size n, 2 <= n <=
    :data:`ENUMERATION_MAX_N`, with no fixed point in the "toes" model and
    any in the "standard" one, and the number of mappings with each joint
    spectrum (component sizes, cycle lengths), as tuples of sizes.

    Mapping m has the base-``choices`` digits of m as images, shifted past
    their own index in the toes model.  A block's joint spectra are first
    base-(n+1) codes, one bincount over its pairs: a size-j component adds
    (n+1)**(j-1) to its mapping's code and a length-j cycle (n+1)**(n+j-1).
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
    assert sum(codes.values()) == total

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
def _neg_log_g(n: int, theta: float) -> np.ndarray:
    """-log G(k) for k = 0..n+1, where G(k) = prod_{l=2..k} (l-1)/(l-1+theta).

    Running sums of log1p(theta/(l-1)), so the table rises strictly and
    :func:`_feller_gaps` can search it; entries 0 and 1 are 0.
    """
    out = np.zeros(n + 2)
    out[2:] = np.cumsum(np.log1p(theta / np.arange(1, n + 1, dtype=np.float64)))
    return out


def _feller_gaps(
    sizes: np.ndarray, n: int, theta: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Feller-coupling draw per row of the given sizes (each <= n), by
    record skipping, each row stopped at its first gap of length 1.

    The marks of a size-r row sit at 1, then at each i = 2..r independently
    with probability theta/(theta+i-1), then at r+1; the gaps between
    consecutive marks are the cycle lengths of an ESF(theta) draw.  A row
    draws only its marks: after a mark at i the next one, K, has
    P(K > k) = G(k)/G(i), so K is the first k with
    -log G(k) > -log G(i) + E for a standard exponential E (E = -log U),
    one search of the cached table.  A mark past r closes the row with gap
    r+1-i.  All rows advance together, one mark each per step.

    Returns the (row, gap length) pairs, up to and including a stopped
    row's 1-gap, and the per-row flag that the row stopped.  A row that did
    not stop is an ESF(theta) draw conditioned on having no 1-cycle.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    neg_log_g = _neg_log_g(n, theta)
    stopped = np.zeros(sizes.size, dtype=bool)
    row = np.arange(sizes.size)
    last = np.ones(sizes.size, dtype=np.int64)
    end = sizes + 1
    rows, lengths = [row[:0]], [last[:0]]
    while row.size:
        target = neg_log_g[last] + rng.standard_exponential(row.size)
        mark = np.minimum(np.searchsorted(neg_log_g, target, side="right"), end)
        gap = mark - last
        rows.append(row)
        lengths.append(gap)
        one = gap == 1
        stopped[row[one]] = True
        going = ~one & (mark < end)
        row, last, end = row[going], mark[going], end[going]
    return np.concatenate(rows), np.concatenate(lengths), stopped


#: Rows (ESF proposals or derangements) that the rejection and core-joint
#: routes pass to the record-skipping kernel and tally at once; their pairs
#: take a few MB, whatever the batch size.
ROW_CHUNK = 1 << 14


def esf_cycle_counts_batch(
    n: int, theta: float, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` ESF(theta) proposals of size n by the record-skipping Feller
    coupling (:func:`_feller_gaps`), each stopped at its first 1-cycle.

    Returns the (proposal, cycle length) pairs and the per-proposal flag
    that it stopped at a 1-cycle; a proposal that ran to the end is an
    ESF(theta) draw conditioned on a_1 = 0.
    """
    return _feller_gaps(np.full(count, n), n, theta, rng)


def _accepted_components(n: int, count: int, rng: np.random.Generator):
    """Rejection from ESF(1/2) until ``count`` proposals are accepted.

    Proposals come in chunks of at most ``ROW_CHUNK`` from
    :func:`esf_cycle_counts_batch`.  One that stopped at a 1-cycle is
    rejected; any other is accepted with probability prod_j (2 w_j)**a_j,
    the exp of log(2 w_len) summed along its gaps, and acceptances are taken
    in proposal order.  Yields, chunk by chunk, the (replicate, component
    size) pairs of the accepted proposals, replicates numbered 0..count-1
    across chunks, and the number of proposals consumed so far through the
    last acceptance.
    """
    log_ratio = np.zeros(n + 1)
    log_ratio[2:] = np.log(2.0 * omega_values(n)[2:])
    have = attempts = 0
    while have < count:
        chunk = min(max(4096, int((count - have) / 0.2)), ROW_CHUNK)
        prop, gap, stopped = esf_cycle_counts_batch(n, 0.5, chunk, rng)
        log_acc = np.bincount(prop, weights=log_ratio[gap], minlength=chunk)
        took = np.flatnonzero(~stopped & (rng.random(chunk) < np.exp(log_acc)))
        took = took[: count - have]
        attempts += int(took[-1]) + 1 if have + took.size == count else chunk
        number = np.full(chunk, -1)
        number[took] = np.arange(have, have + took.size)
        keep = number[prop] >= 0
        have += took.size
        yield number[prop[keep]], gap[keep], attempts


def toes_component_counts_batch(
    n: int, count: int, rng: np.random.Generator
) -> tuple[dict[str, np.ndarray], int]:
    """Tallies (``zero_tally`` keys ``comp_sum`` and ``comp_sumsq``) of
    ``count`` component spectra of the toes mapping by rejection from
    ESF(1/2), plus the number of proposals consumed through the last
    acceptance; each chunk of :func:`_accepted_components` is tallied as it
    comes."""
    if n < 2:
        raise ValueError("need n >= 2")
    tally = zero_tally(n, "comp_sum", "comp_sumsq")
    attempts = 0
    for rows, lengths, attempts in _accepted_components(n, count, rng):
        _tally_pairs(tally, "comp", rows, lengths, count)
    return tally, attempts


def sample_toes_components(n: int, rng: np.random.Generator) -> tuple[Spectrum, int]:
    """One component-size spectrum of the toes mapping, plus the proposals
    it took: one replicate of :func:`toes_component_counts_batch`."""
    tally, attempts = toes_component_counts_batch(n, 1, rng)
    return _spectrum(tally["comp_sum"]), attempts


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
    """Cumulative core-size law for r = 2..n as float64, from the exact counts.

    Running integer sums of :func:`laws.core_size_counts` over (n-1)**n,
    each rounded once to float64 by integer true division; the sums must
    reach (n-1)**n exactly.  The last cumulative float is forced to 1.0 so a
    uniform draw can never fall off the end.
    """
    counts = laws.core_size_counts(n, "toes")
    total = (n - 1) ** n
    acc = 0
    cdf = np.empty(n - 1)
    for idx, r in enumerate(range(2, n + 1)):
        acc += counts[r]
        cdf[idx] = acc / total
    if acc != total:
        raise laws.ConsistencyError(f"core-size counts for n={n} do not sum to (n-1)**n")
    cdf[-1] = 1.0
    return cdf


def core_sizes_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` independent core sizes of uniform toes mappings of size n,
    drawn by inverse CDF from the exact core-size law (values 2..n)."""
    cdf = _core_size_cdf(n)
    return 2 + np.searchsorted(cdf, rng.random(count), side="right")


def _derangement_cycles(
    sizes: np.ndarray, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The (row, cycle length) pairs of one uniform derangement of each size
    in ``sizes`` (each <= n).

    A uniform derangement's cycle type is ESF(1) conditioned on a_1 = 0, so
    every row runs through :func:`_feller_gaps` at theta = 1 and a row that
    stops at a 1-cycle starts again with fresh draws, its earlier pairs
    discarded; about e tries a row, each O(its cycles).  The rows still
    pending go through the kernel together, round after round.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size and sizes.min() < 2:
        raise ValueError("no derangement of fewer than 2 elements exists")
    pending = np.arange(sizes.size)
    rows, lengths = [pending[:0]], [sizes[:0]]
    while pending.size:
        row, gap, stopped = _feller_gaps(sizes[pending], n, 1.0, rng)
        keep = ~stopped[row]
        rows.append(pending[row[keep]])
        lengths.append(gap[keep])
        pending = pending[stopped]
    return np.concatenate(rows), np.concatenate(lengths)


def derangement_cycle_counts_batch(
    sizes: np.ndarray, n: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Cycle tallies (``zero_tally`` keys ``cyc_sum``, ``cyc_sumsq`` and
    ``scream_hist``) of uniform derangements, one of each size in ``sizes``,
    drawn by record skipping with a restart on any 1-cycle
    (:func:`_derangement_cycles`) and tallied in blocks of ``ROW_CHUNK``
    rows; nothing n+1 wide is held per row."""
    sizes = np.asarray(sizes)
    tally = zero_tally(n, "cyc_sum", "cyc_sumsq", "scream_hist")
    for lo in range(0, sizes.size, ROW_CHUNK):
        block = sizes[lo:lo + ROW_CHUNK]
        _tally_pairs(tally, "cyc", *_derangement_cycles(block, n, rng), block.size)
    return tally


def toes_core_cycle_counts_batch(
    n: int, count: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Tallies of ``count`` replicates by the core-joint route: the cycle
    tallies of :func:`derangement_cycle_counts_batch` plus ``core_hist``."""
    sizes = core_sizes_batch(n, count, rng)
    tally = derangement_cycle_counts_batch(sizes, n, rng)
    tally["core_hist"] = np.bincount(sizes, minlength=n + 1)
    return tally


def sample_toes_core(n: int, rng: np.random.Generator) -> Spectrum:
    """Cycle-length spectrum of the toes core, core size then derangement:
    one replicate of :func:`toes_core_cycle_counts_batch`."""
    return _spectrum(toes_core_cycle_counts_batch(n, 1, rng)["cyc_sum"])


def _spectrum(counts: np.ndarray) -> Spectrum:
    """The spectrum of one replicate's count vector (entry j = groups of size j)."""
    return Spectrum.from_sizes(np.repeat(np.arange(counts.size), counts).tolist())


__all__ = [
    "ACCEPTANCE_MAX_N",
    "CHUNK_CELLS",
    "Decomposition",
    "DecompositionBatch",
    "ENUMERATION_MAX_N",
    "Mapping",
    "ROW_CHUNK",
    "chunk_rows",
    "core_sizes_batch",
    "decompose",
    "decompose_batch",
    "derangement_cycle_counts_batch",
    "esf_cycle_counts_batch",
    "every_mapping_counts",
    "exact_acceptance_probability",
    "omega_values",
    "sample_mapping",
    "sample_mappings_batch",
    "sample_toes_components",
    "sample_toes_core",
    "toes_component_counts_batch",
    "toes_core_cycle_counts_batch",
    "toes_mapping_counts_batch",
    "zero_tally",
]

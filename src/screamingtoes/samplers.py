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

Every sampler takes an :class:`RngStream` and is bit-reproducible for a
fixed seed and call sequence.  Scalar functions are the readable reference
implementations; the ``*_batch`` kernels are vectorised numpy equivalents
used for million-replicate experiments, and the test suite checks both
against the exact laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import gammaincc

from . import laws
from .exact import to_mpf
from .laws import Spectrum

_SEED_MASK = (1 << 64) - 1


class RngStream:
    """Seedable, splittable random stream (PCG64 behind numpy's Generator).

    Identical seed and call sequence give identical output bits.  Parallel
    work derives independent streams by the fixed rule "stream k is seeded
    with master XOR k"; numpy's seed sequence hashing decorrelates the
    nearby seeds.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _SEED_MASK
        self.gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, k: int) -> "RngStream":
        """Stream k of this master seed (master XOR k)."""
        return RngStream(self.seed ^ (int(k) & _SEED_MASK))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed})"


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


def _decompose_image(image) -> tuple[list[int], list[int], list[bool]]:
    """Component sizes, cycle lengths and cyclic flags for any function on [n].

    Iterative three-state walk (unvisited / on current path / resolved), so
    each element is visited O(1) times and nothing recurses.
    """
    n = len(image)
    state = [0] * n  # 0 unvisited, 1 on current path, 2 resolved
    comp_of = [-1] * n
    cyclic = [False] * n
    comp_sizes: list[int] = []
    cycle_lens: list[int] = []
    for start in range(n):
        if state[start]:
            continue
        path: list[int] = []
        pos: dict[int, int] = {}
        x = start
        while state[x] == 0:
            state[x] = 1
            pos[x] = len(path)
            path.append(x)
            x = image[x]
        if state[x] == 1:
            # closed a new cycle at x; everything from x onward is cyclic
            cid = len(comp_sizes)
            comp_sizes.append(0)
            cycle = path[pos[x]:]
            cycle_lens.append(len(cycle))
            for y in cycle:
                cyclic[y] = True
        else:
            cid = comp_of[x]
        for y in path:
            comp_of[y] = cid
            state[y] = 2
        comp_sizes[cid] += len(path)
    return comp_sizes, cycle_lens, cyclic


def decompose(mapping: Mapping) -> Decomposition:
    """Components, core and cycles of the mapping, in O(n)."""
    comp_sizes, cycle_lens, cyclic = _decompose_image(mapping.image)
    core = sum(cycle_lens)
    return Decomposition(
        component_sizes=Spectrum.from_sizes(comp_sizes),
        cycle_lengths=Spectrum.from_sizes(cycle_lens),
        core_size=core,
        cyclic=tuple(cyclic),
    )


# ---------------------------------------------------------------------------
# Direct simulation


def sample_mapping(n: int, rng: RngStream) -> Mapping:
    """Uniform mapping with image[i] != i.

    Per coordinate, a uniform draw u from {0, ..., n-2} is shifted past i
    (u -> u+1 when u >= i), which hits [n] \\ {i} uniformly with no
    rejection loop.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    u = rng.gen.integers(0, n - 1, size=n)
    u += u >= np.arange(n)
    return Mapping(tuple(int(v) for v in u))


def sample_mappings_batch(n: int, count: int, rng: RngStream) -> np.ndarray:
    """(count, n) array of independent uniform fixed-point-free mappings.

    Drawing ``count`` rows in several calls gives the same rows as one call
    (numpy's bounded integers take whole 32-bit draws per value), which is
    what lets the harness draw a batch in chunks of :func:`chunk_rows`.
    """
    u = rng.gen.integers(0, n - 1, size=(count, n), dtype=np.int64)
    u += u >= np.arange(n, dtype=np.int64)
    return u


@dataclass
class DecompositionBatch:
    """Per-replicate count matrices from a batch decomposition.

    ``component_counts[b, j]`` is the number of size-j components of
    replicate b (column 0 unused); likewise ``cycle_counts`` for cycle
    lengths.  ``core_sizes[b]`` is the number of cyclic elements.
    """

    component_counts: np.ndarray
    cycle_counts: np.ndarray
    core_sizes: np.ndarray


def decompose_batch(images: np.ndarray) -> DecompositionBatch:
    """Vectorised decomposition of a (B, n) batch of mappings.

    One orbit-min pass over the flattened batch (:func:`_orbit_min`) labels
    every element with the smallest element of its forward orbit and lands
    it in the core at f**(2**K), K = ceil(log2 n).  The landed elements are
    the core; the orbit minimum of a core element labels its cycle, and the
    label of the cycle an element lands on labels its component.
    Everything else is bincounts.  Working memory is a few arrays of B*n
    entries, so callers bound it by the number of rows they pass.
    """
    images = np.asarray(images)
    batch, n = images.shape
    orbit_min, landed = _orbit_min(images)

    is_core = np.zeros(batch * n, dtype=bool)
    is_core[landed] = True
    core_sizes = is_core.reshape(batch, n).sum(axis=1)

    comp_sizes = np.bincount(orbit_min[landed], minlength=batch * n).reshape(batch, n)
    cycle_sizes = np.bincount(orbit_min[is_core], minlength=batch * n).reshape(batch, n)
    return DecompositionBatch(
        _sizes_to_counts(comp_sizes), _sizes_to_counts(cycle_sizes), core_sizes
    )


def _orbit_min(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointer doubling over a (B, n) batch of functions on {0, ..., n-1}.

    Works on flat indices (row b, element i is b*n + i).  Returns, per flat
    element x, the smallest flat index in {f**k(x) : k < 2**K} and f**(2**K)(x),
    where K = max(1, ceil(log2 n)).  As 2**K >= n, the first is the minimum
    of x's whole forward orbit and the second lies on x's cycle.
    """
    batch, n = succ.shape
    index = np.int32 if batch * n < 2**31 else np.int64
    hop = succ.astype(index)
    hop += np.arange(0, batch * n, n, dtype=index)[:, None]
    hop = hop.ravel()
    orbit_min = np.arange(batch * n, dtype=index)
    for _ in range(max(1, math.ceil(math.log2(n)))):
        np.minimum(orbit_min, orbit_min[hop], out=orbit_min)
        hop = hop[hop]
    return orbit_min, hop


def _sizes_to_counts(sizes: np.ndarray) -> np.ndarray:
    """Turn a (B, n) matrix of group sizes (0 = no group) into per-row
    histograms (B, n+1) of how many groups have each size."""
    batch, n = sizes.shape
    flat = sizes.ravel()
    where = np.flatnonzero(flat)
    return np.bincount(
        where // n * (n + 1) + flat[where], minlength=batch * (n + 1)
    ).reshape(batch, n + 1)


# ---------------------------------------------------------------------------
# Integer tallies of per-replicate counts

#: Cells (rows times row width) a batch kernel works on at once.  A chunk of
#: this size keeps decompose_batch under about 130 MB whatever the batch.
CHUNK_CELLS = 1 << 21


def chunk_rows(width: int) -> int:
    """Rows of the given width that fit in one chunk of ``CHUNK_CELLS``."""
    return max(1, CHUNK_CELLS // width)


def zero_tally(n: int, *keys: str) -> dict[str, np.ndarray]:
    """Zeroed int64 tallies for size-n replicates.

    ``<name>_sum`` and ``<name>_sumsq`` are per-length sums of counts and of
    squared counts (length n+1), ``core_hist`` is a histogram of core sizes
    (n+1), ``scream_hist`` one of 2-cycle counts (n//2 + 1), and
    ``no_repeat`` counts the replicates with no repeated component size, no
    repeated cycle length, and neither (3).
    """
    width = {"scream_hist": n // 2 + 1, "no_repeat": 3}
    return {key: np.zeros(width.get(key, n + 1), dtype=np.int64) for key in keys}


def tally_moments(tally: dict, name: str, counts: np.ndarray) -> None:
    """Add a (rows, w) block of per-replicate count vectors, w <= n+1, to
    ``tally[name + "_sum"]`` and ``tally[name + "_sumsq"]``."""
    width = counts.shape[1]
    tally[name + "_sum"][:width] += counts.sum(axis=0)
    tally[name + "_sumsq"][:width] += (counts * counts).sum(axis=0)


def tally_cycles(tally: dict, counts: np.ndarray) -> None:
    """Add a block of per-replicate cycle counts to the ``cyc`` moments and
    to the histogram of 2-cycles (screaming pairs)."""
    tally_moments(tally, "cyc", counts)
    tally["scream_hist"] += np.bincount(counts[:, 2], minlength=tally["scream_hist"].size)


# ---------------------------------------------------------------------------
# Ewens sampling formula and the rejection sampler


@lru_cache(maxsize=64)
def omega_values(n: int) -> np.ndarray:
    """w_j = P(Po(j) <= j-2) for j = 0..n (zero below j = 2), float64.

    Evaluated through the regularised incomplete gamma function; the
    rejection sampler needs every w_j <= 1/2, which holds because j-1 is
    below the Poisson(j) median -- a violation means a numerical bug.
    """
    w = np.zeros(n + 1)
    if n >= 2:
        j = np.arange(2, n + 1, dtype=np.float64)
        w[2:] = gammaincc(j - 1, j)
    if np.any(w > 0.5):
        raise laws.ConsistencyError("Poisson tail exceeded 1/2; numerical error")
    return w


def sample_esf_feller(n: int, theta: float, rng: RngStream) -> Spectrum:
    """One cycle-count spectrum from ESF(theta) via the Feller coupling.

    Independent Bernoulli marks xi_i with P(xi_i = 1) = theta/(theta+i-1)
    for i = 1..n (xi_1 = 1 surely) plus a virtual mark at n+1; the gaps
    between consecutive marks are the cycle lengths, so the total is
    always n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if theta <= 0:
        raise ValueError("theta must be positive")
    lens = []
    last = 1
    for i in range(2, n + 1):
        if rng.gen.random() < theta / (theta + i - 1):
            lens.append(i - last)
            last = i
    lens.append(n + 1 - last)
    return Spectrum.from_sizes(lens)


def sample_esf_crp(n: int, theta: float, rng: RngStream) -> Spectrum:
    """One ESF(theta) spectrum via the Chinese restaurant process.

    Independent implementation kept for cross-validation of the Feller
    route: customer i starts a new table w.p. theta/(theta+i-1), else joins
    an existing table proportionally to its size.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if theta <= 0:
        raise ValueError("theta must be positive")
    tables: list[int] = []
    for i in range(n):
        u = rng.gen.random() * (i + theta)
        if u < theta:
            tables.append(1)
            continue
        u -= theta
        acc = 0.0
        for t, size in enumerate(tables):
            acc += size
            if u < acc:
                tables[t] += 1
                break
    return Spectrum.from_sizes(tables)


def esf_cycle_counts_batch(n: int, theta: float, count: int, rng: RngStream) -> np.ndarray:
    """(count, n+1) int64 matrix of ESF(theta) cycle counts (Feller coupling)."""
    i = np.arange(1, n + 1, dtype=np.float64)
    probs = theta / (theta + i - 1.0)
    marks = np.empty((count, n + 1), dtype=bool)
    marks[:, :n] = rng.gen.random((count, n)) < probs
    marks[:, 0] = True
    marks[:, n] = True
    rows, cols = np.nonzero(marks)
    lens = np.empty_like(cols)
    lens[0] = 0
    lens[1:] = cols[1:] - cols[:-1]
    first = np.empty(rows.size, dtype=bool)
    first[0] = True
    first[1:] = rows[1:] != rows[:-1]
    valid = ~first  # the first mark of a row (column 0) opens no gap
    return np.bincount(
        rows[valid] * (n + 1) + lens[valid], minlength=count * (n + 1)
    ).reshape(count, n + 1)


def sample_toes_components(
    n: int, rng: RngStream, esf_sampler: str = "feller"
) -> tuple[Spectrum, int]:
    """One component-size spectrum of the toes mapping, plus attempts used.

    Rejection from ESF(1/2): a proposal with counts (a_1, ..., a_n) is
    accepted with probability 1{a_1 = 0} * prod_{j>=2} (2 w_j)**a_j.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    draw = {"feller": sample_esf_feller, "crp": sample_esf_crp}[esf_sampler]
    w = omega_values(n)
    attempts = 0
    while True:
        attempts += 1
        spec = draw(n, 0.5, rng)
        if spec.get(1) > 0:
            continue
        accept_prob = 1.0
        for j, a in spec.counts:
            accept_prob *= (2.0 * w[j]) ** a
        if rng.gen.random() < accept_prob:
            return spec, attempts


def toes_component_counts_batch(
    n: int, count: int, rng: RngStream
) -> tuple[np.ndarray, int]:
    """`count` accepted component spectra as a (count, n+1) matrix, plus the
    total number of ESF proposals consumed through the last acceptance."""
    if n < 2:
        raise ValueError("need n >= 2")
    w = omega_values(n)
    log_ratio = np.full(n + 1, -np.inf)
    with np.errstate(divide="ignore"):
        log_ratio[2:] = np.log(2.0 * w[2:])
    accepted: list[np.ndarray] = []
    have = 0
    attempts = 0
    while have < count:
        chunk = max(4096, int((count - have) / 0.2))
        counts = esf_cycle_counts_batch(n, 0.5, chunk, rng)
        log_acc = counts[:, 2:].astype(np.float64) @ log_ratio[2:]
        ok = (counts[:, 1] == 0) & (rng.gen.random(chunk) < np.exp(log_acc))
        took = np.nonzero(ok)[0]
        if have + took.size >= count:
            last = took[count - have - 1]
            attempts += int(last) + 1
            accepted.append(counts[took[: count - have]])
            have = count
        else:
            attempts += chunk
            accepted.append(counts[took])
            have += took.size
    return np.concatenate(accepted, axis=0), attempts


def exact_acceptance_probability(n: int) -> float:
    """The rejection sampler's exact per-proposal acceptance probability.

    Averages the acceptance function over the ESF(1/2) law by enumerating
    cycle types; feasible for table-sized n and used as the oracle for the
    observed rate.  The large-n limit is e**-1 / sqrt(2), about 0.2601.
    """
    w = omega_values(n)
    total = 0.0
    for parts in laws.partitions(n, 2):
        prob = float(to_mpf(laws.esf_pmf(n, Fraction(1, 2), parts)))
        for j in parts:
            prob *= 2.0 * w[j]
        total += prob
    return total


# ---------------------------------------------------------------------------
# Core-size plus derangement sampler


@lru_cache(maxsize=64)
def _core_size_cdf(n: int) -> np.ndarray:
    """Cumulative core-size law for r = 2..n as float64, from the exact table.

    The exact entries sum to 1 (checked in rational arithmetic); the last
    cumulative float is forced to 1.0 so a uniform draw can never fall off
    the end.
    """
    table = laws.core_size_table(n, "toes")
    acc = Fraction(0)
    cdf = np.empty(n - 1)
    for idx, r in enumerate(range(2, n + 1)):
        acc += table[r]
        cdf[idx] = float(to_mpf(acc))
    if acc != 1:
        raise laws.ConsistencyError(f"core-size pmf for n={n} sums to {acc}")
    cdf[-1] = 1.0
    return cdf


def sample_core_size(n: int, rng: RngStream) -> int:
    """Core size of a toes mapping by inverse CDF over the exact table."""
    if n < 2:
        raise ValueError("need n >= 2")
    cdf = _core_size_cdf(n)
    return 2 + int(np.searchsorted(cdf, rng.gen.random(), side="right"))


def core_sizes_batch(n: int, count: int, rng: RngStream) -> np.ndarray:
    cdf = _core_size_cdf(n)
    return 2 + np.searchsorted(cdf, rng.gen.random(count), side="right")


def sample_derangement_cycles(r: int, rng: RngStream) -> Spectrum:
    """Cycle-length spectrum of a uniform random derangement of r elements.

    Rejection from uniform permutations (Fisher-Yates, then retry on any
    fixed point); the expected number of tries converges to e, which is
    fine at experiment scale and keeps the draw exactly uniform.
    """
    if r < 2:
        raise ValueError("no derangement of fewer than 2 elements exists")
    while True:
        perm = rng.gen.permutation(r)
        if not np.any(perm == np.arange(r)):
            break
    lens = []
    seen = np.zeros(r, dtype=bool)
    for start in range(r):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = int(perm[x])
            length += 1
        lens.append(length)
    return Spectrum.from_sizes(lens)


def derangement_cycle_counts_batch(
    sizes: np.ndarray, n: int, rng: RngStream
) -> dict[str, np.ndarray]:
    """Cycle tallies (``zero_tally`` keys ``cyc_sum``, ``cyc_sumsq`` and
    ``scream_hist``) of uniform derangements, one of each size in ``sizes``.

    Groups rows by size (ascending, for a deterministic draw order), draws
    each group's derangements at once, and folds the group's (m, r+1)
    cycle-count block into the tallies in chunks of ``CHUNK_CELLS``; nothing
    n+1 wide is held per row.
    """
    sizes = np.asarray(sizes)
    tally = zero_tally(n, "cyc_sum", "cyc_sumsq", "scream_hist")
    for r in np.unique(sizes):
        r = int(r)
        perms = _derangements_of(r, int(np.count_nonzero(sizes == r)), rng)
        step = chunk_rows(r)
        for lo in range(0, perms.shape[0], step):
            tally_cycles(tally, _permutation_cycle_counts(perms[lo:lo + step]))
    return tally


def _derangements_of(r: int, m: int, rng: RngStream) -> np.ndarray:
    base = np.broadcast_to(np.arange(r, dtype=np.int64), (m, r))
    perms = rng.gen.permuted(base, axis=1)
    bad = (perms == np.arange(r)).any(axis=1)
    while np.any(bad):
        k = int(bad.sum())
        perms[bad] = rng.gen.permuted(np.broadcast_to(np.arange(r, dtype=np.int64), (k, r)), axis=1)
        bad = (perms == np.arange(r)).any(axis=1)
    return perms


def _permutation_cycle_counts(perms: np.ndarray) -> np.ndarray:
    """(m, r+1) cycle-count matrix of an (m, r) batch of permutations."""
    m, r = perms.shape
    orbit_min, _ = _orbit_min(perms)
    return _sizes_to_counts(np.bincount(orbit_min, minlength=m * r).reshape(m, r))


def sample_toes_core(n: int, rng: RngStream) -> Spectrum:
    """Cycle-length spectrum of the toes core: core size, then derangement."""
    r = sample_core_size(n, rng)
    return sample_derangement_cycles(r, rng)


def toes_core_cycle_counts_batch(n: int, count: int, rng: RngStream) -> dict[str, np.ndarray]:
    """Tallies of ``count`` replicates by the core-joint route: the cycle
    tallies of :func:`derangement_cycle_counts_batch` plus ``core_hist``."""
    sizes = core_sizes_batch(n, count, rng)
    tally = derangement_cycle_counts_batch(sizes, n, rng)
    tally["core_hist"] = np.bincount(sizes, minlength=n + 1)
    return tally


__all__ = [
    "CHUNK_CELLS",
    "Decomposition",
    "DecompositionBatch",
    "Mapping",
    "RngStream",
    "chunk_rows",
    "core_sizes_batch",
    "decompose",
    "decompose_batch",
    "derangement_cycle_counts_batch",
    "esf_cycle_counts_batch",
    "exact_acceptance_probability",
    "omega_values",
    "sample_core_size",
    "sample_derangement_cycles",
    "sample_esf_crp",
    "sample_esf_feller",
    "sample_mapping",
    "sample_mappings_batch",
    "sample_toes_components",
    "sample_toes_core",
    "tally_cycles",
    "tally_moments",
    "toes_component_counts_batch",
    "toes_core_cycle_counts_batch",
    "zero_tally",
]

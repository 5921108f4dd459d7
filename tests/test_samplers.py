"""Sampler tests: structural invariants, determinism, and statistical
agreement with the exact laws (which double as the oracles)."""

import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from oracles import (
    decompose_image,
    derangement_cycle_type_pmf,
    derangement_two_cycle_pmf,
    esf_pmf,
)
from screamingtoes import harness, laws, samplers
from screamingtoes.exact import derangement_number, poisson_partial_sum
from screamingtoes.laws import Spectrum
from screamingtoes.samplers import (
    Decomposition,
    Mapping,
    decompose,
    decompose_batch,
    esf_cycle_counts_batch,
    exact_acceptance_probability,
    omega_values,
    sample_mapping,
    sample_mappings_batch,
    sample_toes_components,
    sample_toes_core,
    toes_component_counts_batch,
    toes_core_cycle_counts_batch,
)


def chi_square_pvalue(observed: dict, expected: dict, total: int) -> float:
    """Chi-square of observed counts against exact class probabilities.

    Zero-probability classes must never be observed and carry no degrees of
    freedom.
    """
    assert set(observed) <= set(expected), "simulation produced an impossible class"
    stat = 0.0
    dof = -1
    for key, prob in expected.items():
        e = float(prob) * total
        o = observed.get(key, 0)
        if e == 0.0:
            assert o == 0, f"impossible class {key} was observed"
            continue
        dof += 1
        stat += (o - e) ** 2 / e
    return float(chi2.sf(stat, dof))


@st.composite
def toes_images(draw):
    n = draw(st.integers(2, 40))
    image = tuple(
        draw(st.integers(0, n - 1).filter(lambda v, i=i: v != i)) for i in range(n)
    )
    return image


class TestMappingType:
    def test_rejects_fixed_points(self):
        with pytest.raises(ValueError):
            Mapping((0, 0))
        with pytest.raises(ValueError):
            Mapping((1,))
        with pytest.raises(ValueError):
            Mapping((1, 2, 5))


class TestSampleMapping:
    def test_n2_is_forced(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert sample_mapping(2, rng).image == (1, 0)

    def test_never_fixed_point(self):
        imgs = sample_mappings_batch(9, 5000, np.random.default_rng(3))
        assert (imgs != np.arange(9)).all()
        assert ((imgs >= 0) & (imgs < 9)).all()

    def test_coordinate_uniformity(self):
        # empirical law of image[0] over the 9 allowed targets
        n, reps = 10, 200_000
        imgs = sample_mappings_batch(n, reps, np.random.default_rng(42))
        counts = np.bincount(imgs[:, 0], minlength=n)
        assert counts[0] == 0
        observed = {j: int(counts[j]) for j in range(1, n)}
        expected = {j: 1.0 / (n - 1) for j in range(1, n)}
        assert chi_square_pvalue(observed, expected, reps) > 1e-4

    def test_seed_reproducibility(self):
        m1 = sample_mapping(25, np.random.default_rng(77))
        m2 = sample_mapping(25, np.random.default_rng(77))
        assert m1 == m2

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            sample_mapping(1, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [2, 3, 10, 25, 1000])
    def test_is_row_0_of_the_batch(self, n):
        for seed in range(20):
            row = sample_mappings_batch(n, 1, np.random.default_rng(seed))[0]
            assert sample_mapping(n, np.random.default_rng(seed)).image == tuple(row.tolist())


class TestDecompose:
    def test_reference_20_point_mapping(self):
        looks_at = [2, 14, 7, 1, 7, 19, 17, 11, 10, 13, 2, 14, 9, 8, 19, 10, 6, 16, 6, 19]
        mapping = Mapping(tuple(v - 1 for v in looks_at))
        dec = decompose(mapping)
        assert dec.component_sizes.sizes() == (5, 7, 8)
        assert dec.cycle_lengths.sizes() == (2, 3, 4)
        assert dec.core_size == 9

    def test_n2(self):
        dec = decompose(Mapping((1, 0)))
        assert dec.component_sizes.sizes() == (2,)
        assert dec.cycle_lengths.sizes() == (2,)

    def test_hand_traced_example(self):
        # 1-based (2, 1, 2, 3): one component of 4, a 2-cycle, core 2
        dec = decompose(Mapping((1, 0, 1, 2)))
        assert dec.component_sizes.sizes() == (4,)
        assert dec.cycle_lengths.sizes() == (2,)
        assert dec.core_size == 2
        assert dec.cyclic == (True, True, False, False)

    @given(toes_images())
    @settings(max_examples=150, deadline=None)
    def test_structural_invariants(self, image):
        dec = decompose(Mapping(image))  # Decomposition validates on build
        assert isinstance(dec, Decomposition)
        assert dec.component_sizes.total == len(image)
        assert min(dec.cycle_lengths.sizes()) >= 2

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1234)
        for n in (2, 3, 5, 8, 16):
            _assert_batch_matches_walk(sample_mappings_batch(n, 300, rng), n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_decompose_matches_walk_on_every_toes_mapping(self, n):
        """decompose, one row of decompose_batch, against the scalar walk on
        every toes mapping below n = 7, cyclic flags included."""
        choices = [[v for v in range(n) if v != i] for i in range(n)]
        for image in itertools.product(*choices):
            comp_sizes, cycle_lens, cyclic = decompose_image(image)
            dec = decompose(Mapping(image))
            assert dec.component_sizes == Spectrum.from_sizes(comp_sizes)
            assert dec.cycle_lengths == Spectrum.from_sizes(cycle_lens)
            assert dec.core_size == sum(cycle_lens)
            assert dec.cyclic == tuple(cyclic)

    @pytest.mark.parametrize("model", ["toes", "standard"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_batch_matches_scalar_on_every_mapping(self, n, model):
        """The brute-force oracle counts through decompose_batch; the scalar
        walk checks the kernel on every mapping the oracle enumerates below
        n = 7, fixed points included for the standard model."""
        images = np.array([
            image for image in itertools.product(range(n), repeat=n)
            if model == "standard" or all(v != i for i, v in enumerate(image))
        ])
        assert len(images) == (n if model == "standard" else n - 1) ** n
        _assert_batch_matches_walk(images, n)

    def test_batch_matches_scalar_across_chunks_at_n1000(self):
        """decompose_batch against the scalar walk at n = 1000, chunk by
        chunk in one set of scratch arrays as the direct route runs it: toes
        rows, rows with fixed points as the standard model and the oracle
        have, then a shorter last chunk of rows at the extremes of core size
        and tail height.  Nothing an earlier chunk left in the scratch
        arrays may leak into a later one."""
        n, rng = 1000, np.random.default_rng(78)
        step = samplers.chunk_rows(n)
        images = np.vstack([
            sample_mappings_batch(n, step + step // 2, rng),
            rng.integers(0, n, (step, n)),
            _extreme_rows(n, rng),
        ])
        assert len(images) > 2 * step and len(images) % step
        scratch = samplers._decomposition_scratch(step * n)
        for lo in range(0, len(images), step):
            _assert_batch_matches_walk(images[lo:lo + step], n, scratch)


class TestFellerCoupling:
    def test_totals_always_n(self):
        # a proposal that runs to the end covers n; one that stops ends at
        # its only 1-gap
        rows, lengths, stopped = esf_cycle_counts_batch(11, 0.5, 50_000, np.random.default_rng(8))
        counts = _dense_counts(rows, lengths, 50_000, 11)
        totals = counts @ np.arange(12)
        assert (totals[~stopped] == 11).all()
        assert (totals[stopped] <= 11).all()
        assert (counts[:, 1] == stopped).all()
        assert 0 < stopped.sum() < 50_000
        rows, lengths, stopped = esf_cycle_counts_batch(7, 1.7, 1000, np.random.default_rng(9))
        counts = _dense_counts(rows, lengths, 1000, 7)
        assert (counts[~stopped] @ np.arange(8) == 7).all()
        assert (~stopped).any()

    def test_theta_one_matches_uniform_permutation_law(self):
        # at theta = 1 the full proposals are uniform derangement cycle types
        _check_stopped_esf_law(6, 1, 200_000, np.random.default_rng(101))

    def test_theta_half_matches_esf_law(self):
        _check_stopped_esf_law(6, F(1, 2), 200_000, np.random.default_rng(202))

    @pytest.mark.parametrize("n", [4, 5, 7, 8])
    def test_theta_half_full_proposals_by_n(self, n):
        _check_stopped_esf_law(n, F(1, 2), 50_000, np.random.default_rng(210 + n))

    def test_no_row_is_a_no_op(self):
        rows, lengths, stopped = esf_cycle_counts_batch(5, 0.5, 0, np.random.default_rng(0))
        assert rows.size == lengths.size == stopped.size == 0


def _check_stopped_esf_law(n, theta, reps, rng):
    """ESF(theta) proposals stopped at a 1-cycle: the stopped share is
    P(a_1 > 0), and the proposals that run to the end follow esf_pmf
    conditioned on a_1 = 0."""
    rows, lengths, stopped = esf_cycle_counts_batch(n, float(theta), reps, rng)
    no_ones = {parts: esf_pmf(n, theta, parts) for parts in laws.partitions(n, 2)}
    p_full = sum(no_ones.values())
    share = {True: 1 - p_full, False: p_full}
    observed = {flag: int(c) for flag, c in zip(*np.unique(stopped, return_counts=True))}
    assert chi_square_pvalue(observed, share, reps) > 1e-4
    full = np.flatnonzero(~stopped)
    keep = ~stopped[rows]
    counts = _dense_counts(rows[keep], lengths[keep], reps, n)[full]
    observed = _class_counts(counts, n)
    expected = {_class_key_from_sizes(parts, n): p / p_full for parts, p in no_ones.items()}
    assert chi_square_pvalue(observed, expected, full.size) > 1e-4


def _assert_batch_matches_walk(images, n, scratch=None):
    """decompose_batch of a block of mappings, in ``scratch`` if given,
    against the scalar walk: each row's component and cycle counts, and
    which cells are on the core."""
    comp, cyc, cyclic = _scalar_counts(images, n)
    batch = decompose_batch(images, scratch)
    assert (_dense_counts(*batch.components, len(images), n) == comp).all()
    assert (_dense_counts(*batch.cycles, len(images), n) == cyc).all()
    assert np.array_equal(batch.core, np.flatnonzero(cyclic))


def _scalar_counts(images, n):
    """Per-row component and cycle count matrices, (rows, n+1), and cyclic
    flags, (rows, n), of a block of mappings, decomposed one row at a time
    by the scalar walk of the oracles, independently of decompose_batch."""
    comp = np.zeros((len(images), n + 1), dtype=np.int64)
    cyc = np.zeros_like(comp)
    flags = np.zeros((len(images), n), dtype=bool)
    for b, image in enumerate(images.tolist()):
        comp_sizes, cycle_lens, flags[b] = decompose_image(image)
        np.add.at(comp[b], comp_sizes, 1)
        np.add.at(cyc[b], cycle_lens, 1)
    return comp, cyc, flags


def _extreme_rows(n, rng):
    """Functions on n points at the extremes of core size and tail height."""
    i = np.arange(n)
    return np.array([
        (i + 1) % n,  # one n-cycle: the core is every point
        rng.permutation(n),  # a permutation: again all core
        np.where(i < 2, 1 - i, i - 1),  # a path of height n-2 into a 2-cycle
        np.maximum(i - 1, 0),  # a path of height n-1 into a fixed point
        np.where(i < 2, 1 - i, 0),  # a star into a 2-cycle
        np.zeros(n, dtype=np.int64),  # a star into a fixed point
    ])


def _accepted(n, reps, rng):
    """Every chunk of the rejection route's accepted (replicate, size)
    pairs, joined, and the proposals it consumed."""
    chunks = list(samplers._accepted_components(n, reps, rng))
    rows, lengths, attempts = zip(*chunks)
    return np.concatenate(rows), np.concatenate(lengths), attempts[-1]


def _dense_counts(rows, lengths, num_rows, n):
    """(num_rows, n+1) count matrix of (row, group length) pairs."""
    counts = np.zeros((num_rows, n + 1), dtype=np.int64)
    np.add.at(counts, (rows, lengths), 1)
    return counts


def _class_key_from_sizes(sizes, n):
    counts = np.zeros(n + 1, dtype=np.int64)
    for s in sizes:
        counts[s] += 1
    return tuple(counts)


def _class_counts(count_matrix, n):
    base = int(count_matrix.max()) + 2
    powers = base ** np.arange(count_matrix.shape[1], dtype=np.int64)
    keys, counts = np.unique(count_matrix @ powers, return_counts=True)
    decoded = {}
    for key, c in zip(keys, counts):
        vec = []
        k = int(key)
        for _ in range(count_matrix.shape[1]):
            vec.append(k % base)
            k //= base
        decoded[tuple(vec)] = int(c)
    return decoded


def _esf_crp(n: int, theta: float, rng: np.random.Generator) -> Spectrum:
    """One full ESF(theta) spectrum via the Chinese restaurant process.

    A proposal source independent of the Feller kernel: customer i starts a
    new table w.p. theta/(theta+i-1), else joins an existing table
    proportionally to its size.
    """
    tables: list[int] = []
    for i in range(n):
        u = rng.random() * (i + theta)
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


class TestChineseRestaurant:
    def test_matches_esf_law(self):
        n, reps = 5, 30_000
        rng = np.random.default_rng(404)
        observed = {}
        for _ in range(reps):
            key = _class_key_from_sizes(_esf_crp(n, 0.5, rng).sizes(), n)
            observed[key] = observed.get(key, 0) + 1
        expected = {
            _class_key_from_sizes(parts, n): esf_pmf(n, F(1, 2), parts)
            for parts in laws.partitions(n, 1)
        }
        assert chi_square_pvalue(observed, expected, reps) > 1e-4

    def test_total_is_n(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            assert _esf_crp(9, 2.0, rng).total == 9


class TestOmega:
    def test_below_half_and_matches_exact(self):
        w = omega_values(40)
        assert (w <= 0.5).all()
        for j in range(2, 41):
            exact = float(poisson_partial_sum(j, j - 2)) * math.exp(-j)
            assert w[j] == pytest.approx(exact, rel=1e-12)

    def test_matches_iterative_cdf(self):
        from oracles import poisson_cdf

        w = omega_values(60)
        for j in (2, 5, 17, 60):
            assert w[j] == pytest.approx(poisson_cdf(j, j - 2), rel=1e-10)

    @staticmethod
    def _reference(j: int) -> float:
        # Q(j-1, j) at 120 bits through mpmath's own incomplete gamma, which
        # omega does not use, rounded once to float64
        with mpmath.workprec(120):
            return float(mpmath.gammainc(j - 1, j, mpmath.inf, regularized=True))

    @staticmethod
    def _ulps(a: float, b: float) -> int:
        return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))

    def test_exact_up_to_the_switch(self):
        w = omega_values(laws.OMEGA_EXACT_MAX_J)
        assert laws.OMEGA_EXACT_MAX_J == 100
        for j in range(2, laws.OMEGA_EXACT_MAX_J + 1):
            assert w[j] == self._reference(j), j

    def test_exact_table_bits_are_pinned(self):
        # the rejection sampler's acceptance weights depend on these bits
        w = laws._omega_exact()
        assert w.shape == (laws.OMEGA_EXACT_MAX_J + 1,)
        digest = hashlib.sha256(w.astype("<f8").tobytes()).hexdigest()
        assert digest == "5b7c8ded473785c65db89164d6d9692de2b4f1f01ce96827ae9dda5463e7f3b1"

    def test_within_one_ulp_above_the_switch(self):
        w = omega_values(400)
        assert (w <= 0.5).all()
        for j in range(101, 401):
            assert self._ulps(w[j], self._reference(j)) <= 1, j

    @pytest.mark.parametrize("j", [10**3, 10**4, 10**5, 10**6])
    def test_within_one_ulp_at_large_j(self, j):
        w = laws.omega(np.array([j]))[0]
        assert w <= 0.5
        assert self._ulps(w, self._reference(j)) <= 1

    def test_rejects_j_below_two(self):
        with pytest.raises(ValueError):
            laws.omega(np.array([5, 1]))


class TestRejectionSampler:
    def test_scalar_properties(self):
        rng = np.random.default_rng(500)
        for _ in range(300):
            spec, attempts = sample_toes_components(6, rng)
            assert spec.get(1) == 0
            assert spec.total == 6
            assert attempts >= 1

    def test_acceptance_rule_on_crp_proposals(self):
        # the rejection rule 1{a_1 = 0} prod_j (2 w_j)**a_j, applied to
        # ESF(1/2) proposals that do not come from the Feller kernel, gives
        # the component law
        n, proposals = 6, 60_000
        rng = np.random.default_rng(501)
        w = omega_values(n)
        observed: dict = {}
        for _ in range(proposals):
            spec = _esf_crp(n, 0.5, rng)
            if spec.get(1) > 0:
                continue
            if rng.random() < math.prod((2.0 * w[j]) ** a for j, a in spec.counts):
                key = _class_key_from_sizes(spec.sizes(), n)
                observed[key] = observed.get(key, 0) + 1
        accepted = sum(observed.values())
        expected = {
            _class_key_from_sizes(sizes, n): p
            for sizes, p in laws.component_pmf_table(n, "toes").items()
        }
        assert chi_square_pvalue(observed, expected, accepted) > 1e-4

    def test_batch_matches_component_law(self):
        # the batch tally is the tally of the accepted pairs, which follow
        # the component law
        n, reps = 6, 100_000
        tally, attempts = toes_component_counts_batch(n, reps, np.random.default_rng(600))
        rows, lengths, again = _accepted(n, reps, np.random.default_rng(600))
        assert again == attempts
        counts = _dense_counts(rows, lengths, reps, n)
        for key, value in _matrix_tally(counts, "comp").items():
            assert np.array_equal(tally[key], value), key
        assert (counts @ np.arange(n + 1) == n).all()
        assert (counts[:, 1] == 0).all()
        observed = _class_counts(counts, n)
        expected = {
            _class_key_from_sizes(parts, n): laws.component_pmf(
                n, Spectrum.from_sizes(parts), "toes"
            )
            for parts in laws.partitions(n, 2)
        }
        assert chi_square_pvalue(observed, expected, reps) > 1e-4
        assert attempts > reps  # some proposals must be rejected

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_accepted_spectra_match_component_law(self, n):
        reps = 50_000
        rows, lengths, _ = _accepted(n, reps, np.random.default_rng(610 + n))
        counts = _dense_counts(rows, lengths, reps, n)
        assert (counts @ np.arange(n + 1) == n).all()
        assert (counts[:, 1] == 0).all()
        expected = {
            _class_key_from_sizes(sizes, n): p
            for sizes, p in laws.component_pmf_table(n, "toes").items()
        }
        assert chi_square_pvalue(_class_counts(counts, n), expected, reps) > 1e-4

    def test_acceptance_rate_matches_exact(self):
        n, accepted = 10, 100_000
        _, attempts = toes_component_counts_batch(n, accepted, np.random.default_rng(601))
        rate = accepted / attempts
        exact = exact_acceptance_probability(n)
        se = math.sqrt(exact * (1 - exact) / attempts)
        assert abs(rate - exact) < 5 * se

    def test_recurrence_equals_the_partition_enumeration(self):
        for n in range(2, 31):
            w = omega_values(n)
            enumerated = 0.0
            for parts in laws.partitions(n, 2):
                prob = float(esf_pmf(n, F(1, 2), parts))
                for j in parts:
                    prob *= 2.0 * w[j]
                enumerated += prob
            assert exact_acceptance_probability(n) == pytest.approx(enumerated, rel=1e-13), n

    def test_acceptance_probability_below_its_limit_at_large_n(self):
        assert 0.259 < exact_acceptance_probability(300) < math.exp(-1) / math.sqrt(2)

    def test_exact_acceptance_probability_frozen(self):
        assert exact_acceptance_probability(10) == pytest.approx(0.247581736473, abs=1e-9)
        # the large-n limit is e**-1/sqrt(2) ~ 0.2601; finite n sits below it
        assert exact_acceptance_probability(40) < math.exp(-1) / math.sqrt(2)


class TestCoreSizeSampler:
    def test_n2_degenerate(self):
        assert (samplers.core_sizes_batch(2, 20, np.random.default_rng(700)) == 2).all()

    def test_batch_matches_core_law(self):
        n, reps = 10, 100_000
        sizes = samplers.core_sizes_batch(n, reps, np.random.default_rng(701))
        observed = {int(r): int(c) for r, c in zip(*np.unique(sizes, return_counts=True))}
        expected = {r: p for r, p in laws.core_size_table(n, "toes").items()}
        assert chi_square_pvalue(observed, expected, reps) > 1e-4

    @pytest.mark.parametrize("n, digest", [
        (10, "ceb030f2f210a0ace7ec8f971fcae89c96e1b9799f7d776e2cdbddf1bb2ec5f6"),
        (57, "f72dc331eed44f6dd1b69c880884d87e228e05368cdf01a63cd47d5dd40f3f0a"),
        (1000, "2bf75c5925ab7791894682ca3c5a09f7301e411fdc8ce3baea899a9a4bce9174"),
    ])
    def test_cdf_bits_are_pinned(self, n, digest):
        # the sampler's draws depend on these bits: the exact cumulative
        # law rounded once to float64
        assert hashlib.sha256(samplers._core_size_cdf(n).tobytes()).hexdigest() == digest

    def test_cdf_cache_is_exactly_normalised(self):
        cdf = samplers._core_size_cdf(17)
        assert cdf[-1] == 1.0
        assert (np.diff(cdf) >= 0).all()


class TestDerangementSampler:
    def test_forced_small_cases(self):
        # every derangement of 2 or 3 elements is a single cycle
        sizes = np.array([2] + [3] * 10)
        rows, lengths = samplers._derangement_cycles(sizes, 3, np.random.default_rng(800))
        assert sorted(rows.tolist()) == list(range(sizes.size))
        assert (lengths == sizes[rows]).all()

    def test_two_cycle_count_law(self):
        # P(k 2-cycles | derangement of 6), exact vs 10^5 batch draws
        reps = 100_000
        sizes = np.full(reps, 6)
        rng = np.random.default_rng(801)
        hist = samplers.derangement_cycle_counts_batch(sizes, 6, rng)["scream_hist"]
        assert hist.sum() == reps
        observed = {k: int(c) for k, c in enumerate(hist) if c}
        norm = F(derangement_number(6), math.factorial(6))
        expected = {
            k: derangement_two_cycle_pmf(6, k) / norm for k in range(0, 4)
        }
        assert chi_square_pvalue(observed, expected, reps) > 1e-4

    def test_batch_cycle_totals(self):
        # per row, whatever the mix of sizes: sum_j j*c_j = r and no 1-cycles
        sizes = np.repeat([2, 5, 9, 3], 200)
        np.random.default_rng(802).shuffle(sizes)
        rows, lengths = samplers._derangement_cycles(sizes, 9, np.random.default_rng(803))
        counts = _dense_counts(rows, lengths, sizes.size, 9)
        assert (counts @ np.arange(10) == sizes).all()
        assert (counts[:, 1] == 0).all()

    def test_cycle_type_matches_exact_law(self):
        # rows of sizes 2..8 drawn together, each size against its exact law
        reps = 40_000
        sizes = np.repeat(np.arange(2, 9), reps)
        np.random.default_rng(804).shuffle(sizes)
        rows, lengths = samplers._derangement_cycles(sizes, 8, np.random.default_rng(805))
        counts = _dense_counts(rows, lengths, sizes.size, 8)
        assert (counts @ np.arange(9) == sizes).all()
        for r in range(2, 9):
            observed = _class_counts(counts[sizes == r, : r + 1], r)
            expected = {
                _class_key_from_sizes(parts, r): derangement_cycle_type_pmf(r, parts)
                for parts in laws.partitions(r, 2)
            }
            if len(expected) == 1:  # r = 2, 3: one cycle type only
                assert observed == {next(iter(expected)): reps}
            else:
                assert chi_square_pvalue(observed, expected, reps) > 1e-4, r

    def test_rejects_sizes_below_2(self):
        for sizes in ([3, 1], [1]):
            with pytest.raises(ValueError):
                samplers.derangement_cycle_counts_batch(np.array(sizes), 3, np.random.default_rng(0))


class TestCoreJointSampler:
    def test_n2(self):
        assert sample_toes_core(2, np.random.default_rng(900)).sizes() == (2,)

    def test_cycle_mean_agreement(self):
        n, reps = 10, 100_000
        tally = toes_core_cycle_counts_batch(n, reps, np.random.default_rng(901))
        assert tally["core_hist"].sum() == reps
        assert tally["cyc_sum"] @ np.arange(n + 1) == tally["core_hist"] @ np.arange(n + 1)
        for j in (2, 3, 10):
            exact = float(laws.mean_cycle_count(n, j, "toes"))
            mean, se = _mean_and_se(tally, "cyc", j, reps)
            assert abs(mean - exact) <= 5 * max(se, 1e-9)


def _mean_and_se(tally, name, j, reps):
    """Replicate mean of c_j and its standard error, from the sum and the
    sum of squares (the same as the mean and std(ddof=1)/sqrt(reps) of the
    per-row counts)."""
    total, sumsq = int(tally[name + "_sum"][j]), int(tally[name + "_sumsq"][j])
    var = (sumsq - total * total / reps) / (reps - 1)
    return total / reps, math.sqrt(max(var, 0.0) / reps)


def _matrix_tally(counts, name):
    return {name + "_sum": counts.sum(axis=0), name + "_sumsq": (counts * counts).sum(axis=0)}


class TestChunkedTallies:
    """The chunked and sparse kernels tally exactly what full per-row
    matrices give."""

    def test_direct_route_n9(self, monkeypatch):
        # reference: the same draws decomposed by the scalar walk, one row at
        # a time, into full per-row count matrices
        n, reps, seed = 9, 1000, 4242
        comp, cyc, cyclic = _scalar_counts(
            sample_mappings_batch(n, reps, np.random.default_rng(seed)), n
        )
        core = cyclic.sum(axis=1)
        no_comp, no_cyc = (comp <= 1).all(axis=1), (cyc <= 1).all(axis=1)
        want = {
            "replicates": reps,
            **_matrix_tally(comp, "comp"),
            **_matrix_tally(cyc, "cyc"),
            "scream_hist": np.bincount(cyc[:, 2], minlength=n // 2 + 1),
            "core_hist": np.bincount(core, minlength=n + 1),
            "no_repeat": [no_comp.sum(), no_cyc.sum(), (no_comp & no_cyc).sum()],
        }
        assert 0 < no_comp.sum() < reps and 0 < no_cyc.sum() < reps
        assert 0 < want["scream_hist"][0] < reps
        monkeypatch.setattr(samplers, "CHUNK_CELLS", 40)  # 4 rows a chunk
        got = harness._simulate_batch(("direct", n, seed, reps))
        assert sorted(got) == sorted(want)
        for key, value in want.items():
            assert np.array_equal(got[key], value), key

    def test_direct_route_n1000_chunk_size(self, monkeypatch):
        tallies = []
        for cells in (samplers.CHUNK_CELLS, 1 << 21):
            monkeypatch.setattr(samplers, "CHUNK_CELLS", cells)
            assert samplers.chunk_rows(1000) < 3000  # several chunks either way
            tallies.append(samplers.toes_mapping_counts_batch(1000, 3000, np.random.default_rng(4545)))
        small, large = tallies
        assert sorted(small) == sorted(large)
        for key, value in large.items():
            assert np.array_equal(small[key], value), key

    def test_core_joint_route_n10(self, monkeypatch):
        n, reps, seed, block = 10, 3000, 4343, 700
        # reference: the same draws, block by block, as a full per-row
        # cycle-count matrix
        rng = np.random.default_rng(seed)
        sizes = samplers.core_sizes_batch(n, reps, rng)
        cyc = np.zeros((reps, n + 1), dtype=np.int64)
        for lo in range(0, reps, block):
            rows, lengths = samplers._derangement_cycles(sizes[lo:lo + block], n, rng)
            cyc[lo:lo + block] = _dense_counts(rows, lengths, sizes[lo:lo + block].size, n)
        assert (cyc @ np.arange(n + 1) == sizes).all()
        assert (cyc[:, 1] == 0).all()
        want = {
            **_matrix_tally(cyc, "cyc"),
            "scream_hist": np.bincount(cyc[:, 2], minlength=n // 2 + 1),
            "core_hist": np.bincount(sizes, minlength=n + 1),
        }
        monkeypatch.setattr(samplers, "ROW_CHUNK", block)
        got = toes_core_cycle_counts_batch(n, reps, np.random.default_rng(seed))
        assert sorted(got) == sorted(want)
        for key, value in want.items():
            assert np.array_equal(got[key], value), key


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """Peak traced memory of one batch at n = 1000.  Full per-row (B, n+1)
    int64 matrices would need 160 MB (core-joint, 20 000 rows) and about
    360 MB (direct, 5 000 rows) here; dense ESF proposals took about
    1.6 GB for 20 000 accepted components."""

    def test_core_joint_batch(self):
        samplers._core_size_cdf(1000)  # the cached exact CDF is set-up, not batch memory
        peak = _traced_peak_mb(toes_core_cycle_counts_batch, 1000, 20_000, np.random.default_rng(950))
        assert peak < 16

    def test_rejection_batch(self):
        omega_values(1000)  # cached, like the CDF above
        peak = _traced_peak_mb(toes_component_counts_batch, 1000, 20_000, np.random.default_rng(952))
        assert peak < 16

    def test_direct_batch(self):
        # one chunk of 2**17 cells and its scratch arrays trace 4.4-6.2 MB,
        # whatever the batch size (6.2 MB when the call is the process's
        # first and also fills caches); the bound is 60 % above that.
        # Chunks of 2**21 cells took 74 MB.
        peak = _traced_peak_mb(harness._simulate_batch, ("direct", 1000, 951, 5_000))
        assert peak < 10

    def test_brute_force_oracle(self):
        # blocks of 2**14 mappings take about 6 MB; all 7**7 at once would
        # take well over 100 MB
        assert _traced_peak_mb(harness.brute_force_law, 7, "standard") < 30


class TestDirectRegression:
    """Empirical law of the full decomposition vs exhaustive enumeration."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_chi_square_against_enumeration(self, n):
        reps = 1_000_000
        brute = harness.brute_force_law(n, "toes")
        expected = {}
        for (comp_key, cyc_key), prob in brute.joint_pmf.items():
            key = _class_key_from_sizes(comp_key, n) + _class_key_from_sizes(cyc_key, n)
            expected[key] = prob
        rng = np.random.default_rng(1000 + n)
        observed: dict = {}
        done = 0
        while done < reps:
            size = min(250_000, reps - done)
            dec = decompose_batch(sample_mappings_batch(n, size, rng))
            stacked = np.hstack([
                _dense_counts(*dec.components, size, n), _dense_counts(*dec.cycles, size, n)
            ])
            for key, c in _class_counts(stacked, n).items():
                observed[key] = observed.get(key, 0) + c
            done += size
        assert chi_square_pvalue(observed, expected, reps) > 1e-4


class TestCrossMoments:
    def test_product_moment_against_direct_simulation(self):
        n, reps = 10, 300_000
        direct = decompose_batch(sample_mappings_batch(n, reps, np.random.default_rng(1400)))
        comp = _dense_counts(*direct.components, reps, n)
        prod = comp[:, 2] * comp[:, 3]
        exact = float(laws.factorial_moment(n, {2: 1, 3: 1}))
        se = prod.std(ddof=1) / math.sqrt(reps)
        assert abs(prod.mean() - exact) <= 4 * se


class TestLargeN:
    def test_decompose_handles_deep_paths(self):
        # one row of the batch kernel at n = 10**5
        n = 100_000
        mapping = sample_mapping(n, np.random.default_rng(1500))
        dec = decompose(mapping)
        assert dec.component_sizes.total == n
        assert dec.core_size >= 2


class TestRouteAgreement:
    def test_rejection_and_direct_component_means(self):
        n, reps = 8, 120_000
        rej, _ = toes_component_counts_batch(n, reps, np.random.default_rng(1100))
        direct = decompose_batch(sample_mappings_batch(n, reps, np.random.default_rng(1101)))
        comp = _dense_counts(*direct.components, reps, n)
        for j in range(2, n + 1):
            a_mean, a_se = _mean_and_se(rej, "comp", j, reps)
            b = comp[:, j]
            se = math.sqrt(a_se**2 + b.var(ddof=1) / reps)
            exact = float(laws.mean_component_count(n, j, "toes"))
            assert abs(a_mean - b.mean()) <= 4 * max(se, 1e-9)
            assert abs(a_mean - exact) <= 5 * max(a_se, 1e-9)

    def test_corejoint_and_direct_cycle_means(self):
        n, reps = 8, 120_000
        joint = toes_core_cycle_counts_batch(n, reps, np.random.default_rng(1102))
        direct = decompose_batch(sample_mappings_batch(n, reps, np.random.default_rng(1103)))
        cyc = _dense_counts(*direct.cycles, reps, n)
        for j in range(2, n + 1):
            a_mean, a_se = _mean_and_se(joint, "cyc", j, reps)
            b = cyc[:, j]
            se = math.sqrt(a_se**2 + b.var(ddof=1) / reps)
            assert abs(a_mean - b.mean()) <= 4 * max(se, 1e-9)


class TestBatchDeterminism:
    def test_same_seed_same_tallies(self):
        a, att_a = toes_component_counts_batch(7, 5000, np.random.default_rng(1200))
        b, att_b = toes_component_counts_batch(7, 5000, np.random.default_rng(1200))
        assert att_a == att_b
        assert sorted(a) == sorted(b) == ["comp_sum", "comp_sumsq"]
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_scalar_streams_reproduce(self):
        seq_a = [sample_toes_core(6, np.random.default_rng(1300)).sizes() for _ in range(1)]
        seq_b = [sample_toes_core(6, np.random.default_rng(1300)).sizes() for _ in range(1)]
        assert seq_a == seq_b

"""Sampler tests: structural invariants, determinism, and statistical
agreement with the exact laws (which double as the oracles)."""

import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from screamingtoes import harness, laws, samplers
from screamingtoes.exact import derangement_number, to_mpf
from screamingtoes.laws import Spectrum
from screamingtoes.samplers import (
    Decomposition,
    Mapping,
    RngStream,
    decompose,
    decompose_batch,
    esf_cycle_counts_batch,
    exact_acceptance_probability,
    omega_values,
    sample_core_size,
    sample_derangement_cycles,
    sample_esf_crp,
    sample_esf_feller,
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
        e = float(to_mpf(prob)) * total if isinstance(prob, F) else prob * total
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


class TestRngStream:
    def test_determinism(self):
        a = RngStream(12345)
        b = RngStream(12345)
        assert a.gen.random(10).tolist() == b.gen.random(10).tolist()

    def test_derive_rule(self):
        master = RngStream(0xDEADBEEF)
        assert master.derive(5).seed == 0xDEADBEEF ^ 5
        assert master.derive(0).seed == master.seed

    def test_seed_masked_to_64_bits(self):
        assert RngStream(2**70 + 3).seed == (2**70 + 3) % 2**64


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
        rng = RngStream(1)
        for _ in range(20):
            assert sample_mapping(2, rng).image == (1, 0)

    def test_never_fixed_point(self):
        imgs = sample_mappings_batch(9, 5000, RngStream(3))
        assert (imgs != np.arange(9)).all()
        assert ((imgs >= 0) & (imgs < 9)).all()

    def test_coordinate_uniformity(self):
        # empirical law of image[0] over the 9 allowed targets
        n, reps = 10, 200_000
        imgs = sample_mappings_batch(n, reps, RngStream(42))
        counts = np.bincount(imgs[:, 0], minlength=n)
        assert counts[0] == 0
        observed = {j: int(counts[j]) for j in range(1, n)}
        expected = {j: 1.0 / (n - 1) for j in range(1, n)}
        assert chi_square_pvalue(observed, expected, reps) > 1e-4

    def test_seed_reproducibility(self):
        m1 = sample_mapping(25, RngStream(77))
        m2 = sample_mapping(25, RngStream(77))
        assert m1 == m2

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            sample_mapping(1, RngStream(0))


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
        rng = RngStream(1234)
        for n in (2, 3, 5, 8, 16):
            imgs = sample_mappings_batch(n, 300, rng)
            batch = decompose_batch(imgs)
            for b in range(imgs.shape[0]):
                dec = decompose(Mapping(tuple(int(v) for v in imgs[b])))
                comp = np.zeros(n + 1, dtype=np.int64)
                for j, a in dec.component_sizes.counts:
                    comp[j] = a
                cyc = np.zeros(n + 1, dtype=np.int64)
                for j, a in dec.cycle_lengths.counts:
                    cyc[j] = a
                assert (batch.component_counts[b] == comp).all()
                assert (batch.cycle_counts[b] == cyc).all()
                assert batch.core_sizes[b] == dec.core_size


class TestFellerCoupling:
    def test_n1(self):
        assert sample_esf_feller(1, 0.5, RngStream(0)).counts == ((1, 1),)

    def test_totals_always_n(self):
        counts = esf_cycle_counts_batch(11, 0.5, 50_000, RngStream(8))
        assert ((counts * np.arange(12)).sum(axis=1) == 11).all()
        rng = RngStream(9)
        for _ in range(200):
            assert sample_esf_feller(7, 1.7, rng).total == 7

    def test_theta_one_matches_uniform_permutation_law(self):
        n, reps = 6, 200_000
        counts = esf_cycle_counts_batch(n, 1.0, reps, RngStream(101))
        observed = _class_counts(counts, n)
        expected = {
            _class_key_from_sizes(parts, n): laws.esf_pmf(n, 1, parts)
            for parts in laws.partitions(n, 1)
        }
        assert chi_square_pvalue(observed, expected, reps) > 1e-4

    def test_theta_half_matches_esf_law(self):
        n, reps = 6, 200_000
        counts = esf_cycle_counts_batch(n, 0.5, reps, RngStream(202))
        observed = _class_counts(counts, n)
        expected = {
            _class_key_from_sizes(parts, n): laws.esf_pmf(n, F(1, 2), parts)
            for parts in laws.partitions(n, 1)
        }
        assert chi_square_pvalue(observed, expected, reps) > 1e-4

    def test_scalar_first_moment(self):
        n, reps, theta = 10, 30_000, 0.5
        rng = RngStream(303)
        total = sum(sample_esf_feller(n, theta, rng).get(1) for _ in range(reps))
        exact = float(to_mpf(laws.esf_mean_cycle_count(n, F(1, 2), 1)))
        se = math.sqrt(exact / reps)  # crude Poisson-scale bound on the s.e.
        assert abs(total / reps - exact) < 5 * se


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


class TestChineseRestaurant:
    def test_matches_esf_law(self):
        n, reps = 5, 30_000
        rng = RngStream(404)
        observed = {}
        for _ in range(reps):
            key = _class_key_from_sizes(sample_esf_crp(n, 0.5, rng).sizes(), n)
            observed[key] = observed.get(key, 0) + 1
        expected = {
            _class_key_from_sizes(parts, n): laws.esf_pmf(n, F(1, 2), parts)
            for parts in laws.partitions(n, 1)
        }
        assert chi_square_pvalue(observed, expected, reps) > 1e-4

    def test_total_is_n(self):
        rng = RngStream(11)
        for _ in range(200):
            assert sample_esf_crp(9, 2.0, rng).total == 9


class TestOmega:
    def test_below_half_and_matches_exact(self):
        w = omega_values(40)
        assert (w <= 0.5).all()
        for j in range(2, 41):
            exact = float(to_mpf(laws.lambda_toes(j) * j))
            assert w[j] == pytest.approx(exact, rel=1e-12)

    def test_matches_iterative_cdf(self):
        from screamingtoes.exact import poisson_cdf

        w = omega_values(60)
        for j in (2, 5, 17, 60):
            assert w[j] == pytest.approx(poisson_cdf(j, j - 2), rel=1e-10)


class TestRejectionSampler:
    def test_scalar_properties(self):
        rng = RngStream(500)
        for _ in range(300):
            spec, attempts = sample_toes_components(6, rng)
            assert spec.get(1) == 0
            assert spec.total == 6
            assert attempts >= 1

    def test_crp_proposals_also_work(self):
        spec, _ = sample_toes_components(6, RngStream(501), esf_sampler="crp")
        assert spec.total == 6 and spec.get(1) == 0

    def test_batch_matches_component_law(self):
        n, reps = 6, 100_000
        counts, attempts = toes_component_counts_batch(n, reps, RngStream(600))
        assert counts.shape == (reps, n + 1)
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

    def test_acceptance_rate_matches_exact(self):
        n, accepted = 10, 100_000
        _, attempts = toes_component_counts_batch(n, accepted, RngStream(601))
        rate = accepted / attempts
        exact = exact_acceptance_probability(n)
        se = math.sqrt(exact * (1 - exact) / attempts)
        assert abs(rate - exact) < 5 * se

    def test_exact_acceptance_probability_frozen(self):
        assert exact_acceptance_probability(10) == pytest.approx(0.247581736473, abs=1e-9)
        # the large-n limit is e**-1/sqrt(2) ~ 0.2601; finite n sits below it
        assert exact_acceptance_probability(40) < math.exp(-1) / math.sqrt(2)


class TestCoreSizeSampler:
    def test_n2_degenerate(self):
        rng = RngStream(700)
        assert all(sample_core_size(2, rng) == 2 for _ in range(20))

    def test_batch_matches_core_law(self):
        n, reps = 10, 100_000
        sizes = samplers.core_sizes_batch(n, reps, RngStream(701))
        observed = {int(r): int(c) for r, c in zip(*np.unique(sizes, return_counts=True))}
        expected = {r: p for r, p in laws.core_size_table(n, "toes").items()}
        assert chi_square_pvalue(observed, expected, reps) > 1e-4

    def test_cdf_cache_is_exactly_normalised(self):
        cdf = samplers._core_size_cdf(17)
        assert cdf[-1] == 1.0
        assert (np.diff(cdf) >= 0).all()


class TestDerangementSampler:
    def test_forced_small_cases(self):
        rng = RngStream(800)
        assert sample_derangement_cycles(2, rng).sizes() == (2,)
        for _ in range(10):
            assert sample_derangement_cycles(3, rng).sizes() == (3,)

    def test_rejects_r1(self):
        with pytest.raises(ValueError):
            sample_derangement_cycles(1, RngStream(0))

    def test_two_cycle_count_law(self):
        # P(k 2-cycles | derangement of 6), exact vs 10^5 batch draws
        reps = 100_000
        sizes = np.full(reps, 6)
        hist = samplers.derangement_cycle_counts_batch(sizes, 6, RngStream(801))["scream_hist"]
        assert hist.sum() == reps
        observed = {k: int(c) for k, c in enumerate(hist) if c}
        norm = F(derangement_number(6), math.factorial(6))
        expected = {
            k: laws.derangement_two_cycle_pmf(6, k) / norm for k in range(0, 4)
        }
        assert chi_square_pvalue(observed, expected, reps) > 1e-4

    def test_batch_cycle_totals(self):
        # per row of each size group: sum_j j*c_j = r and no 1-cycles
        rng = RngStream(802)
        for r in (2, 5, 9, 3):
            counts = samplers._permutation_cycle_counts(samplers._derangements_of(r, 200, rng))
            assert counts.shape == (200, r + 1)
            assert ((counts * np.arange(r + 1)).sum(axis=1) == r).all()
            assert (counts[:, 1] == 0).all()


class TestCoreJointSampler:
    def test_n2(self):
        assert sample_toes_core(2, RngStream(900)).sizes() == (2,)

    def test_cycle_mean_agreement(self):
        n, reps = 10, 100_000
        tally = toes_core_cycle_counts_batch(n, reps, RngStream(901))
        assert tally["core_hist"].sum() == reps
        assert tally["cyc_sum"] @ np.arange(n + 1) == tally["core_hist"] @ np.arange(n + 1)
        for j in (2, 3, 10):
            exact = float(to_mpf(laws.mean_cycle_count(n, j, "toes")))
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
    """The chunked kernels tally exactly what full per-row matrices give."""

    def test_direct_route_n9(self, monkeypatch):
        n, reps, seed = 9, 1000, 4242
        dec = decompose_batch(sample_mappings_batch(n, reps, RngStream(seed)))
        comp, cyc = dec.component_counts, dec.cycle_counts
        no_comp, no_cyc = (comp <= 1).all(axis=1), (cyc <= 1).all(axis=1)
        want = {
            "replicates": reps,
            **_matrix_tally(comp, "comp"),
            **_matrix_tally(cyc, "cyc"),
            "scream_hist": np.bincount(cyc[:, 2], minlength=n // 2 + 1),
            "core_hist": np.bincount(dec.core_sizes, minlength=n + 1),
            "no_repeat": [no_comp.sum(), no_cyc.sum(), (no_comp & no_cyc).sum()],
        }
        monkeypatch.setattr(samplers, "CHUNK_CELLS", 40)  # 4 rows a chunk
        got = harness._simulate_batch(("direct", n, seed, reps))
        assert sorted(got) == sorted(want)
        for key, value in want.items():
            assert np.array_equal(got[key], value), key

    def test_core_joint_route_n10(self, monkeypatch):
        n, reps, seed = 10, 3000, 4343
        # reference: the same draws, cycle counts per row by the scalar walk
        rng = RngStream(seed)
        sizes = samplers.core_sizes_batch(n, reps, rng)
        cyc = np.zeros((reps, n + 1), dtype=np.int64)
        for r in np.unique(sizes):
            rows = np.nonzero(sizes == r)[0]
            for row, perm in zip(rows, samplers._derangements_of(int(r), rows.size, rng)):
                _, cycle_lens, _ = samplers._decompose_image(perm.tolist())
                cyc[row] = np.bincount(cycle_lens, minlength=n + 1)
        want = {
            **_matrix_tally(cyc, "cyc"),
            "scream_hist": np.bincount(cyc[:, 2], minlength=n // 2 + 1),
            "core_hist": np.bincount(sizes, minlength=n + 1),
        }
        monkeypatch.setattr(samplers, "CHUNK_CELLS", 12)  # 1 to 6 rows a chunk
        got = toes_core_cycle_counts_batch(n, reps, RngStream(seed))
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
    360 MB (direct, 5 000 rows) here."""

    def test_core_joint_batch(self):
        samplers._core_size_cdf(1000)  # the cached exact CDF is set-up, not batch memory
        peak = _traced_peak_mb(toes_core_cycle_counts_batch, 1000, 20_000, RngStream(950))
        assert peak < 16

    def test_direct_batch(self):
        # one chunk of 2**21 cells needs about 130 MB, whatever the batch size
        peak = _traced_peak_mb(harness._simulate_batch, ("direct", 1000, 951, 5_000))
        assert peak < 160


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
        rng = RngStream(1000 + n)
        observed: dict = {}
        done = 0
        while done < reps:
            size = min(250_000, reps - done)
            imgs = sample_mappings_batch(n, size, rng)
            dec = decompose_batch(imgs)
            stacked = np.hstack([dec.component_counts, dec.cycle_counts])
            for key, c in _class_counts(stacked, n).items():
                observed[key] = observed.get(key, 0) + c
            done += size
        assert chi_square_pvalue(observed, expected, reps) > 1e-4


class TestCrossMoments:
    def test_product_moment_against_direct_simulation(self):
        n, reps = 10, 300_000
        direct = decompose_batch(sample_mappings_batch(n, reps, RngStream(1400)))
        prod = direct.component_counts[:, 2] * direct.component_counts[:, 3]
        exact = float(to_mpf(laws.factorial_moment(n, {2: 1, 3: 1})))
        se = prod.std(ddof=1) / math.sqrt(reps)
        assert abs(prod.mean() - exact) <= 4 * se

    def test_cross_moment_table_matches(self):
        table = laws.cross_moment_table(10)
        assert table.kind == "cross-moment"
        assert table[(2, 3)] == laws.factorial_moment(10, {2: 1, 3: 1})
        assert (2, 9) not in table.entries  # vanishing cells are omitted


class TestLargeN:
    def test_decompose_handles_deep_paths(self):
        # iterative traversal: no recursion limit at n = 10**5
        n = 100_000
        mapping = sample_mapping(n, RngStream(1500))
        dec = decompose(mapping)
        assert dec.component_sizes.total == n
        assert dec.core_size >= 2


class TestRouteAgreement:
    def test_rejection_and_direct_component_means(self):
        n, reps = 8, 120_000
        rej, _ = toes_component_counts_batch(n, reps, RngStream(1100))
        direct = decompose_batch(sample_mappings_batch(n, reps, RngStream(1101)))
        for j in range(2, n + 1):
            a, b = rej[:, j], direct.component_counts[:, j]
            se = math.sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
            exact = float(to_mpf(laws.mean_component_count(n, j, "toes")))
            assert abs(a.mean() - b.mean()) <= 4 * max(se, 1e-9)
            assert abs(a.mean() - exact) <= 5 * max(math.sqrt(a.var(ddof=1) / reps), 1e-9)

    def test_corejoint_and_direct_cycle_means(self):
        n, reps = 8, 120_000
        joint = toes_core_cycle_counts_batch(n, reps, RngStream(1102))
        direct = decompose_batch(sample_mappings_batch(n, reps, RngStream(1103)))
        for j in range(2, n + 1):
            a_mean, a_se = _mean_and_se(joint, "cyc", j, reps)
            b = direct.cycle_counts[:, j]
            se = math.sqrt(a_se**2 + b.var(ddof=1) / reps)
            assert abs(a_mean - b.mean()) <= 4 * max(se, 1e-9)


class TestBatchDeterminism:
    def test_same_seed_same_tallies(self):
        a, att_a = toes_component_counts_batch(7, 5000, RngStream(1200))
        b, att_b = toes_component_counts_batch(7, 5000, RngStream(1200))
        assert att_a == att_b
        assert (a == b).all()

    def test_scalar_streams_reproduce(self):
        seq_a = [sample_toes_core(6, RngStream(1300)).sizes() for _ in range(1)]
        seq_b = [sample_toes_core(6, RngStream(1300)).sizes() for _ in range(1)]
        assert seq_a == seq_b

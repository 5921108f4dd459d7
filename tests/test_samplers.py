"""Sampler tests: structural invariants, determinism, and statistical
agreement with the exact laws (which double as the oracles)."""

import hashlib
import itertools
import math
import tracemalloc
from collections import Counter
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
    derangement_mean_cycle_count,
    derangement_two_cycle_pmf,
    esf_pmf,
    rising_factorial,
)
from screamingtoes import harness, laws, samplers
from screamingtoes.exact import derangement_numbers, poisson_partial_sum
from screamingtoes.samplers import (
    decompose_batch,
    exact_acceptance_probability,
    omega_values,
    sample_mappings_batch,
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


def _decompose_one(image):
    """The component sizes and cycle lengths, each ascending, and the cyclic
    points of one mapping, by a one-row :func:`decompose_batch`."""
    dec = decompose_batch(np.array([image]))
    return sorted(dec.components[1].tolist()), sorted(dec.cycles[1].tolist()), dec.core.tolist()


class TestSampleMapping:
    def test_n2_is_forced(self):
        images = sample_mappings_batch(2, 20, np.random.default_rng(1))
        assert (images == [1, 0]).all()

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
        m1 = sample_mappings_batch(25, 1, np.random.default_rng(77))
        m2 = sample_mappings_batch(25, 1, np.random.default_rng(77))
        assert np.array_equal(m1, m2)

    @pytest.mark.parametrize("draw", [
        lambda n, rng: sample_mappings_batch(n, 3, rng),
        lambda n, rng: samplers.toes_mapping_counts_batch(n, 5, rng),
    ], ids=["sample_mappings_batch", "toes_mapping_counts_batch"])
    def test_direct_route_rejects_n1_as_rejection_does(self, draw):
        # the rejection kernel's message, not numpy's "high <= 0"
        with pytest.raises(ValueError, match=r"^need n >= 2$"):
            draw(1, np.random.default_rng(0))


class TestDecompose:
    def test_reference_20_point_mapping(self):
        looks_at = [2, 14, 7, 1, 7, 19, 17, 11, 10, 13, 2, 14, 9, 8, 19, 10, 6, 16, 6, 19]
        components, cycles, core = _decompose_one([v - 1 for v in looks_at])
        assert components == [5, 7, 8]
        assert cycles == [2, 3, 4]
        assert len(core) == 9

    def test_n2(self):
        assert _decompose_one([1, 0]) == ([2], [2], [0, 1])

    def test_hand_traced_example(self):
        # 1-based (2, 1, 2, 3): one component of 4, a 2-cycle on points 0 and 1
        assert _decompose_one([1, 0, 1, 2]) == ([4], [2], [0, 1])

    @given(toes_images())
    @settings(max_examples=150, deadline=None)
    def test_structural_invariants(self, image):
        n = len(image)
        dec = decompose_batch(np.array([image]))
        (comp_rows, sizes), (cyc_rows, lengths) = dec.components, dec.cycles
        assert (comp_rows == 0).all() and (cyc_rows == 0).all()
        assert sizes.sum() == n  # the components cover every point
        assert lengths.sum() == dec.core.size  # the cycles cover the core
        assert sizes.size == lengths.size  # one cycle per component
        assert min(sizes.min(), lengths.min()) >= 2
        # one cyclic flag per core point: the core is a set of points that
        # the mapping permutes
        core = dec.core
        assert (np.diff(core) > 0).all() and 0 <= core[0] and core[-1] < n
        assert np.array_equal(np.unique(np.asarray(image)[core]), core)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1234)
        for n in (2, 3, 5, 8, 16):
            _assert_batch_matches_walk(sample_mappings_batch(n, 300, rng), n)

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

    @pytest.mark.parametrize("full_rounds", [samplers.FULL_ROUNDS, 2])
    @pytest.mark.parametrize("n", [15, 16, 17, 31, 32, 33, 64, 65, 128, 129, 256, 257])
    def test_two_stages_match_the_walk(self, n, full_rounds, monkeypatch):
        """The two-stage kernel against the scalar walk, on random toes
        rows, random rows with fixed points and the rows of
        :func:`_adversarial_rows`.  At the default ``FULL_ROUNDS`` the
        second stage starts at n = 129; with 2 full rounds it starts at
        n = 9, so that every n here takes both stages, on both sides of each
        boundary of K = ceil(log2 n)."""
        monkeypatch.setattr(samplers, "FULL_ROUNDS", full_rounds)
        rng = np.random.default_rng(n)
        images = np.vstack([
            sample_mappings_batch(n, 40, rng), rng.integers(0, n, (10, n)), _adversarial_rows(n),
        ])
        _assert_batch_matches_walk(images, n)


class TestEsfProposals:
    """ESF(1/2) proposals of the rejection route above
    ``samplers.TYPE_TABLE_MAX_N``, drawn given a_1 = 0 by
    :func:`samplers._cycles_without_fixed_points` at theta = 1/2."""

    @staticmethod
    def proposals(n, count, rng):
        return samplers._cycles_without_fixed_points(np.full(count, n), n, F(1, 2), rng)

    def test_totals_always_n(self):
        rows, lengths = self.proposals(11, 50_000, np.random.default_rng(8))
        counts = _dense_counts(rows, lengths, 50_000, 11)
        assert (counts @ np.arange(12) == 11).all()
        assert (counts[:, 1] == 0).all()

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_matches_conditioned_law(self, n):
        reps = 50_000
        rows, lengths = self.proposals(n, reps, np.random.default_rng(210 + n))
        no_ones = {parts: esf_pmf(n, F(1, 2), parts) for parts in laws.partitions(n, 2)}
        p_none = sum(no_ones.values())
        expected = {_class_key_from_sizes(parts, n): p / p_none for parts, p in no_ones.items()}
        observed = _class_counts(_dense_counts(rows, lengths, reps, n), n)
        assert chi_square_pvalue(observed, expected, reps) > 1e-4

    def test_no_row_is_a_no_op(self):
        rows, lengths = self.proposals(5, 0, np.random.default_rng(0))
        assert rows.size == lengths.size == 0


def _f_series(k, theta):
    """[z**k] exp(-theta z) (1-z)**-theta as the Cauchy product of the two
    series, independently of the package's integer recurrence."""
    return sum(
        F((-theta) ** j, math.factorial(j)) * rising_factorial(theta, k - j) / math.factorial(k - j)
        for j in range(k + 1)
    )


class TestCyclesWithoutFixedPoints:
    """The exact table behind the one kernel of the rejection and core-joint
    routes, ESF(theta) given a_1 = 0, one cycle at a time."""

    @pytest.mark.parametrize("theta", [F(1, 2), F(1)], ids=str)
    def test_induced_law_is_conditioned_esf(self, theta):
        # the step law P(k | m) = (c_k - c_{k-1}) / c_{m-2}, from the
        # package's integers, induces ESF(theta) given a_1 = 0 at every m
        c = [F(acc, scale) for acc, scale in samplers._no_fixed_point_sums(10, theta)]
        law = {0: {(): F(1)}}
        for m in range(2, 11):
            law[m] = {}
            for k in range(m - 1):
                step = (c[k] - (c[k - 1] if k else 0)) / c[m - 2]
                for parts, p in law.get(k, {}).items():
                    key = tuple(sorted(parts + (m - k,)))
                    law[m][key] = law[m].get(key, 0) + step * p
            no_ones = {parts: esf_pmf(m, theta, parts) for parts in laws.partitions(m, 2)}
            p_none = sum(no_ones.values())
            want = {tuple(sorted(parts)): p / p_none for parts, p in no_ones.items()}
            assert {key: p for key, p in law[m].items() if p} == want, m

    @pytest.mark.parametrize("theta", [F(1, 2), F(1)], ids=str)
    def test_table_is_the_rounded_series(self, theta):
        # every entry and P(a_1 = 0), rounded once from the exact rational
        for m in range(2, 13):
            cdf, p_none = samplers._no_fixed_point_table(m, theta)
            f = [_f_series(k, theta) for k in range(m + 1)]
            assert cdf.tolist() == [float(sum(f[: k + 1])) for k in range(m - 1)], m
            assert p_none == float(math.factorial(m) * f[m] / rising_factorial(theta, m)), m

    @pytest.mark.parametrize("theta, n, digest", [
        (F(1, 2), 10, "ec7717d5f8f8aa9bc2c2748096638970a3fd128b8a228048daa3615aa3cfc697"),
        (F(1, 2), 57, "40a3d6f92d0d5a69fae53464b4ce90e11c5ae408472886755f8bd3b1363cf59a"),
        (F(1, 2), 1000, "bc5d9cdfec66a3fa31c00602a4cc121bc338544e271b1c0b33d8c0c7a20c6594"),
        (F(1), 10, "cb642848a8d30b5a9467b020d9bbfc2f767f24112a070fafe5b411a417cfac36"),
        (F(1), 57, "8046198cc34eecc9f29f8fd691f6f6386bff29eca1cbafc4d4c9e4f4b6f1c99e"),
        (F(1), 1000, "c6cb5f28ce37202df0abfcdc545489327aed83597f06be35c44571e35fa5f860"),
    ], ids=str)
    def test_table_bits_are_pinned(self, theta, n, digest):
        # the draws of both routes depend on these bits: the table and
        # P(a_1 = 0), each rounded once to float64
        cdf, p_none = samplers._no_fixed_point_table(n, theta)
        assert hashlib.sha256(np.append(cdf, p_none).tobytes()).hexdigest() == digest


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


def _adversarial_rows(n):
    """Toes rows that stress the two stages of decompose_batch: the longest
    tail, i -> i+1 for i <= n-3 and n-2 <-> n-1, whose height n-2 leaves
    the image of f**16 a path that every second-stage round shortens; one
    n-cycle, whose image and core are every point; and all 2-cycles, the
    last point of an odd n mapping into the first pair."""
    i = np.arange(n)
    pairs = i ^ 1
    pairs[pairs == n] = 0
    return np.array([np.where(i < n - 2, i + 1, 2 * n - 3 - i), (i + 1) % n, pairs])


def _accepted(n, reps, rng):
    """The rejection route's accepted (replicate, component size) pairs,
    replicates numbered in acceptance order, and the proposals consumed:
    ``samplers._accepted`` with each live proposal drawn one cycle at a time
    and its threshold the product of P(a_1 = 0) and 2 w_j over its cycles."""
    p_none = samplers._no_fixed_point_table(n, F(1, 2))[1]
    w = omega_values(n)

    def draw(k, types):
        prop, size = samplers._cycles_without_fixed_points(np.full(k, n), n, F(1, 2), types)
        threshold = np.full(k, p_none)
        np.multiply.at(threshold, prop, 2 * w[size])
        return threshold, (prop, size)

    rows, lengths, have = [], [], 0
    for (prop, size), took, attempts in samplers._accepted(n, reps, rng, draw):
        keep = np.isin(prop, took)
        rows.append(have + np.searchsorted(took, prop[keep]))
        lengths.append(size[keep])
        have += took.size
    return np.concatenate(rows), np.concatenate(lengths), attempts


def _accepted_types(n, reps, rng):
    """The histogram of the rejection route's accepted types over
    ``samplers._proposal_type_table``, and the proposals consumed:
    ``samplers._accepted`` with each live proposal's type one search of
    that table."""
    cdf, threshold, _ = samplers._proposal_type_table(n)

    def draw(k, types):
        kind = np.searchsorted(cdf, types.random(k), side="right")
        return threshold[kind], kind

    hist = np.zeros(cdf.size, dtype=np.int64)
    for kind, took, attempts in samplers._accepted(n, reps, rng, draw):
        hist += np.bincount(kind[took], minlength=cdf.size)
    return hist, attempts


def _core_types(n, reps, rng):
    """The histogram of ``reps`` core-joint replicates over
    ``samplers._core_type_table`` at n <= TYPE_TABLE_MAX_N: double i of
    ``rng`` is replicate i's (core size, derangement type), one search of
    that table, all doubles drawn at once."""
    cdf = samplers._core_type_table(n)[0]
    return np.bincount(np.searchsorted(cdf, rng.random(reps), side="right"), minlength=cdf.size)


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


def _esf_crp(n: int, theta: float, rng: np.random.Generator) -> tuple[int, ...]:
    """One full ESF(theta) spectrum, ascending, via the Chinese restaurant process.

    A proposal source independent of the package's kernel: customer i
    starts a new table w.p. theta/(theta+i-1), else joins an existing table
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
    return tuple(sorted(tables))


class TestChineseRestaurant:
    def test_matches_esf_law(self):
        n, reps = 5, 30_000
        rng = np.random.default_rng(404)
        observed = {}
        for _ in range(reps):
            key = _class_key_from_sizes(_esf_crp(n, 0.5, rng), n)
            observed[key] = observed.get(key, 0) + 1
        expected = {
            _class_key_from_sizes(parts, n): esf_pmf(n, F(1, 2), parts)
            for parts in laws.partitions(n, 1)
        }
        assert chi_square_pvalue(observed, expected, reps) > 1e-4

    def test_total_is_n(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            assert sum(_esf_crp(9, 2.0, rng)) == 9


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
        w = np.zeros(laws.OMEGA_EXACT_MAX_J + 1)
        w[2:] = laws.omega(np.arange(2, laws.OMEGA_EXACT_MAX_J + 1))
        digest = hashlib.sha256(w.astype("<f8").tobytes()).hexdigest()
        assert digest == "5b7c8ded473785c65db89164d6d9692de2b4f1f01ce96827ae9dda5463e7f3b1"

    def test_exact_values_are_built_only_when_asked_for(self):
        # a rejection run at n = 10 reads w_2..w_10 and builds no other;
        # each value, built alone and in any order, is the full table's
        full = laws.omega(np.arange(2, laws.OMEGA_EXACT_MAX_J + 1))
        laws._omega_exact.cache_clear()
        try:
            assert np.array_equal(laws.omega(np.arange(2, 11)), full[:9])
            assert laws._omega_exact.cache_info().currsize == 9
            laws._omega_exact.cache_clear()
            for j in range(laws.OMEGA_EXACT_MAX_J, 1, -1):
                assert laws.omega(np.array([j]))[0] == full[j - 2], j
        finally:
            laws._omega_exact.cache_clear()

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
        # one replicate at a time: its counts are its spectrum
        rng = np.random.default_rng(500)
        for _ in range(300):
            tally = toes_component_counts_batch(6, 1, rng)
            counts = tally["comp_sum"]
            assert tally["replicates"] == 1
            assert np.array_equal(tally["comp_sumsq"], counts**2)
            assert counts[:2].sum() == 0
            assert counts @ np.arange(7) == 6
            assert tally["attempts"] >= 1

    def test_acceptance_rule_on_crp_proposals(self):
        # the rejection rule 1{a_1 = 0} prod_j (2 w_j)**a_j, applied to
        # ESF(1/2) proposals that do not come from the package's kernel,
        # gives the component law
        n, proposals = 6, 60_000
        rng = np.random.default_rng(501)
        w = omega_values(n)
        observed: dict = {}
        for _ in range(proposals):
            sizes = _esf_crp(n, 0.5, rng)
            if 1 in sizes:
                continue
            if rng.random() < math.prod((2.0 * w[j]) ** a for j, a in Counter(sizes).items()):
                key = _class_key_from_sizes(sizes, n)
                observed[key] = observed.get(key, 0) + 1
        accepted = sum(observed.values())
        expected = {
            _class_key_from_sizes(sizes, n): p
            for sizes, p in laws.component_pmf_table(n, "toes").items()
        }
        assert chi_square_pvalue(observed, expected, accepted) > 1e-4

    def test_batch_matches_component_law(self, monkeypatch):
        # the batch tally is the tally of the accepted pairs, which follow
        # the component law; the kernel is held to its cycle-at-a-time path
        monkeypatch.setattr(samplers, "TYPE_TABLE_MAX_N", 1)
        n, reps = 6, 100_000
        tally = toes_component_counts_batch(n, reps, np.random.default_rng(600))
        rows, lengths, attempts = _accepted(n, reps, np.random.default_rng(600))
        assert tally["replicates"] == reps and tally["attempts"] == attempts
        counts = _dense_counts(rows, lengths, reps, n)
        for key, value in _matrix_tally(counts, "comp").items():
            assert np.array_equal(tally[key], value), key
        assert (counts @ np.arange(n + 1) == n).all()
        assert (counts[:, 1] == 0).all()
        observed = _class_counts(counts, n)
        expected = {
            _class_key_from_sizes(parts, n): laws.component_pmf(n, parts, "toes")
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
        attempts = toes_component_counts_batch(n, accepted, np.random.default_rng(601))["attempts"]
        rate = accepted / attempts
        exact = exact_acceptance_probability(n)
        se = math.sqrt(exact * (1 - exact) / attempts)
        assert abs(rate - exact) < 5 * se

    def test_acceptance_rate_matches_exact_at_n1000(self):
        # one default-size batch of wide proposals
        n, accepted = 1000, 125_000
        attempts = toes_component_counts_batch(n, accepted, np.random.default_rng(602))["attempts"]
        exact = exact_acceptance_probability(n)
        se = math.sqrt(exact * (1 - exact) / attempts)
        assert abs(accepted / attempts - exact) < 4 * se

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


def _derangement_cycles(sizes, n, rng):
    """(row, cycle length) pairs of one uniform derangement of each size."""
    return samplers._cycles_without_fixed_points(np.asarray(sizes), n, F(1), rng)


class TestCoreSizeSampler:
    def test_n2_degenerate(self):
        hist = toes_core_cycle_counts_batch(2, 20, np.random.default_rng(700))["core_hist"]
        assert hist[2] == hist.sum() == 20

    def test_batch_matches_core_law(self):
        n, reps = 10, 100_000
        hist = toes_core_cycle_counts_batch(n, reps, np.random.default_rng(701))["core_hist"]
        assert hist.sum() == reps
        observed = {r: int(c) for r, c in enumerate(hist) if c}
        expected = {r: p for r, p in enumerate(laws.core_size_law(n, "toes")) if p}
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
        rows, lengths = _derangement_cycles(sizes, 3, np.random.default_rng(800))
        assert sorted(rows.tolist()) == list(range(sizes.size))
        assert (lengths == sizes[rows]).all()

    def test_two_cycle_count_law(self):
        # P(k 2-cycles | derangement of 6), exact vs 10^5 batch draws
        reps = 100_000
        sizes = np.full(reps, 6)
        rows, lengths = _derangement_cycles(sizes, 6, np.random.default_rng(801))
        hist = np.bincount(_dense_counts(rows, lengths, reps, 6)[:, 2])
        assert hist.sum() == reps
        observed = {k: int(c) for k, c in enumerate(hist) if c}
        norm = F(derangement_numbers(6)[6], math.factorial(6))
        expected = {
            k: derangement_two_cycle_pmf(6, k) / norm for k in range(0, 4)
        }
        assert chi_square_pvalue(observed, expected, reps) > 1e-4

    def test_batch_cycle_totals(self):
        # per row, whatever the mix of sizes: sum_j j*c_j = r and no 1-cycles
        sizes = np.repeat([2, 5, 9, 3], 200)
        np.random.default_rng(802).shuffle(sizes)
        rows, lengths = _derangement_cycles(sizes, 9, np.random.default_rng(803))
        counts = _dense_counts(rows, lengths, sizes.size, 9)
        assert (counts @ np.arange(10) == sizes).all()
        assert (counts[:, 1] == 0).all()

    def test_cycle_type_matches_exact_law(self):
        # rows of sizes 2..8 drawn together, each size against its exact law
        reps = 40_000
        sizes = np.repeat(np.arange(2, 9), reps)
        np.random.default_rng(804).shuffle(sizes)
        rows, lengths = _derangement_cycles(sizes, 8, np.random.default_rng(805))
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

    def test_cycle_means_of_wide_rows(self):
        # 10**5 derangements of 1000 points: short, middle and longest cycles
        n, reps = 1000, 100_000
        tally = samplers.zero_tally(n, *samplers._CORE_KEYS)
        samplers._tally_pairs(
            tally, "cyc", *_derangement_cycles(np.full(reps, n), n, np.random.default_rng(806)),
            np.ones(reps, dtype=np.int64),
        )
        assert tally["cyc_sum"] @ np.arange(n + 1) == n * reps
        assert tally["cyc_sum"][1] == tally["cyc_sum"][n - 1] == 0
        for j in [*range(2, 12), 500, 998, 1000]:
            exact = float(derangement_mean_cycle_count(n, j))
            mean, se = _mean_and_se(tally, "cyc", j, reps)
            assert abs(mean - exact) <= 5 * max(se, 1e-9), j


class TestCoreJointSampler:
    def test_n2(self):
        tally = toes_core_cycle_counts_batch(2, 1, np.random.default_rng(900))
        assert tally["cyc_sum"].tolist() == tally["core_hist"].tolist() == [0, 0, 1]

    def test_cycle_mean_agreement(self):
        n, reps = 10, 100_000
        tally = toes_core_cycle_counts_batch(n, reps, np.random.default_rng(901))
        assert tally["core_hist"].sum() == reps
        assert tally["cyc_sum"] @ np.arange(n + 1) == tally["core_hist"] @ np.arange(n + 1)
        for j in (2, 3, 10):
            exact = float(laws.mean_cycle_count(n, j, "toes"))
            mean, se = _mean_and_se(tally, "cyc", j, reps)
            assert abs(mean - exact) <= 5 * max(se, 1e-9)


def _pooled(observed, expected, total, least=5):
    """The classes of a chi-square with an expected count below ``least``
    pooled into one, so that rare classes cannot dominate the statistic."""
    rare = {key for key, p in expected.items() if float(p) * total < least}
    pooled = ({key: c for key, c in observed.items() if key not in rare},
              {key: p for key, p in expected.items() if key not in rare})
    if rare:
        pooled[0]["rare"] = sum(observed.get(key, 0) for key in rare)
        pooled[1]["rare"] = sum(expected[key] for key in rare)
    return pooled


def _type_sizes(counts):
    """Each type's size, the cycle lengths summed, from a table's count matrix."""
    return counts @ np.arange(counts.shape[1])


def _core_joint_law(n):
    """The core-joint outcomes, core size r ascending then the derangement
    types in ``laws.partitions(r, 2)`` order, each with its exact probability
    from the core-size law and the derangement cycle-type oracle."""
    return [
        ((r, parts), p_core * derangement_cycle_type_pmf(r, parts))
        for r, p_core in enumerate(laws.core_size_law(n, "toes")) if p_core
        for parts in laws.partitions(r, 2)
    ]


def _rounded_cumulative(probs):
    """Every running sum of exact probabilities, rounded once to float64."""
    return [float(acc) for acc in itertools.accumulate(probs)]


class TestTypeTables:
    """The whole-type tables of the rejection and core-joint routes at
    n <= ``TYPE_TABLE_MAX_N``, against the oracles' laws."""

    def test_proposal_table_is_the_rounded_esf_law(self):
        for n in range(2, samplers.TYPE_TABLE_MAX_N + 1):
            cdf, threshold, pairs = samplers._proposal_type_table(n)
            counts = _dense_counts(*pairs, cdf.size, n)
            types = list(laws.partitions(n, 2))
            law = [esf_pmf(n, F(1, 2), parts) for parts in types]
            p_none = sum(law)
            assert cdf.tolist() == _rounded_cumulative(p / p_none for p in law), n
            assert cdf[-1] == 1.0
            assert counts.tolist() == [list(_class_key_from_sizes(parts, n)) for parts in types]
            w = omega_values(n)
            assert threshold.tolist() == [
                float(p_none) * math.prod(2.0 * w[j] for j in parts) for parts in types
            ], n

    def test_core_table_is_the_rounded_joint_law(self):
        for n in range(2, samplers.TYPE_TABLE_MAX_N + 1):
            cdf, pairs = samplers._core_type_table(n)
            counts = _dense_counts(*pairs, cdf.size, n)
            outcomes, law = zip(*_core_joint_law(n))
            assert cdf.tolist() == _rounded_cumulative(law), n
            assert cdf[-1] == 1.0
            assert counts.tolist() == [list(_class_key_from_sizes(parts, n)) for _, parts in outcomes]

    @pytest.mark.parametrize("table, n, digest", [
        ("proposal", 10, "2b1e96443bdfc80d63ebf4dd5e323ba31cade7f20204100cb9f99e288e084fe8"),
        ("proposal", samplers.TYPE_TABLE_MAX_N, "7d91adf82746a0737a694dc38b26dd37e54d93c3d9ce89928fadaf59ded36a07"),
        ("core", 10, "a88892d8f4ab12fc5ffaa1e530aad6646bfeb2301a6247b850152e2135a1945a"),
        ("core", samplers.TYPE_TABLE_MAX_N, "2c3ff829df86d696090b91307bd70b79329615ea60db272be3cd67bf8d76c046"),
    ])
    def test_table_bits_are_pinned(self, table, n, digest):
        # the draws of both routes depend on these bits: the proposal CDF and
        # acceptance thresholds, and the core-joint CDF
        if table == "proposal":
            bits = np.concatenate(samplers._proposal_type_table(n)[:2])
        else:
            bits = samplers._core_type_table(n)[0]
        assert hashlib.sha256(bits.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n", [2, 5, 10, samplers.TYPE_TABLE_MAX_N])
    def test_core_sizes_are_the_core_size_cdfs(self, n, monkeypatch):
        # a double gives the same core size through the joint table as through
        # the core-size CDF of the cycle-at-a-time path: on random doubles, on
        # every entry of that CDF and on the double just below each
        core_cdf = samplers._core_size_cdf(n)
        u = np.concatenate([
            np.random.default_rng(n).random(50_000), core_cdf, np.nextafter(core_cdf, 0), [0.0]
        ])
        u = u[u < 1]
        cdf, pairs = samplers._core_type_table(n)
        sizes = _type_sizes(_dense_counts(*pairs, cdf.size, n))
        joint = sizes[np.searchsorted(cdf, u, side="right")]
        assert np.array_equal(joint, 2 + np.searchsorted(core_cdf, u, side="right"))
        # and so the kernel's core sizes are the same by either path
        table = toes_core_cycle_counts_batch(n, 20_000, np.random.default_rng(7))
        monkeypatch.setattr(samplers, "TYPE_TABLE_MAX_N", 1)
        steps = toes_core_cycle_counts_batch(n, 20_000, np.random.default_rng(7))
        assert np.array_equal(table["core_hist"], steps["core_hist"])

    def test_core_joint_types_match_the_joint_law(self):
        n, reps = 10, 200_000
        hist = _core_types(n, reps, np.random.default_rng(1600))
        assert hist.sum() == reps
        law = dict(enumerate(p for _, p in _core_joint_law(n)))
        observed = {t: int(c) for t, c in enumerate(hist) if c}
        assert chi_square_pvalue(*_pooled(observed, law, reps), reps) > 1e-4

    def test_accepted_types_match_the_component_law(self):
        n, reps = 10, 200_000
        hist, attempts = _accepted_types(n, reps, np.random.default_rng(1601))
        assert hist.sum() == reps and attempts > reps
        law = {t: laws.component_pmf(n, parts) for t, parts in enumerate(laws.partitions(n, 2))}
        observed = {t: int(c) for t, c in enumerate(hist) if c}
        assert chi_square_pvalue(*_pooled(observed, law, reps), reps) > 1e-4

    @pytest.mark.parametrize("chunk", [samplers.ROW_CHUNK, 1000, 64])
    def test_draw_order(self, chunk, monkeypatch):
        # whatever the chunks the doubles are drawn in: in the core-joint
        # route double i is replicate i's, whole type or core size, so the
        # table path's tally is the fold of every double's type at once, and
        # the table and the step kernel give the same core sizes on every bit
        # generator; in the rejection route proposal i's U is double i, and
        # the live proposals' types come from one child generator, so that
        # at n <= TYPE_TABLE_MAX_N the whole tally does not depend on the
        # chunk size
        n, reps, seed = 10, 3000, 1602
        want = samplers.zero_tally(n, *samplers._CORE_KEYS)
        samplers._tally_pairs(want, "cyc", *samplers._core_type_table(n)[1],
                              _core_types(n, reps, np.random.default_rng(seed)))
        monkeypatch.setattr(samplers, "ROW_CHUNK", chunk)
        got = toes_core_cycle_counts_batch(n, reps, np.random.default_rng(seed))
        assert sorted(got) == sorted(["replicates", *want])
        for key, value in want.items():
            assert np.array_equal(got[key], value), key
        for bit_generator in (np.random.PCG64, np.random.MT19937, np.random.SFC64, np.random.Philox):
            table = toes_core_cycle_counts_batch(n, reps, np.random.Generator(bit_generator(seed)))
            with monkeypatch.context() as patch:
                patch.setattr(samplers, "TYPE_TABLE_MAX_N", 1)
                steps = toes_core_cycle_counts_batch(n, reps, np.random.Generator(bit_generator(seed)))
            assert np.array_equal(table["core_hist"], steps["core_hist"]), bit_generator
        for n, by in ((10, _DEFAULT_ROW_CHUNK), (samplers.TYPE_TABLE_MAX_N, _DEFAULT_ROW_CHUNK),
                      (samplers.TYPE_TABLE_MAX_N + 1, chunk)):
            want = _rejection_reference(n, reps, seed, by)
            got = toes_component_counts_batch(n, reps, np.random.default_rng(seed))
            assert sorted(got) == sorted(want)
            for key, value in want.items():
                assert np.array_equal(got[key], value), (n, key)

    def test_kernel_tallies_fold_the_types(self):
        # each kernel's tally is that of the per-replicate count matrix of
        # the types its histogram holds
        n, reps, seed = 10, 5000, 1603
        routes = (
            (toes_core_cycle_counts_batch, "cyc", samplers._core_type_table(n),
             _core_types(n, reps, np.random.default_rng(seed))),
            (toes_component_counts_batch, "comp", samplers._proposal_type_table(n),
             _accepted_types(n, reps, np.random.default_rng(seed))[0]),
        )
        for kernel, name, table, hist in routes:
            counts = _dense_counts(*table[-1], table[0].size, n)
            tally = kernel(n, reps, np.random.default_rng(seed))
            per_row = np.repeat(counts, hist, axis=0)
            want = _matrix_tally(per_row, name)
            if name == "cyc":
                want["scream_hist"] = np.bincount(per_row[:, 2], minlength=n // 2 + 1)
                want["core_hist"] = np.bincount(_type_sizes(per_row), minlength=n + 1)
            assert sorted(tally) == sorted(["replicates", *want] + (["attempts"] if name == "comp" else []))
            for key, value in want.items():
                assert np.array_equal(tally[key], value), (name, key)

    def test_masses_that_miss_their_total_are_refused(self, monkeypatch):
        with pytest.raises(laws.ConsistencyError, match="masses"):
            samplers._cumulative_table(10, {2: 3, 3: 6}, lambda r: ([r], [1]))
        # and so both core tables, whose masses are the core-size counts
        masses = samplers._core_masses
        monkeypatch.setattr(samplers, "_core_masses", lambda n: {**masses(n), n: masses(n)[n] - 1})
        for table in (samplers._core_size_cdf, samplers._core_type_table):
            with pytest.raises(laws.ConsistencyError, match="masses"):
                table.__wrapped__(10)

    def test_weights_that_miss_their_total_are_refused(self, monkeypatch):
        sums = samplers._no_fixed_point_sums

        def one_short(m, theta):
            *head, (acc, scale) = sums(m, theta)
            return [*head, (acc + 1, scale)]

        monkeypatch.setattr(samplers, "_no_fixed_point_sums", one_short)
        with pytest.raises(laws.ConsistencyError, match="weights"):
            samplers._cycle_types(10, F(1, 2))

    @pytest.mark.parametrize("table, name", [
        (samplers._core_type_table, "cyc"), (samplers._proposal_type_table, "comp"),
    ])
    def test_weighted_fold_is_exact_past_float64(self, table, name):
        # every type weighted 2**53 + 1, which float64 rounds to 2**53: each
        # key equals the Python-int sums over the types, and a float64 fold
        # of the same weights would not
        n, weight = 10, 2**53 + 1
        types = list(laws.partitions(n, 2)) if name == "comp" else [
            parts for r in range(2, n + 1) for parts in laws.partitions(r, 2)
        ]
        pairs = table(n)[-1]
        keys = samplers._CORE_KEYS if name == "cyc" else ("comp_sum", "comp_sumsq")
        tally = samplers.zero_tally(n, *keys)
        samplers._tally_pairs(tally, name, *pairs, np.full(len(types), weight, dtype=np.int64))
        want = {key: [0] * value.size for key, value in tally.items()}
        for parts in types:
            for j, c in Counter(parts).items():
                want[name + "_sum"][j] += weight * c
                want[name + "_sumsq"][j] += weight * c * c
            if name == "cyc":
                want["scream_hist"][parts.count(2)] += weight
                want["core_hist"][sum(parts)] += weight
        for key, value in tally.items():
            assert value.dtype == np.int64 and value.tolist() == want[key], key
        rounded = np.bincount(pairs[1], weights=np.full(pairs[0].size, float(weight)))
        assert rounded.tolist() != want[name + "_sum"][: rounded.size]

    def test_core_hist_is_the_rows_cycle_lengths_summed(self):
        # the cycle fold's core sizes: of direct rows (weight 1) against the
        # decomposition's core, and of type rows (random weights) against
        # the sizes of the table's types
        n = 9
        images = sample_mappings_batch(n, 2000, np.random.default_rng(1604))
        tally = samplers.zero_tally(n, *samplers._CORE_KEYS)
        dec = samplers._tally_mappings(tally, images)
        sizes = np.bincount(dec.core // n, minlength=len(images))
        assert np.array_equal(tally["core_hist"], np.bincount(sizes, minlength=n + 1))
        cdf, pairs = samplers._core_type_table(n)
        weight = np.random.default_rng(1605).integers(0, 1000, cdf.size)
        tally = samplers.zero_tally(n, *samplers._CORE_KEYS)
        samplers._tally_pairs(tally, "cyc", *pairs, weight)
        sizes = _type_sizes(_dense_counts(*pairs, cdf.size, n))
        assert (sizes == [r for r in range(2, n + 1) for _ in laws.partitions(r, 2)]).all()
        assert np.array_equal(tally["core_hist"], np.bincount(sizes, weights=weight, minlength=n + 1))


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
        got = harness._simulate_batch(("direct", n, seed, reps, samplers._MAPPING_KEYS))
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

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 1000])
    def test_direct_route_without_components(self, n):
        # a batch that reads no component key labels no component, and its
        # core tallies are the full batch's, from the same draws
        full = samplers.toes_mapping_counts_batch(n, 500, np.random.default_rng(n))
        core = samplers.toes_mapping_counts_batch(
            n, 500, np.random.default_rng(n), ("cyc_sum", "scream_hist")
        )
        assert sorted(full) == sorted(("replicates", *samplers._MAPPING_KEYS))
        assert sorted(core) == sorted(("replicates", *samplers._CORE_KEYS))
        for key, value in core.items():
            assert np.array_equal(value, full[key]), key

    def test_core_joint_route_n10(self, monkeypatch):
        # the cycle-at-a-time path, below the type tables' bound too
        monkeypatch.setattr(samplers, "TYPE_TABLE_MAX_N", 1)
        n, reps, seed, block = 10, 3000, 4343, 700
        rng = np.random.default_rng(seed)
        want = _core_joint_reference(n, reps, rng, block)
        monkeypatch.setattr(samplers, "ROW_CHUNK", block)
        kernel_rng = np.random.default_rng(seed)
        got = toes_core_cycle_counts_batch(n, reps, kernel_rng)
        assert sorted(got) == sorted(want)
        for key, value in want.items():
            assert np.array_equal(got[key], value), key
        # and the caller's generator ends where those draws leave it
        assert kernel_rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("model", ["toes", "standard"])
    def test_oracle_block_size(self, model, monkeypatch):
        # the brute-force oracle decomposes its mappings in blocks of
        # chunk_rows(n) in one set of working arrays: blocks of 7 rows, with
        # edges anywhere in the enumeration and a shorter last block, give
        # the default blocks' tally and spectra, so nothing leaks across a
        # block edge or through the reused arrays
        for n in range(2, 7):
            want, want_spectra = samplers.every_mapping_counts(n, model)
            with monkeypatch.context() as patch:
                patch.setattr(samplers, "CHUNK_CELLS", 7 * n)
                assert samplers.chunk_rows(n) == 7
                got, spectra = samplers.every_mapping_counts(n, model)
            assert spectra == want_spectra, n
            assert sorted(got) == sorted(want)
            for key, value in want.items():
                assert np.array_equal(got[key], value), (n, key)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64, np.random.Philox])
    def test_core_joint_route_block_size(self, monkeypatch, bit_generator):
        # whatever the block size, on generators with no jump-ahead too, the
        # kernel draws core size i from double i and the derangements from
        # one child generator: its core sizes do not depend on the blocks,
        # and its tally is the reference's for the same blocks; the
        # cycle-at-a-time path, below the type tables' bound too
        monkeypatch.setattr(samplers, "TYPE_TABLE_MAX_N", 1)
        core_hists = []
        for block in (samplers.ROW_CHUNK, 700, 64):
            monkeypatch.setattr(samplers, "ROW_CHUNK", block)
            rng = np.random.Generator(bit_generator(4646))
            want = _core_joint_reference(10, 3000, rng, block)
            kernel_rng = np.random.Generator(bit_generator(4646))
            got = toes_core_cycle_counts_batch(10, 3000, kernel_rng)
            assert sorted(got) == sorted(want)
            for key, value in want.items():
                assert np.array_equal(got[key], value), (block, key)
            assert kernel_rng.random() == rng.random()
            core_hists.append(got["core_hist"])
        assert all(np.array_equal(hist, core_hists[0]) for hist in core_hists)


def _core_joint_reference(n, reps, rng, block):
    """The core-joint route's tally from its draws in their order: core
    size i by inverse CDF from double i of ``rng``, then the derangements in
    blocks of ``block`` rows from one child of ``rng``, tallied as a full
    per-row cycle-count matrix."""
    sizes = 2 + np.searchsorted(samplers._core_size_cdf(n), rng.random(reps), side="right")
    derangements = rng.spawn(1)[0]
    cyc = np.zeros((reps, n + 1), dtype=np.int64)
    for lo in range(0, reps, block):
        rows, lengths = _derangement_cycles(sizes[lo:lo + block], n, derangements)
        cyc[lo:lo + block] = _dense_counts(rows, lengths, sizes[lo:lo + block].size, n)
    assert (cyc @ np.arange(n + 1) == sizes).all()
    assert (cyc[:, 1] == 0).all()
    return {
        "replicates": reps,
        **_matrix_tally(cyc, "cyc"),
        "scream_hist": np.bincount(cyc[:, 2], minlength=n // 2 + 1),
        "core_hist": np.bincount(sizes, minlength=n + 1),
    }


#: ``samplers.ROW_CHUNK`` as the package sets it, which tests patch.
_DEFAULT_ROW_CHUNK = samplers.ROW_CHUNK


def _rejection_reference(n, reps, seed, chunk):
    """The rejection route's tally from its draws in their order: proposal
    i's U is double i of the batch generator; the live proposals, U below
    P(a_1 = 0), of each chunk of ``chunk`` take their types from one child
    of it, whole from the proposal table at n <= TYPE_TABLE_MAX_N, one
    double each, or else one cycle at a time; U below the type's threshold
    accepts, and acceptances are taken in proposal order."""
    rng = np.random.default_rng(seed)
    types = rng.spawn(1)[0]
    p_none = samplers._no_fixed_point_table(n, F(1, 2))[1]
    w = omega_values(n)
    tally = samplers.zero_tally(n, "comp_sum", "comp_sumsq")
    have = done = 0
    while have < reps:
        u = rng.random(chunk)
        live = np.flatnonzero(u < p_none)
        if n <= samplers.TYPE_TABLE_MAX_N:
            cdf, threshold, pairs = samplers._proposal_type_table(n)
            kind = np.searchsorted(cdf, types.random(live.size), side="right")
            counts, threshold = _dense_counts(*pairs, cdf.size, n)[kind], threshold[kind]
        else:
            pairs = samplers._cycles_without_fixed_points(np.full(live.size, n), n, F(1, 2), types)
            counts = _dense_counts(*pairs, live.size, n)
            threshold = p_none * np.prod((2 * w) ** counts, axis=1)
        took = np.flatnonzero(u[live] < threshold)[: reps - have]
        for key, value in _matrix_tally(counts[took], "comp").items():
            tally[key] += value
        have += took.size
        attempts = done + int(live[took[-1]]) + 1 if have == reps else None
        done += chunk
    return {"replicates": reps, "attempts": attempts, **tally}


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """Peak traced memory of one batch at n = 1000, and the core-joint
    batch's growth with its size at n = 10.  Full per-row (B, n+1) int64
    matrices would need 160 MB (core-joint, 20 000 rows) and about 360 MB
    (direct, 5 000 rows) here; dense ESF proposals took about 1.6 GB for
    20 000 accepted components, and core sizes drawn all at once took 16
    bytes a replicate."""

    def test_core_joint_batch(self):
        samplers._core_size_cdf(1000)  # the cached exact CDF is set-up, not batch memory
        peak = _traced_peak_mb(toes_core_cycle_counts_batch, 1000, 20_000, np.random.default_rng(950))
        assert peak < 16
        # flat in the batch size: 30 more blocks of core sizes held at once
        # would add 7.5 MB
        samplers._core_size_cdf(10)
        small, large = (
            _traced_peak_mb(toes_core_cycle_counts_batch, 10, blocks * samplers.ROW_CHUNK,
                            np.random.default_rng(953))
            for blocks in (2, 32)
        )
        assert large - small < 1

    def test_rejection_batch(self):
        omega_values(1000)  # cached, like the CDF above
        peak = _traced_peak_mb(toes_component_counts_batch, 1000, 20_000, np.random.default_rng(952))
        assert peak < 16

    def test_direct_batch(self):
        # one chunk of 2**17 cells, its scratch arrays and the second
        # stage's arrays the size of the image of f**16 trace 4.8-5.5 MB,
        # whatever the batch size (4.4-6.2 MB with one stage, 6.2 MB when the
        # call was the process's first and also filled caches); the bound is
        # 60 % above that.  Chunks of 2**21 cells took 74 MB.
        peak = _traced_peak_mb(
            harness._simulate_batch, ("direct", 1000, 951, 5_000, samplers._MAPPING_KEYS)
        )
        assert peak < 10

    def test_brute_force_oracle(self):
        # blocks of chunk_rows(7) mappings in one set of working arrays
        # trace 7-9 MB; all 7**7 at once would take well over 100 MB
        assert _traced_peak_mb(harness.brute_force_law, 7, "standard") < 30


class TestDirectRegression:
    """Empirical law of the full decomposition vs exhaustive enumeration."""

    @staticmethod
    def joint_law(n):
        """The exact law of a toes mapping's (component counts, cycle
        counts), by the scalar walk over every one of the (n-1)**n
        mappings, independently of decompose_batch."""
        counts = Counter()
        for image in itertools.product(range(n), repeat=n):
            if all(v != i for i, v in enumerate(image)):
                comps, cycles, _ = decompose_image(image)
                counts[_class_key_from_sizes(comps, n) + _class_key_from_sizes(cycles, n)] += 1
        assert sum(counts.values()) == (n - 1) ** n
        return {key: F(c, (n - 1) ** n) for key, c in counts.items()}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_chi_square_against_enumeration(self, n):
        reps = 1_000_000
        expected = self.joint_law(n)
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
        dec = decompose_batch(sample_mappings_batch(n, 1, np.random.default_rng(1500)))
        assert dec.components[1].sum() == n
        assert dec.cycles[1].sum() == dec.core.size >= 2


class TestRouteAgreement:
    def test_rejection_and_direct_component_means(self):
        n, reps = 8, 120_000
        rej = toes_component_counts_batch(n, reps, np.random.default_rng(1100))
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


@pytest.mark.parametrize("kernel", [
    samplers.toes_mapping_counts_batch,
    samplers.toes_component_counts_batch,
    samplers.toes_core_cycle_counts_batch,
])
def test_route_kernels_reject_negative_counts(kernel):
    with pytest.raises(ValueError, match="count"):
        kernel(10, -3, np.random.default_rng(0))


@pytest.mark.parametrize("kernel", [
    samplers.toes_mapping_counts_batch,
    samplers.toes_component_counts_batch,
    samplers.toes_core_cycle_counts_batch,
])
@pytest.mark.parametrize("n", [-1, 0, 1])
@pytest.mark.parametrize("count", [0, 5])
def test_route_kernels_refuse_n_below_2_alike(kernel, n, count):
    # one message from every kernel, before any work: not numpy's negative
    # dimensions, a division by zero or a law's own message
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^need n >= 2$"):
        kernel(n, count, rng)
    assert rng.bit_generator.state == state


class TestBatchDeterminism:
    @pytest.mark.parametrize("kernel, n, children", [
        (toes_component_counts_batch, 10, 1),
        (toes_component_counts_batch, samplers.TYPE_TABLE_MAX_N + 1, 1),
        (toes_core_cycle_counts_batch, 10, 0),
        (toes_core_cycle_counts_batch, samplers.TYPE_TABLE_MAX_N + 1, 1),
        (samplers.toes_mapping_counts_batch, 10, 0),
    ], ids=["rejection-10", "rejection-21", "core-joint-10", "core-joint-21", "direct-10"])
    def test_each_call_spawns_the_next_child(self, kernel, n, children):
        # a route that draws beyond double i per replicate takes one child
        # per call, the next one of its generator's SeedSequence, so that two
        # calls on one generator never share a child stream; the core-joint
        # table path and the direct route spawn none
        rng = np.random.default_rng(1210)
        for calls in (1, 2):
            kernel(n, 50, rng)
            assert rng.bit_generator.seed_seq.n_children_spawned == children * calls

    def test_same_seed_same_tallies(self):
        a = toes_component_counts_batch(7, 5000, np.random.default_rng(1200))
        b = toes_component_counts_batch(7, 5000, np.random.default_rng(1200))
        assert sorted(a) == sorted(b) == ["attempts", "comp_sum", "comp_sumsq", "replicates"]
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_scalar_streams_reproduce(self):
        # one replicate of the core-joint route
        a = toes_core_cycle_counts_batch(6, 1, np.random.default_rng(1300))
        b = toes_core_cycle_counts_batch(6, 1, np.random.default_rng(1300))
        assert sorted(a) == sorted(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), key

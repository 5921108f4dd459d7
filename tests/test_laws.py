"""Tests of the closed-form laws: fixed small values, identities between
independent formulas, normalisation, and enumeration-derived oracles."""

import hashlib
import itertools
import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import poisson_cdf
from screamingtoes import exact, laws, samplers
from screamingtoes.exact import derangement_numbers, format_fixed


class TestLambdas:
    # e**j lambda_j, the rational part of each intensity
    def test_standard(self):
        assert laws._scaled_intensity(1, "standard") == 1
        assert laws._scaled_intensity(2, "standard") == F(3, 2)
        assert laws._scaled_intensity(3, "standard") == F(17, 6)

    def test_toes(self):
        assert laws._scaled_intensity(2, "toes") == F(1, 2)
        assert laws._scaled_intensity(3, "toes") == F(4, 3)
        # (1 + 4 + 8)/4, cross-checked against the component count below
        assert laws._scaled_intensity(4, "toes") == F(13, 4)

    def test_toes_matches_component_counts(self):
        # e**j lambda~_j = (count of single components of size j) / j!
        for j in range(2, 13):
            m = laws._connected_count(j, "toes")
            assert laws._scaled_intensity(j, "toes") * math.factorial(j) == m


class TestSingleComponent:
    def test_trivial_cases(self):
        assert laws.single_component_prob(2, "toes") == 1
        assert laws.single_component_prob(1, "standard") == 1

    def test_n3_all_mappings_are_single(self):
        # all 8 mappings on 3 points with f(i) != i are one component
        assert laws.single_component_prob(3, "toes") == 1

    def test_sqrt_n_decay(self):
        # sqrt(n) * s~_n approaches e*sqrt(pi/2) = 3.4069... from below;
        # the first-order deficit is (8/3)/sqrt(2*pi*n), ~3.3% at n=1000
        limit = float(mpmath.e * mpmath.sqrt(mpmath.pi / 2))
        at_1000 = float(laws.single_component_prob(1000, "toes")) * math.sqrt(1000)
        at_4000 = float(laws.single_component_prob(4000, "toes")) * math.sqrt(4000)
        assert at_1000 < at_4000 < limit
        assert abs(at_1000 - limit) / limit < 0.04
        assert abs(at_4000 - limit) / limit < 0.02


class TestComponentPmf:
    def test_standard_n1(self):
        assert laws.component_pmf(1, (1,), "standard") == 1

    def test_toes_n4(self):
        # enumerate the 81 mappings on 4 points with f(i) != i
        two_two = 0
        total = 0
        for image in itertools.product(*[[j for j in range(4) if j != i] for i in range(4)]):
            total += 1
            # a mapping splits into two 2-components iff it is a product of
            # two transpositions: f(f(i)) == i for all i
            if all(image[image[i]] == i for i in range(4)):
                two_two += 1
        assert total == 81
        p22 = laws.component_pmf(4, (2, 2), "toes")
        assert p22 == F(two_two, 81)
        assert laws.component_pmf(4, (4,), "toes") == 1 - p22

    def test_off_support_is_zero(self):
        # sizes that sum to another n are no spectrum of this n: an error,
        # not a zero
        for n, sizes in [(6, (2, 2)), (5, (2, 2)), (3, (2, 2)), (4, ())]:
            with pytest.raises(ValueError, match="sum to n"):
                laws.component_pmf(n, sizes, "toes")

    def test_toes_rejects_singletons(self):
        with pytest.raises(ValueError, match="size-1"):
            laws.component_pmf(3, (1, 2), "toes")
        # the standard model has them
        assert laws.component_pmf(3, (1, 2), "standard") > 0

    def test_rejects_sizes_below_one(self):
        for model in ("toes", "standard"):
            for sizes in [(0, 3), (0, 0, 3), (-1, 4), (-2, 2, 3)]:
                with pytest.raises(ValueError, match="positive"):
                    laws.component_pmf(3, sizes, model)

    @pytest.mark.parametrize("model", ["toes", "standard"])
    def test_any_order_of_the_sizes_gives_the_same_value(self, model):
        # every order of every spectrum for n = 2..7, as a tuple, a list or
        # a generator, gives the table's value under its ascending key
        for n in range(2, 8):
            for key, p in laws.component_pmf_table(n, model).items():
                for order in set(itertools.permutations(key)):
                    assert laws.component_pmf(n, order, model) == p
                    assert laws.component_pmf(n, list(order), model) == p
                    assert laws.component_pmf(n, iter(order), model) == p

    @pytest.mark.parametrize("n", range(2, 13))
    def test_toes_normalisation(self, n):
        table = laws.component_pmf_table(n, "toes")  # builder checks the sum
        assert sum(table.values()) == 1

    @pytest.mark.parametrize("n", range(1, 10))
    def test_standard_normalisation(self, n):
        laws.component_pmf_table(n, "standard")


@pytest.fixture
def fresh_component_caches():
    """Clear both caches behind the component means, the per-n tables and
    the per-size checked T_j, before a test that patches what they are
    built from (an entry built earlier would hide the patch) and after it
    (an entry built under the patch would outlive it)."""

    def clear():
        laws.component_means.cache_clear()
        laws._checked_connected_count.cache_clear()

    clear()
    yield
    clear()


class TestComponentMeans:
    def test_reference_values(self):
        assert format_fixed(laws.mean_component_count(10, 2, "toes")) == "0.0744"
        assert laws.mean_component_count(10, 9, "toes") == 0
        assert format_fixed(laws.mean_component_count(10, 10, "toes")) == "0.7629"
        assert format_fixed(laws.mean_component_count(10, 1, "standard")) == "0.3874"

    def test_toes_rejects_j1(self):
        with pytest.raises(ValueError):
            laws.mean_component_count(10, 1, "toes")

    def test_sum_equals_expected_count(self):
        for n in (2, 5, 10, 17):
            total = sum(laws.mean_component_count(n, j, "toes") for j in range(2, n + 1))
            assert total == laws.expected_num_components(n, "toes")

    def test_both_cjmean_forms_available(self):
        # mean_component_count itself cross-checks its two algebraic forms;
        # sweep a grid so any disagreement trips the ConsistencyError
        for n in range(2, 26):
            for j in range(2, n + 1):
                laws.mean_component_count(n, j, "toes")
            for j in range(1, n + 1):
                laws.mean_component_count(n, j, "standard")

    @pytest.mark.parametrize("model", ["toes", "standard"])
    def test_forms_are_independent(self, model, monkeypatch, fresh_component_caches):
        # a Poisson partial sum off by one term moves the intensity form
        # only: the count form's T_j never calls it
        exact_sum = laws.poisson_partial_sum
        monkeypatch.setattr(laws, "poisson_partial_sum", lambda rate, k: exact_sum(rate, k - 1))
        with pytest.raises(laws.ConsistencyError, match="forms disagree"):
            laws.mean_component_count(10, 4, model)

    @pytest.mark.parametrize("model", ["toes", "standard"])
    def test_sum_rule_checks_the_shared_factor(self, model, monkeypatch, fresh_component_caches):
        # both forms multiply by the mappings outside the j-set, so shifting
        # that count at one j leaves them agreeing; only the sum rule
        # sum_j j C(n,j) T_j (b-j)**(n-j) = n b**n sees it
        outside = laws._mappings_outside
        monkeypatch.setattr(
            laws, "_mappings_outside", lambda n, m, model: outside(n, m, model) + (m == 4)
        )
        with pytest.raises(laws.ConsistencyError, match="cover every point"):
            laws.mean_component_count(10, 4, model)

    @pytest.mark.parametrize("model", ["toes", "standard"])
    def test_identity_checks_each_connected_count(self, model, monkeypatch, fresh_component_caches):
        # the count form reads T_j, the intensity form j! e**j lambda_j: one
        # T_j moved by 1 is caught at its own size, before the sum rule
        connected = laws._connected_count
        monkeypatch.setattr(
            laws, "_connected_count", lambda size, model: connected(size, model) + (size == 4)
        )
        with pytest.raises(laws.ConsistencyError, match="forms disagree at j=4"):
            laws.mean_component_count(10, 4, model)

    @pytest.mark.parametrize("model", ["toes", "standard"])
    def test_each_connected_count_is_checked_once(self, model, monkeypatch, fresh_component_caches):
        # T_j and its identity do not depend on n: a table at n = 12 after
        # one at n = 11 counts and checks T_12 alone, and the sum rule still
        # runs at each n
        sizes = []
        connected = laws._connected_count
        monkeypatch.setattr(
            laws, "_connected_count", lambda size, model: sizes.append(size) or connected(size, model)
        )
        laws.mean_component_count(11, 2, model)
        first = sizes[:]
        laws.mean_component_count(12, 2, model)
        assert first == list(range(laws._shortest_cycle(model), 12))
        assert sizes[len(first):] == [12]

    def test_one_table_build_per_n_and_model(self):
        laws.component_means.cache_clear()
        for j in range(2, 13):
            laws.mean_component_count(12, j, "toes")
        assert laws.component_means.cache_info().misses == 1


class TestFactorialMoments:
    def test_first_moment_is_mean(self):
        assert laws.factorial_moment(10, {2: 1}) == laws.mean_component_count(10, 2, "toes")

    def test_empty_support(self):
        assert laws.factorial_moment(4, {2: 1, 3: 1}) == 0  # 2+3 > 4

    def test_pair_grid_matches_product_form(self):
        for n in (6, 10, 13):
            for i in range(2, n + 1):
                for j in range(i, n + 1):
                    orders = {i: 2} if i == j else {i: 1, j: 1}
                    assert laws.factorial_moment(n, orders) == oracles.component_pair_moment(n, i, j)

    def test_routes_are_independent(self, monkeypatch):
        # the product form counts components in integers, so a Poisson
        # partial sum off by one term moves factorial_moment alone
        exact_sum = laws.poisson_partial_sum
        monkeypatch.setattr(laws, "poisson_partial_sum", lambda rate, k: exact_sum(rate, k - 1))
        assert laws.factorial_moment(10, {2: 1, 3: 1}) != oracles.component_pair_moment(10, 2, 3)

    def test_cross_moment_value(self):
        # frozen from both independent routes
        value = laws.factorial_moment(10, {2: 1, 3: 1})
        assert value == F(2, 3) * F(math.perm(10, 5) * 4**5, 9**10)
        assert format_fixed(value, 6) == "0.005921"

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            laws.factorial_moment(10, {1: 1})
        with pytest.raises(ValueError):
            laws.factorial_moment(10, {2: -1})


class TestExpectedComponents:
    def test_reference(self):
        assert format_fixed(laws.expected_num_components(10, "toes"), 3) == "1.251"
        assert format_fixed(laws.expected_num_components(10, "standard"), 3) == "1.913"
        assert laws.expected_num_components(2, "toes") == 1

    def test_both_routes_agree_up_to_50(self):
        for n in range(2, 51):
            laws.expected_num_components(n, "toes")  # raises on disagreement


class TestCoreSize:
    def test_reference_values(self):
        assert format_fixed(laws.core_size_pmf(10, 2, "toes")) == "0.2581"
        assert laws.core_size_pmf(2, 2, "toes") == 1
        assert format_fixed(laws.core_size_pmf(10, 4, "standard")) == "0.2016"

    @pytest.mark.parametrize("model", ["standard", "toes"])
    @pytest.mark.parametrize("n", [2, 3, 7, 12, 25])
    def test_normalisation(self, n, model):
        laws.core_size_law(n, model)  # builder raises if the sum is off

    def test_tail(self):
        assert oracles.core_size_tail_std(7, 1) == 1
        assert oracles.core_size_tail_std(10, 2) == F(9, 10)
        assert oracles.core_size_tail_std(10, 5) == F(3024, 10**4)

    def test_tail_equals_summed_pmf(self):
        for n in (2, 5, 10, 37, 60):
            for j in range(1, n + 1):
                total = sum(laws.core_size_pmf(n, r, "standard") for r in range(j, n + 1))
                assert oracles.core_size_tail_std(n, j) == total


def _core_law_per_r(n, model):
    """The per-r closed forms the law was first written with."""
    law = {}
    fal = 1
    scale = F(n, n - 1) ** n
    derangements = derangement_numbers(n)
    for r in range(1, n + 1):
        fal *= n - r + 1  # n_[r]
        if model == "standard":
            law[r] = F(r, n) * F(fal, n**r)
        elif r >= 2:
            law[r] = scale * F(r, n) * F(fal, n**r) * F(derangements[r], math.factorial(r))
    return law


def _dense(law, n):
    """A law keyed by size as the tuple over sizes 0..n, 0 where it has no key."""
    return tuple(law.get(i, 0) for i in range(n + 1))


def _cycle_means_per_j(n, model):
    base = n - 1 if model == "toes" else n
    means = {}
    fal = 1
    for j in range(1, n + 1):
        fal *= n - j + 1
        if model == "standard" or j >= 2:
            means[j] = F(fal, j * base**j)
    return means


class TestIntegerCounts:
    @pytest.mark.parametrize("model", ["standard", "toes"])
    def test_equal_to_the_per_r_formulas(self, model):
        for n in [*range(2, 61), 200, 1000]:
            base = n - 1 if model == "toes" else n
            counts = laws.core_size_counts(n, model)
            assert len(counts) == n + 1 and sum(counts) == base**n
            law = _core_law_per_r(n, model)
            assert {r: F(counts[r], base**n) for r in law} == law, n
            assert laws.core_size_law(n, model) == _dense(law, n), n
            assert laws.cycle_means(n, model) == _dense(_cycle_means_per_j(n, model), n), n

    def test_pmf_and_means_read_the_same_values(self):
        for model in ("standard", "toes"):
            lo = 1 if model == "standard" else 2
            law = _core_law_per_r(12, model)
            means = _cycle_means_per_j(12, model)
            for r in range(lo, 13):
                assert laws.core_size_pmf(12, r, model) == law[r]
                assert laws.mean_cycle_count(12, r, model) == means[r]

    def test_counts_are_the_enumerated_counts(self):
        for n in (2, 3, 4, 5):
            for model in ("standard", "toes"):
                choices = [[j for j in range(n) if model == "standard" or j != i] for i in range(n)]
                tally = [0] * (n + 1)
                for image in itertools.product(*choices):
                    _, cycles, _ = oracles.decompose_image(image)
                    tally[sum(cycles)] += 1
                assert laws.core_size_counts(n, model) == tuple(tally)


class TestCycleMeans:
    def test_reference_values(self):
        assert laws.mean_cycle_count(10, 2, "toes") == F(5, 9)
        assert laws.mean_cycle_count(2, 2, "toes") == 1
        assert laws.mean_cycle_count(10, 1, "standard") == 1

    def test_derangement_n_minus_j_one(self):
        # choosing cycles that leave exactly one element is impossible
        assert oracles.derangement_mean_cycle_count(5, 4) == 0

    def test_derangement_against_enumeration(self):
        counts = {}
        total = 0
        for p in itertools.permutations(range(6)):
            if any(p[i] == i for i in range(6)):
                continue
            total += 1
            lens = _cycle_lengths(p)
            for ln in lens:
                counts[ln] = counts.get(ln, 0) + 1
        assert total == derangement_numbers(6)[6]
        for j in range(2, 7):
            assert oracles.derangement_mean_cycle_count(6, j) == F(counts.get(j, 0), total)

    def test_domains(self):
        with pytest.raises(ValueError):
            laws.mean_cycle_count(10, 1, "toes")
        with pytest.raises(ValueError):
            oracles.derangement_mean_cycle_count(10, 1)
        with pytest.raises(ValueError):
            laws.mean_cycle_count(10, 11, "standard")

    def test_toes_means_mix_derangement_means(self):
        # given a core of r points, the core is a uniform derangement of them
        for n in range(2, 31):
            core = laws.core_size_law(n, "toes")
            for j in range(2, n + 1):
                mixed = sum(p * oracles.derangement_mean_cycle_count(r, j)
                            for r, p in enumerate(core) if r >= j)
                assert laws.mean_cycle_count(n, j, "toes") == mixed, (n, j)


class TestWholeTableSumRules:
    """Every point lies in exactly one component, and every core point on
    exactly one cycle; so whole mean tables sum to n and to the mean core
    size."""

    @pytest.mark.parametrize("model", ["standard", "toes"])
    def test_components_cover_every_point(self, model):
        lo = 2 if model == "toes" else 1
        for n in [*range(2, 61), 200]:
            total = sum(j * laws.mean_component_count(n, j, model) for j in range(lo, n + 1))
            assert total == n, (n, model)

    @pytest.mark.parametrize("model", ["standard", "toes"])
    def test_cycles_cover_the_core(self, model):
        for n in [*range(2, 61), 1000]:
            cycles = sum(j * mean for j, mean in enumerate(laws.cycle_means(n, model)))
            core = sum(r * p for r, p in enumerate(laws.core_size_law(n, model)))
            assert cycles == core, (n, model)


class TestOneShape:
    """Every per-size law is one tuple indexed from 0, with the exact law at
    every index and 0 where the size cannot occur."""

    @pytest.mark.parametrize("model", ["toes", "standard"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_each_tuple_is_the_enumerated_tally(self, n, model):
        tally = samplers.every_mapping_counts(n, model)[0]
        pairs = [
            (laws.component_means(n, model), "comp_sum"),
            (laws.cycle_means(n, model), "cyc_sum"),
            (laws.core_size_law(n, model), "core_hist"),
        ]
        if model == "toes":
            pairs.append((laws.scream_law(n), "scream_hist"))
        for law, key in pairs:
            assert law == tuple(F(count, tally["replicates"]) for count in tally[key].tolist()), key

    @pytest.mark.parametrize("model", ["toes", "standard"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_each_tuple_sums_to_its_total(self, n, model):
        # components and core cycles are in bijection; the toes entry 1,
        # where no 1-cycle can be, adds nothing
        expected = laws.expected_num_components(n, model)
        assert sum(laws.component_means(n, model)) == sum(laws.cycle_means(n, model)) == expected
        assert sum(laws.core_size_law(n, model)) == 1
        if model == "toes":
            assert sum(laws.scream_law(n)) == 1


def _cycle_lengths(perm):
    seen = [False] * len(perm)
    out = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        ln, x = 0, s
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            ln += 1
        out.append(ln)
    return out


class TestDerangementLaws:
    def test_two_cycle_pmf_examples(self):
        assert oracles.derangement_two_cycle_pmf(2, 1) == F(1, 2)
        assert oracles.derangement_two_cycle_pmf(3, 0) == F(1, 3)

    def test_two_cycle_pmf_against_enumeration(self):
        tally = {}
        for p in itertools.permutations(range(6)):
            if any(p[i] == i for i in range(6)):
                continue
            k = sum(1 for ln in _cycle_lengths(p) if ln == 2)
            tally[k] = tally.get(k, 0) + 1
        for k in range(0, 4):
            assert oracles.derangement_two_cycle_pmf(6, k) == F(tally.get(k, 0), math.factorial(6))

    def test_sums_to_derangement_probability(self):
        for n in range(2, 13):
            total = sum(oracles.derangement_two_cycle_pmf(n, k) for k in range(0, n // 2 + 1))
            assert total == F(derangement_numbers(n)[n], math.factorial(n))

    def test_cycle_type_pmf(self):
        for r in range(2, 11):
            total = sum(
                oracles.derangement_cycle_type_pmf(r, parts) for parts in laws.partitions(r, 2)
            )
            assert total == 1
        tally = {}
        for p in itertools.permutations(range(6)):
            if any(p[i] == i for i in range(6)):
                continue
            key = tuple(sorted(_cycle_lengths(p)))
            tally[key] = tally.get(key, 0) + 1
        for key, count in tally.items():
            assert oracles.derangement_cycle_type_pmf(6, key) == F(count, derangement_numbers(6)[6])


class TestCoreIdentity:
    def test_equal_for_all_small_nm(self):
        for n in range(2, 51):
            for m in range(1, n + 1):
                lhs, rhs = oracles.core_identity_sides(n, m)
                assert lhs == rhs

    def test_hand_values(self):
        lhs, rhs = oracles.core_identity_sides(2, 1)
        assert lhs == rhs == 2
        lhs, rhs = oracles.core_identity_sides(7, 7)
        assert lhs == rhs == F(math.factorial(7), 6**7)


class TestScreamLaws:
    def test_table_values(self):
        expected = ["0.5346", "0.3809", "0.0789", "0.0055", "0.0001", "0.0000"]
        assert [format_fixed(laws.scream_pmf(10, k)) for k in range(6)] == expected
        assert laws.scream_pmf(2, 1) == 1

    def test_pmf_sums_to_one(self):
        for n in range(2, 41):
            assert sum(laws.scream_pmf(n, k) for k in range(0, n // 2 + 1)) == 1

    def test_mean_matches_cycle_mean(self):
        for n in range(2, 41):
            mean = sum(k * laws.scream_pmf(n, k) for k in range(0, n // 2 + 1))
            assert mean == laws.mean_cycle_count(n, 2, "toes")
            assert mean == F(math.perm(n, 2), 2 * (n - 1) ** 2)

    def test_q_values(self):
        assert format_fixed(laws.prob_someone_screams(10)) == "0.4654"
        assert laws.prob_someone_screams(2) == 1
        assert laws.prob_someone_screams(5) == 1 - laws.scream_pmf(5, 0)
        assert format_fixed(1 - laws.prob_someone_screams(5)) == "0.4336"
        # the k >= 1 series share no terms with the k = 0 one that q_n is
        # built from; the table's sum-to-one check ties the two together
        for n in range(2, 41):
            assert laws.prob_someone_screams(n) == sum(
                laws.scream_pmf(n, k) for k in range(1, n // 2 + 1))

    def test_q_equals_the_horner_series(self):
        # n-1 runs over primes, prime powers and powers of two (1024), and
        # 999 = 3**3 37, whose counts carry thousands of factors of 3
        for n in [*range(2, 201), 998, 999, 1000, 1001, 1025, 2048, 10_000]:
            assert laws.prob_someone_screams(n) == 1 - oracles.no_scream_fraction(n), n

    @pytest.mark.parametrize("n", [10, 1000])
    def test_sum_check_sees_one_shifted_count(self, n, monkeypatch):
        laws.scream_law.cache_clear()
        counts = laws._scream_counts
        monkeypatch.setattr(
            laws, "_scream_counts", lambda n: [c + (k == 1) for k, c in enumerate(counts(n))]
        )
        with pytest.raises(laws.ConsistencyError, match="do not sum"):
            laws.scream_pmf(n, 0)

    @pytest.mark.parametrize("n", [10, 1000])
    def test_series_check_sees_a_count_moved_to_k0(self, n, monkeypatch):
        # the counts still sum to (n-1)**(2J); only q_n's own series sees it
        laws.scream_law.cache_clear()
        counts = laws._scream_counts
        monkeypatch.setattr(
            laws, "_scream_counts",
            lambda n: [c + (k == 0) - (k == 1) for k, c in enumerate(counts(n))],
        )
        with pytest.raises(laws.ConsistencyError, match="series disagree"):
            laws.scream_pmf(n, 0)

    def test_table_equals_the_alternating_sums(self):
        for n in [*range(2, 61), 200]:
            for k in range(n // 2 + 1):
                assert laws.scream_pmf(n, k) == oracles.scream_pmf_alternating(n, k), (n, k)

    def test_table_is_the_core_mixture_of_derangement_laws(self):
        # the oracle is P(no fixed point and k 2-cycles) over all r!
        # permutations of the core; r!/D_r conditions it on the derangements
        for n in range(2, 21):
            derangements = derangement_numbers(n)
            for k in range(n // 2 + 1):
                mixture = sum(
                    laws.core_size_pmf(n, r) * oracles.derangement_two_cycle_pmf(r, k)
                    * F(math.factorial(r), derangements[r])
                    for r in range(max(2, 2 * k), n + 1)
                )
                assert laws.scream_pmf(n, k) == mixture, (n, k)

    def test_n1000_table_digest(self):
        # pinned on the alternating sum per k that the recurrence replaced;
        # hex, which no int-to-str digit limit applies to
        n = 1000
        text = "\n".join(f"{p.numerator:x}/{p.denominator:x}"
                         for p in (laws.scream_pmf(n, k) for k in range(n // 2 + 1)))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "fc678e32249b5cc568a418bb7e4ea8500b7526afdf5ee95eb77d0d33161cf5d9"

    def test_bounded(self):
        for n in (1, laws.SCREAM_MAX_N + 1):
            with pytest.raises(ValueError):
                laws.scream_pmf(n, 0)
        # q_n needs no table, so it has no bound
        assert 0 < laws.prob_someone_screams(laws.SCREAM_MAX_N + 1) < 1

    def test_q_approaches_limit_from_above(self):
        limit = 1 - math.exp(-0.5)
        prev = 1.0
        for n in (5, 10, 50, 200, 1000):
            q = float(laws.prob_someone_screams(n))
            assert limit < q < prev
            prev = q


class TestSpitzer:
    def test_single_term(self):
        assert laws.spitzer_partial_sum(2) == pytest.approx(0.5 * (0.5 - math.exp(-2)), rel=1e-12)

    def test_series_and_gamma_routes_agree(self):
        # the Poisson tails of the series summed term by term, quadratic in
        # the limit, against omega's
        for limit in (2, 10, 200, 1500):
            series = sum((0.5 - poisson_cdf(j, j - 2)) / j for j in range(2, limit + 1))
            assert laws.spitzer_partial_sum(limit) == pytest.approx(series, rel=1e-9)

    def test_terms_positive_and_decreasing_sum(self):
        # partial sums increase toward (1 + log 2)/2 without overshooting
        target = 0.5 * (1 + math.log(2))
        prev = 0.0
        for limit in (2, 10, 100, 10_000):
            cur = laws.spitzer_partial_sum(limit)
            assert prev < cur < target
            prev = cur


class TestEsfLaw:
    def test_normalisation(self):
        for theta in (F(1, 2), F(1), F(2)):
            for n in range(1, 9):
                total = sum(oracles.esf_pmf(n, theta, parts) for parts in laws.partitions(n, 1))
                assert total == 1

    def test_theta_one_is_uniform_permutation(self):
        for n in range(1, 8):
            for parts in laws.partitions(n, 1):
                counts = {}
                for s in parts:
                    counts[s] = counts.get(s, 0) + 1
                classic = F(1)
                for j, a in counts.items():
                    classic /= F(j**a * math.factorial(a))
                assert oracles.esf_pmf(n, 1, parts) == classic

    def test_mean_cycle_count(self):
        for j in range(1, 8):
            assert oracles.esf_mean_cycle_count(7, 1, j) == F(1, j)
        # theta = 1/2, first moment from the pmf directly
        n = 6
        direct = sum(
            oracles.esf_pmf(n, F(1, 2), parts) * sum(1 for s in parts if s == 2)
            for parts in laws.partitions(n, 1)
        )
        assert oracles.esf_mean_cycle_count(n, F(1, 2), 2) == direct


def _distinct_partitions(n, min_part=2, max_part=None):
    """Partitions of n into strictly decreasing parts >= min_part."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, max_part), min_part - 1, -1):
        for rest in _distinct_partitions(n - p, min_part, p - 1):
            yield (p,) + rest


def _no_repeat_by_enumeration(n):
    """The three no-repeat probabilities by enumerating partitions into
    distinct parts, and for the joint every assignment of distinct cores."""
    comp = sum(
        (laws.component_pmf(n, parts, "toes")
         for parts in _distinct_partitions(n)),
        F(0),
    )
    cyc = sum(
        (pr * sum((oracles.derangement_cycle_type_pmf(r, parts) for parts in _distinct_partitions(r)),
                  F(0))
         for r, pr in enumerate(laws.core_size_law(n, "toes")) if pr),
        F(0),
    )

    def assignments(parts, idx, used):
        if idx == len(parts):
            return 1
        return sum(
            laws.component_count_with_core(parts[idx], c) * assignments(parts, idx + 1, used | {c})
            for c in range(2, parts[idx] + 1)
            if c not in used
        )

    either = F(0)
    for parts in _distinct_partitions(n):
        base = F(math.factorial(n), (n - 1) ** n)
        for s in parts:
            base /= math.factorial(s)
        either += base * assignments(parts, 0, frozenset())
    return comp, cyc, either


class TestNoRepeatProbs:
    def test_degenerate(self):
        assert laws.prob_no_repeated_sizes(2) == (1, 1, 1)

    def test_recurrences_equal_the_enumeration(self):
        for n in range(2, 25):
            assert laws.prob_no_repeated_sizes(n) == _no_repeat_by_enumeration(n), n

    def test_bounded(self):
        laws.prob_no_repeated_sizes(laws.REPEATS_MAX_N)
        for n in (1, laws.REPEATS_MAX_N + 1):
            with pytest.raises(ValueError):
                laws.prob_no_repeated_sizes(n)

    def test_reference_n10(self):
        comp, cyc, either = laws.prob_no_repeated_sizes(10)
        assert float(comp) == pytest.approx(0.959363, abs=1e-6)
        assert float(cyc) == pytest.approx(0.898483, abs=1e-6)
        assert float(either) == pytest.approx(0.878891, abs=1e-6)
        # "either" is the most restrictive event
        assert either < min(comp, cyc)


@given(st.integers(2, 30), st.data())
@settings(max_examples=60, deadline=None)
def test_scream_pmf_is_probability(n, data):
    k = data.draw(st.integers(0, n // 2))
    p = laws.scream_pmf(n, k)
    assert 0 <= p <= 1


@given(st.integers(2, 14))
@settings(max_examples=30, deadline=None)
def test_component_pmf_values_are_probabilities(n):
    for parts in laws.partitions(n, 2):
        p = laws.component_pmf(n, parts, "toes")
        assert 0 < p <= 1


@pytest.mark.parametrize("function, args", [
    (laws.scream_pmf, (10, 6)),
    (laws.core_size_pmf, (10, 1, "toes")),
    (laws.prob_someone_screams, (1,)),
    (laws.spitzer_partial_sum, (1,)),
    (laws.single_component_prob, (1, "toes")),
    (laws.component_means, (5, "foo")),
    (laws.component_count_with_core, (3, 4)),
    (laws.factorial_moment, (1, {})),
    (exact.poisson_partial_sum, (0, 2)),
    (exact.format_fixed, (F(1, 3), -1)),
    (exact.derangement_numbers, (-1,)),
    (samplers.exact_acceptance_probability, (1,)),
], ids=lambda value: value.__name__ if callable(value) else ",".join(map(str, value)))
def test_public_range_errors(function, args):
    with pytest.raises(ValueError):
        function(*args)

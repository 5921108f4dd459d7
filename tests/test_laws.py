"""Tests of the closed-form laws: fixed small values, identities between
independent formulas, normalisation, and enumeration-derived oracles."""

import itertools
import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import poisson_cdf
from screamingtoes import laws
from screamingtoes.exact import derangement_number, falling_factorial, format_fixed
from screamingtoes.laws import Spectrum


def spectrum(*sizes):
    return Spectrum.from_sizes(sizes)


class TestSpectrum:
    def test_from_sizes(self):
        s = spectrum(3, 2, 2)
        assert s.n == 7 and s.counts == ((2, 2), (3, 1))
        assert s.sizes() == (2, 2, 3)
        assert s.num_groups == 3

    def test_complete_must_balance(self):
        with pytest.raises(ValueError):
            Spectrum.from_counts(5, {2: 1})

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            Spectrum(4, ((0, 1),))
        with pytest.raises(ValueError):
            Spectrum(4, ((2, 0), (4, 1)))
        with pytest.raises(ValueError):
            Spectrum(4, ((3, 1), (2, 1)))  # unsorted


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
            m = laws.component_total_count(j)
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
        assert laws.component_pmf(1, spectrum(1), "standard") == 1

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
        p22 = laws.component_pmf(4, spectrum(2, 2), "toes")
        assert p22 == F(two_two, 81)
        assert laws.component_pmf(4, spectrum(4), "toes") == 1 - p22

    def test_off_support_is_zero(self):
        # a spectrum always sums to its own n, so the only way off the
        # support is a spectrum for another n, which is an error
        with pytest.raises(ValueError):
            laws.component_pmf(6, spectrum(2, 2), "toes")

    def test_toes_rejects_singletons(self):
        with pytest.raises(ValueError):
            laws.component_pmf(3, spectrum(1, 2), "toes")

    @pytest.mark.parametrize("n", range(2, 13))
    def test_toes_normalisation(self, n):
        table = laws.component_pmf_table(n, "toes")  # builder checks the sum
        assert sum(table.values()) == 1

    @pytest.mark.parametrize("n", range(1, 10))
    def test_standard_normalisation(self, n):
        laws.component_pmf_table(n, "standard")


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
    def test_forms_are_independent(self, model, monkeypatch):
        # a Poisson partial sum off by one term moves the intensity form
        # only: the count form's T_j never calls it
        exact_sum = laws.poisson_partial_sum
        monkeypatch.setattr(laws, "poisson_partial_sum", lambda rate, k: exact_sum(rate, k - 1))
        with pytest.raises(laws.ConsistencyError):
            laws.mean_component_count(10, 4, model)


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
        assert value == F(2, 3) * F(falling_factorial(10, 5) * 4**5, 9**10)
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
        laws.core_size_table(n, model)  # builder raises if the sum is off

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
    for r in range(1, n + 1):
        fal *= n - r + 1  # n_[r]
        if model == "standard":
            law[r] = F(r, n) * F(fal, n**r)
        elif r >= 2:
            law[r] = scale * F(r, n) * F(fal, n**r) * F(derangement_number(r), math.factorial(r))
    return law


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
            assert laws.core_size_table(n, model) == law, n
            assert laws.cycle_mean_table(n, model) == _cycle_means_per_j(n, model), n

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
        assert total == derangement_number(6)
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
            core = laws.core_size_table(n, "toes")
            for j in range(2, n + 1):
                mixed = sum(p * oracles.derangement_mean_cycle_count(r, j)
                            for r, p in core.items() if r >= j)
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
            cycles = sum(j * mean for j, mean in laws.cycle_mean_table(n, model).items())
            core = sum(r * p for r, p in laws.core_size_table(n, model).items())
            assert cycles == core, (n, model)


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
            assert total == F(derangement_number(n), math.factorial(n))

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
            assert oracles.derangement_cycle_type_pmf(6, key) == F(count, derangement_number(6))


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
            assert mean == F(falling_factorial(n, 2), 2 * (n - 1) ** 2)

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
        (laws.component_pmf(n, Spectrum.from_sizes(parts), "toes")
         for parts in _distinct_partitions(n)),
        F(0),
    )
    cyc = sum(
        (pr * sum((oracles.derangement_cycle_type_pmf(r, parts) for parts in _distinct_partitions(r)),
                  F(0))
         for r, pr in laws.core_size_table(n, "toes").items()),
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
        p = laws.component_pmf(n, Spectrum.from_sizes(parts), "toes")
        assert 0 < p <= 1

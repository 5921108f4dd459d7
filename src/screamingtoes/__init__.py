"""Component and cycle statistics of random mappings without fixed points.

The model: n players each pick someone else's feet to stare at, giving a
uniform random function f with f(i) != i.  The package computes the exact
laws of its functional graph (component sizes, core size, cycle lengths,
screaming pairs), samples it by three independent Monte Carlo routes, and
reproduces the reference tables with exact/simulated/brute-force
cross-validation.
"""

from .exact import (
    DEFAULT_PRECISION,
    ScaledExp,
    binomial,
    derangement_number,
    derangement_numbers,
    falling_factorial,
    format_fixed,
    multinomial,
    poisson_cdf,
    poisson_partial_sum,
    rising_factorial,
    to_mpf,
)
from .laws import (
    ConsistencyError,
    NoRepeatProbs,
    Spectrum,
    component_count_with_core,
    component_pair_moment,
    component_pmf,
    component_pmf_table,
    component_total_count,
    core_identity_sides,
    core_size_counts,
    core_size_pmf,
    core_size_table,
    core_size_tail_std,
    cycle_mean_table,
    derangement_cycle_type_pmf,
    derangement_two_cycle_pmf,
    esf_mean_cycle_count,
    esf_pmf,
    expected_num_components,
    factorial_moment,
    lambda_std,
    lambda_toes,
    mean_component_count,
    mean_cycle_count,
    partitions,
    prob_no_repeated_sizes,
    prob_someone_screams,
    scream_pmf,
    scream_pmf_table,
    single_component_prob,
    spitzer_partial_sum,
)
from .samplers import (
    Decomposition,
    Mapping,
    RngStream,
    decompose,
    exact_acceptance_probability,
    sample_mapping,
    sample_toes_components,
    sample_toes_core,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    brute_force_law,
    emit,
    parse_report,
    repeated_size_stats,
    run_table,
)

__version__ = "0.1.0"

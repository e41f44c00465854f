"""Statistical sequence matching between two databases of categorical
sequences: GLRT-style tests for known and unknown match counts, the full
error-exponent calculus, second-order (finite-n) threshold analysis, and a
reproducible Monte Carlo harness.
"""

from .core import (
    Alphabet,
    CapacityError,
    Database,
    Distribution,
    InputError,
    MatchHypothesis,
    NumericError,
    ProblemConfig,
    load_dists,
)
from .divergences import (
    WeightedKlProblem,
    gjs,
    info_density_1,
    info_density_2,
    kl,
    min_weighted_kl,
    renyi,
)
from .exponents import (
    ExponentSolution,
    false_reject_curve,
    false_reject_exponent,
    max_false_reject_exponent,
    min_rival_score,
    min_unmatched_gjs,
    population_score,
    simple_test_floor,
    spurious_match_exponent,
    two_phase_exponents,
    two_phase_finite_n_bounds,
    type_exponent,
    xi_factor,
)
from .glrt import (
    TestConfig,
    Verdict,
    effective_threshold,
    score,
    simple_test,
    two_phase_test,
    unnikrishnan_test,
)
from .hypotheses import HypothesisSpace, enumerate_space, t_count
from .simulate import SimulationResult, SimulationSpec, draw_databases, estimate_errors, worst_case_sweep
from .smalldev import (
    SmallDevAnalysis,
    analyze,
    converse_slack,
    gaussian_reject_quantile,
    mvn_cdf,
    score_covariance,
    second_order_threshold,
    tie_set,
)

__version__ = "0.1.0"

"""Transient zero-speed random walks in i.i.d. random environments.

The package splits along the objects of the theory:

* env        environment laws, kappa, the log-moment generating function;
* potential  the potential landscape: ladder epochs, excursions, deep and
             star valleys, good-environment events;
* quenched   fixed-environment chains: exit probabilities, h-transforms,
             crossing-attempt moments, exact solvers, hitting-time
             sampling by the branching cascade;
* constants  the explicit limit-law constants and their Monte Carlo
             estimators;
* stable     positive stable sampling and the exact CDF;
* experiments  the end-to-end Monte Carlo harness and report emission;
* rng        stream keys and keyed PCG64 generators behind all of the above.

Special functions (digamma, log-beta, logsumexp) come from scipy.special.
"""

__version__ = "0.1.0"

from .env import (
    EnvironmentLaw,
    EnvironmentSlice,
    KappaResult,
    NoRootError,
    RegimeError,
    kappa_solve,
    lambda_fn,
    mean_log_rho,
    moment_rho_log,
    sample_environment,
)
from .potential import (
    DeepValley,
    GoodEnvironmentRecord,
    PotentialPath,
    StarValley,
    WindowExhausted,
    build_potential,
    check_good_environment,
    critical_height,
    descent_threshold,
    detect_deep_valleys,
    detect_star_valleys,
    excursion_table,
    ladder_epochs,
)
from .quenched import (
    AttemptMoments,
    HTransform,
    QuenchedChain,
    attempt_moments,
    exit_prob,
    expected_hitting_times,
    failure_prob,
    h_transform,
    linear_solve_oracle,
    mean_G_exact,
    sample_hitting_times,
)
from .constants import (
    IglehartEstimate,
    LimitLawParams,
    TailEstimate,
    iglehart_constant,
    kesten_constant_beta,
    kesten_tail_estimate,
    limit_scale,
    limit_scale_beta,
)
from .stable import (
    PredictedCdf,
    StableSpec,
    laplace,
    predicted_tau_cdf,
    sample_positive_stable,
    stable_cdf,
)
from .experiments import (
    ConvergenceReport,
    ExperimentConfig,
    run_position_experiment,
    run_tau_experiment,
    run_valley_census,
    verify_crossing_bound,
    verify_reduction,
)

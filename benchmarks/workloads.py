"""The four workloads.

A round of a workload is one call of the public experiment API of
``rwre.experiments`` on one worker.  Round r of a run with seed s uses
the master seed s * 2^16 + r, so a run's inputs come from its seed alone
and each round of it draws new environments.  This module imports only
the standard library, and ``build`` imports rwre, so that one_round.py
times that import and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 0               # seed of every workload when --seed is not given


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str                    # function of rwre.experiments
    law: str
    n_values: tuple[int, ...]
    replicas: int
    lambda_grid: tuple[float, ...] = (0.5, 1.0, 2.0)
    step_cap: int = 10 ** 12
    kwargs: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    Workload("tau", "run_tau_experiment", "beta:1.5,1", (10 ** 3, 10 ** 4),
             1000, step_cap=10 ** 30),
    Workload("census", "run_valley_census", "beta:1.5,1", (10 ** 5,), 20),
    Workload("reduction", "verify_reduction", "beta:2,1.5", (10 ** 4,), 1,
             lambda_grid=(0.5, 1.0),
             kwargs={"environments": 25}),
    Workload("tau_discrete", "run_tau_experiment", "discrete:0.8@0.5;0.3@0.5",
             (10 ** 3,), 5000, step_cap=10 ** 30),
)}


def round_seed(seed: int, round_index: int) -> int:
    return seed * 2 ** 16 + round_index


def build(workload: Workload, master_seed: int):
    """Import rwre and make the call: (function, config, keyword args)."""
    from rwre import experiments
    from rwre.env import EnvironmentLaw
    config = experiments.ExperimentConfig(
        law=EnvironmentLaw.parse(workload.law), n_values=workload.n_values,
        replicas=workload.replicas, lambda_grid=workload.lambda_grid,
        master_seed=master_seed, step_cap=workload.step_cap)
    return getattr(experiments, workload.runner), config, dict(workload.kwargs, workers=1)


def replica_sites(workload: Workload) -> int:
    """Sum of replicas x n over the tau rows; 0 for the other workloads."""
    if workload.runner != "run_tau_experiment":
        return 0
    return workload.replicas * sum(workload.n_values)

"""Monte Carlo harness: end-to-end checks of the stable limit.

Five experiments share one configuration type and one report type, and
EXPERIMENTS declares them: runner, CLI command, the configuration fields
the runner needs and the runner keywords that a manifest records next
to the configuration.

* run_tau_experiment      annealed hitting times tau(n), Laplace transform
                          against exp(-Lambda lambda^kappa), Hill index, KS
                          distance to the exact limit-law CDF;
* run_position_experiment stepped walks to time n, X_n / n^kappa against
                          x_scale * S^{-kappa};
* run_valley_census       deep-valley counts, star-valley coincidence and
                          good-environment event frequencies over many
                          environments;
* verify_reduction        the single-valley reduction: the annealed Laplace
                          transform of tau(e_n) bracketed by powers of the
                          first-valley factor;
* verify_crossing_bound   expected crossing time of a height-h rise,
                          reflected at the origin, fitted against e^h.

Work is cut into fixed-size blocks; block i draws from the stream
stream_key(master_seed, tag, ..., i) and results merge in block order, so
a report is bit-identical for any worker count.  Workers are threads: the
point is deterministic decomposition, not speedup.  A tau block serves
every n of the grid: its key is stream_key(master_seed, "tau", i), with
no n, and row n's tail below the origin draws on stream_key(block key,
n).

Estimates never mix in truncated replicas (window exhaustion, branching
clip); they are counted and reported instead.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass
from typing import Callable, get_type_hints

import numpy as np

from . import __version__ as _pkg_version
from .constants import (
    HillEstimate,
    LimitLawParams,
    TailEstimate,
    hill_estimate,
    iglehart_constant,
    kesten_constant_beta,
    kesten_tail_estimate,
    ladder_constants,
    limit_scale,
    sample_excursions,
)
from .env import (
    _SITE_BLOCK,
    EnvironmentLaw,
    EnvironmentSlice,
    NoRootError,
    draw_omegas,
    draw_rho,
    kappa_solve,
    mean_log_rho,
    moment_rho_log,
    sample_environment,
)
from .potential import (
    WindowExhausted,
    build_potential,
    check_good_environment,
    critical_height,
    descent_threshold,
    detect_deep_valleys,
    detect_star_valleys,
    excursion_table,
    first_ascent,
    ladder_epochs,      # not called here: benchmarks/spans.py wraps it by this module's name
)
from .quenched import (
    QuenchedChain,
    _beta_geometric,
    _branching_cascade,
    _gamma_poisson,
    expected_hitting_times,
    linear_solve_oracle,
)
from .rng import generator, stream_key
# predicted_tau_cdf and sample_positive_stable are not called here: benchmarks/spans.py
# wraps them by this module's name, so the imports stay until those targets go
from .stable import StableSpec, predicted_tau_cdf, sample_positive_stable, stable_cdf

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentConfig",
    "ConvergenceReport",
    "ReportRow",
    "LaplacePoint",
    "KsResult",
    "CensusStats",
    "ReductionPoint",
    "CrossingPoint",
    "parse_config_text",
    "config_text",
    "limit_law",
    "run_tau_experiment",
    "run_position_experiment",
    "run_valley_census",
    "verify_reduction",
    "verify_crossing_bound",
    "write_report",
    "report_csv_text",
    "manifest_text",
    "run_from_manifest",
]

_TAU_BLOCK = 2500          # replicas per tau block
_POS_BLOCK = 512           # replicas per position block
_POS_EXTEND = 1024         # window growth unit (sites)
_POS_MAX_WIDTH = 20_000    # hard cap on the per-block environment window
_TAU_DEPTH = 10 ** 6       # cascade sites below the origin before a replica is clipped
_CENSUS_FIRST = 1.5        # first census window: this many times E[len] n sites ...
_CENSUS_MARGIN = 2000      # ... plus these
_REDUCTION_FIRST = 1.1     # first reduction window: this many times E[len] n sites ...
_REDUCTION_MARGIN = 1000   # ... plus these
_WINDOW_GROWTH = 1.3       # factor a window grows by on the right when too short
_WINDOW_GROWTHS = 10       # growths before an environment counts as exhausted
_FALLBACK_EXCURSIONS = 200_000     # excursions sampled where the exact ladder series refuses

_C_K_SOURCE_CODE = {"goldie": 0.0, "closed_form": 1.0}

REPORT_VERSION = "rwre-report-v2"
MANIFEST_VERSION = "rwre-manifest-v1"


# ----------------------------------------------------------------- config

@dataclass(frozen=True)
class ExperimentConfig:
    law: EnvironmentLaw
    n_values: tuple[int, ...] | None = None  # each runner's Experiment.needs says
    replicas: int | None = None              # whether it reads these two
    epsilon: float = 0.2
    lambda_grid: tuple[float, ...] = (0.5, 1.0, 2.0)
    master_seed: int = 0
    step_cap: int = 10 ** 12

    def __post_init__(self):
        object.__setattr__(self, "lambda_grid", tuple(float(x) for x in self.lambda_grid))
        if self.n_values is not None:
            object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
            if not self.n_values or any(n < 1 for n in self.n_values):
                raise ValueError("n_values must be nonempty positive integers")
            if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
                raise ValueError("n_values must be strictly increasing")
        if self.replicas is not None and self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if not 0.0 < self.epsilon < 1.0 / 3.0:
            raise ValueError(f"epsilon must lie in (0, 1/3), got {self.epsilon}")
        if any(lam < 0.0 for lam in self.lambda_grid):
            raise ValueError("lambda_grid entries must be nonnegative")
        if self.step_cap < 1:
            raise ValueError("step_cap must be positive")


def _split(cast):
    return lambda raw: tuple(cast(p) for p in raw.split(",") if p.strip())


# How a ``key = value`` line reads back a value of each declared type;
# config fields and runner parameters share it.
_PARSERS = {EnvironmentLaw: EnvironmentLaw.parse, int: int, int | None: int, float: float,
            tuple[int, ...] | None: _split(int), tuple[float, ...]: _split(float)}

_CONFIG_TYPES = get_type_hints(ExperimentConfig)


def _format(value) -> str:
    """The right-hand side of a ``key = value`` line; floats print as repr,
    so they read back bit for bit."""
    if isinstance(value, EnvironmentLaw):
        return value.spec_text()
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return _fmt(value)


def _kv_text(values: dict) -> str:
    """``key = value`` lines for the values that are not None."""
    return "".join(f"{key} = {_format(value)}\n"
                   for key, value in values.items() if value is not None)


def config_text(config: ExperimentConfig) -> str:
    return _kv_text({key: getattr(config, key) for key in _CONFIG_TYPES})


def _parse_kv_lines(text: str) -> dict[str, str]:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


_NEEDS_ALL = ("n_values", "replicas")


def _require(config: ExperimentConfig, needs: tuple[str, ...]) -> ExperimentConfig:
    for key in needs:
        if getattr(config, key) is None:
            raise ValueError(f"config needs {key}")
    return config


def _config_from(mapping: dict[str, str], needs: tuple[str, ...]) -> ExperimentConfig:
    values = {}
    for key, raw in mapping.items():
        if key in _CONFIG_TYPES:
            values[key] = _PARSERS[_CONFIG_TYPES[key]](raw)
        elif key not in ("experiment", "versions"):      # manifest lines
            raise ValueError(f"unknown config key {key!r}")
    if "law" not in values:
        raise ValueError("config needs law")
    return _require(ExperimentConfig(**values), needs)


def parse_config_text(text: str, needs: tuple[str, ...] = _NEEDS_ALL) -> ExperimentConfig:
    """Build a config from ``key = value`` lines with ``#`` comments; the
    experiment and versions lines of a manifest are skipped.  needs names
    the fields besides law that must be given (an Experiment's needs)."""
    return _config_from(_parse_kv_lines(text), needs)


# ----------------------------------------------------------------- report

@dataclass(frozen=True)
class LaplacePoint:
    lam: float
    value: float
    stderr: float
    predicted: float

    def __post_init__(self):
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")


@dataclass(frozen=True)
class KsResult:
    distance: float
    dkw_epsilon: float


@dataclass(frozen=True)
class CensusStats:
    environments: int
    k_mean: float
    k_over_nq_mean: float
    q_hat: float
    coincidence: float
    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    joint: float
    retries: int
    exhausted: int
    height_ratios: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for name in ("coincidence", "a1", "a2", "a3", "a4", "a5", "joint"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} frequency outside [0,1]: {value}")


@dataclass(frozen=True)
class ReductionPoint:
    lam: float
    lam_n: float
    left: float
    left_se: float
    factor: float
    factor_se: float
    k_lower: int
    k_upper: int
    bracket_low: float
    bracket_high: float
    margin: float
    envs_with_valley: int


@dataclass(frozen=True)
class CrossingPoint:
    h: float
    mean_tau: float
    stderr: float
    environments: int
    skipped: int


@dataclass(frozen=True)
class ReportRow:
    n: int
    replicas_used: int = 0
    truncated: int = 0
    laplace: tuple[LaplacePoint, ...] = ()
    hill: HillEstimate | None = None
    ks: KsResult | None = None
    census: CensusStats | None = None
    reduction: tuple[ReductionPoint, ...] = ()
    extras: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class ConvergenceReport:
    experiment: str
    config: ExperimentConfig
    rows: tuple[ReportRow, ...]
    crossing: tuple[CrossingPoint, ...] = ()
    extras: tuple[tuple[str, float], ...] = ()
    params: tuple[tuple[str, object], ...] = ()    # runner keywords, for the manifest

    def extra(self, key: str) -> float:
        return dict(self.extras)[key]


# ------------------------------------------------------------ primitives

def limit_law(law: EnvironmentLaw, master_seed: int, n_series: int | None = None,
              ) -> tuple[LimitLawParams, str, TailEstimate | None]:
    """The one route to the tail constant C_K, for the tau and position
    reports and the constants table: the limit-law parameters, the route
    name and Goldie's estimate when one ran.  Beta laws take the closed
    form (route "closed_form"); the others take Goldie's estimate (route
    "goldie") on a stream keyed by master_seed, so every caller at one
    seed reads one C_K.  n_series sets the estimate's draws; None takes
    the estimator's default and, for a Beta law, runs no estimate, whereas
    a given n_series runs one beside the closed form as a cross-check.
    This stays here: benchmarks/spans.py wraps kesten_tail_estimate by
    this module's name."""
    kappa = kappa_solve(law).kappa
    est = None
    if n_series is not None or law.kind != "beta":
        series = {} if n_series is None else {"n_series": n_series}
        est = kesten_tail_estimate(law, kappa, seed=stream_key(master_seed, "ck"), **series)
    if law.kind == "beta":
        c_k, route = kesten_constant_beta(law.alpha, law.beta), "closed_form"
    else:
        c_k, route = est.constant_hat, "goldie"
    return limit_scale(kappa, c_k, moment_rho_log(law, kappa)), route, est


def _as_declared(experiment: str, config: ExperimentConfig, **values) -> dict:
    """Runner keywords as a manifest rerun reads them back, each parsed as
    its declared type; None stays None.  Checks first that the config
    gives the fields the experiment needs."""
    _require(config, EXPERIMENTS[experiment].needs)
    types = EXPERIMENTS[experiment].params
    return {key: None if value is None else _PARSERS[types[key]](_format(value))
            for key, value in values.items()}


def _run_blocks(task, count: int, workers: int, *tag) -> list:
    """task(i, stream_key(*tag, i)) for i in range(count), returned in index
    order whatever the worker count; each task owns its stream, so
    scheduling cannot leak in."""
    args = [(i, stream_key(*tag, i)) for i in range(count)]
    if workers <= 1:
        return [task(*a) for a in args]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda a: task(*a), args))


def _mean_se(values) -> tuple[float, float]:
    """Sample mean and its standard error; one value has error 0."""
    values = np.asarray(values, dtype=np.float64)
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return float(values.mean()), se


def _ks_result(sample: np.ndarray, cdf) -> KsResult:
    """scipy.stats.kstest's one-sample statistic against a continuous CDF, and the
    sample's own 95% DKW half-width (scipy.stats costs 0.5 s and 37 MB to import)."""
    f, m = cdf(np.sort(sample)), sample.size
    return KsResult(distance=max(float(np.max(np.arange(1.0, m + 1) / m - f)),
                                 float(np.max(f - np.arange(0.0, m) / m))),
                    dkw_epsilon=math.sqrt(math.log(2.0 / 0.05) / (2.0 * m)))


# ------------------------------------------------------- tau experiment

def _tau_block(law: EnvironmentLaw, n_values: tuple[int, ...], count: int, key: int,
               ) -> tuple[np.ndarray, np.ndarray]:
    """Exact annealed tau(0 -> n) draws for each n of n_values, one
    environment per replica: the branching cascade with each site's omega
    integrated out, lane by lane.  The chain above the origin runs once,
    for max(n_values) sites on the stream key, and row n's tail below the
    origin draws on stream_key(key, n), so a row's values do not depend on
    the other n.  Beta(a,1) draws each count as one geometric variable
    (_beta_geometric); other laws draw a fresh rho vector at every site
    and mix Poisson over it (_gamma_poisson).  Returns (tau, clipped), one
    row per n; callers must not let clipped values into estimators."""
    def site_draw(rng: np.random.Generator):
        if law.kind == "beta" and law.beta == 1.0:
            return _beta_geometric(law.alpha, rng)
        return _gamma_poisson(lambda _site, size: draw_rho(law, rng, size), rng)
    return _branching_cascade(site_draw(generator(key)), count, 0, n_values,
                              floor=-_TAU_DEPTH - 1,
                              tail=lambda n: site_draw(generator(stream_key(key, n))))


def _replica_blocks(replicas: int, block: int, workers: int, task,
                    *tag) -> tuple[np.ndarray, np.ndarray]:
    """Split replicas into blocks of at most block, run task(count, key)
    for block i on key stream_key(*tag, i) and concatenate the (values,
    flags) pairs in block order, along their last axis."""
    counts = [min(block, replicas - start) for start in range(0, replicas, block)]
    parts = _run_blocks(lambda i, key: task(counts[i], key), len(counts), workers, *tag)
    return (np.concatenate([p[0] for p in parts], axis=-1),
            np.concatenate([p[1] for p in parts], axis=-1))


def run_tau_experiment(config: ExperimentConfig, workers: int = 1) -> ConvergenceReport:
    """Annealed tau(n) for each n: Laplace transform on the lambda grid
    against exp(-Lambda lambda^kappa), Hill index against kappa, KS
    distance to the limit law's CDF.  Replicas the branching cascade clips
    are counted and excluded; config.step_cap plays no part, since the
    cascade's cost does not grow with tau.  The predicted columns take
    their tail constant from limit_law, on the config's master seed.

    Each replica runs one cascade above the origin, for max(n_values)
    sites, and every row reads it (see _tau_block).  So the rows share
    each replica's above-origin cascade and are dependent across n; each
    row alone is exact in law; and a row's values do not depend on which
    other n the grid holds."""
    _require(config, EXPERIMENTS["tau"].needs)
    params, route, _ = limit_law(config.law, config.master_seed)
    kappa = params.kappa
    limit = StableSpec(kappa, scale=params.tau_prefactor)
    rows = []
    taus, truncs = _replica_blocks(
        config.replicas, _TAU_BLOCK, workers,
        lambda c, key: _tau_block(config.law, config.n_values, c, key),
        config.master_seed, "tau")
    for n, tau, trunc in zip(config.n_values, taus, truncs):
        kept = tau[~trunc]
        if kept.size < 10:
            raise RuntimeError(f"n={n}: only {kept.size} usable replicas")
        scale = float(n) ** (1.0 / kappa)
        scaled = kept / scale
        points = []
        for lam in config.lambda_grid:
            value, se = _mean_se(np.exp(-lam * scaled))
            points.append(LaplacePoint(
                lam=lam, value=value, stderr=se,
                predicted=math.exp(-params.lambda_scale * lam ** kappa)))
        rows.append(ReportRow(
            n=n, replicas_used=int(kept.size), truncated=int(trunc.sum()),
            laplace=tuple(points), hill=hill_estimate(kept),
            ks=_ks_result(scaled, lambda y: stable_cdf(limit, y)),
            extras=(("median_scaled", float(np.median(scaled))),)))
    return ConvergenceReport(
        experiment="tau", config=config, rows=tuple(rows),
        extras=(("kappa", kappa), ("lambda_scale", params.lambda_scale),
                ("c_k", params.c_k), ("c_k_source_code", _C_K_SOURCE_CODE[route])))


# -------------------------------------------------- position experiment

def _position_block(law: EnvironmentLaw, n: int, count: int, key: int,
                    kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """X_n for one block: vectorized stepping, each replica in its own
    environment, drawn column by column as the window grows."""
    rng = generator(key)
    lo = -256
    hi = min(n, int(4 * math.ceil(n ** kappa)) + 64)
    om = draw_omegas(law, rng, count * (hi - lo + 1)).reshape(count, hi - lo + 1)
    pos = np.zeros(count, dtype=np.int64)
    frozen = np.zeros(count, dtype=bool)
    rows_idx = np.arange(count)
    for _ in range(n):
        w = om[rows_idx, pos - lo]
        step = np.where(rng.random(count) < w, 1, -1)
        pos = np.where(frozen, pos, pos + step)
        for side in (1, -1):                   # the right edge, then the left
            edge = hi if side > 0 else lo
            out = side * (pos - edge) >= 0
            if not out.any():
                continue
            if om.shape[1] + _POS_EXTEND > _POS_MAX_WIDTH:
                frozen |= out
                pos = np.where(out, edge, pos)
            else:
                ext = draw_omegas(law, rng, count * _POS_EXTEND).reshape(count, _POS_EXTEND)
                om = np.concatenate([om, ext] if side > 0 else [ext, om], axis=1)
                hi, lo = (hi + _POS_EXTEND, lo) if side > 0 else (hi, lo - _POS_EXTEND)
    return pos.astype(np.float64), frozen


def run_position_experiment(config: ExperimentConfig, workers: int = 1) -> ConvergenceReport:
    """X_n at each n: KS distance of X_n / n^kappa to x_scale S^{-kappa}, whose CDF
    is 1 - F((y/x_scale)^{-1/kappa}) at y > 0 and 0 at y <= 0, where X_n can land."""
    _require(config, EXPERIMENTS["position"].needs)
    params, route, _ = limit_law(config.law, config.master_seed)
    kappa = params.kappa
    if max(config.n_values) > config.step_cap:
        raise ValueError("position experiment needs step_cap >= max(n_values)")

    def limit_cdf(y: np.ndarray) -> np.ndarray:
        out = np.zeros(y.shape)
        out[y > 0.0] = 1.0 - stable_cdf(StableSpec(kappa),
                                        (y[y > 0.0] / params.x_scale) ** (-1.0 / kappa))
        return out

    rows = []
    for n in config.n_values:
        x, frozen = _replica_blocks(
            config.replicas, _POS_BLOCK, workers,
            lambda c, key: _position_block(config.law, n, c, key, kappa),
            config.master_seed, "pos", n)
        kept = x[~frozen]
        scaled = kept / float(n) ** kappa
        rows.append(ReportRow(
            n=n, replicas_used=int(kept.size), truncated=int(frozen.sum()),
            ks=_ks_result(scaled, limit_cdf),
            extras=(("median_scaled", float(np.median(scaled))),
                    ("median_x", float(np.median(kept))))))
    return ConvergenceReport(
        experiment="position", config=config, rows=tuple(rows),
        extras=(("kappa", kappa), ("x_scale", params.x_scale),
                ("c_k", params.c_k), ("c_k_source_code", _C_K_SOURCE_CODE[route])))


# --------------------------------------------------------- valley census

def _census_kappa(law: EnvironmentLaw) -> tuple[float, bool]:
    """kappa when the law has one; for drift-down laws with no root the
    census falls back to a unit height scale so the valley count is still
    well defined (and zero for flat potentials)."""
    try:
        return kappa_solve(law).kappa, False
    except NoRootError:
        if mean_log_rho(law) < 0.0:
            return 1.0, True
        raise


def _excursion_constants(law: EnvironmentLaw, kappa: float | None, seed: int,
                         ) -> tuple[float, float | None]:
    """(E[e_1], C_I), C_I None for a law with no kappa: exact from
    constants.ladder_constants or, for a law whose ladder series refuses
    (a discrete law of four atoms or more, or one whose series decays
    slowly), estimated from the first _FALLBACK_EXCURSIONS excursions of
    the path keyed by seed."""
    try:
        ladder = ladder_constants(law)
        return ladder.e_len, ladder.c_i
    except FloatingPointError:
        if kappa is None:
            _, lengths, _ = sample_excursions(law, _FALLBACK_EXCURSIONS, seed)
            return float(lengths.mean()), None
        ig = iglehart_constant(law, kappa, n_excursions=_FALLBACK_EXCURSIONS, seed=seed)
        return ig.e_len, ig.c_i


def _left_pad(d_n: float, drift: float) -> int:
    """Sites left of the origin in a first window: room for a valley's
    D_n backing at the law's drift, with a margin."""
    return int(math.ceil((d_n + 10.0) / max(drift, 0.05) * 4.0)) + 256


def _widening(law: EnvironmentLaw, key: int, left: int, right: int, scan, keep_env=False):
    """Sample sites [left, right] of the environment at key and run
    scan(path, table) on its potential, where table() returns the
    window's excursion table, built on the first call; the census, the
    reduction, the crossing bound and `rwre valleys` all scan here.  A
    scan that runs off the window raises WindowExhausted, and the window
    grows on that side, at most _WINDOW_GROWTHS times: the right edge
    moves out by _WINDOW_GROWTH, the left edge by 4.  Only the new sites
    are sampled, and the potential and the table continue bit for bit as
    a build over the whole window: on the right in place, into the spare
    room of their arrays, on the left by one copy.  A table no scan asked
    for is never built.  Returns (scan result, growths, env): the result
    is None when the last window was still too small, and env, the last
    window's environment, is kept only when asked for."""
    env = sample_environment(law, (left, right), seed=key)
    path = build_potential(env)
    env = env if keep_env else None
    built = [None, None]            # the last table built and the path it belongs to

    def table():
        if built[1] is not path:
            built[:] = excursion_table(path, prior=built[0]), path
        return built[0]

    growths = 0
    while True:
        try:
            return scan(path, table), growths, env
        except WindowExhausted as exhausted:
            if growths == _WINDOW_GROWTHS:
                return None, growths, None
            growths += 1
            lo, hi = ((right + 1, int(right * _WINDOW_GROWTH)) if exhausted.side == "right"
                      else (4 * left, left - 1))
            left, right = min(left, lo), max(right, hi)
            piece = sample_environment(law, (lo, hi), seed=key)
            path = path.joined(build_potential(piece, prior=path))
            if keep_env:
                pair = (env, piece) if lo > env.offset else (piece, env)
                env = EnvironmentSlice(left, np.concatenate([e.omegas for e in pair]))
            del piece                   # no omegas but env's live through the next scan


def _census_env(law: EnvironmentLaw, n: int, epsilon: float, kappa: float,
                fallback: bool, delta: float, c_prime: float, c_dprime: float,
                key: int, left_pad: int, right: int, h_grid: tuple[float, ...],
                ) -> dict:
    def scan(path, table):
        table = table()
        # the good-environment check first: it is the scan that runs off a
        # short window (A3 and A4 need the first deep valley past e_n), so
        # the deep and star scans run once, on the window that holds it
        record = check_good_environment(path, n, epsilon, delta, c_prime, c_dprime,
                                        kappa, table=table, kappa_fallback=fallback)
        return (detect_deep_valleys(path, n, epsilon, kappa, table=table),
                detect_star_valleys(path, n, epsilon, kappa, table=table),
                record, table)

    found, retries, _ = _widening(law, key, -left_pad, right, scan)
    if found is None:
        return {"ok": False, "retries": retries}
    return dict(_census_fields(*found, n, h_grid), ok=True, retries=retries)


def _census_fields(deep: list, star: list, record, table, n: int,
                   h_grid: tuple[float, ...]) -> dict:
    """What the census keeps of one environment's scans."""
    heights = table.heights[:n]
    deep_set = {(v.b, v.d_bar) for v in deep}
    star_set = {(v.b, v.d_bar) for v in star}
    return {
        "k_n": len(deep),
        "matched": len(deep_set & star_set),
        "denom": max(len(deep_set), len(star_set)),
        "n_exc": int(heights.size),
        "tail_counts": tuple(int(np.sum(heights >= h)) for h in h_grid),
        "record": record,
    }


def run_valley_census(config: ExperimentConfig, workers: int = 1,
                      delta: float | None = None, c_prime: float | None = None,
                      c_dprime: float = 25.0) -> ConvergenceReport:
    """Deep-valley census over config.replicas environments per n.

    Reports the valley count against n q_hat, q_hat = C_I e^{-kappa h_n}
    with Iglehart's C_I from _excursion_constants (exact, or sampled where
    the ladder series refuses; 0 for a law with no kappa), the deep/star
    coincidence rate, the tail-flatness table h -> e^{kappa h} P{H >= h},
    and the good-environment event frequencies.  The A2 band is
    self-calibrated per environment (its own K_n / n), matching the
    check's default, so it holds by construction: floor(K_n (1 - m)) <=
    K_n <= ceil(K_n (1 + m)).  The a2 frequency reads 1 and the joint
    frequency tests only A1, A3 and A4.

    Each environment's window starts at _CENSUS_FIRST E[len] n +
    _CENSUS_MARGIN sites right of the origin, E[len] being the mean
    excursion length E[e_1] from the same place, so it usually holds e_n
    and the first deep valley past it.  A window too short grows in place
    (_widening), and the retries field counts the growths.  Each window
    runs check_good_environment first, the scan that runs off a window
    short of the first deep valley past e_n, so detect_deep_valleys and
    detect_star_valleys usually run once per environment, on its last
    window.  c_prime is only A1's constant, 2 (E[len] + 1) by default.  A
    law with no kappa in (0,1) is counted at the unit height scale kappa
    = 1, and its A4/A5 read only the valleys among the first n excursions
    (see check_good_environment's kappa_fallback).
    """
    run_params = _as_declared("census", config, delta=delta, c_prime=c_prime, c_dprime=c_dprime)
    delta, c_prime, c_dprime = run_params.values()
    kappa, fallback = _census_kappa(config.law)
    if delta is None:
        delta = config.epsilon / kappa + 0.3
    e_len, c_i = _excursion_constants(config.law, None if fallback else kappa,
                                      stream_key(config.master_seed, "census-ci"))
    c_i = 0.0 if fallback else c_i
    c_prime = c_prime if c_prime is not None else 2.0 * (e_len + 1.0)
    drift = abs(mean_log_rho(config.law))
    rows = []
    total_retries = 0
    for n in config.n_values:
        h_n = critical_height(n, config.epsilon, kappa)
        d_n = descent_threshold(n, kappa)
        left_pad = _left_pad(d_n, drift)
        right = int(math.ceil(_CENSUS_FIRST * e_len * n)) + _CENSUS_MARGIN
        h_grid = tuple(float(h) for h in (2.0, 4.0, 6.0, 8.0))
        q_hat = c_i * math.exp(-kappa * h_n)
        parts = _run_blocks(
            lambda _, key: _census_env(config.law, n, config.epsilon, kappa, fallback,
                                       delta, c_prime, c_dprime, key, left_pad, right,
                                       h_grid),
            config.replicas, workers, config.master_seed, "census", n)
        used = [p for p in parts if p["ok"]]
        exhausted = len(parts) - len(used)
        retries = sum(p["retries"] for p in parts)
        total_retries += retries
        if not used:
            raise RuntimeError(f"n={n}: every environment exhausted its window")
        k_values = np.array([p["k_n"] for p in used], dtype=np.float64)
        denom = sum(p["denom"] for p in used)
        matched = sum(p["matched"] for p in used)
        coincidence = matched / denom if denom > 0 else 1.0
        n_exc_total = sum(p["n_exc"] for p in used)
        ratios = []
        for j, h in enumerate(h_grid):
            count = sum(p["tail_counts"][j] for p in used)
            p_tail = count / n_exc_total if n_exc_total else 0.0
            ratios.append((h, math.exp(kappa * h) * p_tail))
        recs = [p["record"] for p in used]
        freq = lambda name: float(np.mean([getattr(r, name) for r in recs]))
        k_over = float(np.mean(k_values / (n * q_hat))) if q_hat > 0 else 0.0
        stats = CensusStats(
            environments=len(used), k_mean=float(k_values.mean()),
            k_over_nq_mean=k_over, q_hat=q_hat, coincidence=coincidence,
            a1=freq("a1"), a2=freq("a2"), a3=freq("a3"), a4=freq("a4"),
            a5=freq("a5"), joint=freq("joint"),
            retries=retries, exhausted=exhausted,
            height_ratios=tuple(ratios))
        rows.append(ReportRow(n=n, replicas_used=len(used), truncated=exhausted,
                              census=stats,
                              extras=(("h_n", h_n), ("d_n", d_n))))
    return ConvergenceReport(
        experiment="census", config=config, rows=tuple(rows),
        extras=(("kappa", kappa), ("c_i", c_i),
                ("c_prime", c_prime), ("c_dprime", c_dprime),
                ("delta", delta), ("retries", float(total_retries)),
                ("kappa_fallback", 1.0 if fallback else 0.0)),
        params=tuple(run_params.items()))


# ----------------------------------------------------- reduction check

def _reduction_env(law: EnvironmentLaw, n: int, epsilon: float, kappa: float,
                   lam_values: tuple[float, ...], key: int, left_pad: int, right: int,
                   ) -> dict:
    def scan(path, table):
        table = table()
        deep = detect_deep_valleys(path, n, epsilon, kappa, table=table)
        return int(table.ends[n - 1]), deep

    found, _, env = _widening(law, key, -left_pad, right, scan, keep_env=True)
    if found is None:
        return {"ok": False}
    e_n, deep = found
    left = env.offset
    scale = float(n) ** (1.0 / kappa)
    chain = QuenchedChain.from_environment(env, left, e_n, reflect_at=left)
    lefts = []
    factors = []
    first = deep[0] if deep else None
    if first is not None:
        vchain = QuenchedChain.from_environment(env, first.a, first.d, reflect_at=first.a)
    for lam in lam_values:
        lam_n = lam / scale
        sol = linear_solve_oracle(chain, e_n, lam=lam_n)
        lefts.append(float(sol[0 - left]))
        if first is not None:
            vsol = linear_solve_oracle(vchain, first.d, lam=lam_n)
            factors.append(float(vsol[first.b - first.a]))
    return {"ok": True, "lefts": lefts, "factors": factors,
            "k_n": len(deep)}


def verify_reduction(config: ExperimentConfig, workers: int = 1,
                     environments: int = 200) -> ConvergenceReport:
    """Annealed E[e^{-lam_n tau(e_n)}] against the first-valley factor
    raised to the band powers floor(n q_n (1 +/- n^{-eps/4})), with
    q_n = C_I e^{-kappa h_n} and C_I from _excursion_constants.

    Both sides are exact quenched solves averaged over environments, so
    the only noise is environment-level; the report carries the bracket
    and the containment margin after widening by 3 combined SE.

    Each environment's window starts at _REDUCTION_FIRST E[len] n +
    _REDUCTION_MARGIN sites right of the origin, E[len] being E[e_1] from
    _excursion_constants, so it usually holds e_n and the first deep
    valley; a window too short grows in place (_widening).  No reading
    depends on how far the window reaches on the right, and its left
    edge, the chain's reflecting site, grows only when a valley's backing
    site needs room, so the first window's size changes no report byte.
    """
    run_params = _as_declared("reduction", config, environments=environments)
    environments = run_params["environments"]
    if environments < 1:
        raise ValueError(f"need environments >= 1, got {environments}")
    kappa = kappa_solve(config.law).kappa
    if max(config.n_values) > 10 ** 5:
        raise ValueError("reduction check is sized for n <= 1e5")
    e_len, c_i = _excursion_constants(config.law, kappa,
                                      stream_key(config.master_seed, "reduce-ci"))
    drift = abs(mean_log_rho(config.law))
    rows = []
    for n in config.n_values:
        left_pad = _left_pad(descent_threshold(n, kappa), drift)
        right = int(math.ceil(_REDUCTION_FIRST * e_len * n)) + _REDUCTION_MARGIN
        q_n = c_i * math.exp(-kappa * critical_height(n, config.epsilon, kappa))
        band = float(n) ** (-config.epsilon / 4.0)
        k_lower = int(math.floor(n * q_n * (1.0 - band)))
        k_upper = int(math.floor(n * q_n * (1.0 + band)))
        parts = [p for p in _run_blocks(
            lambda _, key: _reduction_env(config.law, n, config.epsilon, kappa,
                                          config.lambda_grid, key, left_pad, right),
            environments, workers, config.master_seed, "reduce", n) if p["ok"]]
        if len(parts) < max(10, environments // 2):
            raise RuntimeError(f"n={n}: too few usable environments ({len(parts)})")
        with_valley = [p for p in parts if p["factors"]]
        points = []
        for j, lam in enumerate(config.lambda_grid):
            left_mean, left_se = _mean_se([p["lefts"][j] for p in parts])
            f_mean, f_se = _mean_se([p["factors"][j] for p in with_valley]) \
                if with_valley else (1.0, 0.0)
            low = f_mean ** k_upper
            high = f_mean ** k_lower
            low_se = abs(k_upper) * f_mean ** max(k_upper - 1, 0) * f_se
            high_se = abs(k_lower) * f_mean ** max(k_lower - 1, 0) * f_se
            margin_low = left_mean - (low - 3.0 * math.hypot(left_se, low_se))
            margin_high = (high + 3.0 * math.hypot(left_se, high_se)) - left_mean
            points.append(ReductionPoint(
                lam=lam, lam_n=lam / float(n) ** (1.0 / kappa),
                left=left_mean, left_se=left_se,
                factor=f_mean, factor_se=f_se,
                k_lower=k_lower, k_upper=k_upper,
                bracket_low=low, bracket_high=high,
                margin=min(margin_low, margin_high),
                envs_with_valley=len(with_valley)))
        rows.append(ReportRow(n=n, replicas_used=len(parts),
                              truncated=environments - len(parts),
                              reduction=tuple(points),
                              extras=(("q_n", q_n),)))
    return ConvergenceReport(
        experiment="reduction", config=config, rows=tuple(rows),
        extras=(("kappa", kappa), ("c_i", c_i), ("environments", float(environments))),
        params=tuple(run_params.items()))


# ------------------------------------------------------- crossing bound

def _crossing_env(law: EnvironmentLaw, h_values: tuple[float, ...], key: int) -> list:
    values = [None] * len(h_values)

    def scan(path, _table):
        rises = [first_ascent(path, h) for h in h_values]          # None: not risen yet
        times = expected_hitting_times(path.slice_values(0, max((t or 1 for t in rises),
                                                                default=1) - 1))
        values[:] = [float(times[t - 1]) if t and t > 1 else None for t in rises]
        if None in rises:       # grow until the largest h has risen, keeping the rest
            raise WindowExhausted("right", f"a rise of {max(h_values)}")

    _widening(law, key, 0, _SITE_BLOCK - 1, scan)
    return values


def verify_crossing_bound(config: ExperimentConfig, workers: int = 1,
                          h_values: tuple[float, ...] = (3.0, 4.0, 5.0, 6.0, 7.0),
                          ) -> ConvergenceReport:
    """Expected time, reflected at the origin, to reach the site before
    the first height-h rise of the potential; the fitted slope of
    log E[tau_h] against h must not exceed 1 by more than the band.

    A window starts as the site block 0 .. 4095 and grows (_widening) to
    about 56,000 sites until the largest h has risen; E_0 tau for every h
    comes off its potential in one pass (expected_hitting_times).  An h
    not risen by then, or risen at the first step, is skipped and counted;
    a law whose potential cannot rise yields an empty fit and slope 0.

    Raises ValueError for a height h <= 0, from the API or a manifest.
    """
    run_params = _as_declared("crossing", config, h_values=h_values)
    h_values = run_params["h_values"]
    if any(h <= 0.0 for h in h_values):
        raise ValueError(f"crossing heights must be positive, got {h_values}: a "
                         "height h <= 0 rises at the first step")
    environments = config.replicas
    parts = _run_blocks(lambda _, key: _crossing_env(config.law, h_values, key),
                        environments, workers, config.master_seed, "cross")
    points = []
    for j, h in enumerate(h_values):
        vals = np.array([p[j] for p in parts if p[j] is not None], dtype=np.float64)
        skipped = environments - vals.size
        mean, se = _mean_se(vals) if vals.size >= 2 else (0.0, 0.0)
        points.append(CrossingPoint(h=h, mean_tau=mean, stderr=se,
                                    environments=int(vals.size),
                                    skipped=int(skipped)))
    usable = [(p.h, p.mean_tau) for p in points
              if p.environments >= 2 and p.mean_tau > 0.0]
    if len(usable) >= 2:
        hs = np.array([u[0] for u in usable])
        logs = np.log(np.array([u[1] for u in usable]))
        slope = float(np.polyfit(hs, logs, 1)[0])
    else:
        slope = 0.0
    return ConvergenceReport(
        experiment="crossing", config=config, rows=(), crossing=tuple(points),
        extras=(("slope", slope), ("environments", float(environments))),
        params=tuple(run_params.items()))


# ------------------------------------------------------ emission layer

def _fmt(value: float) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _section(lines: list[str], name: str, header: str, rows: list) -> None:
    if rows:
        lines += [f"# section {name}", header]
        lines += [",".join(_fmt(cell) for cell in row) for row in rows]


def report_csv_text(report: ConvergenceReport) -> str:
    """Deterministic CSV: sections with versioned headers, one laplace row
    per (n, lambda)."""
    lines = [f"# {REPORT_VERSION}", f"# experiment = {report.experiment}"]
    rows = report.rows
    _section(lines, "laplace", "n,lambda,empirical,stderr,predicted,replicas_used,truncated",
             [(r.n, *astuple(p), r.replicas_used, r.truncated)
              for r in rows for p in r.laplace])
    _section(lines, "tail", "n,hill,ci_low,ci_high,k,ks_distance,dkw_epsilon,"
             "replicas_used,truncated",
             [(r.n, *((r.hill.index, r.hill.ci_low, r.hill.ci_high, r.hill.k)
                      if r.hill is not None else (math.nan,) * 3 + (0,)),
               *((r.ks.distance, r.ks.dkw_epsilon) if r.ks is not None else (math.nan,) * 2),
               r.replicas_used, r.truncated)
              for r in rows if r.hill is not None or r.ks is not None])
    census = [r for r in rows if r.census is not None]
    _section(lines, "census", "n,environments,k_mean,k_over_nq,q_hat,coincidence,"
             "a1,a2,a3,a4,a5,joint,retries,exhausted",
             [(r.n, *astuple(r.census)[:-1]) for r in census])  # but height_ratios
    _section(lines, "height_tail", "n,h,scaled_tail",
             [(r.n, h, ratio) for r in census for h, ratio in r.census.height_ratios])
    _section(lines, "reduction", "n,lambda,lambda_n,left,left_se,factor,factor_se,"
             "k_lower,k_upper,bracket_low,bracket_high,margin,envs_with_valley",
             [(r.n, *astuple(p)) for r in rows for p in r.reduction])
    _section(lines, "crossing", "h,mean_tau,stderr,environments,skipped",
             [astuple(p) for p in report.crossing])
    _section(lines, "extras", "key,value",
             list(report.extras) + [(f"{k}@{r.n}", v) for r in rows for k, v in r.extras])
    return "\n".join(lines) + "\n"


def manifest_text(report: ConvergenceReport) -> str:
    """The config, the runner keywords the report records and the library
    versions, as ``key = value`` lines that run_from_manifest reads."""
    versions = (f"python:{sys.version_info.major}.{sys.version_info.minor};"
                f"numpy:{np.__version__};rwre:{_pkg_version}")
    return (f"# {MANIFEST_VERSION}\n"
            f"experiment = {report.experiment}\n"
            f"{config_text(report.config)}"
            f"{_kv_text(dict(report.params))}"
            f"versions = {versions}\n")


def write_report(report: ConvergenceReport, output_dir: str) -> dict[str, str]:
    """Write <experiment>.csv and <experiment>.manifest.txt into output_dir;
    returns their paths by kind."""
    os.makedirs(output_dir, exist_ok=True)
    outputs = {"csv": (".csv", report_csv_text), "manifest": (".manifest.txt", manifest_text)}
    paths = {}
    for kind, (suffix, text) in outputs.items():
        paths[kind] = os.path.join(output_dir, report.experiment + suffix)
        with open(paths[kind], "w") as f:
            f.write(text(report))
    return paths


@dataclass(frozen=True)
class Experiment:
    """One experiment: its runner, the CLI command that drives it, and the
    runner's own keyword parameters with their types, which the manifest
    records.  needs names the config fields without a default that the
    runner reads, which a config for it must give; flags names the
    parameters the command also takes as flags."""
    runner: Callable[..., ConvergenceReport]
    command: str
    help: str
    params: dict[str, type]
    needs: tuple[str, ...] = _NEEDS_ALL
    flags: tuple[str, ...] = ()


EXPERIMENTS = {
    "tau": Experiment(run_tau_experiment, "simulate-tau",
                      "annealed hitting-time experiment", {}),
    "position": Experiment(run_position_experiment, "simulate-x",
                           "position experiment", {}),
    "census": Experiment(run_valley_census, "census", "valley census over environments",
                         {"delta": float, "c_prime": float, "c_dprime": float}),
    "reduction": Experiment(verify_reduction, "verify-reduction",
                            "single-valley reduction bracket", {"environments": int},
                            needs=("n_values",), flags=("environments",)),
    "crossing": Experiment(verify_crossing_bound, "verify-crossing",
                           "crossing-time growth bound", {"h_values": tuple[float, ...]},
                           needs=("replicas",)),
}


def run_from_manifest(path: str, workers: int = 1) -> ConvergenceReport:
    """Re-run the experiment a manifest describes, with its config and
    runner keywords; a keyword the manifest lacks takes the runner's
    default.  The regenerated CSV is byte-identical for any worker count."""
    with open(path) as f:
        mapping = _parse_kv_lines(f.read())
    name = mapping.get("experiment")
    if name not in EXPERIMENTS:
        raise ValueError(f"manifest names unknown experiment {name!r}")
    experiment = EXPERIMENTS[name]
    params = {key: _PARSERS[kind](mapping.pop(key))
              for key, kind in experiment.params.items() if key in mapping}
    return experiment.runner(_config_from(mapping, experiment.needs), workers=workers, **params)

"""The explicit constants of the stable limit law.

The hitting-time law tau(n)/n^{1/kappa} converges to a positive stable
law whose scale is an explicit product of four ingredients:

* kappa, the root of E[rho^t] = 1;
* the log-moment E[rho^kappa log rho];
* the Iglehart constant C_I governing the excursion-height tail
  P{H >= h} ~ C_I e^{-kappa h}, with its companion C_F = C_I / (1 - E[e^{kappa V(e_1)}]);
* the Kesten constant C_K governing the tail of the renewal series
  R = sum_k e^{V(k)}, P{R > x} ~ C_K x^{-kappa}.

C_I is read off the first n excursions of one keyed potential path, cut
at its weak descending ladder epochs by potential.excursion_table (the
strong Markov property makes them i.i.d.), with a delta-method standard
error that keeps the covariance between the two excursion functionals.
C_K has a closed form in the Beta case and, for any law, Goldie's
implicit renewal formula (Ann. Appl. Probab. 1991) C_K =
E[R^kappa - (R - 1)^kappa] / (kappa E[rho^kappa log rho]): with
R >= 1 and 0 < kappa < 1 the summand lies in (0, 1], so the estimate is
the mean of a bounded variable.  R solves the perpetuity R = 1 + rho R'
(Kesten, Acta Math. 1973), so its draws come from the Markov chain
R_k = 1 + rho_k R_{k-1}, whose stationary law is the law of R, at one
rho draw a sample.
The combined scale Lambda = 2^kappa (pi kappa^2 / sin(pi kappa)) C_K^2
times the log-moment then feeds every prediction downstream: the Laplace
transform e^{-Lambda lambda^kappa}, the tau prefactor Lambda^{1/kappa},
and the position scale 1/Lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import betaln, digamma

from .env import (
    EnvironmentLaw,
    RegimeError,
    draw_rho,
    kappa_solve,
    mean_log_rho,
    moment_rho_log,
    sample_environment,
    var_log_rho,
)
from .potential import build_potential, excursion_table
from .rng import generator, stream_key

__all__ = [
    "LimitLawParams",
    "TailEstimate",
    "HillEstimate",
    "IglehartEstimate",
    "sample_excursions",
    "iglehart_constant",
    "feller_from_estimate",
    "kesten_constant_beta",
    "kesten_tail_estimate",
    "hill_estimate",
    "limit_scale",
    "limit_scale_beta",
]

_CHAIN_LANES = 1024               # independent perpetuity chains
_CHAIN_BLOCK = 64                 # steps drawn per generator call: 1024 x 64 doubles = 512 KB
_HILL_STRIDE = 8                  # steps between the R kept for the Hill index; divides _CHAIN_BLOCK
_BURN_IN_WEIGHT = 1e-12           # bound on the start's weight prod rho_k after the burn-in
_BURN_IN_Z = 6.0                  # standard deviations of log prod rho_k the bound allows for


@dataclass(frozen=True)
class LimitLawParams:
    kappa: float
    c_k: float
    moment: float                 # E[rho^kappa log rho]
    lambda_scale: float           # the Laplace exponent scale
    tau_prefactor: float          # lambda_scale^(1/kappa)
    x_scale: float                # 1 / lambda_scale


@dataclass(frozen=True)
class TailEstimate:
    constant_hat: float           # Goldie's E[R^kappa - (R - 1)^kappa] / (kappa m)
    index_hat: float              # Hill estimate of the tail index
    stderr: float                 # standard error of constant_hat, from the lane means
    n_series: int                 # R draws averaged: lanes x kept steps


@dataclass(frozen=True)
class HillEstimate:
    index: float
    ci_low: float
    ci_high: float
    k: int


@dataclass(frozen=True)
class IglehartEstimate:
    c_i: float
    stderr: float
    e_kv: float                   # sample mean of e^{kappa V(e_1)}
    e_len: float                  # sample mean of e_1
    cov: np.ndarray               # 2x2 covariance of (e^{kappa V(e_1)}, e_1)
    n_excursions: int


def sample_excursions(law: EnvironmentLaw, n: int, seed: int,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first n excursions of the potential above its running minimum
    on sites 0, 1, ... of the environment keyed by stream_key(seed,
    "excursions").

    Returns (v_end, length, height) per excursion, between consecutive
    weak descending ladder epochs e_{i-1} < e_i: V(e_i) - V(e_{i-1}) <= 0,
    e_i - e_{i-1}, and the rise max V - V(e_{i-1}) over [e_{i-1}, e_i].
    The first window holds 2n sites; a window short of n excursions grows
    in place by the sites per excursion seen so far, with the potential
    and the excursion table continued bit for bit into the spare room of
    their arrays, as every growing window is, so no excursion is cut.
    """
    if mean_log_rho(law) >= 0.0:
        raise RegimeError(f"law {law.spec_text()} has E[log rho] >= 0: its potential "
                          "does not drift down and an excursion need not end")
    key = stream_key(seed, "excursions")
    right = 2 * n
    path = build_potential(sample_environment(law, (1, right), seed=key))
    table = excursion_table(path)
    while table.ends.size < n:
        done = table.ends.size
        per_excursion = right / done if done else 2.0
        grown = right + math.ceil((n - done) * per_excursion * 1.02) + 4096
        piece = sample_environment(law, (right + 1, grown), seed=key)
        path = path.joined(build_potential(piece, prior=path))
        table = excursion_table(path, prior=table)
        right = grown
    starts, ends = table.starts[:n], table.ends[:n]    # the path starts at site 0
    return path.v[ends] - path.v[starts], ends - starts, table.heights[:n]


def iglehart_constant(law: EnvironmentLaw, kappa: float, n_excursions: int = 200_000,
                      seed: int = 0) -> IglehartEstimate:
    """C_I = (1 - E[e^{kappa V(e_1)}])^2 / (kappa E[rho^kappa log rho] E[e_1]),
    with both excursion functionals estimated jointly from one sample and
    the standard error carried through the delta method with their
    covariance."""
    kr = kappa_solve(law)          # validates the regime; raises NoRootError
    if abs(kr.kappa - kappa) > 1e-6:
        raise ValueError(f"kappa={kappa} does not match the law's root {kr.kappa}")
    moment = moment_rho_log(law, kappa)
    v_end, length, _ = sample_excursions(law, n_excursions, seed)
    a = np.exp(kappa * v_end)      # e^{kappa V(e_1)} <= 1
    b = length.astype(np.float64)
    a_mean = float(a.mean())
    b_mean = float(b.mean())
    cov = np.cov(np.vstack([a, b]))
    denom = kappa * moment * b_mean
    c_i = (1.0 - a_mean) ** 2 / denom
    grad = np.array([-2.0 * (1.0 - a_mean) / denom,
                     -((1.0 - a_mean) ** 2) / (denom * b_mean)])
    var = float(grad @ cov @ grad) / n_excursions
    return IglehartEstimate(c_i=c_i, stderr=math.sqrt(max(var, 0.0)),
                            e_kv=a_mean, e_len=b_mean, cov=cov,
                            n_excursions=n_excursions)


def feller_from_estimate(est: IglehartEstimate, kappa: float, moment: float,
                         ) -> tuple[float, float]:
    """(C_F, stderr) by the delta method on the same excursion sample."""
    a, b = est.e_kv, est.e_len
    denom = kappa * moment * b
    c_f = (1.0 - a) / denom
    grad = np.array([-1.0 / denom, -(1.0 - a) / (denom * b)])
    var = float(grad @ est.cov @ grad) / est.n_excursions
    return c_f, math.sqrt(max(var, 0.0))


def kesten_constant_beta(alpha: float, beta: float) -> float:
    """Closed form of the renewal-series tail constant in the Beta case.

    For omega ~ Beta(alpha, beta), 1/R ~ Beta(kappa, beta) exactly with
    kappa = alpha - beta (Chamayou-Letac), so P{R > x} ~ x^{-kappa} /
    (kappa B(kappa, beta)) and
    C_K = 1 / (kappa B(kappa, beta)) = Gamma(alpha) / (Gamma(kappa + 1) Gamma(beta))."""
    kappa = alpha - beta
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"need 0 < alpha - beta < 1, got {kappa}")
    return 1.0 / (kappa * math.exp(betaln(kappa, beta)))


def _burn_in(law: EnvironmentLaw) -> int:
    """Steps after which the start's weight in R_k = 1 + rho_k R_{k-1},
    prod rho_k, lies below _BURN_IN_WEIGHT.

    log prod rho_k is a random walk with drift mu = E[log rho] < 0 and
    variance s^2 = Var[log rho] a step.  The burn-in b is the least with
    b mu + z s sqrt(b) <= log _BURN_IN_WEIGHT, z = _BURN_IN_Z: the weight
    stays above the bound only if the walk ends z standard deviations above
    its mean, which the central limit theorem puts at Phi(-6) = 1e-9 a lane
    (Hoeffding's inequality bounds it by e^{-18} = 1.5e-8 for a two-atom law
    with equal weights).  The weight matches the 1e-12 relative tolerance
    at which a summed series would stop.
    """
    drift = -mean_log_rho(law)
    if drift <= 0.0:
        raise RegimeError(f"law {law.spec_text()} has E[log rho] >= 0: the series "
                          "R = sum e^{V(k)} diverges")
    spread = _BURN_IN_Z * math.sqrt(var_log_rho(law))
    level = -math.log(_BURN_IN_WEIGHT)
    root = (spread + math.sqrt(spread * spread + 4.0 * drift * level)) / (2.0 * drift)
    return math.ceil(root * root)


def _perpetuity_blocks(law: EnvironmentLaw, rng: np.random.Generator, start: np.ndarray,
                       steps: int):
    """Run R_k = 1 + rho_k R_{k-1} for `steps` steps on independent lanes
    from R_0 = start, yielding the R of each step _CHAIN_BLOCK steps at a
    time as a (steps in the block, lanes) array.  Each block's rho come
    from one draw_rho call, row by row, and are overwritten in place by
    the R they drive; the last row of a block starts the next one."""
    r = start
    for lo in range(0, steps, _CHAIN_BLOCK):
        block = draw_rho(law, rng, min(_CHAIN_BLOCK, steps - lo) * r.size).reshape(-1, r.size)
        for row in block:
            row *= r
            row += 1.0
            r = row
        yield block


def _burned_in(law: EnvironmentLaw, rng: np.random.Generator, start: np.ndarray,
               ) -> np.ndarray:
    """The lanes' R after _burn_in(law) steps of the perpetuity chain from
    R_0 = start."""
    r = start
    for block in _perpetuity_blocks(law, rng, start, _burn_in(law)):
        r = block[-1]
    return r


def _reject_arithmetic(law: EnvironmentLaw) -> None:
    """Kesten's x^kappa P{R > x} -> C_K needs a non-arithmetic log rho.  A
    discrete law whose nonzero log-rho atoms are all rational multiples of
    one span (denominator at most 64, to 1e-12 relative) lives on a
    lattice, where that product oscillates and no C_K exists."""
    if law.kind != "discrete":
        return
    logs = [x for x in (math.log((1.0 - w) / w) for w in law.values) if x != 0.0]
    ratios = [x / logs[0] for x in logs[1:]]
    if all(abs(float(Fraction(r).limit_denominator(64)) - r) <= 1e-12 * abs(r)
           for r in ratios):
        raise ValueError(f"law {law.spec_text()} is arithmetic (its log rho atoms lie on "
                         "one lattice), so x^kappa P{R > x} oscillates and has no "
                         "tail constant C_K")


def kesten_tail_estimate(law: EnvironmentLaw, kappa: float, n_series: int = 3_000_000,
                         seed: int = 0) -> TailEstimate:
    """Estimate the tail constant of R = sum e^{V(k)} by Goldie's identity
    C_K = E[R^kappa - (R - 1)^kappa] / (kappa m), m = E[rho^kappa log rho].

    R's draws come from the perpetuity chain R_k = 1 + rho_k R_{k-1} on
    min(_CHAIN_LANES, n_series) independent lanes.  Each lane starts at
    R = 1, runs _burn_in(law) steps, then averages Goldie's summand
    -R^kappa expm1(kappa log1p(-1/R)), which lies in (0, 1] for
    0 < kappa < 1 and keeps its digits when R is large, over
    ceil(n_series / lanes) kept steps.  The lane means are independent, so
    their spread gives the standard error with no model of the chain's
    autocorrelation.  The Hill estimator over the top max(200, m^0.6) of
    the m values of R recorded every _HILL_STRIDE kept steps reads off the
    index.

    Memory: 8 bytes a lane for each R recorded for the Hill index, one in
    _HILL_STRIDE kept steps (3 MB at the default size), plus about 2 MB of
    _CHAIN_BLOCK-step blocks and summands, whatever n_series.

    Raises ValueError for an arithmetic discrete law, which has no C_K.
    """
    _reject_arithmetic(law)
    scale = kappa * moment_rho_log(law, kappa)
    rng = generator(stream_key(seed, "kesten"))
    lanes = min(_CHAIN_LANES, n_series)
    steps = -(-n_series // lanes)
    r = _burned_in(law, rng, np.ones(lanes))
    totals = np.zeros(lanes)
    recorded = np.empty((-(-steps // _HILL_STRIDE), lanes))
    for i, block in enumerate(_perpetuity_blocks(law, rng, r, steps)):
        # every block but the last holds _CHAIN_BLOCK steps, a multiple of the stride
        lo = i * (_CHAIN_BLOCK // _HILL_STRIDE)
        kept = block[::_HILL_STRIDE]
        recorded[lo : lo + kept.shape[0]] = kept
        g = np.log1p(-1.0 / block)
        g *= kappa
        np.expm1(g, out=g)
        g *= block ** kappa
        totals -= g.sum(axis=0)

    means = totals / steps
    index_hat = hill_estimate(recorded.ravel(), k=max(200, int(recorded.size ** 0.6))).index
    return TailEstimate(constant_hat=float(means.mean()) / scale, index_hat=index_hat,
                        stderr=float(means.std(ddof=1)) / math.sqrt(lanes) / scale,
                        n_series=lanes * steps)


def hill_estimate(sample: np.ndarray, k: int | None = None) -> HillEstimate:
    """Hill tail-index estimate over the k largest points, k = floor(m^0.6)
    by default; only the top k + 1 are selected and sorted."""
    x = np.asarray(sample, dtype=np.float64)
    m = x.size
    if m < 10:
        raise ValueError(f"need at least 10 points for a tail estimate, got {m}")
    if k is None:
        k = int(m ** 0.6)
    k = max(5, min(k, m - 1))
    top = np.sort(np.partition(x, m - k - 1)[m - k - 1:])[::-1]
    gamma = float(np.mean(np.log(top[:k]) - np.log(top[k])))
    index = 1.0 / gamma if gamma > 0 else math.inf
    se = index / math.sqrt(k)
    return HillEstimate(index=index, ci_low=index - 1.96 * se,
                        ci_high=index + 1.96 * se, k=k)


def limit_scale(kappa: float, c_k: float, moment: float) -> LimitLawParams:
    """Assemble the limit-law scale from its ingredients:
    Lambda = 2^kappa (pi kappa^2 / sin(pi kappa)) C_K^2 moment."""
    if not 0.0 < kappa < 1.0:
        raise RegimeError(f"kappa must lie in (0,1), got {kappa}")
    lam = (2.0 ** kappa) * (math.pi * kappa ** 2 / math.sin(math.pi * kappa)) \
        * (c_k ** 2) * moment
    return LimitLawParams(kappa=kappa, c_k=c_k, moment=moment,
                          lambda_scale=lam,
                          tau_prefactor=lam ** (1.0 / kappa),
                          x_scale=1.0 / lam)


def limit_scale_beta(alpha: float, beta: float) -> float:
    """The same scale through the Beta-case closed form, with
    kappa C_K = 1 / B(kappa, beta) and E[rho^kappa log rho] = digamma(alpha) - digamma(beta):
    2^kappa (pi / sin(pi kappa)) (digamma(alpha) - digamma(beta)) / B(kappa, beta)^2."""
    kappa = alpha - beta
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"need 0 < alpha - beta < 1, got {kappa}")
    return (2.0 ** kappa) * (math.pi / math.sin(math.pi * kappa)) \
        * float(digamma(alpha) - digamma(beta)) \
        / math.exp(2.0 * betaln(kappa, beta))

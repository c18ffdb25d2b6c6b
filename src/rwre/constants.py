"""The explicit constants of the stable limit law.

The hitting-time law tau(n)/n^{1/kappa} converges to a positive stable
law whose scale is an explicit product of four ingredients:

* kappa, the root of E[rho^t] = 1;
* the log-moment E[rho^kappa log rho];
* the Iglehart constant C_I governing the excursion-height tail
  P{H >= h} ~ C_I e^{-kappa h}, with its companion C_F = C_I / (1 - E[e^{kappa V(e_1)}]);
* the Kesten constant C_K governing the tail of the renewal series
  R = sum_k e^{V(k)}, P{R > x} ~ C_K x^{-kappa}.

C_I comes out of a joint Monte Carlo over excursions (with a delta-method
standard error that keeps the covariance between the two excursion
functionals).  C_K has a closed form in the Beta case and a direct tail
estimator for any law; the estimator simulates the series to numerical
convergence and reads the constant off the flat region of x^kappa P{R > x}.
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

from .env import EnvironmentLaw, RegimeError, draw_log_rho, kappa_solve, moment_rho_log
from .rng import generator, stream_key

__all__ = [
    "LimitLawParams",
    "TailEstimate",
    "IglehartEstimate",
    "sample_excursions",
    "iglehart_constant",
    "feller_constant",
    "feller_from_estimate",
    "kesten_constant_beta",
    "kesten_tail_estimate",
    "meander_moment",
    "c_u",
    "limit_scale",
    "limit_scale_beta",
]

_EXCURSION_SITE_CAP = 100_000     # one excursion longer than this is flagged
_SERIES_TERM_CAP = 100_000
_SERIES_REL_TOL = 1e-12
_SERIES_BLOCK = 100_000           # series per _simulate_series_block call
_SERIES_CHUNK = 64                # terms drawn per active series and pass
_SERIES_ROWS = 1024               # series per slice: 1024 x 64 doubles = 512 KB


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
    level_grid: np.ndarray
    raw_tail: np.ndarray          # empirical P{R > x} on the grid
    constant_hat: float           # flat-region mean of x^kappa P{R > x}
    index_hat: float              # Hill estimate of the tail index
    stderr: float                 # block-bootstrap stderr of constant_hat
    n_series: int
    truncated_series: int         # series stopped by the term cap, not by tolerance


@dataclass(frozen=True)
class IglehartEstimate:
    c_i: float
    stderr: float
    e_kv: float                   # sample mean of e^{kappa V(e_1)}
    e_len: float                  # sample mean of e_1
    cov: np.ndarray               # 2x2 covariance of (e^{kappa V(e_1)}, e_1)
    n_excursions: int
    truncated_excursions: int     # excursions cut by the site cap


def sample_excursions(law: EnvironmentLaw, n: int, seed: int,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """n excursions of the potential above its running minimum.

    Returns (v_end, length, height, truncated): the potential value at the
    first weak descending ladder epoch, the epoch itself, the running max
    over the excursion, and how many excursions were cut off by the site
    cap (their partial values are kept; with a transient law the cap is
    effectively unreachable).
    """
    rng = generator(stream_key(seed, "excursions"))
    v = np.zeros(n)
    height = np.zeros(n)
    length = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    v_end = np.zeros(n)
    rounds = 0
    truncated = 0
    while active.size:
        inc = draw_log_rho(law, rng, active.size)
        v[active] += inc
        length[active] += 1
        height[active] = np.maximum(height[active], v[active])
        done = v[active] <= 0.0
        idx_done = active[done]
        v_end[idx_done] = v[idx_done]
        active = active[~done]
        rounds += 1
        if rounds >= _EXCURSION_SITE_CAP and active.size:
            truncated = int(active.size)
            v_end[active] = v[active]
            break
    return v_end, length, height, truncated


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
    v_end, length, _, truncated = sample_excursions(law, n_excursions, seed)
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
                            n_excursions=n_excursions,
                            truncated_excursions=truncated)


def feller_constant(c_i: float, e_kv: float) -> float:
    """C_F = C_I / (1 - E[e^{kappa V(e_1)}])."""
    if not 0.0 < e_kv < 1.0:
        raise ValueError(f"E[e^(kappa V(e_1))] must lie in (0,1), got {e_kv}")
    return c_i / (1.0 - e_kv)


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


def _simulate_series_block(law: EnvironmentLaw, rng: np.random.Generator,
                           size: int, truncation: int) -> tuple[np.ndarray, int]:
    """R = sum_{k>=0} e^{V(k)} per series, stopped when the increment is
    below _SERIES_REL_TOL of the running sum or at the term cap.

    The series still active advance _SERIES_CHUNK terms at a time, and
    each chunk runs over consecutive slices of _SERIES_ROWS series so
    that the log-rho draws, their cumulative sum, exp and product stay in
    one cache-sized array, updated in place.  Generator fills are
    sequential, so the draws and every R are those of one fill per
    chunk.  Memory: about 50 bytes a series (r, p, the active index and
    the temporaries of the stopping test), plus a few _SERIES_ROWS x
    _SERIES_CHUNK arrays of 512 KB, whatever the term cap.
    """
    r = np.ones(size)
    p = np.ones(size)              # current partial product e^{V(k)}
    active = np.arange(size)
    terms = 0
    while active.size and terms < truncation:
        width = min(_SERIES_CHUNK, truncation - terms)
        for lo in range(0, active.size, _SERIES_ROWS):
            rows = active[lo : lo + _SERIES_ROWS]
            prods = draw_log_rho(law, rng, rows.size * width).reshape(rows.size, width)
            np.cumsum(prods, axis=1, out=prods)
            np.exp(prods, out=prods)
            prods *= p[rows, None]
            r[rows] += prods.sum(axis=1)
            p[rows] = prods[:, -1]
        terms += width
        still = p[active] > _SERIES_REL_TOL * r[active]
        active = active[still]
    return r, int(active.size)


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


def kesten_tail_estimate(law: EnvironmentLaw, kappa: float, n_series: int = 1_000_000,
                         truncation: int = _SERIES_TERM_CAP, seed: int = 0,
                         n_levels: int = 40, min_exceed: int = 200,
                         ) -> TailEstimate:
    """Estimate the tail constant of R = sum e^{V(k)} directly.

    The level window runs from the 99.9th percentile of the sample up to
    the largest level that still has min_exceed exceedances; within it
    x^kappa P{R > x} should be flat, and its mean is the estimate.  The
    standard error is a block bootstrap over sample shards, and the Hill
    estimator over the top n^{0.6} order statistics reads off the index.

    Memory: about 32 bytes a series (the sample, its sort order, its
    sorted copy and the quantile's working copy), plus about 5 MB for one
    _SERIES_BLOCK block of the simulation (see _simulate_series_block),
    whatever the term cap.

    Raises ValueError for an arithmetic discrete law, which has no C_K.
    """
    _reject_arithmetic(law)
    rng = generator(stream_key(seed, "kesten"))
    out = np.empty(n_series)
    truncated = 0
    done = 0
    n_shards = 16
    while done < n_series:
        m = min(_SERIES_BLOCK, n_series - done)
        r, trunc = _simulate_series_block(law, rng, m, truncation)
        out[done : done + m] = r
        truncated += trunc
        done += m
    shard_id = (np.arange(n_series) * n_shards) // n_series
    order = np.argsort(out)
    r_sorted = out[order]
    lo = float(np.quantile(r_sorted, 0.999))
    hi = float(r_sorted[-min_exceed])
    if hi <= lo:
        hi = lo * 2.0
    level_grid = np.geomspace(lo, hi, n_levels)
    counts = n_series - np.searchsorted(r_sorted, level_grid, side="right")
    raw_tail = counts / n_series
    constant_hat = float(np.mean(level_grid ** kappa * raw_tail))

    # per-shard exceedance counts feed a cheap block bootstrap
    shard_counts = np.zeros((n_shards, n_levels))
    for s in range(n_shards):
        rs = np.sort(out[shard_id == s])
        shard_counts[s] = len(rs) - np.searchsorted(rs, level_grid, side="right")
    shard_sizes = np.bincount(shard_id, minlength=n_shards).astype(np.float64)
    boot_rng = generator(stream_key(seed, "kesten", "boot"))
    boots = np.empty(200)
    for bi in range(len(boots)):
        pick = boot_rng.integers(0, n_shards, size=n_shards)
        tail = shard_counts[pick].sum(axis=0) / shard_sizes[pick].sum()
        boots[bi] = np.mean(level_grid ** kappa * tail)
    stderr = float(np.std(boots, ddof=1))

    k_hill = max(min_exceed, int(n_series ** 0.6))
    top = r_sorted[-(k_hill + 1):]
    index_hat = 1.0 / float(np.mean(np.log(top[1:] / top[0])))
    return TailEstimate(level_grid=level_grid, raw_tail=raw_tail,
                        constant_hat=constant_hat, index_hat=index_hat,
                        stderr=stderr, n_series=n_series,
                        truncated_series=truncated)


def meander_moment(c_k: float, c_f: float) -> float:
    """E[M^kappa] = C_K / C_F."""
    if c_f <= 0:
        raise ValueError("C_F must be positive")
    return c_k / c_f


def c_u(c_i: float, m_moment: float) -> float:
    """C_U = C_I E[M^kappa]."""
    return c_i * m_moment


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

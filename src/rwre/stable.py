"""Positive stable laws: the limit of tau(n)/n^{1/kappa} and, through a
negative power, of the walk's position.  Kanter's representation serves
twice: sampled, two uniforms give one exact draw with Laplace transform
exp(-lambda^kappa); integrated (Zolotarev's integral), it gives the exact
CDF, which KS distances compare a sample against.  The kappa = 1/2 case,
the Levy law with CDF erfc(1/(2 sqrt(x))), pins the normalization: a
wrong scale or exponent moves its median, and the tests catch it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .env import RegimeError
from .rng import generator, stream_key

__all__ = [
    "StableSpec",
    "PredictedCdf",
    "sample_positive_stable",
    "stable_cdf",
    "laplace",
    "predicted_tau_cdf",
]

LEVY_MEDIAN = 1.09905466915886620

_CDF_NODES = 384           # Gauss-Legendre nodes of stable_cdf's rule
_CDF_POINTS = 2 ** 17 // _CDF_NODES     # points a block: a (points x nodes) temporary is 1 MB
# built on first use; numpy's leggauss solves a dense eigenproblem: 27 ms alone,
# 1.6 s with its BLAS threads on two cores of which one was busy
_legendre = functools.cache(roots_legendre)


@dataclass(frozen=True)
class StableSpec:
    kappa: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise RegimeError(f"positive stable index must lie in (0,1), got {self.kappa}")
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class PredictedCdf:
    grid: np.ndarray
    cdf: np.ndarray
    band_low: np.ndarray
    band_high: np.ndarray
    epsilon: float                # DKW half-width at 95%
    n_samples: int


def _log_a(k: float, u: np.ndarray, sin_u: np.ndarray) -> np.ndarray:
    """Kanter's log a(u) = [k log sin(ku) + (1-k) log sin((1-k)u)
    - log sin(u)]/(1-k); near u = pi, sin_u = sin(pi - u) avoids cancelling."""
    return (k * np.log(np.sin(k * u))
            + (1.0 - k) * np.log(np.sin((1.0 - k) * u))
            - np.log(sin_u)) / (1.0 - k)


def sample_positive_stable(spec: StableSpec, n: int, seed) -> np.ndarray:
    """Kanter's exact sampler: with U uniform on (0, pi) and W standard
    exponential, (a(U)/W)^{(1-k)/k} is positive stable(k)."""
    if n < 0:
        raise ValueError(f"need a sample count >= 0, got count {n}")
    k = spec.kappa
    rng = seed if isinstance(seed, np.random.Generator) else \
        generator(stream_key(seed, "stable"))
    u = rng.random(n) * math.pi
    w = rng.exponential(1.0, n)
    return spec.scale * np.exp((1.0 - k) / k * (_log_a(k, u, np.sin(u)) - np.log(w)))


def stable_cdf(spec: StableSpec, x) -> np.ndarray:
    """P{scale S <= x}, 0 at x <= 0, by Zolotarev's integral: S <= y exactly
    when W >= a(U) y^{-k/(1-k)} in Kanter's representation, so
    F(y) = (1/pi) int_0^pi exp(-a(u) y^{-k/(1-k)}) du.  Gauss-Legendre on t,
    pi - u = pi t^4 resolving the integrand's narrow drop near u = pi at
    large y, has absolute error below 1e-6 at every x for kappa <= 0.95
    (1.1e-7 at 0.95, 1.5e-9 at 0.9, 3e-13 at 0.5, against 4096 nodes); it
    grows toward kappa = 1 (1.2e-6 at 0.97)."""
    x = np.asarray(x, dtype=np.float64)
    t, w = _legendre(_CDF_NODES)
    t = (t + 1.0) / 2.0
    d = math.pi * t ** 4                      # d = pi - u
    log_a = _log_a(spec.kappa, math.pi - d, np.sin(d))
    weights = 2.0 * w * t ** 3                # the Jacobian and 1/pi folded in
    out = np.empty(x.size)
    with np.errstate(divide="ignore", over="ignore"):    # x <= 0: log_z = inf, so F = 0
        log_z = np.log(np.maximum(x, 0.0) / spec.scale).ravel() * (spec.kappa / (spec.kappa - 1.0))
        for lo in range(0, out.size, _CDF_POINTS):
            block = np.add.outer(log_z[lo:lo + _CDF_POINTS], log_a)
            out[lo:lo + _CDF_POINTS] = np.exp(-np.exp(block)) @ weights
    return out.reshape(x.shape)


def laplace(spec: StableSpec, lam) -> np.ndarray | float:
    """E[e^{-lam S}] = exp(-(scale lam)^kappa); lam = 0 gives exactly 1."""
    lam_arr = np.asarray(lam, dtype=np.float64)
    if np.any(lam_arr < 0.0):
        raise ValueError("laplace argument must be nonnegative")
    out = np.exp(-np.power(spec.scale * lam_arr, spec.kappa))
    return float(out) if np.isscalar(lam) or lam_arr.ndim == 0 else out


def predicted_tau_cdf(params, grid, n_samples: int = 100_000, seed: int = 0,
                      ) -> PredictedCdf:
    """Empirical CDF of tau_prefactor * S on the given grid, with a 95%
    DKW band.  params needs .kappa and .tau_prefactor."""
    spec = StableSpec(kappa=params.kappa, scale=params.tau_prefactor)
    draws = np.sort(sample_positive_stable(spec, n_samples, seed))
    grid = np.asarray(grid, dtype=np.float64)
    cdf = np.searchsorted(draws, grid, side="right") / n_samples
    eps = math.sqrt(math.log(2.0 / 0.05) / (2.0 * n_samples))
    return PredictedCdf(grid=grid, cdf=cdf,
                        band_low=np.maximum(cdf - eps, 0.0),
                        band_high=np.minimum(cdf + eps, 1.0),
                        epsilon=eps, n_samples=n_samples)

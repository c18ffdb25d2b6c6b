"""Positive stable laws.

The limit of tau(n)/n^{1/kappa} is a completely asymmetric positive
stable law, and the limit of the walk's position is a negative power of
one.  Neither has a usable closed-form CDF (kappa = 1/2 aside), so
everything goes through exact sampling:

* Kanter's representation turns two uniforms into one positive stable
  draw with Laplace transform exp(-lambda^kappa), no rejection step;
* predicted CDFs carry a Dvoretzky-Kiefer-Wolfowitz band so downstream
  comparisons know how much of the error is Monte Carlo.

The kappa = 1/2 special case (the Levy distribution, CDF
erfc(1/(2 sqrt(x)))) pins the normalization: one distributional slip, a
wrong scale or a wrong exponent, shifts its median away from the known
value and the tests catch it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import RegimeError
from .rng import generator, stream_key

__all__ = [
    "StableSpec",
    "PredictedCdf",
    "sample_positive_stable",
    "laplace",
    "predicted_tau_cdf",
]

LEVY_MEDIAN = 1.09905466915886620


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


def sample_positive_stable(spec: StableSpec, n: int, seed) -> np.ndarray:
    """Kanter's exact sampler: with U uniform on (0, pi) and W standard
    exponential, (a(U)/W)^{(1-k)/k} is positive stable(k), where
    log a(u) = [k log sin(ku) + (1-k) log sin((1-k)u) - log sin(u)]/(1-k)."""
    k = spec.kappa
    rng = seed if isinstance(seed, np.random.Generator) else \
        generator(stream_key(seed, "stable"))
    u = rng.random(n) * math.pi
    w = rng.exponential(1.0, n)
    log_a = (k * np.log(np.sin(k * u))
             + (1.0 - k) * np.log(np.sin((1.0 - k) * u))
             - np.log(np.sin(u))) / (1.0 - k)
    return spec.scale * np.exp((1.0 - k) / k * (log_a - np.log(w)))


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

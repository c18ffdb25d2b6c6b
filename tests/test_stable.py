"""Positive stable sampling, checked against the kappa = 1/2 closed form
and the inverse subordinator kept in the oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import inverse_subordinator_path, levy_cdf
from rwre.env import RegimeError
from rwre.experiments import ks_two_sample
from rwre.stable import (
    LEVY_MEDIAN,
    StableSpec,
    laplace,
    predicted_tau_cdf,
    sample_positive_stable,
)


# ----------------------------------------------------------------- spec

def test_spec_validation():
    for bad in (0.0, 1.0, 1.3, -0.2):
        with pytest.raises(RegimeError):
            StableSpec(kappa=bad, scale=1.0)
    with pytest.raises(ValueError):
        StableSpec(kappa=0.5, scale=0.0)


# -------------------------------------------------------------- laplace

def test_laplace_closed_form():
    spec = StableSpec(kappa=0.5, scale=2.0)
    assert laplace(spec, 0.0) == 1.0
    assert laplace(spec, 1.0) == pytest.approx(math.exp(-math.sqrt(2.0)),
                                               rel=1e-14)
    arr = laplace(spec, np.array([0.0, 1.0, 4.0]))
    assert arr.shape == (3,)
    assert arr[2] == pytest.approx(math.exp(-math.sqrt(8.0)), rel=1e-14)
    with pytest.raises(ValueError):
        laplace(spec, -0.5)


@pytest.mark.parametrize("kappa", [0.3, 0.8])
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_sampler_matches_its_laplace_transform(kappa, lam):
    spec = StableSpec(kappa=kappa, scale=1.0)
    draws = sample_positive_stable(spec, 200_000, seed=11)
    assert np.all(draws > 0.0)
    probe = np.exp(-lam * draws)
    se = probe.std(ddof=1) / math.sqrt(len(probe))
    assert abs(probe.mean() - laplace(spec, lam)) < 4.0 * se


def test_sampler_reproducible():
    spec = StableSpec(kappa=0.6, scale=1.0)
    a = sample_positive_stable(spec, 100, seed=3)
    b = sample_positive_stable(spec, 100, seed=3)
    np.testing.assert_array_equal(a, b)
    rng = np.random.default_rng(3)
    c = sample_positive_stable(spec, 100, rng)
    d = sample_positive_stable(spec, 100, rng)
    assert np.any(c != d)


# ----------------------------------------------------- kappa = 1/2 law

def test_levy_cdf_shape():
    assert levy_cdf(0.0) == 0.0
    assert levy_cdf(-2.0) == 0.0
    grid = np.linspace(0.01, 50.0, 200)
    vals = levy_cdf(grid)
    assert np.all(np.diff(vals) > 0.0)
    assert vals[-1] > 0.9
    assert levy_cdf(1e6) > 0.999


def test_levy_median_is_the_cdf_half_point():
    from scipy.special import erfcinv
    assert levy_cdf(LEVY_MEDIAN) == pytest.approx(0.5, abs=1e-12)
    recomputed = 1.0 / (4.0 * erfcinv(0.5) ** 2)
    assert LEVY_MEDIAN == pytest.approx(recomputed, rel=1e-12)


def test_kanter_sampler_matches_levy_cdf():
    spec = StableSpec(kappa=0.5, scale=1.0)
    draws = np.sort(sample_positive_stable(spec, 100_000, seed=21))
    grid = np.linspace(0.05, 40.0, 400)
    emp = np.searchsorted(draws, grid, side="right") / len(draws)
    assert np.max(np.abs(emp - levy_cdf(grid))) < 0.006


# ------------------------------------------------------- predicted cdf

def test_predicted_tau_cdf_bands():
    params = SimpleNamespace(kappa=0.5, tau_prefactor=1.0)
    grid = np.linspace(0.05, 30.0, 60)
    pred = predicted_tau_cdf(params, grid, n_samples=50_000, seed=5)
    assert pred.n_samples == 50_000
    assert pred.epsilon == pytest.approx(
        math.sqrt(math.log(2.0 / 0.05) / (2.0 * 50_000)), rel=1e-12)
    assert np.all(pred.band_low <= pred.cdf)
    assert np.all(pred.cdf <= pred.band_high)
    assert np.all(pred.band_low >= 0.0) and np.all(pred.band_high <= 1.0)
    assert np.max(np.abs(pred.cdf - levy_cdf(grid))) <= pred.epsilon


def test_predicted_tau_cdf_scales_with_the_prefactor():
    grid = np.linspace(0.1, 30.0, 40)
    base = predicted_tau_cdf(SimpleNamespace(kappa=0.5, tau_prefactor=1.0),
                             grid, n_samples=20_000, seed=5)
    shifted = predicted_tau_cdf(SimpleNamespace(kappa=0.5, tau_prefactor=2.0),
                                2.0 * grid, n_samples=20_000, seed=5)
    np.testing.assert_allclose(shifted.cdf, base.cdf, atol=1e-12)


# ------------------------------------------------- inverse subordinator

def test_inverse_path_sandwich_and_monotone():
    times = np.linspace(0.1, 5.0, 20)
    path = inverse_subordinator_path(0.5, 1.0, times, dt=1e-3, seed=7)
    assert np.all(path.y_left_values <= times + 1e-12)
    assert np.all(times <= path.y_values + 1e-12)
    assert np.all(np.diff(path.z_values) >= 0.0)
    np.testing.assert_array_equal(path.times, times)


def test_inverse_path_scales_linearly():
    times = np.linspace(0.5, 3.0, 7)
    a = inverse_subordinator_path(0.5, 1.0, times, dt=1e-3, seed=9)
    b = inverse_subordinator_path(0.5, 2.0, times, dt=1e-3, seed=9)
    np.testing.assert_allclose(b.z_values, 2.0 * a.z_values, rtol=0, atol=0)
    c = inverse_subordinator_path(0.5, 1.0, times, dt=1e-3, seed=9)
    np.testing.assert_array_equal(a.z_values, c.z_values)


def test_inverse_at_one_matches_the_negative_power_law():
    # Z(1) has the law of S^{-kappa} for the unit positive stable S
    kappa = 0.5
    z = np.array([inverse_subordinator_path(kappa, 1.0, [1.0], dt=1e-3,
                                            seed=s).z_values[0]
                  for s in range(1000)])
    s_draws = sample_positive_stable(StableSpec(kappa=kappa, scale=1.0),
                                     1000, seed=4242)
    assert ks_two_sample(z, s_draws ** -kappa) < 1.628 * math.sqrt(2.0 / 1000)


def test_inverse_self_similarity():
    # Z(2t) has the law of 2^kappa Z(t)
    kappa = 0.5
    z2 = np.array([inverse_subordinator_path(kappa, 1.0, [2.0], dt=1e-3,
                                             seed=s).z_values[0]
                   for s in range(800)])
    z1 = np.array([inverse_subordinator_path(kappa, 1.0, [1.0], dt=1e-3,
                                             seed=2000 + s).z_values[0]
                   for s in range(800)])
    assert ks_two_sample(z2, 2.0 ** kappa * z1) < 1.628 * math.sqrt(2.0 / 800)


def test_inverse_path_validation_and_coarse_grid():
    with pytest.raises(ValueError):
        inverse_subordinator_path(0.5, 1.0, [1.0], dt=0.0)
    with pytest.raises(ValueError):
        inverse_subordinator_path(0.5, 1.0, [-1.0], dt=1e-3)
    with pytest.warns(RuntimeWarning):
        inverse_subordinator_path(0.5, 1.0, [1.0], dt=0.5, seed=1)

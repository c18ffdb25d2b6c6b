"""Environment laws, sampling and kappa."""

import math

import numpy as np
import pytest
from scipy import stats
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre.env import (
    _SITE_BLOCK,
    EnvironmentLaw,
    _atom_index,
    NoRootError,
    RegimeError,
    draw_omegas,
    draw_rho,
    kappa_solve,
    lambda_fn,
    mean_log_rho,
    moment_rho_log,
    rho,
    sample_environment,
)
from rwre.rng import generator, stream_key

BETA_LAW = EnvironmentLaw.beta_law(1.5, 1.0)
# two-atom law with rho values 1/4 and 3; its root solves
# 0.6 (1/4)^t + 0.4 3^t = 1, found by 140 rounds of decimal bisection
TWO_ATOM = EnvironmentLaw.discrete((0.8, 0.25), (0.6, 0.4))
TWO_ATOM_KAPPA = 0.5199783222299662
TWO_ATOM_MOMENT = 0.37350347415975741
# E[rho^kappa log rho] for beta:1.5,1 at kappa = 1/2 is 2 - 2 log 2
BETA_MOMENT = 2.0 - 2.0 * math.log(2.0)


# ------------------------------------------------------------------ laws

def test_parse_beta_round_trip():
    law = EnvironmentLaw.parse("beta:1.5,1.0")
    assert law == BETA_LAW
    assert EnvironmentLaw.parse(law.spec_text()) == law


def test_parse_discrete_round_trip():
    law = EnvironmentLaw.parse("discrete:0.8@0.6;0.25@0.4")
    assert law == TWO_ATOM
    assert EnvironmentLaw.parse(law.spec_text()) == law


def test_spec_text_keeps_every_digit():
    # a manifest records the law by its spec text
    for law in (EnvironmentLaw.beta_law(1.2345678, 1.0),
                EnvironmentLaw.discrete((0.8, 0.3333333333), (0.6, 0.4))):
        assert EnvironmentLaw.parse(law.spec_text()) == law
    assert BETA_LAW.spec_text() == "beta:1.5,1"


@pytest.mark.parametrize("text", [
    "beta", "beta:1.5", "beta:1.5,1.0,2", "gauss:0,1",
    "discrete:1.5@1.0", "discrete:0.5@0.4;0.5@0.7",
])
def test_parse_rejects_malformed_specs(text):
    with pytest.raises(ValueError):
        EnvironmentLaw.parse(text)


def test_beta_law_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        EnvironmentLaw.beta_law(0.0, 1.0)
    with pytest.raises(ValueError):
        EnvironmentLaw.beta_law(1.5, -1.0)


def test_rho_values_and_domain():
    assert rho(0.5) == 1.0
    assert math.isclose(rho(0.8), 0.25)
    assert math.isclose(rho(0.25), 3.0)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            rho(bad)


# ----------------------------------------------------------------- kappa

def test_kappa_closed_form_beta():
    result = kappa_solve(BETA_LAW)
    assert result.method == "closed_form"
    assert abs(result.kappa - 0.5) < 1e-10
    assert result.residual < 1e-12


def test_kappa_bisection_matches_closed_form():
    rng = np.random.default_rng(41)
    for _ in range(20):
        kappa = rng.uniform(0.05, 0.95)
        beta = rng.uniform(0.6, 2.0)
        law = EnvironmentLaw.beta_law(beta + kappa, beta)
        closed = kappa_solve(law).kappa
        bisect = kappa_solve(law, method="bisection_quadrature").kappa
        assert abs(closed - bisect) < 1e-8


def test_kappa_two_atom_frozen_value():
    result = kappa_solve(TWO_ATOM)
    assert result.method == "bisection_quadrature"
    assert abs(result.kappa - TWO_ATOM_KAPPA) < 1e-10
    assert abs(lambda_fn(TWO_ATOM, result.kappa)) < 1e-10


def test_kappa_rejects_recurrent_law():
    with pytest.raises(NoRootError):
        kappa_solve(EnvironmentLaw.discrete((0.5,), (1.0,)))


def test_kappa_rejects_drift_to_minus_infinity():
    with pytest.raises(NoRootError):
        kappa_solve(EnvironmentLaw.beta_law(1.0, 1.5))


def test_kappa_rejects_ballistic_beta():
    # alpha - beta above 1: transient with positive speed, no root in (0,1)
    with pytest.raises(NoRootError):
        kappa_solve(EnvironmentLaw.beta_law(2.5, 1.0))


def test_kappa_rejects_rootless_drift_down_law():
    # omega fixed at 0.75: rho = 1/3 a.s., E[rho^t] < 1 for every t > 0
    with pytest.raises(NoRootError):
        kappa_solve(EnvironmentLaw.discrete((0.75,), (1.0,)))


# ------------------------------------------------- lambda and the moment

def test_lambda_fn_zero_at_origin_and_root():
    assert lambda_fn(BETA_LAW, 0.0) == 0.0
    assert abs(lambda_fn(BETA_LAW, 0.5)) < 1e-12


def test_lambda_fn_domain_errors():
    with pytest.raises(ValueError):
        lambda_fn(BETA_LAW, -0.1)
    with pytest.raises(ValueError):
        lambda_fn(BETA_LAW, 1.5)   # t at or above alpha diverges


def test_mean_log_rho_signs():
    assert mean_log_rho(BETA_LAW) < 0.0
    assert mean_log_rho(EnvironmentLaw.beta_law(1.0, 1.5)) > 0.0
    assert mean_log_rho(EnvironmentLaw.discrete((0.5,), (1.0,))) == 0.0


def test_moment_rho_log_beta_closed_form():
    assert abs(moment_rho_log(BETA_LAW, 0.5) - BETA_MOMENT) < 1e-10


def test_moment_rho_log_two_atom_frozen_value():
    value = moment_rho_log(TWO_ATOM, TWO_ATOM_KAPPA)
    assert abs(value - TWO_ATOM_MOMENT) < 1e-12


def test_moment_rho_log_matches_lambda_derivative():
    kappa = TWO_ATOM_KAPPA
    h = 1e-6
    numeric = (lambda_fn(TWO_ATOM, kappa + h) - lambda_fn(TWO_ATOM, kappa - h)) / (2 * h)
    # Lambda'(kappa) = E[rho^kappa log rho] / E[rho^kappa] and the
    # denominator is 1 at the root
    assert abs(numeric - moment_rho_log(TWO_ATOM, kappa)) < 1e-6


def test_moment_rho_log_rejects_nonpositive_sums():
    # near t = 0 the two-atom sum approaches E[log rho] < 0
    with pytest.raises(RegimeError):
        moment_rho_log(TWO_ATOM, 0.01)
    with pytest.raises(RegimeError):
        moment_rho_log(EnvironmentLaw.beta_law(1.0, 1.5), 0.3)


def test_moment_rho_log_rejects_the_recurrent_point_law():
    # every log rho atom is 0, so the sum is exactly 0 at any kappa
    with pytest.raises(RegimeError):
        moment_rho_log(EnvironmentLaw.discrete((0.5,), (1.0,)), 0.5)


# ----------------------------------------------------------- environments

def test_sample_environment_deterministic():
    a = sample_environment(BETA_LAW, (-5, 20), seed=3)
    b = sample_environment(BETA_LAW, (-5, 20), seed=3)
    np.testing.assert_array_equal(a.omegas, b.omegas)
    assert a.offset == -5
    assert not np.array_equal(
        a.omegas, sample_environment(BETA_LAW, (-5, 20), seed=4).omegas)


def test_sample_environment_windows_agree_site_by_site():
    wide = sample_environment(BETA_LAW, (-5000, 5000), seed=12)
    narrow = sample_environment(BETA_LAW, (-40, 60), seed=12)
    for site in (-40, -1, 0, 33, 60):
        assert wide.site(site) == narrow.site(site)


def test_sample_environment_site_lookup():
    env = sample_environment(BETA_LAW, (2, 9), seed=0)
    assert env.site(2) == env.omegas[0]
    assert env.site(9) == env.omegas[-1]


def test_sample_environment_site_outside_the_slice_raises():
    env = sample_environment(BETA_LAW, (0, 9), seed=1)
    for site in (-1, 10):
        with pytest.raises(IndexError):
            env.site(site)


def test_sample_environment_rejects_empty_range():
    with pytest.raises(ValueError):
        sample_environment(BETA_LAW, (5, 4), seed=0)


def test_sample_environment_discrete_values():
    env = sample_environment(TWO_ATOM, (0, 4999), seed=8)
    assert set(np.unique(env.omegas)) <= {0.25, 0.8}
    frac = float(np.mean(env.omegas == 0.8))
    assert abs(frac - 0.6) < 0.03


def test_atom_index_is_the_capped_left_search():
    # probabilities summing to 1 - 1e-13 leave uniforms above the last edge
    law = EnvironmentLaw.discrete((0.9, 0.6, 0.3, 0.7), (0.1, 0.25, 0.4, 0.25 - 1e-13))
    edges = np.cumsum(law.probs)
    assert edges[-1] < 1.0
    u = np.concatenate([
        [0.0],
        edges,                                   # exactly on every edge
        np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        [1.0 - 2.0 ** -53],                      # the largest generator uniform
        np.random.default_rng(3).random(1000),
    ])
    expected = np.minimum(np.searchsorted(edges, u, side="left"), len(edges) - 1)
    np.testing.assert_array_equal(_atom_index(law, u), expected)


def test_sample_environment_beta_moments():
    env = sample_environment(BETA_LAW, (0, 99_999), seed=5)
    # Beta(1.5, 1) has mean 0.6 and second moment 3/7
    assert abs(env.omegas.mean() - 0.6) < 0.005
    assert abs(np.mean(env.omegas**2) - 3.0 / 7.0) < 0.005


# Beta laws with beta != 1, which draw_omegas samples by the generator's beta sampler
BLOCK_LAWS = [EnvironmentLaw.beta_law(2.0, 1.5), EnvironmentLaw.beta_law(1.8, 1.2),
              EnvironmentLaw.beta_law(3.0, 2.5)]


@pytest.mark.parametrize("law", [BETA_LAW, TWO_ATOM, BLOCK_LAWS[0]],
                         ids=lambda law: law.spec_text())
def test_every_law_draws_whole_blocks_from_keyed_generators(law):
    env = sample_environment(law, (-_SITE_BLOCK - 100, 2 * _SITE_BLOCK - 1), seed=17)
    for blk in (-2, -1, 0, 1):
        block = draw_omegas(law, generator(stream_key(17, "env", blk)), _SITE_BLOCK)
        lo, hi = max(blk * _SITE_BLOCK, env.offset), (blk + 1) * _SITE_BLOCK - 1
        np.testing.assert_array_equal(env.omegas[env.index(lo) : env.index(hi) + 1],
                                      block[lo - blk * _SITE_BLOCK :])


@pytest.mark.parametrize("law", BLOCK_LAWS + [BETA_LAW], ids=lambda law: law.spec_text())
def test_block_sampled_environment_has_the_beta_law(law):
    env = sample_environment(law, (-50_000, 50_000), seed=21)
    assert env.omegas.size == 100_001
    assert stats.kstest(env.omegas, stats.beta(law.alpha, law.beta).cdf).pvalue > 1e-3
    # the mirrored law Beta(B, A) is far off
    assert stats.kstest(env.omegas, stats.beta(law.beta, law.alpha).cdf).statistic > 0.05
    assert np.all((env.omegas > 0.0) & (env.omegas < 1.0))


@pytest.mark.parametrize("law", BLOCK_LAWS[:1] + [BETA_LAW, TWO_ATOM],
                         ids=lambda law: law.spec_text())
def test_windows_ending_next_to_block_edges_agree_site_by_site(law):
    wide = sample_environment(law, (-3 * _SITE_BLOCK - 5, 3 * _SITE_BLOCK + 5), seed=12)
    for edge in (-2 * _SITE_BLOCK, -_SITE_BLOCK, 0, _SITE_BLOCK, 2 * _SITE_BLOCK):
        for shift in (-1, 0, 1):
            for lo, hi in ((edge + shift, edge + shift + 700),
                           (edge + shift - 700, edge + shift),
                           (edge + shift, edge + shift)):
                narrow = sample_environment(law, (lo, hi), seed=12)
                np.testing.assert_array_equal(
                    narrow.omegas, wide.omegas[wide.index(lo) : wide.index(hi) + 1])


@pytest.mark.parametrize("law", BLOCK_LAWS, ids=lambda law: law.spec_text())
def test_block_sampled_environment_is_deterministic_per_seed(law):
    a = sample_environment(law, (-5000, 5000), seed=3)
    np.testing.assert_array_equal(a.omegas, sample_environment(law, (-5000, 5000), seed=3).omegas)
    other = sample_environment(law, (-5000, 5000), seed=4).omegas
    assert np.mean(a.omegas == other) < 1e-3


# ------------------------------------------------- per-replica draws

@pytest.mark.parametrize("law", [BETA_LAW, EnvironmentLaw.beta_law(1.2, 1.0)] + BLOCK_LAWS,
                         ids=lambda law: law.spec_text())
def test_draw_rho_has_the_exact_rho_law(law):
    # rho = (1-omega)/omega of Beta(A, B) is beta prime(B, A); for B = 1
    # its CDF is 1 - (1+x)^-A
    sample = draw_rho(law, generator(41), 200_000)
    if law.beta == 1.0:
        cdf = lambda x: -np.expm1(-law.alpha * np.log1p(x))
    else:
        cdf = stats.betaprime(law.beta, law.alpha).cdf
    assert stats.kstest(sample, cdf).pvalue > 1e-3
    assert np.all(np.isfinite(sample)) and sample.min() > 0.0


def test_draw_rho_reads_the_atoms_at_their_frequencies():
    sample = draw_rho(TWO_ATOM, generator(42), 200_000)
    atoms = {0.25: 0.6, 3.0: 0.4}                      # rho of 0.8 and 0.25
    assert set(np.unique(sample).round(12)) == set(atoms)
    for value, p in atoms.items():
        freq = np.mean(np.isclose(sample, value))
        assert abs(freq - p) < 5.0 * math.sqrt(p * (1.0 - p) / sample.size)
    # the same atoms, value for value, as (1 - omega)/omega of draw_omegas
    om = draw_omegas(TWO_ATOM, generator(43), 1000)
    np.testing.assert_array_equal(draw_rho(TWO_ATOM, generator(43), 1000), (1.0 - om) / om)


@pytest.mark.parametrize("law", [BETA_LAW, TWO_ATOM], ids=lambda law: law.spec_text())
def test_draw_omegas_inverts_generator_uniforms(law):
    # one inverse-CDF rule with sample_environment for Beta(A, 1) and discrete laws
    u = generator(44).random(5000)
    expected = np.clip(u ** (1.0 / law.alpha) if law.kind == "beta"
                       else np.asarray(law.values)[_atom_index(law, u)], 1e-300, 1.0 - 1e-16)
    np.testing.assert_array_equal(draw_omegas(law, generator(44), 5000), expected)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.6, 2.0))
def test_kappa_root_property(kappa, beta):
    law = EnvironmentLaw.beta_law(beta + kappa, beta)
    result = kappa_solve(law)
    assert 0.0 < result.kappa < 1.0
    assert abs(lambda_fn(law, result.kappa)) < 1e-9
    assert moment_rho_log(law, result.kappa) > 0.0

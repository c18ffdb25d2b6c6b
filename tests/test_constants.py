"""Excursion constants, tail constants, and the limit-law scale."""

import math

import numpy as np
import pytest
from scipy import optimize, stats

import oracles
import rwre.constants
from rwre.env import (
    EnvironmentLaw,
    NoRootError,
    RegimeError,
    kappa_solve,
    lambda_fn,
    moment_rho_log,
    sample_environment,
)
from rwre.constants import (
    _burn_in,
    _burned_in,
    _perpetuity_blocks,
    feller_from_estimate,
    iglehart_constant,
    kesten_constant_beta,
    kesten_tail_estimate,
    limit_scale,
    limit_scale_beta,
    sample_excursions,
)
from rwre.potential import build_potential, excursion_table
from rwre.rng import generator, stream_key

BETA_LAW = EnvironmentLaw.beta_law(1.5, 1.0)
BETA_MOMENT = 2.0 - 2.0 * math.log(2.0)


# ------------------------------------------------------------- excursions

def test_sample_excursions_invariants():
    v_end, length, height = sample_excursions(BETA_LAW, 5000, seed=4)
    assert len(v_end) == len(length) == len(height) == 5000
    assert np.all(v_end <= 0.0)
    assert np.all(length >= 1)
    assert np.all(height >= 0.0)


def test_sample_excursions_deterministic():
    a = sample_excursions(BETA_LAW, 1000, seed=9)
    b = sample_excursions(BETA_LAW, 1000, seed=9)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("spec", ["beta:1.5,1", "discrete:0.8@0.5;0.3@0.5"])
def test_sample_excursions_match_a_stepping_walk(spec):
    # the path's excursions between ladder epochs against a walk that
    # restarts at 0 for each excursion: same law, independent draws
    law = EnvironmentLaw.parse(spec)
    kappa = kappa_solve(law).kappa
    n = 40_000
    ours = sample_excursions(law, n, seed=3)
    walk = oracles.excursions_reference(law, n, seed=stream_key(3, "excursion-walk"))
    for name, f in [("length", lambda v, l, h: l), ("v_end", lambda v, l, h: v),
                    ("e^(kappa v_end)", lambda v, l, h: np.exp(kappa * v)),
                    ("H >= 1", lambda v, l, h: h >= 1.0)]:
        a = f(*ours).astype(np.float64)
        b = f(*walk).astype(np.float64)
        se = math.sqrt(a.var(ddof=1) / n + b.var(ddof=1) / n)
        assert abs(a.mean() - b.mean()) <= 5.0 * se, (name, a.mean(), b.mean(), se)


@pytest.mark.parametrize("spec,n,grows", [("beta:1.5,1", 5000, True),
                                          ("discrete:0.75@1", 5000, False)])
def test_sample_excursions_grown_window_equals_one_whole_window(monkeypatch, spec, n, grows):
    # beta:1.5,1 needs about 2.3 n sites and grows its 2n first window;
    # under discrete:0.75@1 every excursion is one site long
    law = EnvironmentLaw.parse(spec)
    ranges = []

    def spy(law, site_range, seed):
        ranges.append(site_range)
        return sample_environment(law, site_range, seed)

    monkeypatch.setattr(rwre.constants, "sample_environment", spy)
    grown = sample_excursions(law, n, seed=5)
    assert (len(ranges) > 1) == grows
    path = build_potential(sample_environment(law, (1, ranges[-1][1]),
                                              seed=stream_key(5, "excursions")))
    table = excursion_table(path)
    starts, ends = table.starts[:n], table.ends[:n]
    whole = (path.v[ends] - path.v[starts], ends - starts, table.heights[:n])
    for x, y in zip(grown, whole):
        np.testing.assert_array_equal(x, y)


def test_sample_excursions_refuse_a_law_whose_potential_does_not_drift_down():
    with pytest.raises(RegimeError):
        sample_excursions(EnvironmentLaw.beta_law(1.0, 1.5), 10, seed=0)


def test_iglehart_constant_frozen_value():
    est = iglehart_constant(BETA_LAW, 0.5, n_excursions=200_000, seed=0)
    assert abs(est.c_i - 0.2671) < 0.01
    assert 0.0 < est.stderr < 0.004
    assert abs(est.e_kv - 0.5649) < 0.02
    assert abs(est.e_len - 2.310) < 0.06
    assert est.n_excursions == 200_000
    assert est.cov.shape == (2, 2)
    assert est.cov[0, 1] == pytest.approx(est.cov[1, 0], rel=1e-12)


def test_iglehart_constant_validates_kappa():
    with pytest.raises(ValueError):
        iglehart_constant(BETA_LAW, 0.7, n_excursions=1000)
    with pytest.raises(NoRootError):
        iglehart_constant(EnvironmentLaw.beta_law(1.0, 1.5), 0.5,
                          n_excursions=1000)


@pytest.mark.parametrize("call, argument", [
    (lambda: sample_excursions(BETA_LAW, 0, seed=0), "n "),
    (lambda: iglehart_constant(BETA_LAW, 0.5, n_excursions=1), "n_excursions"),
    (lambda: kesten_tail_estimate(BETA_LAW, 0.5, n_series=9), "n_series"),
], ids=["sample_excursions", "iglehart_constant", "kesten_tail_estimate"])
def test_sample_sizes_without_an_estimate_are_rejected(call, argument):
    with pytest.raises(ValueError, match=argument):
        call()


def test_feller_from_estimate_matches_ratio_form():
    est = iglehart_constant(BETA_LAW, 0.5, n_excursions=50_000, seed=1)
    c_f, se = feller_from_estimate(est, 0.5, BETA_MOMENT)
    assert c_f == pytest.approx(est.c_i / (1.0 - est.e_kv), rel=1e-10)
    assert se > 0.0


# ---------------------------------------------------------- tail constant

def test_kesten_constant_beta_closed_form():
    # 1/R ~ Beta(kappa, beta), so C_K = 1 / (kappa B(kappa, beta)):
    # B(0.5, 1) = 2 gives 1 / (0.5 * 2) = 1 for Beta(1.5, 1), and
    # Gamma(1.2) / (Gamma(1.1) Gamma(1.1)) for Beta(1.2, 1.1)
    assert kesten_constant_beta(1.5, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert kesten_constant_beta(1.2, 1.1) == pytest.approx(1.01447454877926295,
                                                           rel=1e-10)
    with pytest.raises(ValueError):
        kesten_constant_beta(2.5, 1.0)
    with pytest.raises(ValueError):
        kesten_constant_beta(1.0, 1.0)


ORACLE_LAWS = [(1.5, 1.0), (2.0, 1.5), (1.8, 1.2)]


@pytest.mark.parametrize("alpha,beta", ORACLE_LAWS)
def test_inverse_series_follows_the_exact_beta_law(alpha, beta):
    # Chamayou-Letac: for omega ~ Beta(alpha, beta), 1/R ~ Beta(alpha - beta, beta)
    # exactly; the perpetuity chain R_k = 1 + rho_k R_{k-1} has R's law as its
    # stationary law, so 20,000 independent lanes after the burn-in must fit
    # it and must not fit Beta(alpha, beta)
    law = EnvironmentLaw.beta_law(alpha, beta)
    r = _burned_in(law, generator(stream_key(0, "series-oracle")), np.ones(20_000))
    kappa = alpha - beta
    assert stats.kstest(1.0 / r, stats.beta(kappa, beta).cdf).pvalue > 1e-3
    assert stats.kstest(1.0 / r, stats.beta(alpha, beta).cdf).statistic > 0.3


@pytest.mark.parametrize("spec", ["beta:1.5,1", "beta:2,1.5", "discrete:0.8@0.5;0.3@0.5"])
def test_burn_in_forgets_the_start(spec):
    # R_k is affine in R_0 with slope prod rho_k, which the burn-in drives
    # below 1e-12: starts R = 1 and R = 1e6 under the same rho draws must
    # agree to 1e-12 on every lane, and must not agree halfway through
    law = EnvironmentLaw.parse(spec)
    key = stream_key(3, "burn-in")
    low = _burned_in(law, generator(key), np.ones(4096))
    high = _burned_in(law, generator(key), np.full(4096, 1e6))
    np.testing.assert_allclose(high, low, rtol=1e-12, atol=0.0)

    def after(start, steps):
        *_, last = _perpetuity_blocks(law, generator(key), np.full(4096, start), steps)
        return last[-1]

    half = _burn_in(law) // 2
    assert not np.allclose(after(1e6, half), after(1.0, half), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha,beta", ORACLE_LAWS)
def test_kesten_constant_beta_matches_the_exact_tail(alpha, beta):
    # P{R > x} = P{1/R < 1/x} = betacdf(1/x; kappa, beta) ~ C_K x^{-kappa}
    kappa = alpha - beta
    x = 1e10
    tail = x ** kappa * stats.beta(kappa, beta).cdf(1.0 / x)
    assert kesten_constant_beta(alpha, beta) == pytest.approx(tail, rel=1e-9)


def test_kesten_tail_estimate_smoke():
    est = kesten_tail_estimate(BETA_LAW, 0.5, n_series=100_000, seed=2)
    assert est.n_series == 1024 * 98          # 1024 lanes, 98 kept steps each
    assert abs(est.index_hat - 0.5) < 0.12
    assert 0.5 < est.constant_hat < 2.0
    assert 0.0 < est.stderr < 0.01
    assert abs(est.constant_hat - 1.0) <= 4.0 * est.stderr


def test_kesten_tail_estimate_keeps_no_step_of_the_burn_in():
    # eight kept steps a lane: a chain read from its start R = 1, where
    # Goldie's summand is 1, would sit far above the closed form
    est = kesten_tail_estimate(BETA_LAW, 0.5, n_series=8 * 1024, seed=4)
    assert est.n_series == 8 * 1024
    assert abs(est.constant_hat - 1.0) <= 4.0 * est.stderr


@pytest.fixture(scope="module")
def discrete_series():
    """A million renewal series of the tau_discrete law, summed term by
    term by the test oracle, in blocks of 20,000."""
    law = EnvironmentLaw.parse("discrete:0.8@0.5;0.3@0.5")
    rng = generator(stream_key(0, "series-reference"))
    blocks = [oracles.series_block_reference(law, rng, 20_000, 100_000) for _ in range(50)]
    assert all(truncated == 0 for _, truncated in blocks)
    return law, kappa_solve(law).kappa, np.concatenate([r for r, _ in blocks])


def test_goldie_chain_agrees_with_the_series(discrete_series):
    # the chain at its default size, as the tau runner calls it, against
    # Goldie's mean over independent series; its standard error must not
    # exceed that of the 200,000 series the estimator once averaged
    law, kappa, r = discrete_series
    est = kesten_tail_estimate(law, kappa, seed=stream_key(0, "ck"))
    g = -r ** kappa * np.expm1(kappa * np.log1p(-1.0 / r)) / (kappa * moment_rho_log(law, kappa))
    series_se = float(g.std(ddof=1)) / math.sqrt(g.size)
    assert abs(est.constant_hat - float(g.mean())) <= 4.0 * math.hypot(est.stderr, series_se)
    assert est.stderr <= series_se * math.sqrt(g.size / 200_000)


def test_goldie_estimate_agrees_with_the_tail_window_read(discrete_series):
    # Goldie's estimate from the chain against a second read of C_K off
    # independent series: the level window of x^kappa P{R > x}; the
    # tau_discrete law has no closed form
    law, kappa, r = discrete_series
    est = kesten_tail_estimate(law, kappa, seed=stream_key(0, "ck"))
    window, window_se = oracles.tail_window_read(r, kappa)
    combined = math.hypot(est.stderr, window_se)
    assert abs(window - est.constant_hat) <= 4.0 * combined
    assert est.stderr < 0.1 * window_se


@pytest.mark.parametrize("spec", ["discrete:0.8@0.7;0.2@0.3",
                                  "discrete:0.75@0.6;0.25@0.3;0.5@0.1"])
def test_kesten_tail_estimate_rejects_arithmetic_laws(spec):
    # log rho takes -log 4 and +log 4 (then -log 3, +log 3 and 0): a lattice
    # law, for which x^kappa P{R > x} oscillates and no tail constant exists
    with pytest.raises(ValueError, match="arithmetic"):
        kesten_tail_estimate(EnvironmentLaw.parse(spec), 0.5, n_series=1000)


@pytest.mark.parametrize("spec", ["discrete:0.8@0.5;0.3@0.5",
                                  "discrete:0.8@0.5;0.3@0.3;0.6@0.2"])
def test_kesten_tail_estimate_accepts_non_arithmetic_laws(spec):
    # the root of E[rho^t] = 1, which lies above 1 for the three-atom law
    law = EnvironmentLaw.parse(spec)
    root = optimize.brentq(lambda t: lambda_fn(law, t), 0.05, 5.0)
    est = kesten_tail_estimate(law, root, n_series=20_000, seed=1)
    assert est.n_series == 1024 * 20
    assert est.constant_hat > 0.0


def test_kesten_tail_estimate_needs_the_root():
    # Goldie's identity divides by kappa E[rho^kappa log rho], which is
    # positive at the root; at 0.45, below the three-atom law's root, the
    # moment is negative
    with pytest.raises(RegimeError):
        kesten_tail_estimate(EnvironmentLaw.parse("discrete:0.8@0.5;0.3@0.3;0.6@0.2"),
                             0.45, n_series=1000)


# ------------------------------------------------------------ limit scale

def test_limit_scale_assembly():
    params = limit_scale(0.5, 3.0, BETA_MOMENT)
    assert params.kappa == 0.5
    assert params.c_k == 3.0
    assert params.moment == BETA_MOMENT
    assert params.x_scale * params.lambda_scale == pytest.approx(1.0, rel=1e-15)
    assert params.tau_prefactor ** 0.5 == pytest.approx(params.lambda_scale,
                                                        rel=1e-12)
    with pytest.raises(RegimeError):
        limit_scale(1.2, 3.0, BETA_MOMENT)
    with pytest.raises(RegimeError):
        limit_scale(0.0, 3.0, BETA_MOMENT)


def test_limit_scale_beta_agrees_with_assembled_form():
    direct = limit_scale_beta(1.5, 1.0)
    assembled = limit_scale(0.5, 1.0, BETA_MOMENT).lambda_scale
    assert direct == pytest.approx(assembled, rel=1e-12)
    # independent simplification of the same product:
    # 2^{1/2} (pi/ sin(pi/2)) (1/4) 1 (2 - 2 log 2) = (pi sqrt(2) / 2)(1 - log 2)
    closed = math.pi * math.sqrt(2.0) / 2.0 * (1.0 - math.log(2.0))
    assert direct == pytest.approx(closed, rel=1e-12)


def test_limit_scale_uses_the_law_moment():
    m = moment_rho_log(BETA_LAW, 0.5)
    assert m == pytest.approx(BETA_MOMENT, rel=1e-12)
    assert limit_scale(0.5, 1.0, m).lambda_scale == \
        pytest.approx(limit_scale_beta(1.5, 1.0), rel=1e-12)

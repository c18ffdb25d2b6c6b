"""Quenched chain formulas against dense linear-system references."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rwre import quenched
from rwre.potential import WindowExhausted
from rwre.quenched import (
    QuenchedChain,
    _check_harmonic,
    attempt_moments,
    exit_prob,
    failure_prob,
    h_transform,
    linear_solve_oracle,
    mean_G_exact,
    sample_hitting_times,
)


def random_chain(L, seed, reflect=True):
    """Beta(1.5, 1) chain on [0, L]; om_full[0] = 1 encodes the reflection
    for the reference solver."""
    rng = np.random.default_rng(seed)
    om_full = rng.beta(1.5, 1.0, L + 1)
    om_full[0] = 1.0
    chain = QuenchedChain.from_omegas(om_full[1:], left=0,
                                      reflect_at=0 if reflect else None)
    return chain, om_full


def flat_chain(omega, L, reflect_at=None):
    return QuenchedChain.from_omegas([omega] * L, left=0, reflect_at=reflect_at)


# ------------------------------------------------------------ construction

def test_constructor_validation():
    with pytest.raises(ValueError):
        QuenchedChain(left=3, right=3, omegas=np.array([]),
                      base_potential=np.array([0.0]))
    with pytest.raises(ValueError):
        QuenchedChain(left=0, right=3, omegas=np.array([0.5]),
                      base_potential=np.zeros(4))
    with pytest.raises(ValueError):
        QuenchedChain(left=0, right=3, omegas=np.array([0.5, 0.5]),
                      base_potential=np.zeros(3))
    with pytest.raises(ValueError):
        QuenchedChain(left=0, right=3, omegas=np.array([0.5, 1.0]),
                      base_potential=np.zeros(4))
    with pytest.raises(ValueError):
        QuenchedChain(left=0, right=3, omegas=np.array([0.5, 0.5]),
                      base_potential=np.zeros(4), reflect_at=3)


def test_from_omegas_builds_the_potential():
    om = np.array([0.7, 0.4, 0.6, 0.3])
    chain = QuenchedChain.from_omegas(om, left=-1)
    assert (chain.left, chain.right) == (-1, 3)
    v = 0.0
    assert chain.v(-1) == 0.0
    for i, w in enumerate(om):
        v += math.log((1.0 - w) / w)
        assert math.isclose(chain.v(i), v, rel_tol=1e-14, abs_tol=1e-14)


def test_edge_omega_feeds_only_the_last_increment():
    a = QuenchedChain.from_omegas([0.7, 0.4, 0.6, 0.3])
    b = QuenchedChain.from_omegas([0.7, 0.4, 0.6, 0.9])
    np.testing.assert_array_equal(a.omegas, b.omegas)
    np.testing.assert_array_equal(a.base_potential[:-1], b.base_potential[:-1])
    assert a.v(4) != b.v(4)


def test_site_lookups():
    chain = flat_chain(0.5, 4, reflect_at=0)
    assert chain.omega(0) == 1.0
    assert chain.omega(2) == 0.5
    with pytest.raises(IndexError):
        chain.omega(4)
    with pytest.raises(IndexError):
        chain.v(5)
    assert chain.v(4) == pytest.approx(0.0, abs=1e-15)


def test_v_left_offset():
    base = QuenchedChain.from_omegas([0.7, 0.4, 0.6])
    lifted = QuenchedChain.from_omegas([0.7, 0.4, 0.6], v_left=2.5)
    np.testing.assert_allclose(lifted.base_potential, base.base_potential + 2.5,
                               rtol=0, atol=1e-14)


# ------------------------------------------------------------- exit_prob

def test_exit_prob_flat_is_linear():
    chain = flat_chain(0.5, 10)
    for x in range(11):
        assert exit_prob(chain, x, 0, 10) == pytest.approx(x / 10.0, abs=1e-12)


def test_exit_prob_boundaries_and_validation():
    chain = flat_chain(0.6, 6)
    assert exit_prob(chain, 0, 0, 6) == 0.0
    assert exit_prob(chain, 6, 0, 6) == 1.0
    with pytest.raises(ValueError):
        exit_prob(chain, 7, 0, 6)
    with pytest.raises(ValueError):
        exit_prob(chain, 2, 2, 2)


def test_exit_prob_against_dense_solver():
    for seed in range(100):
        L = 2 + seed % 9
        chain, om_full = random_chain(L, seed + 1000, reflect=False)
        x = 1 + seed % (L - 1)
        ours = exit_prob(chain, x, 0, L)
        ref = oracles.exit_right_prob(om_full[1:L])[x]
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exit_prob_mirror_identity(data):
    w = data.draw(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=12))
    L = len(w) + 1
    chain = QuenchedChain.from_omegas(np.array(w + [0.5]))
    mirror = QuenchedChain.from_omegas(
        np.array([1.0 - wi for wi in reversed(w)] + [0.5]))
    x = data.draw(st.integers(0, L))
    p = exit_prob(chain, x, 0, L)
    q = exit_prob(mirror, L - x, 0, L)
    assert p + q == pytest.approx(1.0, abs=1e-11)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exit_prob_is_harmonic(data):
    w = data.draw(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=10))
    L = len(w) + 1
    chain = QuenchedChain.from_omegas(np.array(w + [0.5]))
    vals = [exit_prob(chain, x, 0, L) for x in range(L + 1)]
    for x in range(1, L):
        mixed = w[x - 1] * vals[x + 1] + (1.0 - w[x - 1]) * vals[x - 1]
        assert vals[x] == pytest.approx(mixed, abs=1e-11)


# ----------------------------------------------------------- failure_prob

def test_failure_prob_one_step_gap():
    chain = QuenchedChain.from_omegas([0.3, 0.7], left=0)
    p, q = failure_prob(chain, 1, 2)
    assert q == pytest.approx(chain.omega(1), rel=1e-14)
    assert p == pytest.approx(1.0 - chain.omega(1), rel=1e-14)


def test_failure_prob_flat_two_step_gap():
    chain = flat_chain(0.5, 4)
    p, q = failure_prob(chain, 1, 3)
    assert q == pytest.approx(0.25, rel=1e-13)
    assert p == pytest.approx(0.75, rel=1e-13)


def test_failure_prob_complements_and_matches_reference():
    for seed in range(40):
        L = 4 + seed % 10
        chain, om_full = random_chain(L, 7000 + seed)
        b = 1 + seed % (L - 2)
        p, q = failure_prob(chain, b, L)
        assert p + q == pytest.approx(1.0, abs=1e-14)
        ref = oracles.attempt_reference(om_full, b)
        assert p == pytest.approx(ref["p_fail"], rel=1e-10)


# ------------------------------------------------------------ h-transform

def test_failure_transform_hand_values():
    chain = flat_chain(0.5, 3)
    ht = h_transform(chain, 0, 3, "failure")
    # h = (1, 2/3, 1/3, 0) so the transformed step up at site 1 is 1/4
    np.testing.assert_allclose(np.exp(ht.log_scale[:3]), [1.0, 2 / 3, 1 / 3],
                               rtol=1e-13)
    assert np.isneginf(ht.log_scale[3])
    assert ht.omega(1) == pytest.approx(0.25, rel=1e-13)
    assert ht.omega(2) == 0.0


def test_success_transform_hand_values():
    chain = flat_chain(0.5, 3)
    hs = h_transform(chain, 0, 3, "success")
    # g = 1 - h; the conditioned walk cannot step back to b
    assert hs.omega(1) == 1.0
    assert np.isposinf(hs.v_hat[0])
    np.testing.assert_allclose(np.exp(hs.log_scale[:4]), [0.0, 1 / 3, 2 / 3, 1.0],
                               rtol=1e-13, atol=1e-15)


def test_transform_kind_validation():
    chain = flat_chain(0.5, 3)
    with pytest.raises(ValueError):
        h_transform(chain, 0, 3, "sideways")


def test_transform_gap_anchors():
    chain, _ = random_chain(8, 42)
    ht = h_transform(chain, 1, 8, "failure")
    hs = h_transform(chain, 1, 8, "success")
    assert ht.gap[0] == 0.0
    assert np.isposinf(ht.gap[-1]) and np.isposinf(ht.gap[-2])
    assert np.isposinf(hs.gap[0])
    assert np.isfinite(hs.gap[1:]).all()


def test_transform_gap_monotonicity_is_exact():
    for seed in range(30):
        L = 4 + seed % 9
        chain, _ = random_chain(L, 500 + seed)
        ht = h_transform(chain, 0, L, "failure")
        fin = ht.gap[np.isfinite(ht.gap)]
        assert np.all(np.diff(fin) >= 0.0)
        hs = h_transform(chain, 0, L, "success")
        fin = hs.gap[np.isfinite(hs.gap)]
        assert np.all(np.diff(fin) <= 0.0)


def test_transformed_omegas_are_harmonic_in_the_scale():
    for seed in range(20):
        L = 5 + seed % 6
        chain, _ = random_chain(L, 900 + seed)
        for kind in ("failure", "success"):
            tr = h_transform(chain, 0, L, kind)
            s = np.exp(tr.log_scale)
            for x in range(1, L):
                sx = s[x]
                if sx == 0.0:
                    continue
                w = chain.omega(x)
                resid = abs(1.0 - (w * s[x + 1] + (1 - w) * s[x - 1]) / sx)
                assert resid <= 1e-12


def test_transform_increments_dominate_the_base_potential():
    # conditioned-on-failure potential rises at least as fast on [b, d],
    # conditioned-on-success at most as fast
    for seed in range(20):
        L = 5 + seed % 7
        chain, _ = random_chain(L, 1300 + seed)
        ht = h_transform(chain, 0, L, "failure")
        hs = h_transform(chain, 0, L, "success")
        base = chain.base_potential
        for x in range(0, L):
            for y in range(x + 1, L + 1):
                dv = base[y] - base[x]
                if math.isfinite(ht.v_hat[x]) or math.isfinite(ht.v_hat[y]):
                    assert ht.v_hat[y] - ht.v_hat[x] >= dv - 1e-10
                if math.isfinite(hs.v_hat[x]) or math.isfinite(hs.v_hat[y]):
                    assert hs.v_hat[y] - hs.v_hat[x] <= dv + 1e-10


@pytest.mark.parametrize("L", [20_000, 50_000])
def test_long_chains_pass_the_harmonic_check(L):
    # the potential of a Beta(1.5, 1) chain drifts to about -0.61 L, and the
    # rounding of the log-domain sums grows with it
    for seed in range(10):
        chain, _ = random_chain(L, 7700 + seed)
        for kind in ("failure", "success"):
            h_transform(chain, L // 2, L, kind)


def test_attempt_moments_on_a_long_chain():
    L = 20_000
    chain, _ = random_chain(L, 7700)
    mom = attempt_moments(chain, 0, L // 2, L)
    assert 0.0 < mom.p_fail < 1.0
    assert 2.0 <= mom.mean_F < math.inf
    assert mom.mean_F ** 2 <= mom.second_F < math.inf
    assert 1.0 <= mom.mean_G_bound < math.inf


def test_harmonic_check_flags_a_moved_scale_entry():
    L = 50_000
    chain, _ = random_chain(L, 7700)
    b = L // 2
    log_h = h_transform(chain, b, L, "failure").log_scale.copy()
    interior, v = chain._wslice(b + 1, L - 1), chain._vslice(b, L - 1)
    _check_harmonic(interior, log_h, v, "failure")
    log_h[L // 4] += 1e-9
    with pytest.raises(FloatingPointError):
        _check_harmonic(interior, log_h, v, "failure")


# ------------------------------------------------------- attempt moments

def test_attempt_moments_need_the_reflection():
    chain = flat_chain(0.5, 5)
    with pytest.raises(ValueError):
        attempt_moments(chain, 0, 2, 5)
    chain_r = flat_chain(0.5, 5, reflect_at=1)
    with pytest.raises(ValueError):
        attempt_moments(chain_r, 0, 2, 5)
    with pytest.raises(ValueError):
        attempt_moments(chain_r, 1, 1, 5)


def test_attempt_moments_trivial_valley():
    # reflected next door and walled next door every failure takes exactly
    # two steps, so F is deterministic
    chain = flat_chain(0.5, 2, reflect_at=0)
    mom = attempt_moments(chain, 0, 1, 2)
    assert mom.p_fail == pytest.approx(0.5, rel=1e-14)
    assert mom.mean_F == pytest.approx(2.0, rel=1e-12)
    assert mom.second_F == pytest.approx(4.0, rel=1e-12)


def test_attempt_moments_against_dense_reference():
    for seed in range(60):
        L = 4 + seed % 12
        chain, om_full = random_chain(L, 3000 + seed)
        b = 1 + seed % (L - 2)
        ref = oracles.attempt_reference(om_full, b)
        mom = attempt_moments(chain, 0, b, L)
        assert mom.p_fail == pytest.approx(ref["p_fail"], rel=1e-9)
        assert mom.mean_F == pytest.approx(ref["mean_F"], rel=1e-9)
        assert mom.second_F == pytest.approx(ref["second_F"], rel=1e-9)
        assert mom.second_F >= mom.mean_F ** 2 * (1.0 - 1e-12)
        assert mom.m1_hat > 0.0 and mom.m2 > 0.0


def test_mean_G_exact_and_bound():
    chain = flat_chain(0.5, 4)
    assert mean_G_exact(chain, 2, 3) == 1.0
    for seed in range(40):
        L = 3 + seed % 10
        chain, om_full = random_chain(L, 4100 + seed)
        b = seed % min(3, L - 1)
        ref = oracles.attempt_reference(om_full, b) if b >= 1 else None
        mg = mean_G_exact(chain, b, L)
        assert mg >= 1.0
        if ref is not None:
            assert mg == pytest.approx(ref["mean_G"], rel=1e-9)
            mom = attempt_moments(chain, 0, b, L)
            assert mom.mean_G_bound >= mg * (1.0 - 1e-12)


def _scalar_recurrence(first, log_add, log_mult):
    """The recurrence of quenched._log_linear_recurrence, one step a term."""
    x = [first]
    for add, mult in zip(log_add, log_mult):
        x.append(np.logaddexp(add, mult + x[-1]))
    return np.array(x)


@pytest.mark.parametrize("L", [2000, 20_000])
def test_vectorised_recurrences_match_the_scalar_loop(L, monkeypatch):
    # the log potential of these chains drifts to about -0.61 L; at L = 2e4
    # a prefix sum that never restarted loses up to 2e-12 on mean_G here
    for seed, b in itertools.product((7700, 7701, 7702), (L // 2, L // 5, 4 * L // 5)):
        chain, _ = random_chain(L, seed)
        fast = attempt_moments(chain, 0, b, L), mean_G_exact(chain, b, L)
        with monkeypatch.context() as patch:
            patch.setattr(quenched, "_log_linear_recurrence", _scalar_recurrence)
            slow = attempt_moments(chain, 0, b, L), mean_G_exact(chain, b, L)
        for name in ("p_fail", "mean_F", "second_F", "mean_G_bound", "m1_hat", "m2"):
            assert getattr(fast[0], name) == pytest.approx(getattr(slow[0], name),
                                                           rel=1e-12), name
        assert fast[1] == pytest.approx(slow[1], rel=1e-12)


def test_attempt_decomposition_matches_total_hitting_time():
    # E_b[tau(d)] = (p / (1-p)) E[F] + E[G] against the direct dense solve
    for seed in range(40):
        L = 4 + seed % 10
        chain, om_full = random_chain(L, 5200 + seed)
        b = 1 + seed % (L - 2)
        mom = attempt_moments(chain, 0, b, L)
        total = (mom.p_fail / (1.0 - mom.p_fail)) * mom.mean_F \
            + mean_G_exact(chain, b, L)
        ref = oracles.hit_time_reflected(om_full, b)
        assert total == pytest.approx(ref, rel=1e-9)


# ------------------------------------------------------ dense functionals

def test_oracle_hit_prob_flat():
    chain = flat_chain(0.5, 10)
    out = linear_solve_oracle(chain, "hit_prob", target=10)
    np.testing.assert_allclose(out, np.arange(11) / 10.0, rtol=0, atol=1e-12)


def test_oracle_expected_time_flat():
    mid = linear_solve_oracle(flat_chain(0.5, 2), "expected_time")
    assert mid[1] == pytest.approx(1.0, abs=1e-12)
    out = linear_solve_oracle(flat_chain(0.5, 10), "expected_time")
    x = np.arange(11)
    np.testing.assert_allclose(out, x * (10 - x), rtol=1e-10, atol=1e-9)


def test_oracle_reflected_drift_chain_closed_form():
    # omega = 3/4 everywhere, reflected at 0: per edge t_x = 2 - 3^{-x},
    # so the 0 -> 10 time is 2*10 - (1 - 3^{-10}) * 3/2
    chain = flat_chain(0.75, 10, reflect_at=0)
    out = linear_solve_oracle(chain, "expected_time")
    exact = 18.5 + 1.5 * 3.0 ** -10
    assert out[0] == pytest.approx(exact, rel=1e-12)


def test_oracle_laplace_matches_hit_prob_at_zero():
    chain, _ = random_chain(9, 77)
    hp = linear_solve_oracle(chain, "hit_prob", target=9)
    lp = linear_solve_oracle(chain, "laplace_hit", target=9, lam=0.0)
    np.testing.assert_allclose(lp, hp, rtol=0, atol=1e-12)
    damped = linear_solve_oracle(chain, "laplace_hit", target=9, lam=0.3)
    assert np.all(damped <= hp + 1e-15)


def test_oracle_hit_probabilities_stay_in_the_unit_interval():
    # reflected at 0, the walk reaches L surely.  Unclipped, the banded
    # solve's rounding on 2200 sites reads up to 1 + 2e-10 at seeds 0-3;
    # of seeds 0-399 the worst are 13 (1 + 1.3e-5) and 216 (1 - 2.0e-5)
    for seed in (0, 1, 2, 3, 13, 216):
        chain, _ = random_chain(2200, seed)
        for functional in ("hit_prob", "laplace_hit"):
            out = linear_solve_oracle(chain, functional, target=2200)
            assert np.all(out <= 1.0)
            np.testing.assert_allclose(out, 1.0, rtol=0, atol=2.5e-5)


def test_oracle_laplace_against_dense_reference():
    for seed in range(25):
        L = 3 + seed % 10
        chain, om_full = random_chain(L, 6400 + seed)
        ours = linear_solve_oracle(chain, "laplace_hit", target=L, lam=0.7)
        ref = oracles.laplace_hit_reflected(om_full, 0.7)
        np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-13)


def test_oracle_second_moment_dominates_mean_squared():
    chain, _ = random_chain(8, 11)
    m1 = linear_solve_oracle(chain, "expected_time")
    m2 = linear_solve_oracle(chain, "second_moment_time")
    assert np.all(m2[:-1] >= m1[:-1] ** 2 * (1 - 1e-12))


def test_oracle_target_validation():
    chain = flat_chain(0.5, 5)
    with pytest.raises(ValueError):
        linear_solve_oracle(chain, "hit_prob", target=2)
    with pytest.raises(ValueError):
        linear_solve_oracle(chain, "laplace_hit", target=None)


# -------------------------------------------------------------- sampling

def test_branching_sampler_matches_dense_mean():
    chain = flat_chain(0.75, 10, reflect_at=0)
    draws = sample_hitting_times(chain, 10, 100_000, seed=5)
    exact = 18.5 + 1.5 * 3.0 ** -10
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - exact) < 4.0 * se
    # parity: tau - distance is an even count of extra crossings
    assert np.all((draws - 10) % 2 == 0)
    assert np.all(draws >= 10)


def test_branching_sampler_reproducible_and_validated():
    chain = flat_chain(0.6, 6, reflect_at=0)
    a = sample_hitting_times(chain, 6, 50, seed=3)
    b = sample_hitting_times(chain, 6, 50, seed=3)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        sample_hitting_times(chain, 0, 5, seed=1, start=4)


def test_branching_cascade_needs_room_without_reflection():
    from rwre.env import EnvironmentLaw, sample_environment
    law = EnvironmentLaw.discrete((0.3,), (1.0,))
    env = sample_environment(law, (-30, 5), seed=1)
    with pytest.raises(WindowExhausted):
        sample_hitting_times(env, 5, 10, seed=2)


def test_branching_sampler_raises_past_the_intensity_cap():
    # rho = 1e10 per site: the second site's intensity is about 1e20
    chain = flat_chain(1e-10, 4, reflect_at=0)
    with pytest.raises(FloatingPointError):
        sample_hitting_times(chain, 4, 20, seed=1)


def test_branching_cascade_callers_agree_on_a_constant_environment():
    from scipy.stats import ks_2samp
    from rwre.env import EnvironmentLaw
    from rwre.experiments import _tau_block
    from rwre.rng import stream_key
    n = 20
    annealed, clipped = _tau_block(EnvironmentLaw.parse("discrete:0.7@1"), n, 4000,
                                   stream_key(11, "tau"))
    assert not clipped.any()
    chain = QuenchedChain.from_omegas([0.7] * (n + 400), left=-400)
    quenched = sample_hitting_times(chain, n, 4000, seed=12)
    assert ks_2samp(annealed, quenched).pvalue > 1e-3


def test_sample_hitting_times_draws_the_reference_cascade_bit_for_bit():
    # in a fixed environment gamma(0) and poisson(0) consume no bits, so
    # drawing only the live lanes below start leaves every draw in place:
    # a reflected Beta(1.5, 1) chain, then an unreflected two-atom window
    # (rho 1/4 and 7/3) where the cascade runs below start
    from rwre.env import EnvironmentLaw, sample_environment
    from rwre.rng import generator, stream_key
    chain, _ = random_chain(400, seed=1)
    env = sample_environment(EnvironmentLaw.parse("discrete:0.8@0.5;0.3@0.5"),
                             (-5000, 300), seed=3)
    rho_env = lambda i: (1.0 - env.site(i)) / env.site(i)
    cases = [(chain, 0, 400, 1500, 4, lambda i: 0.0 if i == 0 else
              (1.0 - chain.omega(i)) / chain.omega(i), 0),
             (env, 0, 300, 1500, 5, rho_env, None),
             (env, 100, 300, 1000, 6, rho_env, None)]
    for where, start, target, count, seed, rho_at, floor in cases:
        ours = sample_hitting_times(where, target, count, seed=seed, start=start)
        ref, clipped = oracles.branching_cascade_reference(
            rho_at, generator(stream_key(seed, "branch")), count, start, target, floor)
        assert not clipped.any()
        np.testing.assert_array_equal(ours, ref)


ANNEALED_LAWS = ("beta:1.5,1", "beta:2,1.5", "discrete:0.8@0.5;0.3@0.5")


@pytest.mark.parametrize("spec", ANNEALED_LAWS)
def test_annealed_tau_block_follows_the_reference_cascade(spec):
    # _tau_block draws rho by its own route and only the live lanes below
    # the origin; the reference scans every lane with rho from
    # Generator.beta or Generator.choice
    from scipy.stats import ks_2samp
    from rwre.env import EnvironmentLaw
    from rwre.experiments import _TAU_DEPTH, _tau_block
    from rwre.rng import generator, stream_key
    law, n, count = EnvironmentLaw.parse(spec), 100, 3000
    ours, clipped = _tau_block(law, n, count, stream_key(21, "tau"))
    rng = generator(stream_key(22, "tau-ref"))
    ref, ref_clipped = oracles.branching_cascade_reference(
        lambda _i: oracles.rho_reference(law, rng, count), rng, count, 0, n,
        floor=-_TAU_DEPTH - 1)
    assert not clipped.any() and not ref_clipped.any()
    assert ks_2samp(ours, ref).pvalue > 1e-3


def test_cascade_clips_the_lanes_alive_below_the_floor():
    # discrete:0.3@1 has rho = 7/3, so the cascade grows below the origin
    from rwre.env import EnvironmentLaw, draw_rho
    from rwre.quenched import _branching_cascade
    from rwre.rng import generator
    law = EnvironmentLaw.parse("discrete:0.3@1")
    rng = generator(31)
    draw = lambda _i, size: draw_rho(law, rng, size)
    # floor = start: no site below start is visited, so a lane is clipped
    # exactly when it crossed the edge (start, start + 1) leftward
    tau, clipped = _branching_cascade(draw, rng, 4000, 0, 1, floor=0)
    np.testing.assert_array_equal(clipped, tau > 1.0)
    assert 0.5 < clipped.mean() < 0.9                 # P{U_0 > 0} = 0.7
    # a floor three sites down: the live-lane scan against the reference
    # that scans every lane, in the same fixed environment
    rho = 7.0 / 3.0
    ours = _branching_cascade(lambda _i, _size: rho, generator(32), 4000, 0, 5, floor=-3)
    ref = oracles.branching_cascade_reference(lambda _i: rho, generator(32), 4000, 0, 5,
                                              floor=-3)
    np.testing.assert_array_equal(ours[0], ref[0])
    np.testing.assert_array_equal(ours[1], ref[1])
    assert 0.5 < ours[1].mean() < 1.0
    _, annealed_clipped = _branching_cascade(draw, rng, 4000, 0, 5, floor=-3)
    assert abs(annealed_clipped.mean() - ours[1].mean()) < 0.05


def test_from_environment_needs_the_chain_inside_the_slice():
    from rwre.env import EnvironmentLaw, sample_environment
    env = sample_environment(EnvironmentLaw.beta_law(1.5, 1.0), (0, 9), seed=1)
    chain = QuenchedChain.from_environment(env, -1, 9, reflect_at=-1)
    np.testing.assert_array_equal(chain.omegas, env.omegas[:-1])
    for left, right in ((-2, 9), (0, 10)):
        with pytest.raises(IndexError):
            QuenchedChain.from_environment(env, left, right)


def test_walk_reflects_on_the_first_step():
    # from the reflecting site the first step goes right, so tau(0 -> 1) = 1
    chain = flat_chain(0.5, 5, reflect_at=0)
    np.testing.assert_array_equal(sample_hitting_times(chain, 1, 200, seed=1), 1.0)


def test_walk_is_seed_reproducible():
    chain = flat_chain(0.5, 60, reflect_at=0)
    a = sample_hitting_times(chain, 60, 200, seed=9)
    b = sample_hitting_times(chain, 60, 200, seed=9)
    np.testing.assert_array_equal(a, b)
    c = sample_hitting_times(chain, 60, 200, seed=10)
    assert np.any(a != c)


def test_walk_raises_when_it_leaves_the_window():
    chain = flat_chain(0.1, 5)
    with pytest.raises(WindowExhausted):
        sample_hitting_times(chain, 5, 20, seed=1)


def test_walk_mean_matches_dense_solve():
    chain = flat_chain(0.9, 5, reflect_at=0)
    exact = linear_solve_oracle(chain, "expected_time")[0]
    steps = sample_hitting_times(chain, 5, 3000, seed=0)
    se = steps.std(ddof=1) / math.sqrt(len(steps))
    assert abs(steps.mean() - exact) < 4.0 * se


def test_branching_cascade_agrees_with_reference_walker():
    # a random reflected Beta(1.5, 1) chain: the cascade against plain
    # stepping, in law (two-sample KS) and in mean
    from scipy.stats import ks_2samp
    rng = np.random.default_rng(123)
    om_full = rng.beta(1.5, 1.0, 7)
    om_full[0] = 1.0
    chain = QuenchedChain.from_omegas(om_full[1:], left=0, reflect_at=0)
    ours = sample_hitting_times(chain, 6, 2000, seed=7)
    ref_rng = np.random.default_rng(99)
    ref = np.array([oracles.walk_tau_reference(om_full, 0, 6, ref_rng,
                                               reflect_at=0)
                    for _ in range(2000)], dtype=float)
    assert ks_2samp(ours, ref).pvalue > 1e-3
    pooled = math.sqrt(ours.var(ddof=1) / len(ours) + ref.var(ddof=1) / len(ref))
    assert abs(ours.mean() - ref.mean()) < 4.0 * pooled


def test_chain_fixture_is_stable():
    # the seed-7 Beta(1.5, 1) chain on [-3, 6], reflected at -3; its
    # potential is frozen
    omegas = np.random.default_rng(7).beta(1.5, 1.0, 9)
    chain = QuenchedChain.from_omegas(omegas, left=-3, reflect_at=-3)
    assert (chain.left, chain.right, chain.reflect_at) == (-3, 6, -3)
    np.testing.assert_array_equal(chain.omegas, omegas[:-1])
    frozen_v = [0.0, -0.71995774, 1.30894251, 0.54681342, -0.1339631,
                0.24937532, 0.11540847, 2.35803944, 2.16447656, 2.2217227]
    np.testing.assert_allclose(chain.base_potential, frozen_v, atol=1e-7)

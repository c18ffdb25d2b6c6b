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


@pytest.mark.parametrize("L", [20_000, 50_000])
def test_long_chain_sums_match_a_40_digit_sum(L):
    # the accumulated logaddexp over tens of thousands of e^V terms, from
    # the origin and from b, where V is near -0.3 L; the exit probability is
    # checked only below 0.99, since near 1 a relative error says nothing
    import mpmath
    b = L // 2
    for seed in range(7700, 7703):
        chain, _ = random_chain(L, seed)
        with mpmath.workdps(40):
            terms = [mpmath.exp(mpmath.mpf(float(v))) for v in chain.base_potential[:-1]]
            q_ref = mpmath.mpf(chain.omega(b)) * terms[b] / mpmath.fsum(terms[b:])
            p, q = failure_prob(chain, b, L)
            assert q == pytest.approx(float(q_ref), rel=1e-10)
            assert p == pytest.approx(float(1 - q_ref), rel=1e-10)
            for l in (0, b):
                prefix = list(itertools.accumulate(terms[l:]))
                checked = 0
                for x in range(l + 1, L):
                    ref = float(prefix[x - 1 - l] / prefix[-1])
                    if ref >= 0.99:
                        break
                    assert exit_prob(chain, x, l, L) == pytest.approx(ref, rel=1e-10)
                    checked += 1
                assert checked > 0


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


def test_success_transform_of_width_one():
    # d = b + 1: g(b+1) = g(d) = 1, so the gap is 0 at b+1 and the
    # conditioned walk has no interior site
    chain, _ = random_chain(6, 17)
    hs = h_transform(chain, 2, 3, "success")
    assert hs.gap[1] == 0.0
    assert hs.v_hat[1] == chain.v(3)
    assert hs.omegas_hat.size == 0
    # one forced step and nothing else: 1 + 2 e^{V-bar(d) - V-bar(d)}
    assert attempt_moments(flat_chain(0.5, 2, reflect_at=0), 0, 1, 2).mean_G_bound == 3.0


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
    out = linear_solve_oracle(chain, 10, lam=0.0)
    np.testing.assert_allclose(out, np.arange(11) / 10.0, rtol=0, atol=1e-12)


def test_oracle_laplace_matches_hit_prob_at_zero():
    # reflected at 0 the walk hits 9 surely; absorbed at 0 it hits 9 first
    # with the exit probability of the reference solver
    for reflect in (True, False):
        chain, om_full = random_chain(9, 77, reflect=reflect)
        hp = np.ones(10) if reflect else oracles.exit_right_prob(om_full[1:9])
        lp = linear_solve_oracle(chain, 9, lam=0.0)
        np.testing.assert_allclose(lp, hp, rtol=0, atol=1e-12)
        damped = linear_solve_oracle(chain, 9, lam=0.3)
        assert np.all(damped <= lp + 1e-15)


def test_oracle_hit_probabilities_stay_in_the_unit_interval():
    # reflected at 0, the walk reaches L surely.  Unclipped, the banded
    # solve's rounding on 2200 sites reads up to 1 + 2e-10 at seeds 0-3;
    # of seeds 0-399 the worst are 13 (1 + 1.3e-5) and 216 (1 - 2.0e-5)
    for seed in (0, 1, 2, 3, 13, 216):
        chain, _ = random_chain(2200, seed)
        out = linear_solve_oracle(chain, 2200, lam=0.0)
        assert np.all(out <= 1.0)
        np.testing.assert_allclose(out, 1.0, rtol=0, atol=2.5e-5)


def test_oracle_laplace_against_dense_reference():
    for seed in range(25):
        L = 3 + seed % 10
        chain, om_full = random_chain(L, 6400 + seed)
        ours = linear_solve_oracle(chain, L, lam=0.7)
        ref = oracles.laplace_hit_reflected(om_full, 0.7)
        np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-13)


def test_oracle_target_validation():
    chain = flat_chain(0.5, 5)
    with pytest.raises(ValueError):
        linear_solve_oracle(chain, 2, lam=0.0)
    with pytest.raises(ValueError):
        linear_solve_oracle(chain, None)
    with pytest.raises(ValueError):     # a reflecting end absorbs nothing
        linear_solve_oracle(flat_chain(0.5, 5, reflect_at=0), 0)


# ------------------------------------------------- expected hitting times

def test_expected_hitting_times_match_the_dense_solves():
    # E_0 tau(r) reflected at 0, read off the potential, at every target r
    # of small chains: against the reference solver
    for seed in range(30):
        L = 1 + seed % 12
        chain, om_full = random_chain(L, 7100 + seed)
        times = quenched.expected_hitting_times(chain.base_potential)
        assert times.size == L + 1 and times[0] == 0.0
        for r in range(1, L + 1):
            ref = oracles.hit_time_reflected(om_full[: r + 1], 0)
            assert times[r] == pytest.approx(ref, rel=1e-12)
    # omega = 3/4 everywhere: 2 * 10 - (1 - 3^{-10}) * 3/2
    flat = quenched.expected_hitting_times(flat_chain(0.75, 10, reflect_at=0).base_potential)
    assert flat[10] == pytest.approx(18.5 + 1.5 * 3.0 ** -10, rel=1e-13)


def test_edge_time_moments_match_the_dense_solves():
    # m_k = E T_k and s_k = E T_k^2 for the edge times k -> k+1 of
    # reflected chains of up to 50 sites, against the first- and
    # second-moment systems solved densely
    for seed in range(30):
        L = 1 + (7 * seed) % 50
        chain, om_full = random_chain(L, 7300 + seed)
        log_m, log_s = quenched._log_edge_moments(chain.base_potential[:L])
        m, s = oracles.edge_time_moments(om_full)
        np.testing.assert_allclose(np.exp(log_m), m, rtol=1e-10, atol=0)
        np.testing.assert_allclose(np.exp(log_s), s, rtol=1e-10, atol=0)
    log_m, log_s = quenched._log_edge_moments(chain.base_potential[:L], second=False)
    assert log_s is None and np.exp(log_m) == pytest.approx(m, rel=1e-10)


@pytest.mark.parametrize("seed", [13, 216])
def test_expected_hitting_times_against_a_60_digit_solve(seed):
    # 2200-site chains whose potential falls by about 1300; a banded solve
    # of the expected-time system errs here by 4.5e-6 (seed 13) and 2.9e-5
    # (seed 216)
    chain, om_full = random_chain(2200, seed)
    times = quenched.expected_hitting_times(chain.base_potential)
    for r in (1, 550, 1100, 2200):
        assert times[r] == pytest.approx(oracles.hit_time_reflected_mp(om_full[: r + 1]),
                                         rel=1e-11)


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
    chain = QuenchedChain.from_environment(env, env.offset - 1, 5)
    with pytest.raises(WindowExhausted):
        sample_hitting_times(chain, 5, 10, seed=2)


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
    (annealed,), (clipped,) = _tau_block(EnvironmentLaw.parse("discrete:0.7@1"), (n,), 4000,
                                         stream_key(11, "tau"))
    assert not clipped.any()
    chain = QuenchedChain.from_omegas([0.7] * (n + 400), left=-400)
    quenched = sample_hitting_times(chain, n, 4000, seed=12)
    assert ks_2samp(annealed, quenched).pvalue > 1e-3


def test_sample_hitting_times_draws_the_reference_cascade_bit_for_bit():
    # in a fixed environment gamma(0) and poisson(0) consume no bits, so
    # drawing only the live lanes below start leaves every draw in place:
    # a reflected Beta(1.5, 1) chain, then an unreflected chain over a
    # two-atom window (rho 1/4 and 7/3) where the cascade runs below start
    from rwre.env import EnvironmentLaw, sample_environment
    from rwre.rng import generator, stream_key
    chain, _ = random_chain(400, seed=1)
    env = sample_environment(EnvironmentLaw.parse("discrete:0.8@0.5;0.3@0.5"),
                             (-5000, 300), seed=3)
    window = QuenchedChain.from_environment(env, env.offset - 1, 300)
    rho_env = lambda i: (1.0 - env.site(i)) / env.site(i)
    cases = [(chain, 0, 400, 1500, 4, lambda i: 0.0 if i == 0 else
              (1.0 - chain.omega(i)) / chain.omega(i), 0),
             (window, 0, 300, 1500, 5, rho_env, None),
             (window, 100, 300, 1000, 6, rho_env, None)]
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
    (ours,), (clipped,) = _tau_block(law, (n,), count, stream_key(21, "tau"))
    rng = generator(stream_key(22, "tau-ref"))
    ref, ref_clipped = oracles.branching_cascade_reference(
        lambda _i: oracles.rho_reference(law, rng, count), rng, count, 0, n,
        floor=-_TAU_DEPTH - 1)
    assert not clipped.any() and not ref_clipped.any()
    assert ks_2samp(ours, ref).pvalue > 1e-3


def test_cascade_clips_the_lanes_alive_below_the_floor():
    # discrete:0.3@1 has rho = 7/3, so the cascade grows below the origin
    from rwre.env import EnvironmentLaw, draw_rho
    from rwre.quenched import _branching_cascade, _gamma_poisson
    from rwre.rng import generator
    law = EnvironmentLaw.parse("discrete:0.3@1")
    rng = generator(31)
    draw = _gamma_poisson(lambda _i, size: draw_rho(law, rng, size), rng)
    # floor = start: no site below start is visited, so a lane is clipped
    # exactly when it crossed the edge (start, start + 1) leftward
    (tau,), (clipped,) = _branching_cascade(draw, 4000, 0, (1,), floor=0)
    np.testing.assert_array_equal(clipped, tau > 1.0)
    assert 0.5 < clipped.mean() < 0.9                 # P{U_0 > 0} = 0.7
    # a floor three sites down: the live-lane scan against the reference
    # that scans every lane, in the same fixed environment
    rho = 7.0 / 3.0
    (ours,), (ours_clipped,) = _branching_cascade(
        _gamma_poisson(lambda _i, _size: rho, generator(32)), 4000, 0, (5,), floor=-3)
    ref = oracles.branching_cascade_reference(lambda _i: rho, generator(32), 4000, 0, 5,
                                              floor=-3)
    np.testing.assert_array_equal(ours, ref[0])
    np.testing.assert_array_equal(ours_clipped, ref[1])
    assert 0.5 < ours_clipped.mean() < 1.0
    _, (annealed_clipped,) = _branching_cascade(draw, 4000, 0, (5,), floor=-3)
    assert abs(annealed_clipped.mean() - ours_clipped.mean()) < 0.05


@pytest.mark.parametrize("spec", ("beta:1.5,1", "discrete:0.8@0.5;0.3@0.5"))
def test_tau_block_row_does_not_depend_on_the_rest_of_the_grid(spec):
    from rwre.env import EnvironmentLaw
    from rwre.experiments import _tau_block
    from rwre.rng import stream_key
    law, key = EnvironmentLaw.parse(spec), stream_key(41, "tau", 0)
    (alone,), (alone_clipped,) = _tau_block(law, (300,), 600, key)
    tau, clipped = _tau_block(law, (100, 300, 600), 600, key)
    np.testing.assert_array_equal(tau[1], alone)
    np.testing.assert_array_equal(clipped[1], alone_clipped)


@pytest.mark.parametrize("spec", ("beta:1.5,1", "discrete:0.8@0.5;0.3@0.5"))
def test_shared_chain_row_has_the_single_target_law(spec):
    # row n = 60 is a snapshot of the chain run for n = 500, plus its own
    # tail; the reference runs one cascade to 60 with rho from
    # Generator.beta or Generator.choice
    from scipy.stats import ks_2samp
    from rwre.env import EnvironmentLaw
    from rwre.experiments import _TAU_DEPTH, _tau_block
    from rwre.rng import generator, stream_key
    law, count = EnvironmentLaw.parse(spec), 4000
    tau, clipped = _tau_block(law, (60, 500), count, stream_key(43, "tau", 0))
    rng = generator(stream_key(44, "tau-ref"))
    ref, ref_clipped = oracles.branching_cascade_reference(
        lambda _i: oracles.rho_reference(law, rng, count), rng, count, 0, 60,
        floor=-_TAU_DEPTH - 1)
    assert not clipped.any() and not ref_clipped.any()
    assert ks_2samp(tau[0], ref).pvalue > 1e-3


def test_each_row_keeps_its_own_clipped_flags():
    # discrete:0.3@1 (rho = 7/3) with the floor at the origin: a row's tail
    # clips a lane exactly when that row's U_0 > 0, which for row 1 is
    # tau > 1.  Rows 1 and 5 share their first site but not U_0, so each
    # row must carry the flags it has alone, not the other's clips.
    from rwre.env import EnvironmentLaw, draw_rho
    from rwre.quenched import _branching_cascade, _gamma_poisson
    from rwre.rng import generator
    law = EnvironmentLaw.parse("discrete:0.3@1")

    def draw(seed):
        rng = generator(seed)
        return _gamma_poisson(lambda _i, size: draw_rho(law, rng, size), rng)
    tau, clipped = _branching_cascade(draw(51), 4000, 0, (1, 5), floor=0, tail=draw)
    for row, n in enumerate((1, 5)):
        alone = _branching_cascade(draw(51), 4000, 0, (n,), floor=0, tail=draw)
        np.testing.assert_array_equal(tau[row], alone[0][0])
        np.testing.assert_array_equal(clipped[row], alone[1][0])
    np.testing.assert_array_equal(clipped[0], tau[0] > 1.0)
    assert (clipped[0] & ~clipped[1]).any() and (clipped[1] & ~clipped[0]).any()


def test_cascade_clips_infinite_geometric_intensities_without_a_warning():
    # Gamma(1e-3) draws underflow to 0 about half the time, so log1p(G_a /
    # G_r) is 0 or subnormal and E over it infinite: clipped, no warning
    import warnings
    from rwre.quenched import _LAM_CAP, _beta_geometric, _branching_cascade
    from rwre.rng import generator
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau, clipped = _branching_cascade(_beta_geometric(1e-3, generator(53)), 200, 0,
                                          (3, 6), floor=-2)
    assert clipped.mean() > 0.5
    assert np.isfinite(tau).all() and tau.max() >= 2.0 * _LAM_CAP


def _bnb_chi_square_pvalue(counts: np.ndarray, r: int, alpha: float) -> float:
    """Chi-square p-value of counts against BNB(r, alpha, 1), on about 40
    bins of near-equal reference mass; the last bin holds the tail."""
    from scipy.stats import betanbinom, chisquare
    # betanbinom.ppf loops forever on these tails, so the quantiles come
    # from the summed pmf; bin j is (tops[j-1], tops[j]]
    cdf = np.cumsum(betanbinom(r, alpha, 1.0).pmf(np.arange(10**6)))
    tops = np.unique(np.searchsorted(cdf, np.linspace(0.0, 1.0, 41)[1:-1]))
    observed = np.bincount(np.searchsorted(tops, counts), minlength=tops.size + 1)
    expected = np.diff(np.concatenate([[0.0], cdf[tops], [1.0]])) * counts.size
    return float(chisquare(observed, expected * counts.size / expected.sum()).pvalue)


@pytest.mark.parametrize("route", ["gamma_poisson", "beta_geometric"])
@pytest.mark.parametrize("r", [1, 2, 6, 51])
def test_annealed_site_draws_have_the_beta_negative_binomial_law(route, r):
    # omega ~ Beta(1.5, 1) integrated out: given shape r, a count is
    # BNB(r, 1.5, 1).  Above the origin the cascade passes the float shape
    # u + 1, below it the integer u; both forms must give the law.
    from rwre.env import EnvironmentLaw, draw_rho
    from rwre.quenched import _beta_geometric, _gamma_poisson, _site_counts
    from rwre.rng import generator
    law, size = EnvironmentLaw.beta_law(1.5, 1.0), 1_000_000
    for seed, shape in ((70 + r, np.full(size, r - 1, dtype=np.int64) + 1.0),
                        (170 + r, np.full(size, r, dtype=np.int64))):
        rng = generator(seed)
        draw = (_beta_geometric(1.5, rng) if route == "beta_geometric" else
                _gamma_poisson(lambda _i, n: draw_rho(law, rng, n), rng))
        clipped = np.zeros(size, dtype=bool)
        counts = _site_counts(draw, 0, shape, clipped, slice(None), np.empty(size))
        np.testing.assert_array_equal(counts, np.floor(counts))     # whole numbers
        assert not clipped.any()
        assert _bnb_chi_square_pvalue(counts, r, 1.5) > 1e-3


def test_geometric_draw_clips_and_counts_the_lanes_past_the_cap():
    # a shape of 1e20 puts E / log1p(G_a / G_r) near 1e20 E / G_a, past
    # _LAM_CAP; an infinite shape makes the log1p 0, an infinite intensity,
    # whose division by 0 the cascade ignores around its whole scan
    import warnings
    from rwre.quenched import _LAM_CAP, _beta_geometric, _site_counts
    from rwre.rng import generator
    lanes = np.array([0, 2, 3, 5])
    clipped = np.zeros(6, dtype=bool)
    with warnings.catch_warnings(), np.errstate(divide="ignore"):
        warnings.simplefilter("error")
        counts = _site_counts(_beta_geometric(1.5, generator(61)), 0,
                              np.array([1.0, 1e20, 2.0, np.inf]), clipped, lanes,
                              np.empty(4))
    np.testing.assert_array_equal(clipped, [False, False, True, False, False, True])
    assert counts[1] == counts[3] == int(_LAM_CAP)
    assert counts[0] < 10**6 and counts[2] < 10**6


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
    exact = oracles.hit_time_reflected(np.array([1.0] + [0.9] * 5), 0)
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

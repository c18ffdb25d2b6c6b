"""Potential scans, ladder structure, and valley detection."""

import math

import numpy as np
import pytest

from rwre.env import EnvironmentLaw, sample_environment
from rwre.potential import (
    PotentialPath,
    WindowExhausted,
    build_potential,
    check_good_environment,
    critical_height,
    descent_threshold,
    detect_deep_valleys,
    detect_star_valleys,
    excursion_table,
    first_ascent,
    ladder_epochs,
    max_increment,
    min_increment,
)

BETA_LAW = EnvironmentLaw.beta_law(1.5, 1.0)

# sawtooth on sites -2..11, V(0) = 0, peaks 3.6 at site 3 and 3.2 at site 8
SAWTOOTH = PotentialPath(offset=-2, v=np.array(
    [1.0, 0.5, 0.0, 1.2, 2.4, 3.6, 1.6, -0.4, 0.8, 2.0, 3.2, 1.2, -0.8, -1.3]))

# one tall excursion with full backing on both sides, sites -6..14;
# with n = 2, epsilon = 0.2, kappa = 0.5 the thresholds are
# h_n = 1.6 log 2 and D_n = 3 log 2, and the valley is checkable by hand
VALLEY_V = np.array([3.0, 2.5, 2.2, 1.6, 1.0, 0.4, 0.0, 1.3, 2.5, 1.5, 0.6,
                     -0.2, -0.5, 0.3, -0.9, -1.6, -2.4, -2.0, -1.2, -2.6, -2.9])
VALLEY_PATH = PotentialPath(offset=-6, v=VALLEY_V)


# ------------------------------------------------------------ construction

def test_build_potential_anchors_at_the_origin():
    env = sample_environment(BETA_LAW, (-10, 30), seed=2)
    path = build_potential(env)
    assert path.offset == -11
    assert path.value(0) == 0.0
    # increments are log rho site by site
    for site in (-6, 0, 1, 17):
        rho = (1.0 - env.site(site)) / env.site(site)
        assert math.isclose(path.value(site) - path.value(site - 1),
                            math.log(rho), rel_tol=1e-12, abs_tol=1e-12)


def test_path_indexing_and_bounds():
    assert SAWTOOTH.value(-2) == 1.0
    assert SAWTOOTH.value(3) == 3.6
    assert SAWTOOTH.last_site == 11
    assert len(SAWTOOTH) == 14
    np.testing.assert_array_equal(SAWTOOTH.slice_values(0, 2), [0.0, 1.2, 2.4])
    with pytest.raises(IndexError):
        SAWTOOTH.value(12)
    with pytest.raises(IndexError):
        SAWTOOTH.value(-3)


# ------------------------------------------------------- ladder structure

def test_ladder_epochs_sawtooth():
    np.testing.assert_array_equal(ladder_epochs(SAWTOOTH), [0, 5, 10, 11])


def test_ladder_epochs_are_weak_descents():
    env = sample_environment(BETA_LAW, (-2, 4000), seed=9)
    path = build_potential(env)
    epochs = ladder_epochs(path)
    assert epochs[0] == 0
    values = np.array([path.value(int(e)) for e in epochs])
    assert np.all(np.diff(values) <= 0.0)
    # strictly between epochs the potential stays above the last minimum
    for lo, hi in zip(epochs[:-1], epochs[1:]):
        seg = path.slice_values(int(lo), int(hi) - 1)
        assert np.all(seg >= path.value(int(lo)))


def test_excursions_sawtooth():
    table = excursion_table(SAWTOOTH)
    assert list(zip(table.starts.tolist(), table.ends.tolist())) == \
        [(0, 5), (5, 10), (10, 11)]
    assert math.isclose(table.heights[0], 3.6)
    assert math.isclose(table.heights[1], 3.6)
    assert table.heights[2] == 0.0


def test_excursion_table_matches_records():
    # the vectorized scan against one max per consecutive ladder pair
    env = sample_environment(BETA_LAW, (-50, 4000), seed=11)
    path = build_potential(env)
    epochs = ladder_epochs(path)
    table = excursion_table(path)
    assert table.starts.tolist() == epochs[:-1].tolist()
    assert table.ends.tolist() == epochs[1:].tolist()
    heights = [float(np.max(path.slice_values(int(s), int(e)))) - path.value(int(s))
               for s, e in zip(epochs[:-1], epochs[1:])]
    np.testing.assert_allclose(table.heights, heights, rtol=0)


def test_last_excursion_ignores_trailing_rise():
    # the window keeps rising after the last ladder epoch at site 1; that
    # incomplete stretch must not leak into the height
    path = PotentialPath(offset=0, v=np.array([0.0, -1.0, 3.0, 4.0, 5.0]))
    table = excursion_table(path)
    assert list(zip(table.starts.tolist(), table.ends.tolist())) == [(0, 1)]
    assert table.heights.tolist() == [0.0]


def test_scans_sawtooth():
    assert first_ascent(SAWTOOTH, 3.0) == 3
    assert first_ascent(SAWTOOTH, 10.0) is None
    assert math.isclose(max_increment(SAWTOOTH, 0, 11), 3.6)
    assert math.isclose(min_increment(SAWTOOTH, 0, 11), -4.9)
    assert max_increment(SAWTOOTH, 4, 5) == 0.0


def test_thresholds():
    assert math.isclose(critical_height(100, 0.2, 0.5), 1.6 * math.log(100))
    assert math.isclose(descent_threshold(100, 0.5), 3.0 * math.log(100))


# -------------------------------------------------------- deep valleys

def test_deep_valley_hand_checked():
    valleys = detect_deep_valleys(VALLEY_PATH, n=2, epsilon=0.2, kappa=0.5)
    assert len(valleys) == 1
    v = valleys[0]
    assert (v.a, v.b, v.t_up, v.c, v.d_bar, v.d) == (-4, 0, 1, 2, 5, 10)
    assert math.isclose(v.height, 2.5)
    assert math.isclose(v.h_n, 1.6 * math.log(2))
    assert math.isclose(v.D_n, 3.0 * math.log(2))


def test_deep_valley_backing_depths():
    v = detect_deep_valleys(VALLEY_PATH, n=2, epsilon=0.2, kappa=0.5)[0]
    assert VALLEY_PATH.value(v.a) - VALLEY_PATH.value(v.b) >= v.D_n
    assert VALLEY_PATH.value(v.d_bar) - VALLEY_PATH.value(v.d) >= v.D_n
    assert VALLEY_PATH.value(v.t_up) - VALLEY_PATH.value(v.b) >= v.h_n


def test_deep_valleys_need_enough_excursions():
    with pytest.raises(WindowExhausted) as err:
        detect_deep_valleys(VALLEY_PATH, n=40, epsilon=0.2, kappa=0.5)
    assert err.value.side == "right"


def test_deep_valleys_need_left_backing():
    clipped = PotentialPath(offset=-2, v=VALLEY_V[4:])
    with pytest.raises(WindowExhausted) as err:
        detect_deep_valleys(clipped, n=2, epsilon=0.2, kappa=0.5)
    assert err.value.side == "left"


def test_valley_epsilon_validation():
    with pytest.raises(ValueError):
        detect_deep_valleys(VALLEY_PATH, n=2, epsilon=0.5, kappa=0.5)
    with pytest.raises(ValueError):
        detect_deep_valleys(VALLEY_PATH, n=1, epsilon=0.2, kappa=0.5)


def test_deep_valleys_on_sampled_environment():
    env = sample_environment(BETA_LAW, (-400, 8000), seed=31)
    path = build_potential(env)
    n = 60
    valleys = detect_deep_valleys(path, n, epsilon=0.2, kappa=0.5)
    h_n = critical_height(n, 0.2, 0.5)
    heights = excursion_table(path).heights[:n]
    assert len(valleys) == int(np.sum(heights >= h_n))
    for v in valleys:
        assert v.a < v.b <= v.t_up <= v.c <= v.d_bar <= v.d
        assert v.height >= h_n


# -------------------------------------------------------- star valleys

def test_star_valleys_coincide_when_deep_valleys_are_disjoint():
    # seed chosen so the two deep windows [a, d] do not overlap
    env = sample_environment(BETA_LAW, (-600, 12000), seed=94)
    path = build_potential(env)
    n = 60
    deep = detect_deep_valleys(path, n, epsilon=0.2, kappa=0.5)
    star = detect_star_valleys(path, n, epsilon=0.2, kappa=0.5)
    assert len(deep) == 2
    assert all(deep[i].d < deep[i + 1].a for i in range(len(deep) - 1))
    assert {(v.b, v.d_bar) for v in deep} == {(v.b, v.d_bar) for v in star}


def test_star_valleys_are_a_subset_of_deep_ones():
    # overlapping deep valleys get merged by the star scan, never invented
    env = sample_environment(BETA_LAW, (-600, 12000), seed=9)
    path = build_potential(env)
    deep = detect_deep_valleys(path, 60, epsilon=0.2, kappa=0.5)
    star = detect_star_valleys(path, 60, epsilon=0.2, kappa=0.5)
    assert len(deep) == 3
    deep_pairs = {(v.b, v.d_bar) for v in deep}
    star_pairs = [(v.b, v.d_bar) for v in star]
    assert star_pairs == [(13, 59), (121, 140)]
    assert set(star_pairs) <= deep_pairs


def test_star_valleys_ordered_and_disjoint():
    env = sample_environment(BETA_LAW, (-600, 12000), seed=9)
    path = build_potential(env)
    star = detect_star_valleys(path, 60, epsilon=0.2, kappa=0.5)
    d_n = descent_threshold(60, 0.5)
    assert len(star) >= 2
    for v in star:
        assert v.gamma <= v.t_star
        assert v.a <= v.b <= v.c <= v.d_bar <= v.d
        assert path.value(v.a) - path.value(v.b) >= d_n
    for prev, nxt in zip(star, star[1:]):
        assert nxt.gamma >= prev.d


# -------------------------------------------------- good environments

def test_good_environment_record_shape():
    env = sample_environment(BETA_LAW, (-600, 20_000), seed=17)
    path = build_potential(env)
    rec = check_good_environment(path, n=100, epsilon=0.2, delta=0.7,
                                 Cprime=7.0, Cdoubleprime=25.0, kappa=0.5)
    assert rec.joint == (rec.a1 and rec.a2 and rec.a3 and rec.a4)
    assert rec.k_n >= 0
    assert rec.e_n >= 100
    assert rec.band[0] <= rec.k_n <= rec.band[1] or not rec.a2


def test_good_environment_self_calibrated_count_band():
    env = sample_environment(BETA_LAW, (-600, 20_000), seed=17)
    path = build_potential(env)
    rec = check_good_environment(path, n=100, epsilon=0.2, delta=0.7,
                                 Cprime=7.0, Cdoubleprime=25.0, kappa=0.5)
    assert rec.a2 is True
    assert math.isclose(rec.q_hat, rec.k_n / 100.0)


def test_good_environment_external_band_can_fail():
    env = sample_environment(BETA_LAW, (-600, 20_000), seed=17)
    path = build_potential(env)
    rec = check_good_environment(path, n=100, epsilon=0.2, delta=0.7,
                                 Cprime=7.0, Cdoubleprime=25.0, kappa=0.5,
                                 q_hat=0.5)
    assert rec.a2 is False
    assert rec.q_hat == 0.5


def test_good_environment_delta_validation():
    with pytest.raises(ValueError):
        check_good_environment(SAWTOOTH, n=2, epsilon=0.2, delta=0.3,
                               Cprime=7.0, Cdoubleprime=25.0, kappa=0.5)

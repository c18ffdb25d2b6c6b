"""Potential scans, ladder structure, and valley detection."""

import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre.env import EnvironmentLaw, sample_environment
from rwre.potential import (
    _CHUNK,
    PotentialPath,
    WindowExhausted,
    _backing_site,
    _descent_site,
    _first_at_most,
    _first_rise,
    _grow_valley,
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


GROWTH_LAWS = [EnvironmentLaw.parse(text) for text in
               ("beta:1.5,1", "beta:2,1.5", "discrete:0.8@0.5;0.3@0.5")]
BLOCK_EDGES = [s + d for s in (4096, 8192, 12288) for d in (-1, 0, 1)]


def _grown(law, seed, left, cuts):
    """Potential and excursion table over [left, cuts[-1]], built on
    [left, cuts[0]] and grown in place to each later cut."""
    path = build_potential(sample_environment(law, (left, cuts[0]), seed=seed))
    table = excursion_table(path)
    for lo, hi in zip(cuts, cuts[1:]):
        piece = build_potential(sample_environment(law, (lo + 1, hi), seed=seed), prior=path)
        assert len(piece) - 1 == hi - lo
        path = path.joined(piece)
        table = excursion_table(path, prior=table)
    return path, table


@settings(max_examples=60, deadline=None)
@given(law=st.sampled_from(GROWTH_LAWS), seed=st.integers(0, 2 ** 32 - 1),
       left=st.one_of(st.integers(-6000, 0), st.sampled_from([-4097, -4096, -4095])),
       cuts=st.lists(st.one_of(st.integers(1, 14_000), st.sampled_from(BLOCK_EDGES)),
                     min_size=1, max_size=5, unique=True))
def test_grown_potential_and_table_equal_a_whole_window_build(law, seed, left, cuts):
    cuts = sorted(cuts)
    path, table = _grown(law, seed, left, cuts)
    whole = build_potential(sample_environment(law, (left, cuts[-1]), seed=seed))
    assert (path.offset, path.shift, path.running_sum) == \
        (whole.offset, whole.shift, whole.running_sum)
    assert path.v.tobytes() == whole.v.tobytes()
    for grown, built in zip(table, excursion_table(whole)):
        assert grown.dtype == built.dtype
        assert grown.tobytes() == built.tobytes()


def test_build_potential_continues_only_a_built_path_that_it_abuts():
    path = build_potential(sample_environment(BETA_LAW, (-50, 100), seed=3))
    with pytest.raises(ValueError):
        build_potential(sample_environment(BETA_LAW, (102, 200), seed=3), prior=path)
    with pytest.raises(ValueError):
        build_potential(sample_environment(BETA_LAW, (101, 200), seed=3),
                        prior=PotentialPath(offset=path.offset, v=path.v))
    with pytest.raises(ValueError):
        path.joined(PotentialPath(offset=path.last_site + 1, v=np.zeros(3)))
    # a window left of the origin is anchored at its own left edge, so
    # reaching site 0 would move every value already built
    left_only = build_potential(sample_environment(BETA_LAW, (-50, -10), seed=3))
    with pytest.raises(ValueError):
        build_potential(sample_environment(BETA_LAW, (-9, 5), seed=3), prior=left_only)


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
    # seed chosen so the two deep windows [a, d] do not overlap; both lie
    # past the first D_n-descent from the origin, where the star scan starts
    env = sample_environment(BETA_LAW, (-600, 12000), seed=47)
    path = build_potential(env)
    n = 60
    deep = detect_deep_valleys(path, n, epsilon=0.2, kappa=0.5)
    star = detect_star_valleys(path, n, epsilon=0.2, kappa=0.5)
    assert len(deep) == 2
    assert all(deep[i].d < deep[i + 1].a for i in range(len(deep) - 1))
    assert {(v.b, v.d_bar) for v in deep} == {(v.b, v.d_bar) for v in star}


def test_star_valleys_are_a_subset_of_deep_ones():
    # overlapping deep valleys get merged by the star scan, never invented;
    # seed chosen so the third deep window starts inside the second
    env = sample_environment(BETA_LAW, (-600, 12000), seed=7)
    path = build_potential(env)
    deep = detect_deep_valleys(path, 60, epsilon=0.2, kappa=0.5)
    star = detect_star_valleys(path, 60, epsilon=0.2, kappa=0.5)
    assert len(deep) == 3
    deep_pairs = {(v.b, v.d_bar) for v in deep}
    star_pairs = [(v.b, v.d_bar) for v in star]
    assert star_pairs == [(39, 60), (88, 111)]
    assert set(star_pairs) <= deep_pairs


def test_star_valleys_ordered_and_disjoint():
    env = sample_environment(BETA_LAW, (-600, 12000), seed=7)
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


# -------------------------------------------------- galloping searches

def _outcome(scan, *args):
    """What a scan returns, or the side and subject of its WindowExhausted."""
    try:
        return scan(*args)
    except WindowExhausted as exhausted:
        return ("exhausted", exhausted.side, exhausted.what)


def _full_backing(path, b, D_n):
    idx = oracles.last_at_least_full(path.v, path.index(b), path.value(b) + D_n)
    return ("exhausted", "left", "a") if idx is None else path.offset + idx


def _full_descent(path, d_bar, D_n):
    idx = oracles.first_at_most_full(path.v, path.index(d_bar), path.value(d_bar) - D_n)
    return ("exhausted", "right", "d") if idx is None else path.offset + idx


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), length=st.integers(1, 12_000),
       drift=st.floats(-0.05, 0.05), data=st.data())
def test_gallop_searches_match_full_window_on_random_paths(seed, length, drift, data):
    v = np.cumsum(np.random.default_rng(seed).standard_normal(length) + drift)
    start = data.draw(st.integers(0, length - 1))
    gap = data.draw(st.floats(0.0, 40.0))
    assert _first_at_most(v, start, v[start] - gap) == \
        oracles.first_at_most_full(v, start, v[start] - gap)
    assert _first_rise(v, start, gap) == oracles.first_rise_full(v, start, gap)
    path = PotentialPath(offset=-start - 3, v=v)
    site = path.offset + start
    assert _outcome(_backing_site, path, site, gap, "a") == _full_backing(path, site, gap)
    assert _outcome(_descent_site, path, site, gap, "d") == _full_descent(path, site, gap)


@pytest.mark.parametrize("offset", [0, _CHUNK - 1, _CHUNK, 3 * _CHUNK - 1, 3 * _CHUNK, None],
                         ids=["0", "1023", "1024", "3071", "3072", "last-site"])
def test_gallop_searches_find_hits_at_chunk_edges(offset):
    length, start = 8000, 7
    # rightward: the hit sits offset sites past start (None: the last site)
    k = length - 1 if offset is None else start + offset
    v = np.zeros(length)
    v[start - 1] = -9.0                  # before the start: never a hit
    v[k] = -2.0
    assert _first_at_most(v, start, -1.0) == k == oracles.first_at_most_full(v, start, -1.0)
    # a steady descent keeps the rise at 0 until the jump at k; a rise
    # needs a lower point before it, so none sits at the start itself
    ramp = -1e-3 * np.arange(length)
    ramp[k] += 4.0
    expected = k if k > start else None
    assert _first_rise(ramp, start, 3.0) == expected == oracles.first_rise_full(ramp, start, 3.0)
    # leftward: the hit sits offset sites before b (None: the first site)
    bi = length - 8
    k = 0 if offset is None else bi - offset
    v = np.zeros(length)
    v[bi + 1] = 9.0                      # past b: never a hit
    v[k] = 5.0
    path = PotentialPath(offset=-20, v=v)
    b = path.offset + bi
    # b itself is never D_n above itself
    expected = path.offset + k if k < bi else ("exhausted", "left", "a")
    assert _outcome(_backing_site, path, b, 3.0, "a") == expected == _full_backing(path, b, 3.0)


def test_first_rise_carries_the_running_minimum_across_chunks():
    v = np.zeros(5 * _CHUNK)
    v[100] = -1.0                        # the low, in the first chunk
    v[4000] = 2.0                        # a rise of 3 from it, in the third
    assert _first_rise(v, 0, 3.0) == 4000 == oracles.first_rise_full(v, 0, 3.0)


def test_gallop_searches_without_a_hit_exhaust_their_side():
    v = np.zeros(5000)
    assert _first_at_most(v, 10, -1.0) is None
    assert _first_rise(v, 10, 1.0) is None
    path = PotentialPath(offset=-30, v=v)
    with pytest.raises(WindowExhausted) as left:
        _backing_site(path, 4000, 1.0, "a")
    with pytest.raises(WindowExhausted) as right:
        _descent_site(path, 5, 1.0, "d")
    assert (left.value.side, right.value.side) == ("left", "right")


# seeds chosen so the cuts reach all four star-valley searches and both sides
@pytest.mark.parametrize("seed,n", [(0, 60), (94, 60), (1, 600), (4, 2000)])
def test_star_and_grown_valleys_match_full_window_scans(seed, n):
    full = build_potential(sample_environment(BETA_LAW, (-600, 12 * n + 5000), seed=seed))
    h_n = critical_height(n, 0.2, 0.5)
    d_n = descent_threshold(n, 0.5)
    sides = set()
    # the whole window, then windows that end just short of a valley's
    # gamma, t_star, d_bar or d, or start just inside its a; the whole
    # window's table keeps e_n past the cut, so each search runs off it
    table = excursion_table(full)
    star = detect_star_valleys(full, n, 0.2, 0.5)
    assert star == oracles.star_valleys_full(full, n, 0.2, 0.5)
    cuts = [(0, full.index(site)) for v in star for site in (v.gamma, v.t_star, v.d_bar, v.d)]
    cuts += [(full.index(v.a) + 1, len(full)) for v in star if v.a < 0]
    whats = set()
    for lo, hi in cuts:
        path = PotentialPath(offset=full.offset + lo, v=full.v[lo:hi])
        cut = _outcome(detect_star_valleys, path, n, 0.2, 0.5, table)
        assert cut == _outcome(oracles.star_valleys_full, path, n, 0.2, 0.5, table)
        sides.add(cut[1])
        whats.add(cut[2])
    assert whats == {f"star-valley {x}" for x in ("gamma", "t_star", "d_bar", "d")}
    # each deep valley grown on the whole window, then on windows that end
    # just inside its a (left) or just short of its d (right)
    deep = np.flatnonzero(table.heights >= h_n)
    assert deep.size
    for i in deep[:6]:
        b, d_bar = int(table.starts[i]), int(table.ends[i])
        grown = _grow_valley(full, b, d_bar, h_n, d_n, float(table.heights[i]))
        assert grown == oracles.grow_valley_full(full, b, d_bar, h_n, d_n, grown.height)
        for lo, hi in [(full.index(grown.a) + 1, len(full)), (0, full.index(grown.d))]:
            path = PotentialPath(offset=full.offset + lo, v=full.v[lo:hi])
            args = (path, b, d_bar, h_n, d_n, grown.height)
            cut = _outcome(_grow_valley, *args)
            assert cut == _outcome(oracles.grow_valley_full, *args)
            sides.add(cut[1])
    assert sides == {"left", "right"}


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


# n = 2, epsilon = 0.2, kappa = 0.5 as for VALLEY_PATH; e_n = 4, and the
# first deep excursion, [6, 10], starts past it: K_n = 0.  Its valley is
# a = -3, c = 8, d = 14, and the bump to -1.0 at site 12 rises 0.8 above
# -1.8, more than delta log 2 = 0.485, so A5 fails on it.
LATE_VALLEY_PATH = PotentialPath(offset=-6, v=np.array(
    [3.0, 2.5, 2.2, 1.6, 1.0, 0.4, 0.0, 0.3, -0.1, 0.1, -0.3, -0.6, -0.9,
     0.5, 1.5, 0.2, -1.0, -1.8, -1.0, -2.5, -3.2]))


def test_a4_a5_read_the_first_deep_valley_past_e_n_whatever_the_window():
    args = dict(n=2, epsilon=0.2, delta=0.7, Cprime=7.0, Cdoubleprime=25.0, kappa=0.5)
    rec = check_good_environment(LATE_VALLEY_PATH, **args)
    assert (rec.k_n, rec.e_n, rec.a4, rec.a5) == (0, 4, True, False)
    # a window cut before the deep excursion holds none at all; it used to
    # read A4 and A5 as vacuously true, and now it asks for more sites
    short = PotentialPath(offset=-6, v=LATE_VALLEY_PATH.v[:13])
    with pytest.raises(WindowExhausted) as exhausted:
        check_good_environment(short, **args)
    assert exhausted.value.side == "right"
    # only a law with no kappa in (0,1) skips the valley past e_n: A4 and A5
    # then read the K_n = 0 valleys among the first n, vacuously true
    rec = check_good_environment(short, **args, kappa_fallback=True)
    assert (rec.k_n, rec.a4, rec.a5) == (0, True, True)
    rec = check_good_environment(LATE_VALLEY_PATH, **args, kappa_fallback=True)
    assert (rec.k_n, rec.a4, rec.a5) == (0, True, True)
    flat = PotentialPath(offset=-1, v=-np.arange(30, dtype=float))
    rec = check_good_environment(flat, **args, kappa_fallback=True)
    assert (rec.k_n, rec.a4, rec.a5) == (0, True, True)
    with pytest.raises(WindowExhausted):
        check_good_environment(flat, **args)

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
LEFT_EDGES = [-e for e in BLOCK_EDGES]
# left edges of windows that hold site 0 and right edges past it
LEFTS = st.one_of(st.integers(-14_000, 1), st.sampled_from(LEFT_EDGES))
RIGHTS = st.one_of(st.integers(1, 14_000), st.sampled_from(BLOCK_EDGES))


def _grown(law, seed, lefts, cuts, on_left=()):
    """Potential and excursion table over [lefts[-1], cuts[-1]], built on
    [lefts[0], cuts[0]] and grown to each later edge, on the left while
    the flags of on_left say so and edges remain, else on the right."""
    path = build_potential(sample_environment(law, (lefts[0], cuts[0]), seed=seed))
    table = excursion_table(path)
    lefts, cuts = list(lefts[1:]), list(cuts[1:])
    flags = iter(on_left)
    while lefts or cuts:
        right = not (lefts and (next(flags, True) or not cuts))
        lo, hi = (path.last_site + 1, cuts.pop(0)) if right else (lefts.pop(0), path.offset)
        old, old_table = path, table
        before = [a.tobytes() for a in (old.v, *old_table)]
        piece = build_potential(sample_environment(law, (lo, hi), seed=seed), prior=path)
        assert len(piece) - 1 == hi - lo + 1
        path = path.joined(piece)
        table = excursion_table(path, prior=table)
        # the old path and table keep their values; a growth on the right
        # that fits their spare room writes past them instead of copying
        assert [a.tobytes() for a in (old.v, *old_table)] == before
        assert np.shares_memory(old.v, path.v) == (right and len(path) <= old.room.data.size)
        fits = table.heights.size <= old_table.rooms[1].data.size
        for a, b in ((old_table.epochs, table.epochs), (old_table.heights, table.heights)):
            assert np.shares_memory(a, b) == (fits and a.size > 0)
    return path, table


@settings(max_examples=60, deadline=None)
@given(law=st.sampled_from(GROWTH_LAWS), seed=st.integers(0, 2 ** 32 - 1),
       lefts=st.lists(LEFTS, min_size=1, max_size=4, unique=True),
       cuts=st.lists(RIGHTS, min_size=4, max_size=6, unique=True),
       on_left=st.lists(st.booleans(), max_size=8))
def test_grown_potential_and_table_equal_a_whole_window_build(law, seed, lefts, cuts,
                                                               on_left):
    # at least three growths on the right
    lefts, cuts = sorted(lefts, reverse=True), sorted(cuts)
    path, table = _grown(law, seed, lefts, cuts, on_left)
    whole = build_potential(sample_environment(law, (lefts[-1], cuts[-1]), seed=seed))
    assert path.offset == whole.offset
    assert path.v.tobytes() == whole.v.tobytes()
    for grown, built in zip(table, excursion_table(whole)):
        assert grown.dtype == built.dtype
        assert grown.tobytes() == built.tobytes()


@pytest.mark.parametrize("law", GROWTH_LAWS, ids=lambda law: law.spec_text())
def test_right_growths_write_past_the_old_sites(law):
    # three growths on the right, each across a site-block edge and within
    # the room a new path and table keep: every old site and row stays
    # where it was, and the result equals a whole build bit for bit
    cuts = [3000, 4095, 4097, 5000]
    whole = build_potential(sample_environment(law, (-5000, cuts[-1]), seed=11))
    path = build_potential(sample_environment(law, (-5000, cuts[0]), seed=11))
    table = excursion_table(path)
    for cut in cuts[1:]:
        piece = build_potential(sample_environment(law, (path.last_site + 1, cut), seed=11),
                                prior=path)
        grown = path.joined(piece)
        grown_table = excursion_table(grown, prior=table)
        assert np.shares_memory(path.v, grown.v)
        assert all(np.shares_memory(a, b) for a, b in zip(table, grown_table))
        path, table = grown, grown_table
    assert (path.offset, path.v.tobytes()) == (whole.offset, whole.v.tobytes())
    for grown, built in zip(table, excursion_table(whole)):
        assert grown.tobytes() == built.tobytes()


@settings(max_examples=60, deadline=None)
@given(law=st.sampled_from(GROWTH_LAWS), seed=st.integers(0, 2 ** 32 - 1),
       lefts=st.lists(LEFTS, min_size=2, max_size=2, unique=True),
       rights=st.lists(RIGHTS, min_size=2, max_size=2))
def test_potential_at_a_site_does_not_depend_on_the_window(law, seed, lefts, rights):
    # V is summed outward from site 0, so two windows holding it agree bit
    # for bit wherever they overlap, whatever their edges
    a, b = (build_potential(sample_environment(law, window, seed=seed))
            for window in zip(lefts, rights))
    lo, hi = max(a.offset, b.offset), min(a.last_site, b.last_site)
    assert a.value(0) == b.value(0) == 0.0
    assert a.slice_values(lo, hi).tobytes() == b.slice_values(lo, hi).tobytes()


def test_build_potential_continues_only_a_built_path_that_it_abuts():
    path = build_potential(sample_environment(BETA_LAW, (-50, 100), seed=3))
    with pytest.raises(ValueError):         # a gap on the right
        build_potential(sample_environment(BETA_LAW, (102, 200), seed=3), prior=path)
    with pytest.raises(ValueError):         # a gap on the left
        build_potential(sample_environment(BETA_LAW, (-90, -52), seed=3), prior=path)
    with pytest.raises(ValueError):
        path.joined(PotentialPath(offset=path.last_site + 1, v=np.zeros(3)))
    with pytest.raises(ValueError):
        path.joined(PotentialPath(offset=path.offset - 3, v=np.zeros(2)))
    # a window left of the origin is anchored at its own left edge, so
    # reaching site 0 would move every value already built
    left_only = build_potential(sample_environment(BETA_LAW, (-50, -10), seed=3))
    with pytest.raises(ValueError):
        build_potential(sample_environment(BETA_LAW, (-9, 5), seed=3), prior=left_only)
    # a window that does not hold site 0 has nothing to sum out from, so
    # it grows only on the right
    right_only = build_potential(sample_environment(BETA_LAW, (10, 50), seed=3))
    for window, prior in (((0, 9), right_only), ((-90, -51), left_only)):
        with pytest.raises(ValueError):
            build_potential(sample_environment(BETA_LAW, window, seed=3), prior=prior)


def test_a_path_continued_twice_keeps_both_continuations():
    # the first continuation on the right takes the spare room; a second
    # one of the same path finds it taken and copies, so neither overwrites
    # the other's sites or rows
    def window(lo, hi):
        return sample_environment(BETA_LAW, (lo, hi), seed=5)

    path = build_potential(window(-50, 100))
    table = excursion_table(path)
    grown = [path.joined(build_potential(window(101, hi), prior=path)) for hi in (180, 140)]
    tables = [excursion_table(g, prior=table) for g in grown]
    assert [np.shares_memory(path.v, g.v) for g in grown] == [True, False]
    assert [np.shares_memory(table.heights, t.heights) for t in tables] == [True, False]
    for g, t, hi in zip(grown, tables, (180, 140)):
        whole = build_potential(window(-50, hi))
        assert g.v.tobytes() == whole.v.tobytes()
        assert [a.tobytes() for a in t] == [a.tobytes() for a in excursion_table(whole)]


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

def _first_with_shape(has_shape, seeds=range(200), window=(-600, 12000)):
    """The potential of the first seed's environment that has the shape a
    test needs.  The shape is the test's precondition only, never what it
    checks; a window too short to tell counts as lacking the shape."""
    for seed in seeds:
        path = build_potential(sample_environment(BETA_LAW, window, seed=seed))
        try:
            if has_shape(path):
                return path
        except WindowExhausted:
            pass
    pytest.fail(f"no seed in {seeds} has the shape")


def _first_descent(path, n):
    """The star scan's first gamma: the first D_n-descent from the origin."""
    level = path.value(0) - descent_threshold(n, 0.5)
    idx = oracles.first_at_most_full(path.v, path.index(0), level)
    return math.inf if idx is None else path.offset + idx


def _two_disjoint_deep_valleys_past_the_first_descent(path):
    deep = detect_deep_valleys(path, 60, epsilon=0.2, kappa=0.5)
    return (len(deep) == 2 and deep[0].d < deep[1].a
            and deep[0].b >= _first_descent(path, 60))


def _a_deep_window_starts_inside_the_one_before(path):
    deep = detect_deep_valleys(path, 60, epsilon=0.2, kappa=0.5)
    return any(nxt.a < prev.d for prev, nxt in zip(deep, deep[1:]))


def test_star_valleys_coincide_when_deep_valleys_are_disjoint():
    # both deep valleys lie past the first D_n-descent from the origin,
    # where the star scan starts; one before it is never scanned
    path = _first_with_shape(_two_disjoint_deep_valleys_past_the_first_descent)
    n = 60
    deep = detect_deep_valleys(path, n, epsilon=0.2, kappa=0.5)
    star = detect_star_valleys(path, n, epsilon=0.2, kappa=0.5)
    assert {(v.b, v.d_bar) for v in deep} == {(v.b, v.d_bar) for v in star}


def test_star_valleys_are_a_subset_of_deep_ones():
    # overlapping deep valleys get merged by the star scan, never invented
    path = _first_with_shape(_a_deep_window_starts_inside_the_one_before)
    deep = detect_deep_valleys(path, 60, epsilon=0.2, kappa=0.5)
    star = detect_star_valleys(path, 60, epsilon=0.2, kappa=0.5)
    star_pairs = [(v.b, v.d_bar) for v in star]
    assert star == oracles.star_valleys_full(path, 60, 0.2, 0.5)
    assert set(star_pairs) <= {(v.b, v.d_bar) for v in deep}


def test_star_valleys_ordered_and_disjoint():
    path = _first_with_shape(lambda p: len(oracles.star_valleys_full(p, 60, 0.2, 0.5)) >= 2)
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
    rise = oracles.first_rise_full(v, start, gap)
    assert _first_rise(v, start, gap) == rise
    # first_ascent is the same search from the origin, returned as a site
    assert first_ascent(PotentialPath(offset=-start, v=v), gap) == \
        (None if rise is None else rise - start)
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
    # from an origin at index 50: the hit lies past the first chunk, and
    # no rise of 3.5 exists anywhere
    path = PotentialPath(offset=-50, v=v)
    assert first_ascent(path, 3.0) == 3950 == oracles.first_rise_full(v, 50, 3.0) - 50
    assert first_ascent(path, 3.5) is None
    assert oracles.first_rise_full(v, 50, 3.5) is None


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


def _full_window_cases(full, n):
    """The scans that the full-window test compares, as (scan, oracle, args,
    cut), cut naming the kind of cut window.  The star scan runs on the
    whole window, then on windows that end just short of a valley's gamma,
    t_star, d_bar or d, or start just inside its a; the whole window's table
    keeps e_n past the cut, so each search runs off it.  Each of the first
    six deep valleys grows on the whole window, then on windows that end
    just inside its a (left) or just short of its d (right).  Cut sites are
    read from the oracles."""
    h_n = critical_height(n, 0.2, 0.5)
    d_n = descent_threshold(n, 0.5)
    table = excursion_table(full)
    star = oracles.star_valleys_full(full, n, 0.2, 0.5)
    cuts = [(0, full.index(site)) for v in star for site in (v.gamma, v.t_star, v.d_bar, v.d)]
    cuts += [(full.index(v.a) + 1, len(full)) for v in star if v.a < 0]
    cases = [(detect_star_valleys, oracles.star_valleys_full, (full, n, 0.2, 0.5), None)]
    for lo, hi in cuts:
        path = PotentialPath(offset=full.offset + lo, v=full.v[lo:hi])
        cases.append((detect_star_valleys, oracles.star_valleys_full,
                      (path, n, 0.2, 0.5, table), "star"))
    for i in np.flatnonzero(table.heights >= h_n)[:6]:
        args = (int(table.starts[i]), int(table.ends[i]), h_n, d_n, float(table.heights[i]))
        cases.append((_grow_valley, oracles.grow_valley_full, (full, *args), None))
        grown = oracles.grow_valley_full(full, *args)
        for lo, hi in [(full.index(grown.a) + 1, len(full)), (0, full.index(grown.d))]:
            path = PotentialPath(offset=full.offset + lo, v=full.v[lo:hi])
            cases.append((_grow_valley, oracles.grow_valley_full, (path, *args), "grow"))
    return cases


def _cuts_reach_every_search_on_both_sides(full, n):
    """There are star and grown-valley cuts, every cut runs a search off its
    window, the star cuts reach the gamma, t_star, d_bar and d searches,
    and the cuts run off both sides."""
    cuts = [(kind, _outcome(oracle, *args))
            for _, oracle, args, kind in _full_window_cases(full, n) if kind]
    if {kind for kind, _ in cuts} != {"star", "grow"}:
        return False
    if not all(isinstance(o, tuple) and o[0] == "exhausted" for _, o in cuts):
        return False
    return ({o[1] for _, o in cuts} == {"left", "right"}
            and {o[2] for kind, o in cuts if kind == "star"}
            == {f"star-valley {x}" for x in ("gamma", "t_star", "d_bar", "d")})


# each case searches the seeds from its first up to 199
@pytest.mark.parametrize("first,n", [(0, 60), (94, 60), (1, 600), (4, 2000)])
def test_star_and_grown_valleys_match_full_window_scans(first, n):
    full = _first_with_shape(lambda path: _cuts_reach_every_search_on_both_sides(path, n),
                             seeds=range(first, 200), window=(-600, 12 * n + 5000))
    for scan, oracle, args, _ in _full_window_cases(full, n):
        assert _outcome(scan, *args) == _outcome(oracle, *args)


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

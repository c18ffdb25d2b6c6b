"""Experiment drivers: reports, reproducibility, and the verification
harnesses at desk scale."""

import inspect
import math
import os
from dataclasses import replace

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import erf, erfc

from rwre import experiments
from rwre.constants import hill_estimate
from rwre.env import EnvironmentLaw, sample_environment
from rwre.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    config_text,
    manifest_text,
    parse_config_text,
    report_csv_text,
    run_from_manifest,
    run_position_experiment,
    run_tau_experiment,
    run_valley_census,
    verify_crossing_bound,
    verify_reduction,
    write_report,
)
from rwre.potential import WindowExhausted, build_potential, excursion_table
from rwre.rng import stream_key

BETA_LAW = EnvironmentLaw.beta_law(1.5, 1.0)
DRIFT_LAW = EnvironmentLaw.discrete((0.75,), (1.0,))


def beta_config(**kw):
    base = dict(law=BETA_LAW, n_values=(200, 400), replicas=600,
                master_seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


def row_extras(row):
    return dict(row.extras)


# ------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        beta_config(n_values=())
    with pytest.raises(ValueError):
        beta_config(n_values=(400, 200))
    with pytest.raises(ValueError):
        beta_config(replicas=0)
    with pytest.raises(ValueError):
        beta_config(epsilon=0.4)
    with pytest.raises(ValueError):
        beta_config(lambda_grid=(-1.0,))
    with pytest.raises(ValueError):
        beta_config(step_cap=0)


def test_config_text_round_trip():
    cfg = beta_config(epsilon=0.25, lambda_grid=(0.5, 1.5),
                      master_seed=99, step_cap=10 ** 9)
    assert parse_config_text(config_text(cfg)) == cfg
    disc = beta_config(law=EnvironmentLaw.discrete((0.8, 0.25), (0.6, 0.4)))
    assert parse_config_text(config_text(disc)) == disc


def test_parse_config_rejects_unknown_and_incomplete():
    with pytest.raises(ValueError):
        parse_config_text("law = beta:1.5,1.0\nn_values = 100\nreplicas = 5\n"
                          "wingspan = 3\n")
    with pytest.raises(ValueError):
        parse_config_text("law = beta:1.5,1.0\nreplicas = 5\n")
    # where a report goes is not an input to any number in it
    with pytest.raises(ValueError, match="unknown config key 'output_dir'"):
        parse_config_text("law = beta:1.5,1.0\nn_values = 100\nreplicas = 5\n"
                          "output_dir = out\n")


# ------------------------------------------------------------ helpers

def test_hill_estimate_on_an_exact_pareto_tail():
    rng = np.random.default_rng(8)
    sample = rng.random(20_000) ** -2.0        # P{X > x} = x^{-1/2}
    est = hill_estimate(sample)
    assert est.k == int(20_000 ** 0.6)
    assert est.ci_low <= 0.5 <= est.ci_high
    assert abs(est.index - 0.5) < 0.05
    fixed = hill_estimate(sample, k=500)
    assert fixed.k == 500


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-4, 12), min_size=1, max_size=90), st.floats(0.1, 10.0))
def test_ks_distance_is_the_kstest_statistic(values, scale):
    # few distinct values with zeros and negatives, like scaled positions,
    # against a CDF that is 0 on y <= 0
    sample = np.array(values) * scale / 4.0
    cdf = lambda y: np.where(y > 0.0, -np.expm1(-y), 0.0)
    ks = experiments._ks_result(sample, cdf)
    assert ks.distance == stats.kstest(sample, cdf).statistic
    assert ks.dkw_epsilon == math.sqrt(math.log(2.0 / 0.05) / (2.0 * sample.size))


@pytest.fixture
def ks_calls(monkeypatch):
    """The (sample, cdf) pairs the runners hand to _ks_result."""
    calls = []
    real = experiments._ks_result
    monkeypatch.setattr(experiments, "_ks_result",
                        lambda sample, cdf: calls.append((sample, cdf)) or real(sample, cdf))
    return calls


def test_tau_and_position_read_their_limit_laws(ks_calls):
    # at kappa = 1/2, S is Levy: tau / n^2 has CDF erfc(Lambda / (2 sqrt(y)))
    # (scale Lambda^2), and X_n / n^{1/2}, as x_scale S^{-1/2}, the
    # half-normal CDF erf(y / (2 x_scale)) on y > 0
    tau = run_tau_experiment(beta_config(n_values=(200,), replicas=200))
    pos = run_position_experiment(beta_config(n_values=(64,), replicas=64))
    lam, x_scale = tau.extra("lambda_scale"), pos.extra("x_scale")
    y = np.array([1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 30.0, 1e4])
    laws = (erfc(lam / (2.0 * np.sqrt(y))), erf(y / (2.0 * x_scale)))
    assert len(ks_calls) == 2
    for (sample, cdf), law, report in zip(ks_calls, laws, (tau, pos)):
        np.testing.assert_allclose(cdf(y), law, rtol=0.0, atol=1e-6)
        np.testing.assert_array_equal(cdf(np.array([-1.0, 0.0])), 0.0)
        ks = report.rows[0].ks
        assert ks.distance == stats.kstest(sample, cdf).statistic
        assert ks.dkw_epsilon == math.sqrt(math.log(2.0 / 0.05)
                                           / (2.0 * report.rows[0].replicas_used))


# ------------------------------------------------------ tau experiment

@pytest.fixture(scope="module")
def tau_report():
    return run_tau_experiment(beta_config())


def test_tau_report_shape(tau_report):
    assert tau_report.experiment == "tau"
    assert [r.n for r in tau_report.rows] == [200, 400]
    for row in tau_report.rows:
        assert row.replicas_used + row.truncated == 600
        assert len(row.laplace) == 3
        for pt in row.laplace:
            assert 0.0 < pt.value < 1.0
            assert pt.stderr > 0.0
        assert row.hill is not None and row.hill.k >= 2
        assert 0.0 <= row.ks.distance <= 1.0
        assert row_extras(row)["median_scaled"] > 0.0


def test_tau_predictions_use_the_closed_form_scale(tau_report):
    kappa = tau_report.extra("kappa")
    lam_scale = tau_report.extra("lambda_scale")
    assert kappa == pytest.approx(0.5, abs=1e-10)
    assert tau_report.extra("c_k") == pytest.approx(1.0, rel=1e-12)
    assert tau_report.extra("c_k_source_code") == 1.0
    for row in tau_report.rows:
        for pt in row.laplace:
            assert pt.predicted == pytest.approx(
                math.exp(-lam_scale * pt.lam ** kappa), rel=1e-12)


def test_tau_c_k_override(tau_report):
    # an override well apart from the closed form C_K = 1
    report = run_tau_experiment(beta_config(), c_k=2.0)
    assert report.extra("c_k") == 2.0
    assert report.extra("c_k_source_code") == 2.0
    for base_row, new_row in zip(tau_report.rows, report.rows):
        for a, b in zip(base_row.laplace, new_row.laplace):
            assert a.value == b.value          # data unchanged
            assert a.predicted != b.predicted  # prediction rescaled


def test_tau_worker_count_is_invisible(tau_report):
    for workers in (2, 5):
        again = run_tau_experiment(beta_config(), workers=workers)
        assert report_csv_text(again) == report_csv_text(tau_report)


def test_tau_ignores_step_cap():
    # the branching cascade's cost does not grow with tau, so nothing is
    # censored at the step cap
    capped = run_tau_experiment(beta_config(n_values=(200,), step_cap=1))
    uncapped = run_tau_experiment(beta_config(n_values=(200,), step_cap=10 ** 30))
    assert report_csv_text(capped) == report_csv_text(uncapped)


def test_tau_rejects_an_arithmetic_law():
    # log rho = +/- log 4: no tail constant, so no predicted columns
    with pytest.raises(ValueError, match="arithmetic"):
        run_tau_experiment(beta_config(law=EnvironmentLaw.parse("discrete:0.8@0.7;0.2@0.3"),
                                       n_values=(50,), replicas=20))


def test_tau_stderr_shrinks_with_replicas():
    small = run_tau_experiment(beta_config(n_values=(300,), replicas=400))
    large = run_tau_experiment(beta_config(n_values=(300,), replicas=1600))
    se_s = small.rows[0].laplace[1].stderr
    se_l = large.rows[0].laplace[1].stderr
    assert 1.4 < se_s / se_l < 2.8


def test_manifest_round_trip(tau_report, tmp_path):
    paths = write_report(tau_report, str(tmp_path))
    assert os.path.basename(paths["csv"]) == "tau.csv"
    assert os.path.basename(paths["manifest"]) == "tau.manifest.txt"
    with open(paths["csv"]) as fh:
        stored = fh.read()
    assert stored == report_csv_text(tau_report)
    rerun = run_from_manifest(paths["manifest"], workers=3)
    assert report_csv_text(rerun) == stored
    text = manifest_text(tau_report)
    assert text.startswith("# rwre-manifest-v1")
    assert "experiment = tau" in text
    assert "numpy:" in text


def test_experiment_table_declares_every_runner_keyword():
    for name, experiment in EXPERIMENTS.items():
        keywords = list(inspect.signature(experiment.runner).parameters)
        assert keywords[:2] == ["config", "workers"], name
        assert list(experiment.params) == keywords[2:], name
        assert set(experiment.flags) <= set(experiment.params), name


@pytest.mark.parametrize("runner,config_kw,params", [
    (verify_reduction, dict(n_values=(300,)), dict(environments=12)),
    (verify_crossing_bound, dict(replicas=20), dict(h_values=(3.0, 4.0))),
    (verify_crossing_bound, dict(replicas=20), dict(h_values=(3, 4))),
    (run_valley_census, dict(n_values=(200,), replicas=6), dict(c_dprime=20.0)),
    (run_tau_experiment, dict(n_values=(200,), replicas=300), dict(c_k=2.0)),
    (run_position_experiment, dict(n_values=(64,), replicas=64), dict(c_k=2.0)),
], ids=["reduction", "crossing", "crossing-int-h", "census", "tau", "position"])
def test_manifest_reruns_runner_parameters(runner, config_kw, params, tmp_path):
    # a runner keyword away from its default must survive the manifest; an
    # int given for a float keyword runs as the float a rerun reads back
    paths = write_report(runner(beta_config(**config_kw), **params), str(tmp_path))
    with open(paths["csv"]) as fh:
        stored = fh.read()
    with open(paths["manifest"]) as fh:
        assert f"{next(iter(params))} = " in fh.read()
    for workers in (1, 3):
        rerun = run_from_manifest(paths["manifest"], workers=workers)
        assert report_csv_text(rerun) == stored


def test_block_sampled_reduction_is_worker_and_manifest_invariant(tmp_path):
    # beta:2,1.5 draws its environments one keyed site block at a time
    config = ExperimentConfig(law=EnvironmentLaw.beta_law(2.0, 1.5), n_values=(300,),
                              master_seed=4)
    report = verify_reduction(config, workers=1, environments=12)
    stored = report_csv_text(report)
    assert report_csv_text(verify_reduction(config, workers=3, environments=12)) == stored
    paths = write_report(report, str(tmp_path))
    for workers in (1, 3):
        assert report_csv_text(run_from_manifest(paths["manifest"], workers=workers)) == stored


def test_experiments_need_only_the_fields_they_read():
    law_only = ExperimentConfig(law=BETA_LAW)
    assert config_text(law_only).splitlines()[0] == "law = beta:1.5,1"
    assert "replicas" not in config_text(law_only)
    assert EXPERIMENTS["reduction"].needs == ("n_values",)
    assert EXPERIMENTS["crossing"].needs == ("replicas",)
    with pytest.raises(ValueError, match="config needs replicas"):
        run_tau_experiment(replace(law_only, n_values=(100,)))
    with pytest.raises(ValueError, match="config needs n_values"):
        verify_reduction(replace(law_only, replicas=5), environments=10)
    with pytest.raises(ValueError, match="config needs replicas"):
        verify_crossing_bound(replace(law_only, n_values=(100,)))
    text = "law = beta:1.5,1.0\nn_values = 300\n"
    assert parse_config_text(text, needs=EXPERIMENTS["reduction"].needs).replicas is None
    with pytest.raises(ValueError, match="config needs replicas"):
        parse_config_text(text)


def test_manifest_without_parameter_lines_reruns_with_the_defaults(tmp_path):
    # a manifest written before runner keywords were recorded
    path = tmp_path / "crossing.manifest.txt"
    path.write_text("# rwre-manifest-v1\n"
                    "experiment = crossing\n"
                    "law = beta:1.5,1\n"
                    "n_values = 200,400\n"
                    "replicas = 20\n"
                    "epsilon = 0.2\n"
                    "lambda_grid = 0.5,1.0,2.0\n"
                    "master_seed = 1\n"
                    "step_cap = 1000000000000\n"
                    "versions = python:3.11;numpy:2.4.6;rwre:0.1.0\n")
    rerun = run_from_manifest(str(path))
    assert report_csv_text(rerun) == report_csv_text(verify_crossing_bound(beta_config(replicas=20)))


# ------------------------------------------------- position experiment

@pytest.fixture(scope="module")
def position_report():
    return run_position_experiment(beta_config(n_values=(128, 256),
                                               replicas=256))


def test_position_report_shape(position_report):
    assert position_report.experiment == "position"
    assert position_report.extra("x_scale") > 0.0
    for row in position_report.rows:
        assert row.replicas_used + row.truncated == 256
        ex = row_extras(row)
        assert ex["median_x"] > 0.0
        assert ex["median_scaled"] > 0.0


def test_position_truncation_freezes_replicas_on_the_window_edge(monkeypatch, ks_calls):
    # growth past _POS_MAX_WIDTH freezes a replica where it leaves the window;
    # a block kappa of 0.01 makes the first window [-256, 72], which a walk
    # of 1024 steps often leaves on the right
    n, replicas = 1024, 600                              # blocks of 512 and 88
    monkeypatch.setattr(experiments, "_POS_EXTEND", experiments._POS_MAX_WIDTH + 1)
    real, blocks = experiments._position_block, []
    monkeypatch.setattr(experiments, "_position_block",
                        lambda *args: blocks.append(real(*args[:4], 0.01)) or blocks[-1])
    report = run_position_experiment(beta_config(n_values=(n,), replicas=replicas))
    x = np.concatenate([b[0] for b in blocks])
    frozen = np.concatenate([b[1] for b in blocks])
    lo, hi = -256, 4 * math.ceil(n ** 0.01) + 64
    assert 0 < frozen.sum() < replicas
    assert set(x[frozen]) <= {lo, hi}
    assert np.all((lo < x[~frozen]) & (x[~frozen] < hi))
    row, = report.rows
    assert row.truncated == frozen.sum()
    assert row.replicas_used + row.truncated == replicas
    # the estimators read the kept replicas only
    kept = x[~frozen]
    assert row_extras(row)["median_x"] == np.median(kept)
    (sample, _), = ks_calls
    np.testing.assert_array_equal(sample, kept / n ** report.extra("kappa"))


# --------------------------------------------------------- census

def test_valley_census_desk_scale():
    report = run_valley_census(beta_config(n_values=(400, 800), replicas=30))
    assert report.extra("kappa") == pytest.approx(0.5, abs=1e-10)
    assert report.extra("kappa_fallback") == 0.0
    assert 0.2 < report.extra("c_i_hat") < 0.35
    for row in report.rows:
        st = row.census
        assert st.environments + st.exhausted == 30
        assert st.q_hat > 0.0
        assert 0.2 < st.k_over_nq_mean < 3.5
        assert st.coincidence >= 0.8
        assert row_extras(row)["h_n"] == pytest.approx(1.6 * math.log(row.n),
                                                       rel=1e-12)
        assert row_extras(row)["d_n"] == pytest.approx(3.0 * math.log(row.n),
                                                       rel=1e-12)
        assert len(st.height_ratios) == 4


def test_valley_census_flat_law_fallback():
    report = run_valley_census(beta_config(law=DRIFT_LAW, n_values=(100,),
                                           replicas=5))
    assert report.extra("kappa") == 1.0
    assert report.extra("kappa_fallback") == 1.0
    assert report.extra("c_i_hat") == 0.0
    st = report.rows[0].census
    assert st.k_mean == 0.0
    assert st.coincidence == 1.0
    assert st.k_over_nq_mean == 0.0


@pytest.mark.parametrize("law", ["discrete:0.9@0.7;0.4@0.3", "beta:3,1"])
def test_valley_census_ballistic_law_fallback(law):
    # kappa is 3 and 2, outside (0,1): the census counts valleys at kappa = 1,
    # and a deep valley past e_n is about n^{-0.8 kappa} rare, so A4/A5 read
    # only the valleys among the first n excursions instead of growing every
    # window to its cap
    report = run_valley_census(ExperimentConfig(law=EnvironmentLaw.parse(law),
                                                n_values=(2000,), replicas=8))
    assert report.extra("kappa_fallback") == 1.0
    st = report.rows[0].census
    assert (st.environments, st.exhausted, st.retries) == (8, 0, 0)
    assert st.k_mean == 0.0
    assert (st.a4, st.a5) == (1.0, 1.0)


@pytest.mark.parametrize("law", ["beta:1.5,1", "beta:2,1.5", "discrete:0.8@0.5;0.3@0.5"])
def test_census_windows_grown_in_place_match_the_resampling_route(law, monkeypatch):
    # every environment of a census runs through both routes: the one that
    # grows a window from 1.5 E[len] n in place, and the one that samples
    # c_prime n + 2000 sites and resamples the window whole on a retry
    grown_route = experiments._census_env
    pairs = []

    def both(law, n, epsilon, kappa, fallback, delta, c_prime, c_dprime, key, left_pad,
             right, h_grid):
        grown = grown_route(law, n, epsilon, kappa, fallback, delta, c_prime, c_dprime,
                            key, left_pad, right, h_grid)
        whole = oracles.census_env_resampled(law, n, epsilon, kappa, fallback, delta,
                                             c_prime, c_dprime, key, left_pad, h_grid)
        pairs.append((grown, whole, right, int(math.ceil(c_prime * n)) + 2000))
        return grown

    monkeypatch.setattr(experiments, "_census_env", both)
    run_valley_census(ExperimentConfig(law=EnvironmentLaw.parse(law), n_values=(20_000,),
                                       replicas=40))
    assert len(pairs) == 40
    growths = []
    for grown, whole, first, old_first in pairs:
        growths.append(grown.pop("retries"))
        whole.pop("retries")
        assert grown == whole
        # the last grown window reaches past the resampling route's fourth
        for _ in range(experiments._WINDOW_GROWTHS):
            first = int(first * experiments._WINDOW_GROWTH)
        for _ in range(3):
            old_first = int(old_first * 1.6)
        assert first >= old_first
    assert any(growths)


@pytest.mark.parametrize("law", ["beta:1.5,1", "discrete:0.8@0.5;0.3@0.5"])
def test_widening_grows_in_place_on_both_sides(law):
    # two shortfalls on the left, then three on the right, each across a
    # site-block edge: the path, table and environment grown in place
    # equal a whole build of the last window, and a growth on the right
    # writes past the old sites and rows without moving them
    law = EnvironmentLaw.parse(law)
    sides = ["left", "left", "right", "right", "right"]
    seen = []

    def scan(path, table):
        seen.append((path, table()))
        if sides:
            raise WindowExhausted(sides.pop(0), "a forced growth")
        return path, table()

    (path, table), growths, env = experiments._widening(law, 7, -300, 4000, scan,
                                                        keep_env=True)
    assert growths == 5
    right = 4000
    for _ in range(3):
        right = int(right * experiments._WINDOW_GROWTH)
    whole_env = sample_environment(law, (-4800, right), seed=7)
    whole = build_potential(whole_env)
    assert (env.offset, env.omegas.tobytes()) == (whole_env.offset, whole_env.omegas.tobytes())
    assert (path.offset, path.v.tobytes()) == (whole.offset, whole.v.tobytes())
    for grown, built in zip(table, excursion_table(whole)):
        assert grown.tobytes() == built.tobytes()
    for (old, old_table), (new, new_table) in zip(seen[2:], seen[3:]):
        assert np.shares_memory(old.v, new.v)
        # the table's rows grow 1.3 times a growth, so the third one on the
        # right may outgrow its room and copy
        fits = new_table.heights.size <= old_table.rooms[1].data.size
        assert all(np.shares_memory(a, b) == fits for a, b in zip(old_table, new_table))
    assert [np.shares_memory(a.v, b.v) for (a, _), (b, _) in zip(seen, seen[1:])] == \
        [False, False, True, True, True]


def test_census_scans_a_grown_window_once(monkeypatch):
    # the good-environment check runs first: it is the scan that runs off a
    # short window, so the deep and star scans run once per environment,
    # on its last window, and the fields equal a whole-window scan's
    calls = []
    for name in ("detect_deep_valleys", "detect_star_valleys"):
        def counted(*args, _scan=getattr(experiments, name), _name=name, **kwargs):
            calls.append(_name)
            return _scan(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    census_env = experiments._census_env
    envs = []

    def one(law, n, epsilon, kappa, fallback, delta, c_prime, c_dprime, key, left_pad,
            right, h_grid):
        calls.clear()
        grown = census_env(law, n, epsilon, kappa, fallback, delta, c_prime, c_dprime, key,
                           left_pad, right, h_grid)
        scans = sorted(calls)
        whole = oracles.census_env_resampled(law, n, epsilon, kappa, fallback, delta,
                                             c_prime, c_dprime, key, left_pad, h_grid)
        envs.append((scans, grown, whole))
        return grown

    monkeypatch.setattr(experiments, "_census_env", one)
    run_valley_census(ExperimentConfig(law=EnvironmentLaw.parse("beta:1.5,1"),
                                       n_values=(20_000,), replicas=6))
    assert sum(grown["retries"] for _, grown, _ in envs) >= 2
    for scans, grown, whole in envs:
        assert scans == ["detect_deep_valleys", "detect_star_valleys"]
        grown.pop("retries"), whole.pop("retries")
        assert grown == whole


# --------------------------------------------------------- reduction

def test_reduction_structure_and_exact_zero():
    report = verify_reduction(beta_config(n_values=(300,),
                                          lambda_grid=(0.0, 1.0)),
                              environments=40)
    assert report.extra("environments") == 40.0
    row = report.rows[0]
    assert row_extras(row)["q_n"] > 0.0
    zero, one = row.reduction
    assert zero.lam == 0.0 and zero.lam_n == 0.0
    assert abs(zero.left - 1.0) < 1e-6
    for pt in (zero, one):
        assert pt.k_lower <= pt.k_upper
        assert pt.bracket_low <= pt.bracket_high + 1e-12
        assert pt.lam_n == pytest.approx(pt.lam / 300.0 ** 2, rel=1e-12)
        assert pt.envs_with_valley <= row.replicas_used


def test_reduction_rejects_large_n():
    with pytest.raises(ValueError):
        verify_reduction(beta_config(n_values=(2 * 10 ** 5,)), environments=10)


# ---------------------------------------------------------- crossing

def test_crossing_bound_desk_scale():
    report = verify_crossing_bound(beta_config(replicas=60))
    assert report.rows == ()
    hs = [p.h for p in report.crossing]
    assert hs == sorted(hs)
    for p in report.crossing:
        assert p.environments + p.skipped == 60
        assert p.mean_tau >= 0.0
    assert 0.4 < report.extra("slope") < 1.6


def test_crossing_windows_grown_from_one_block_match_a_fixed_window(monkeypatch):
    # h = 11 rises past the first 4096-site block in some environments, so
    # their windows grow; every value matches a dense solve per h over a
    # fixed 30,000-site window
    growths = []
    widening = experiments._widening

    def counted(*args, **kwargs):
        found = widening(*args, **kwargs)
        growths.append(found[1])
        return found

    monkeypatch.setattr(experiments, "_widening", counted)
    law = EnvironmentLaw.parse("beta:1.5,1")
    for i in range(20):
        key = stream_key(0, "cross", i)
        ours = experiments._crossing_env(law, (3.0, 11.0), key)
        ref = oracles.crossing_env_fixed_window(law, (3.0, 11.0), key)
        assert [v is None for v in ours] == [v is None for v in ref]
        assert [v for v in ours if v is not None] == pytest.approx(
            [v for v in ref if v is not None], rel=1e-9)
    assert any(growths)


def test_crossing_builds_no_excursion_table(monkeypatch):
    # the crossing scan reads only the potential, so the windows it grows
    # never build or continue an excursion table
    def refused(*args, **kwargs):
        raise AssertionError("the crossing built an excursion table")

    monkeypatch.setattr(experiments, "excursion_table", refused)
    law = EnvironmentLaw.parse("beta:1.5,1")
    for i in range(5):
        key = stream_key(0, "cross", i)
        assert experiments._crossing_env(law, (3.0, 11.0), key) == pytest.approx(
            oracles.crossing_env_fixed_window(law, (3.0, 11.0), key), rel=1e-9)


def test_crossing_keeps_the_h_that_rose_when_the_largest_never_does():
    # beta:3,1 drifts down fast: h = 3 rises early, h = 40 never does in
    # the last grown window, which must not cost the h = 3 value
    law = EnvironmentLaw.parse("beta:3,1")
    key = stream_key(0, "cross", 0)
    low, high = experiments._crossing_env(law, (3.0, 40.0), key)
    assert high is None
    assert low == pytest.approx(oracles.crossing_env_fixed_window(law, (3.0,), key)[0],
                                rel=1e-9)


def test_crossing_bound_flat_law_never_ascends():
    report = verify_crossing_bound(beta_config(law=DRIFT_LAW, replicas=10))
    assert report.extra("slope") == 0.0
    for p in report.crossing:
        assert p.environments == 0
        assert p.skipped == 10


@pytest.mark.parametrize("h", [0.0, -1.0])
def test_crossing_bound_rejects_heights_that_are_not_positive(tmp_path, h):
    # such an h rises at the first step, so every environment would be
    # skipped at it; the API and a manifest rerun both refuse it
    with pytest.raises(ValueError, match="must be positive"):
        verify_crossing_bound(beta_config(replicas=4), h_values=(h, 3.0))
    path = tmp_path / "crossing.manifest.txt"
    path.write_text("# rwre-manifest-v1\n"
                    "experiment = crossing\n"
                    "law = beta:1.5,1\n"
                    "replicas = 4\n"
                    f"h_values = {h},3.0\n")
    with pytest.raises(ValueError, match="must be positive"):
        run_from_manifest(str(path))


# ------------------------------------------------------------- report

def test_report_csv_text_format(tau_report):
    text = report_csv_text(tau_report)
    assert text.startswith("# rwre-report-v1\n# experiment = tau")
    assert "# section laplace" in text
    assert "# section tail" in text
    assert "# section extras" in text
    # every data token must survive a float round-trip
    for line in text.splitlines():
        if line.startswith("#") or "," not in line:
            continue
        for token in line.split(",")[1:]:
            try:
                float(token)
            except ValueError:
                assert token.isidentifier() or token == ""


def test_census_csv_has_its_sections():
    report = run_valley_census(beta_config(n_values=(200,), replicas=6))
    text = report_csv_text(report)
    assert "# section census" in text
    assert "# section height_tail" in text

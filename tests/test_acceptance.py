"""Acceptance gate: thirteen checks, one test each, run by plain pytest.

Each test prints one `criterion NN: PASS|FAIL (...) margin=...` line
with the measured numbers before asserting, so a red criterion still
reports what it saw.  The margin is the smallest signed distance from a
reading to its bound over the criterion's numeric clauses, as a fraction
of the bound (absolute for a bound of 0), positive on the passing side,
followed by the clause it comes from; a margin near 0 marks a thin pass.
Formula-level checks are tight; end-to-end distributional checks are
banded or trend-based and sized for a desk machine.
"""

import math
import operator
import os
import time
from typing import NamedTuple

import numpy as np
import pytest

import oracles
from rwre.cli import main as cli_main
from rwre.constants import (
    iglehart_constant,
    kesten_constant_beta,
    kesten_tail_estimate,
    limit_scale,
    limit_scale_beta,
    sample_excursions,
)
from rwre.env import EnvironmentLaw, kappa_solve, moment_rho_log
from rwre.experiments import (
    ExperimentConfig,
    report_csv_text,
    run_from_manifest,
    run_tau_experiment,
    run_valley_census,
    verify_crossing_bound,
    verify_reduction,
    write_report,
)
from rwre.quenched import (
    QuenchedChain,
    attempt_moments,
    exit_prob,
    failure_prob,
    h_transform,
    mean_G_exact,
)
from rwre.stable import LEVY_MEDIAN, StableSpec, sample_positive_stable

BETA_LAW = EnvironmentLaw.beta_law(1.5, 1.0)
BETA_MOMENT = 2.0 - 2.0 * math.log(2.0)


def chain_suite():
    """100 Beta(1.5, 1) chains of length <= 50 with a mid interior site."""
    for i in range(100):
        rng = np.random.default_rng(20_000 + i)
        L = 2 + i % 49
        om_full = rng.beta(1.5, 1.0, L + 1)
        om_full[0] = 1.0
        reflected = QuenchedChain.from_omegas(om_full[1:], left=0, reflect_at=0)
        plain = QuenchedChain.from_omegas(om_full[1:], left=0)
        b = 1 + i % (L - 1) if L > 2 else 1
        yield L, om_full, reflected, plain, b


OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def clause(name, reading, op, bound):
    """One numeric clause `reading op bound`, op one of <, <=, >, >=."""
    return (f"{name} {op} {bound:g}", float(reading), float(bound), op)


def holds(c):
    _, reading, bound, op = c
    return OPS[op](reading, bound)


def relative_margin(c):
    _, reading, bound, op = c
    dist = bound - reading if op[0] == "<" else reading - bound
    return dist / abs(bound) if bound else dist


class Reading(NamedTuple):
    """A criterion's printed detail and its numeric clauses, all of which
    must hold."""
    detail: str
    clauses: list

    @property
    def ok(self):
        return all(holds(c) for c in self.clauses)


def report(num, ok, detail, clauses):
    margin = "n/a (exact check)"
    if clauses:
        thinnest = min(clauses, key=relative_margin)
        margin = f"{relative_margin(thinnest):+.4g} ({thinnest[0]})"
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail}) margin={margin}")


def test_c01_kappa_closed_form_and_bisection(capsys):
    t0 = time.perf_counter()
    assert cli_main(["kappa", "--law", "beta:1.5,1.0"]) == 0
    cli_kappa = float(capsys.readouterr().out)
    worst = 0.0
    for i in range(20):
        alpha = 1.04 + 0.045 * i
        law = EnvironmentLaw.beta_law(alpha, 1.0)
        closed = kappa_solve(law).kappa
        bis = kappa_solve(law, method="bisection_quadrature").kappa
        worst = max(worst, abs(closed - bis))
    elapsed = time.perf_counter() - t0
    report(1, abs(cli_kappa - 0.5) < 1e-10 and worst < 1e-8 and elapsed < 1.0,
           f"cli={cli_kappa!r}, worst closed-vs-bisection={worst:.2e}, "
           f"{elapsed:.2f}s",
           [clause("|cli - 0.5|", abs(cli_kappa - 0.5), "<", 1e-10),
            clause("closed-vs-bisection", worst, "<", 1e-8),
            clause("seconds", elapsed, "<", 1.0)])
    assert abs(cli_kappa - 0.5) < 1e-10
    assert worst < 1e-8
    assert elapsed < 1.0


def test_c02_quenched_formulas_match_dense_solves():
    t0 = time.perf_counter()
    worst = 0.0
    for L, om_full, reflected, plain, b in chain_suite():
        x = 1 + (L // 2) % (L - 1) if L > 2 else 1
        got = exit_prob(plain, x, 0, L)
        ref = oracles.exit_right_prob(om_full[1:L])[x]
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-300))
        ref_att = oracles.attempt_reference(om_full, b)
        p, _ = failure_prob(reflected, b, L)
        mom = attempt_moments(reflected, 0, b, L)
        for ours, theirs in ((p, ref_att["p_fail"]),
                             (mom.mean_F, ref_att["mean_F"]),
                             (mom.second_F, ref_att["second_F"])):
            worst = max(worst, abs(ours - theirs) / abs(theirs))
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-9 and elapsed < 10.0,
           f"worst relative error={worst:.2e} over 100 chains, {elapsed:.1f}s",
           [clause("relative error", worst, "<", 1e-9),
            clause("seconds", elapsed, "<", 10.0)])
    assert worst < 1e-9
    assert elapsed < 10.0


def test_c03_attempt_decomposition_identity():
    worst = 0.0
    for L, om_full, reflected, plain, b in chain_suite():
        mom = attempt_moments(reflected, 0, b, L)
        total = (mom.p_fail / (1.0 - mom.p_fail)) * mom.mean_F \
            + mean_G_exact(reflected, b, L)
        ref = oracles.hit_time_reflected(om_full, b)
        worst = max(worst, abs(total - ref) / abs(ref))
    report(3, worst < 1e-9, f"worst relative error={worst:.2e} over 100 chains",
           [clause("relative error", worst, "<", 1e-9)])
    assert worst < 1e-9


def test_c04_transform_increment_inequalities_are_exact():
    direct_slack = 0.0
    gap_ok = True
    for L, om_full, reflected, plain, b in chain_suite():
        ht = h_transform(reflected, 0, L, "failure")
        hs = h_transform(reflected, 0, L, "success")
        gf = ht.gap[np.isfinite(ht.gap)]
        gs = hs.gap[np.isfinite(hs.gap)]
        gap_ok &= bool(np.all(np.diff(gf) >= 0.0))
        gap_ok &= bool(np.all(np.diff(gs) <= 0.0))
        base = reflected.base_potential
        for x in range(L + 1):
            for y in range(x + 1, L + 1):
                dv = base[y] - base[x]
                if np.isfinite(ht.v_hat[x]) or np.isfinite(ht.v_hat[y]):
                    direct_slack = max(direct_slack,
                                       dv - (ht.v_hat[y] - ht.v_hat[x]))
                if np.isfinite(hs.v_hat[x]) or np.isfinite(hs.v_hat[y]):
                    direct_slack = max(direct_slack,
                                       (hs.v_hat[y] - hs.v_hat[x]) - dv)
    report(4, gap_ok and direct_slack < 1e-12,
           f"gap arrays exactly monotone={gap_ok}, "
           f"worst representation slack={direct_slack:.1e}",
           [clause("representation slack", direct_slack, "<", 1e-12)])
    # the inequality is carried by the gap arrays with no tolerance at all;
    # re-subtracting the stored potentials costs at most a rounding ulp
    assert gap_ok
    assert direct_slack < 1e-12


def test_c05_stable_sampler_laplace_and_median():
    t0 = time.perf_counter()
    checks = []
    clauses = []
    for j, kappa in enumerate((0.3, 0.5, 0.8)):
        spec = StableSpec(kappa=kappa, scale=1.0)
        draws = sample_positive_stable(spec, 10 ** 6, seed=100 + j)
        for lam in (0.5, 1.0, 2.0):
            probe = np.exp(-lam * draws)
            se = probe.std(ddof=1) / math.sqrt(probe.size)
            dev = abs(probe.mean() - math.exp(-lam ** kappa))
            checks.append(dev <= 3.0 * se)
            clauses.append(clause(f"laplace dev k={kappa} lam={lam}", dev, "<=", 3.0 * se))
        if kappa == 0.5:
            med = float(np.median(draws))
            m = LEVY_MEDIAN
            dens = m ** -1.5 * math.exp(-1.0 / (4.0 * m)) / (2.0 * math.sqrt(math.pi))
            med_se = 1.0 / (2.0 * dens * math.sqrt(draws.size))
            med_dev = abs(med - m)
            checks.append(med_dev <= 3.0 * med_se)
            clauses.append(clause("median dev", med_dev, "<=", 3.0 * med_se))
    elapsed = time.perf_counter() - t0
    report(5, all(checks) and elapsed < 30.0,
           f"{sum(checks)}/{len(checks)} clauses within 3 SE, "
           f"median dev={med_dev:.2e} (3SE={3 * med_se:.2e}), {elapsed:.1f}s",
           clauses + [clause("seconds", elapsed, "<", 30.0)])
    assert all(checks)
    assert elapsed < 30.0


def test_c06_constants_table_closed_forms():
    c_k = kesten_constant_beta(1.5, 1.0)
    moment = moment_rho_log(BETA_LAW, 0.5)
    lam_beta = limit_scale_beta(1.5, 1.0)
    params = limit_scale(0.5, c_k, moment)
    # independent simplification of the full product, kept to high precision
    recomputed = 0.681655578008004413989005956893
    closed_expr = math.pi * math.sqrt(2.0) / 2.0 * (1.0 - math.log(2.0))
    ok = (abs(c_k - 1.0) < 1e-12
          and abs(moment - BETA_MOMENT) < 1e-10
          and abs(lam_beta - recomputed) < 1e-6
          and abs(lam_beta - closed_expr) < 1e-9
          and abs(params.x_scale * params.lambda_scale - 1.0) < 1e-12
          and abs(params.lambda_scale - lam_beta) < 1e-12 * lam_beta)
    report(6, ok, f"C_K={c_k!r}, moment={moment!r}, Lambda={lam_beta!r}",
           [clause("|C_K - 1|", abs(c_k - 1.0), "<", 1e-12),
            clause("moment error", abs(moment - BETA_MOMENT), "<", 1e-10),
            clause("Lambda vs recomputed", abs(lam_beta - recomputed), "<", 1e-6),
            clause("Lambda vs closed form", abs(lam_beta - closed_expr), "<", 1e-9),
            clause("|x_scale Lambda - 1|", abs(params.x_scale * params.lambda_scale - 1.0),
                   "<", 1e-12),
            clause("Lambda routes", abs(params.lambda_scale - lam_beta), "<",
                   1e-12 * lam_beta)])
    assert abs(c_k - 1.0) < 1e-12
    assert abs(moment - BETA_MOMENT) < 1e-10
    assert abs(lam_beta - recomputed) < 1e-6
    assert abs(lam_beta - closed_expr) < 1e-9
    assert abs(params.x_scale * params.lambda_scale - 1.0) < 1e-12
    assert abs(params.lambda_scale - lam_beta) < 1e-12 * lam_beta


def test_c07_iglehart_formula_route_vs_height_census():
    t0 = time.perf_counter()
    est = iglehart_constant(BETA_LAW, 0.5, n_excursions=10 ** 6, seed=0)
    _, _, height = sample_excursions(BETA_LAW, 10 ** 6, seed=777)
    h = 10.0
    census = math.exp(0.5 * h) * float(np.mean(height >= h))
    rel = abs(est.c_i - census) / est.c_i
    elapsed = time.perf_counter() - t0
    report(7, rel < 0.15 and elapsed < 120.0,
           f"formula C_I={est.c_i:.4f}, census e^(kh) P(H>=h)={census:.4f}, "
           f"rel diff={rel:.3f}, {elapsed:.0f}s",
           [clause("rel diff", rel, "<", 0.15), clause("seconds", elapsed, "<", 120.0)])
    assert rel < 0.15
    assert elapsed < 120.0


def c08_kesten(master_seed):
    """c08's Goldie estimates of C_K against the closed form
    Gamma(alpha) / (Gamma(kappa + 1) Gamma(beta)), which is 1 for beta:1.5,1:
    8e7 chain draws there, for a standard error near 0.0002, and 1.2e7 on
    beta:2,1.5 and beta:1.8,1.2, below what a million series gave each."""
    t0 = time.perf_counter()
    est = kesten_tail_estimate(BETA_LAW, 0.5, n_series=8 * 10 ** 7, seed=master_seed)
    others = {(a, b): kesten_tail_estimate(EnvironmentLaw.beta_law(a, b), a - b,
                                           n_series=12 * 10 ** 6, seed=master_seed)
              for a, b in ((2.0, 1.5), (1.8, 1.2))}
    elapsed = time.perf_counter() - t0
    closed = kesten_constant_beta(1.5, 1.0)
    z = {(1.5, 1.0): (est.constant_hat - closed) / est.stderr}
    z.update({law: (e.constant_hat - kesten_constant_beta(*law)) / e.stderr
              for law, e in others.items()})
    return Reading(
        f"hill index={est.index_hat:.4f}, C_K hat={est.constant_hat:.5f} "
        f"+/- {est.stderr:.5f} vs closed form {closed:.6g}, z by law "
        + ", ".join(f"beta:{a:g},{b:g} {v:+.2f}" for (a, b), v in z.items())
        + f", {elapsed:.0f}s",
        [clause("|hill - 0.5|", abs(est.index_hat - 0.5), "<=", 0.05),
         clause("|C_K hat - closed|", abs(est.constant_hat - closed), "<=", 0.6),
         *(clause(f"|z| beta:{a:g},{b:g}", abs(v), "<=", 4.0) for (a, b), v in z.items()),
         clause("seconds", elapsed, "<", 300.0)])


def c09_census(master_seed):
    """c09's valley census of 100 environments at n = 1e6."""
    t0 = time.perf_counter()
    config = ExperimentConfig(law=BETA_LAW, n_values=(10 ** 6,),
                              replicas=100, epsilon=0.2, master_seed=master_seed)
    rep = run_valley_census(config, workers=4)
    st = rep.rows[0].census
    elapsed = time.perf_counter() - t0
    return Reading(
        f"K/(n q)={st.k_over_nq_mean:.3f}, coincidence={st.coincidence:.3f}, "
        f"joint={st.joint:.2f}, environments={st.environments}, {elapsed:.0f}s",
        [clause("K/(nq)", st.k_over_nq_mean, ">=", 0.9),
         clause("K/(nq)", st.k_over_nq_mean, "<=", 1.1),
         clause("coincidence", st.coincidence, ">=", 0.95),
         clause("joint", st.joint, ">=", 0.9),
         clause("seconds", elapsed, "<", 300.0)])


def c10_tau(master_seed):
    """c10's annealed tau(n) at n = 1e3, 1e4, 1e5, 1e4 replicas each."""
    t0 = time.perf_counter()
    config = ExperimentConfig(law=BETA_LAW, n_values=(10 ** 3, 10 ** 4, 10 ** 5),
                              replicas=10 ** 4, master_seed=master_seed)
    rep = run_tau_experiment(config, workers=4)
    elapsed = time.perf_counter() - t0
    lam_scale = rep.extra("lambda_scale")
    target = math.exp(-lam_scale)
    hill_mid = rep.rows[1].hill.index
    points = [row.laplace[1] for row in rep.rows]       # lambda = 1 column
    lap = [pt.value for pt in points]
    z = [(pt.value - target) / pt.stderr for pt in points]
    # the limit theorem promises convergence, not a monotone approach: at
    # every n the Laplace point must sit within 4 standard errors of the limit
    lo, hi = math.exp(-4.0 * lam_scale), math.exp(-lam_scale / 4.0)
    return Reading(
        f"hill(1e4)={hill_mid:.3f}, laplace(1)="
        + ", ".join(f"{v:.4f} (z={zi:+.2f})" for v, zi in zip(lap, z))
        + f" vs target={target:.4f}, band=({lo:.2e},{hi:.4f}), {elapsed:.0f}s",
        [clause("hill(1e4)", hill_mid, ">=", 0.35),
         clause("hill(1e4)", hill_mid, "<=", 0.65),
         *(clause(f"|z| n={row.n}", abs(zi), "<=", 4.0) for row, zi in zip(rep.rows, z)),
         clause("laplace(1) at 1e4", lap[1], ">", lo),
         clause("laplace(1) at 1e4", lap[1], "<", hi),
         clause("seconds", elapsed, "<", 900.0)])


def c11_reduction(master_seed):
    """c11's reduction brackets over 200 environments at n = 1e4."""
    config = ExperimentConfig(law=BETA_LAW, n_values=(10 ** 4,),
                              replicas=1, lambda_grid=(0.5, 1.0),
                              master_seed=master_seed)
    rep = verify_reduction(config, workers=4, environments=200)
    margins = sorted((pt.lam, pt.margin) for pt in rep.rows[0].reduction)
    return Reading("margins " + ", ".join(f"lam={lam}: {m:+.4f}" for lam, m in margins),
                   [clause(f"bracket margin lam={lam}", m, ">", 0.0) for lam, m in margins])


def c12_crossing(master_seed):
    """c12's crossing-time growth fit over 2000 environments."""
    config = ExperimentConfig(law=BETA_LAW, n_values=(100,),
                              replicas=2000, master_seed=master_seed)
    slope = verify_crossing_bound(config, workers=4).extra("slope")
    return Reading(f"fitted slope of log E[tau_h] vs h = {slope:.4f}",
                   [clause("slope", slope, "<=", 1.1)])


# the statistical criteria as functions of the master seed: the gate runs
# them at seed 0, and tests/seed_sweep.py at other seeds
STATISTICAL = {8: c08_kesten, 9: c09_census, 10: c10_tau, 11: c11_reduction, 12: c12_crossing}


def gate(num, reading):
    report(num, reading.ok, reading.detail, reading.clauses)
    for c in reading.clauses:
        assert holds(c), c[0]


def test_c08_kesten_tail_constant_and_index():
    gate(8, c08_kesten(0))


def test_c09_valley_census_at_scale():
    gate(9, c09_census(0))


def test_c10_end_to_end_tau_tail_and_laplace():
    gate(10, c10_tau(0))


def test_c11_reduction_bracket_contains_the_annealed_value():
    gate(11, c11_reduction(0))


def test_c12_crossing_time_growth_bound():
    gate(12, c12_crossing(0))


def test_c13_reports_are_worker_count_invariant(tmp_path):
    config = ExperimentConfig(law=BETA_LAW, n_values=(300, 600),
                              replicas=1200, master_seed=0)
    base = run_tau_experiment(config, workers=1)
    paths = write_report(base, str(tmp_path))
    with open(paths["csv"]) as fh:
        stored = fh.read()
    same = []
    for workers in (1, 4, 8):
        rerun = run_from_manifest(paths["manifest"], workers=workers)
        same.append(report_csv_text(rerun) == stored)
    report(13, all(same),
           f"manifest reruns identical at workers 1/4/8: {same}", [])
    assert all(same)

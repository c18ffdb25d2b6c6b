"""Operation accounting and output checks of the workloads.

Operations:

* tau workloads: each replica; on ``tau`` also each predicted Laplace
  point, which fails when it is not the benchmark's own
  exp(-Lambda lambda^kappa) to 1e-6 relative;
* census and reduction: each environment, failed when the program
  reports it exhausted or unusable.  Census window retries count as
  retried.

A check that fails makes the run incorrect.  Sampling tolerances are Z
standard errors of the compared value.  The census checks pool all the
rounds of a run, so that their power grows with the run.
"""

from __future__ import annotations

import math

import reference as ref
from workloads import Workload

# Five standard errors keep the chance of a false alarm below 1e-6 per
# compared value.
Z = 5.0

GOLDIE_SERIES = 100_000
GOLDIE_SEED = 20070321


def references(workload: Workload) -> dict:
    """The benchmark's own values for the workload's law."""
    law = ref.Law.parse(workload.law)
    k = ref.kappa(law)
    m = ref.moment_log(law, k)
    out = {"kappa": k}
    if workload.name == "tau":
        out["lambda_scale"] = ref.lambda_scale(k, ref.ck_beta(law, k), m)
    if workload.name == "tau_discrete":
        out["c_k"], _ = ref.ck_goldie(law, k, m, GOLDIE_SERIES, GOLDIE_SEED)
    return out


class Checker:
    """Operation counts and check results over the rounds of one run."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.refs = references(workload)
        self.attempted = 0
        self.failed = 0
        self.retried = 0
        self.dropped = 0           # replicas the program excluded and counted
        self.problems: list[str] = []
        self._valleys = 0.0        # census: valleys found, Poisson mean, matched
        self._valley_mean = 0.0
        self._matched = 0.0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def add(self, report, label: str, repeat: bool = False) -> None:
        """Account for one experiment report and check it.  A repeat (same
        inputs as a report already added) stays out of the pooled census
        checks, whose tolerances assume independent environments."""
        kappa = report.extra("kappa")
        self.expect(abs(kappa - self.refs["kappa"]) <= 1e-9,
                    f"{label}: kappa {kappa!r} != reference {self.refs['kappa']!r}")
        if self.workload.runner == "run_tau_experiment":
            self._tau(report, label)
        elif self.workload.name == "census":
            self._census(report, repeat)
        else:
            self._reduction(report, label)

    def finish(self) -> None:
        if self.workload.name == "census":
            rate = self._matched / self._valleys if self._valleys else 1.0
            self.expect(rate >= 0.95, f"deep/star coincidence {rate:.4f} < 0.95")
            self.expect(abs(self._valleys - self._valley_mean)
                        <= Z * math.sqrt(self._valley_mean),
                        f"{self._valleys:.0f} valleys vs Poisson mean {self._valley_mean:.2f}")

    def _tau(self, report, label: str) -> None:
        w, k = self.workload, self.refs["kappa"]
        for row in report.rows:
            self.attempted += w.replicas
            self.dropped += row.truncated
            self.expect(row.replicas_used + row.truncated == w.replicas,
                        f"{label} n={row.n}: {row.replicas_used} used + "
                        f"{row.truncated} dropped != {w.replicas} replicas")
        hill = report.rows[-1].hill
        half = Z * k / math.sqrt(hill.k)
        self.expect(abs(hill.index - k) <= half,
                    f"{label}: Hill index {hill.index:.4f} outside {k:.4f} +/- {half:.4f}")
        if w.name == "tau_discrete":
            c_k = report.extra("c_k")
            self.expect(abs(c_k / self.refs["c_k"] - 1.0) <= 0.15,
                        f"{label}: C_K {c_k:.4f} not within 15% of Goldie's "
                        f"{self.refs['c_k']:.4f}")
            return
        for row in report.rows:
            for point in row.laplace:
                target = ref.laplace_limit(self.refs["lambda_scale"], k, point.lam)
                self.attempted += 1
                self.failed += int(abs(point.predicted - target) > 1e-6 * target)
                self.expect(abs(point.value - target) <= Z * point.stderr,
                            f"{label} n={row.n} lambda={point.lam}: empirical "
                            f"{point.value:.5f} +/- {point.stderr:.5f} vs limit {target:.5f}")

    def _census(self, report, repeat: bool) -> None:
        for row in report.rows:
            stats = row.census
            self.attempted += self.workload.replicas
            self.failed += stats.exhausted
            self.retried += stats.retries
            if repeat:
                continue
            valleys = stats.k_mean * stats.environments
            self._valleys += valleys
            self._matched += stats.coincidence * valleys
            self._valley_mean += stats.environments * row.n * stats.q_hat

    def _reduction(self, report, label: str) -> None:
        environments = self.workload.kwargs["environments"]
        for row in report.rows:
            self.attempted += environments
            self.failed += row.truncated
            lefts = [p.left for p in row.reduction]
            for p in row.reduction:
                self.expect(p.margin > 0.0, f"{label} n={row.n} lambda={p.lam}: "
                            f"bracket margin {p.margin:.4f} <= 0")
                self.expect(0.0 < p.left < 1.0,
                            f"{label} n={row.n} lambda={p.lam}: left {p.left}")
            self.expect(all(a > b for a, b in zip(lefts, lefts[1:])),
                        f"{label} n={row.n}: left side {lefts} not decreasing in lambda")

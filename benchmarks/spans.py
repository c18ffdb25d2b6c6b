"""Spans around the program's layer boundaries, recorded from outside.

The tracer replaces, for the length of one traced experiment call, the
public functions that ``rwre.experiments`` calls with wrappers that
record a span (name, start, end, parent) and a work count taken from the
call's result.  ``rwre.rng.counter_uniforms`` is wrapped where
``rwre.env`` reaches it.  Nothing in the program changes; the originals
are put back when the call returns.

A layer's self time is its spans' durations minus the part their child
spans cover.  The root span is the experiment call itself, so its self
time is the experiment code's own time that no wrapped layer covers, and all self times
add up to the root's duration exactly (integer nanoseconds).
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

ROOT = "experiments.run"


@dataclass(frozen=True)
class Target:
    module: str                    # module whose namespace holds the name
    path: str                      # attribute path within it
    span: str                      # span name, "<layer>.<function>"
    count: str | None = None       # counter the result feeds
    size: Callable | None = None   # result -> amount of work done


# Every public function of another module that rwre.experiments calls on
# the driven workloads and whose cost grows with its input.  Closed forms
# (kappa_solve, mean_log_rho, moment_rho_log, kesten_constant_beta,
# limit_scale) and stream set-up (generator, stream_key) take
# microseconds and are left in the experiment's self time.
TARGETS = (
    Target("rwre.experiments", "sample_environment", "env.sample_environment",
           "env.sites", lambda r: len(r.omegas)),
    Target("rwre.rng", "counter_uniforms", "rng.counter_uniforms",
           "rng.uniforms", len),
    Target("rwre.experiments", "build_potential", "potential.build_potential",
           "potential.sites", lambda r: len(r.v) - 1),
    Target("rwre.experiments", "excursion_table", "potential.excursion_table"),
    Target("rwre.experiments", "ladder_epochs", "potential.ladder_epochs"),
    Target("rwre.experiments", "detect_deep_valleys", "potential.detect_deep_valleys"),
    Target("rwre.experiments", "detect_star_valleys", "potential.detect_star_valleys"),
    Target("rwre.experiments", "check_good_environment",
           "potential.check_good_environment"),
    Target("rwre.experiments", "QuenchedChain.from_environment",
           "quenched.from_environment"),
    Target("rwre.experiments", "linear_solve_oracle", "quenched.linear_solve_oracle",
           "quenched.solve_sites", len),
    Target("rwre.experiments", "kesten_tail_estimate", "constants.kesten_tail_estimate",
           "constants.series", lambda r: r.n_series),
    Target("rwre.experiments", "iglehart_constant", "constants.iglehart_constant",
           "constants.excursions", lambda r: r.n_excursions),
    Target("rwre.experiments", "predicted_tau_cdf", "stable.predicted_tau_cdf",
           "stable.draws", lambda r: r.n_samples),
    Target("rwre.experiments", "sample_positive_stable", "stable.sample_positive_stable",
           "stable.draws", len),
)


class Tracer:
    """Spans and counts of one traced call; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []        # [name, start_ns, end_ns, parent]
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter_ns(), None,
                      self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                self._stack.pop()
        return wrapper

    def _counted(self, target: Target, fn):
        timed = self.span(target.span, fn)

        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            self.calls[target.span] = self.calls.get(target.span, 0) + 1
            if target.count is not None:
                self.counts[target.count] = \
                    self.counts.get(target.count, 0) + int(target.size(result))
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target that resolves; record the others as absent."""
        undo = []
        try:
            for target in targets:
                try:
                    owner = importlib.import_module(target.module)
                    *parents, attr = target.path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = vars(owner)[attr] if isinstance(owner, type) \
                        else getattr(owner, attr)
                    bound = getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.absent.append(target.span)
                    print(f"trace: {target.module}.{target.path} is absent",
                          file=sys.stderr)
                    continue
                wrapped = self._counted(target, bound)
                setattr(owner, attr,
                        staticmethod(wrapped) if isinstance(owner, type) else wrapped)
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def self_times_ns(self) -> dict[str, int]:
        """Self time per span name: duration minus the direct children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict[str, int] = {}
        for (name, *_), value in zip(self.spans, own):
            out[name] = out.get(name, 0) + value
        return out

    def root_ns(self) -> int:
        return sum(end - start for name, start, end, parent in self.spans
                   if parent is None)

    def dump(self) -> list[dict]:
        return [{"name": name, "start_ns": start, "end_ns": end, "parent": parent}
                for name, start, end, parent in self.spans]


def traced_call(fn, *args, **kwargs):
    """Run fn under a fresh tracer; return (result, tracer)."""
    tracer = Tracer()
    with tracer.installed():
        result = tracer.span(ROOT, fn)(*args, **kwargs)
    return result, tracer


def _per(total: float, count: int, scale: float) -> float:
    return total * scale / count if count else 0.0


def layer_metrics(tracer: Tracer, replica_sites: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced call: {name: (value, unit)}.
    Times are self times; a layer the workload does not reach reads 0."""
    own = tracer.self_times_ns()

    def secs(*names: str) -> float:
        return sum(own.get(name, 0) for name in names) / 1e9

    count = tracer.counts.get
    potential = [t.span for t in TARGETS if t.span.startswith("potential.")]
    stable = [t.span for t in TARGETS if t.span.startswith("stable.")]
    env_s = secs("env.sample_environment")
    rng_s = secs("rng.counter_uniforms")
    solve_s = secs("quenched.linear_solve_oracle")
    series_s = secs("constants.kesten_tail_estimate")
    excursions_s = secs("constants.iglehart_constant")
    stable_s = secs(*stable)
    experiment_s = secs(ROOT)
    return {
        "env.sample_s": (env_s, "s"),
        "env.sites": (count("env.sites", 0), "count"),
        "env.ns_per_site": (_per(env_s, count("env.sites", 0), 1e9), "ns"),
        "rng.uniforms_s": (rng_s, "s"),
        "rng.uniforms": (count("rng.uniforms", 0), "count"),
        "rng.ns_per_uniform": (_per(rng_s, count("rng.uniforms", 0), 1e9), "ns"),
        "potential.build_s": (secs("potential.build_potential"), "s"),
        "potential.excursion_table_s": (secs("potential.excursion_table"), "s"),
        "potential.ladder_s": (secs("potential.ladder_epochs"), "s"),
        "potential.deep_scan_s": (secs("potential.detect_deep_valleys"), "s"),
        "potential.star_scan_s": (secs("potential.detect_star_valleys"), "s"),
        "potential.good_env_s": (secs("potential.check_good_environment"), "s"),
        "potential.sites": (count("potential.sites", 0), "count"),
        "potential.ns_per_site": (_per(secs(*potential), count("potential.sites", 0), 1e9),
                                  "ns"),
        "quenched.chain_build_s": (secs("quenched.from_environment"), "s"),
        "quenched.solve_s": (solve_s, "s"),
        "quenched.solves": (tracer.calls.get("quenched.linear_solve_oracle", 0), "count"),
        "quenched.solve_sites": (count("quenched.solve_sites", 0), "count"),
        "quenched.ns_per_solve_site": (_per(solve_s, count("quenched.solve_sites", 0), 1e9),
                                       "ns"),
        "constants.series_s": (series_s, "s"),
        "constants.series": (count("constants.series", 0), "count"),
        "constants.us_per_series": (_per(series_s, count("constants.series", 0), 1e6), "us"),
        "constants.excursions_s": (excursions_s, "s"),
        "constants.excursions": (count("constants.excursions", 0), "count"),
        "constants.ns_per_excursion": (_per(excursions_s, count("constants.excursions", 0),
                                            1e9), "ns"),
        "stable.sample_s": (stable_s, "s"),
        "stable.draws": (count("stable.draws", 0), "count"),
        "stable.ns_per_draw": (_per(stable_s, count("stable.draws", 0), 1e9), "ns"),
        "experiments.self_s": (experiment_s, "s"),
        "experiments.replica_sites": (replica_sites, "count"),
        "experiments.ns_per_replica_site": (_per(experiment_s, replica_sites, 1e9), "ns"),
    }

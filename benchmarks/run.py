"""Benchmark of the rwre Monte Carlo experiments.

    python3 benchmarks/run.py --workload tau [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  A run repeats whole rounds of one experiment call on one
worker until ``--seconds`` have passed, and checks every round's outputs
(see checks.py); each round draws new inputs from the seed (see
workloads.py).

* ``--trace 0`` runs each round in a fresh interpreter (one_round.py)
  and prints the end-to-end metrics, medians over rounds: ``wall_s``,
  the wall time of the experiment call; ``setup_s``, the time to import
  rwre and build the law and the config; ``peak_rss_mb``, the peak
  resident memory of the round's process.  Both times are scaled to a
  fixed machine speed by a calibration kernel timed next to them (see
  calibrate.py); the run record holds the unscaled medians.
* ``--trace 1`` runs in this process: one warm-up call, then per round
  an untraced and a traced call on the same inputs.  It prints the
  per-layer metrics of the traced calls and ``tracing.overhead_s``,
  medians over rounds.

The next to last line of standard output is the run record; the last is
the result object.  Both also go to ``benchmarks/results/``, with every
span of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, build, replica_sites, round_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the run's inputs (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_record(args, seed: int) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def fresh_round(workload: str, master_seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "one_round.py"), workload, str(master_seed)],
        cwd=ROOT, capture_output=True, timeout=170)
    if done.returncode:
        sys.stderr.buffer.write(done.stderr)
        raise RuntimeError(f"round with master seed {master_seed} exited "
                           f"with code {done.returncode}")
    return pickle.loads(done.stdout)


def untraced_rounds(workload, seed: int, seconds: float, checker) -> tuple[dict, list, dict]:
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(fresh_round(workload.name, round_seed(seed, len(rounds))))
        checker.add(rounds[-1].pop("report"), f"round {len(rounds) - 1}")

    def median(key: str) -> float:
        return statistics.median(r[key] for r in rounds)

    metrics = {"wall_s": {"value": median("wall_s"), "unit": "s"},
               "setup_s": {"value": median("setup_s"), "unit": "s"},
               "peak_rss_mb": {"value": median("peak_rss_kb") / 1024, "unit": "MB"}}
    unscaled = {key: median(key) for key in ("unscaled_wall_s", "unscaled_setup_s", "kernel_s")}
    return metrics, rounds, {"medians": unscaled}


def traced_rounds(workload, seed: int, seconds: float, checker) -> tuple[dict, list, dict]:
    import spans
    from rwre.experiments import report_csv_text

    # the first call in a process pays page faults the later ones do not;
    # keep it out of the traced/untraced comparison
    fn, config, kwargs = build(workload, round_seed(seed, 0))
    checker.add(fn(config, **kwargs), "warm-up", repeat=True)
    overheads, layers, rounds = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        label = f"round {len(rounds)}"
        fn, config, kwargs = build(workload, round_seed(seed, len(rounds)))
        t0 = time.perf_counter()
        report = fn(config, **kwargs)
        wall = time.perf_counter() - t0
        checker.add(report, label)
        traced, tracer = spans.traced_call(fn, config, **kwargs)
        checker.add(traced, label + " traced", repeat=True)
        checker.expect(report_csv_text(traced) == report_csv_text(report),
                       f"{label}: traced report differs from the untraced one")
        own = tracer.self_times_ns()
        checker.expect(sum(own.values()) == tracer.root_ns(),
                       f"{label}: self times do not add up to the traced wall time")
        overheads.append(tracer.root_ns() / 1e9 - wall)
        layers.append(spans.layer_metrics(tracer, replica_sites(workload)))
        if workload.name == "reduction":
            checker.retried += tracer.calls.get("env.sample_environment", 0) \
                - workload.kwargs["environments"]
        rounds.append({"untraced_wall_s": wall, "traced_wall_ns": tracer.root_ns(),
                       "self_ns": own, "absent": tracer.absent, "spans": tracer.dump()})
    metrics = {name: {"value": statistics.median(m[name][0] for m in layers), "unit": unit}
               for name, (_, unit) in layers[0].items()}
    metrics["tracing.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
    return metrics, rounds, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rwre" / "__init__.py").is_file():
        print(f"no rwre sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rwre
    if Path(rwre.__file__).resolve().parent != SRC / "rwre":
        print(f"rwre imported from {rwre.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks

    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    checker = checks.Checker(workload)
    measure = traced_rounds if args.trace else untraced_rounds
    try:
        metrics, rounds, notes = measure(workload, seed, args.seconds, checker)
    except (RuntimeError, subprocess.TimeoutExpired) as failure:
        print(failure, file=sys.stderr)
        return 1
    checker.finish()

    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    summary = {"record": run_record(args, seed), "rounds": len(rounds),
               "operations": {"attempted": checker.attempted, "failed": checker.failed,
                              "retried": checker.retried, "dropped": checker.dropped},
               "problems": checker.problems, **notes}
    result = {"correct": not checker.problems, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"BENCH_{workload.name}_seed{seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps({**summary, "result": result, "per_round": rounds}))
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

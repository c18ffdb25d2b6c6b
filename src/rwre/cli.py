"""Command line entry point.

Subcommands map one-to-one onto the library: kappa and constants print
formula-level results, valleys inspects one sampled environment, the
simulate-* and verify-* commands drive the Monte Carlo harness, and
report regenerates outputs from a manifest.

Exit codes: 0 success, 2 configuration error, 3 regime error (the law has
no kappa in (0,1)), 1 anything else.  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import fields

from .constants import (
    feller_from_estimate,
    iglehart_constant,
    kesten_constant_beta,
    kesten_tail_estimate,
    limit_scale,
)
from .env import EnvironmentLaw, RegimeError, kappa_solve, moment_rho_log
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    _widening,
    parse_config_text,
    report_csv_text,
    run_from_manifest,
    write_report,
)
from .potential import detect_deep_valleys, detect_star_valleys
from .rng import stream_key
from .stable import StableSpec, sample_positive_stable

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwre",
        description="Simulation and verification toolkit for transient "
                    "zero-speed walks in random environments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def law_arg(p, required=True):
        p.add_argument("--law", required=required,
                       help="environment law, e.g. beta:1.5,1.0 or "
                            "discrete:0.8@0.25;0.6@0.75")

    p = sub.add_parser("kappa", help="root of E[rho^t] = 1 in (0,1)")
    law_arg(p)
    p.add_argument("--method", choices=("closed_form", "bisection_quadrature"),
                   default=None)
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("constants", help="limit-law constants table")
    law_arg(p)
    p.add_argument("--excursions", type=int, default=200_000)
    p.add_argument("--series", type=int, default=0,
                   help="draws of the renewal series R, from the perpetuity "
                        "chain R = 1 + rho R', that Goldie's tail-constant "
                        "estimate averages; 0 takes the estimator's 3,000,000, "
                        "and skips the estimate for Beta laws, whose C_K has "
                        "a closed form")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("valleys", help="deep valleys of one environment")
    law_arg(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("stable-sample", help="positive stable draws")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    for experiment in EXPERIMENTS.values():
        p = sub.add_parser(experiment.command, help=experiment.help)
        p.add_argument("--config", help="key = value config file")
        law_arg(p, required=False)
        p.add_argument("--n-values", help="comma-separated target levels")
        p.add_argument("--replicas", type=int)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--lambda-grid", help="comma-separated lambda values")
        p.add_argument("--master-seed", type=int)
        p.add_argument("--output-dir", help="write CSV and manifest here, not CSV to stdout")
        p.add_argument("--step-cap", type=int)
        p.add_argument("--workers", type=int, default=1)
        for key in experiment.flags:           # absent unless given: the runner's default
            p.add_argument("--" + key.replace("_", "-"), type=experiment.params[key],
                           default=argparse.SUPPRESS)

    p = sub.add_parser("report", help="regenerate outputs from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--output-dir", help="default: the manifest's own directory")
    p.add_argument("--workers", type=int, default=1)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The config of an experiment command, from --config and the flags;
    only the fields the experiment needs must be given."""
    experiment = next(e for e in EXPERIMENTS.values() if e.command == args.command)
    parts = []
    if args.config:
        with open(args.config) as f:
            parts.append(f.read())
    for field in fields(ExperimentConfig):
        if getattr(args, field.name) is not None:
            parts.append(f"{field.name} = {getattr(args, field.name)}")
    return parse_config_text("\n".join(parts), needs=experiment.needs)


def _print_table(rows: list[tuple[str, str, str, str]]) -> None:
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def _cmd_kappa(args) -> int:
    law = EnvironmentLaw.parse(args.law)
    result = kappa_solve(law, tol=args.tol, method=args.method)
    print(f"{result.kappa:.12g}")
    return 0


def _cmd_constants(args) -> int:
    law = EnvironmentLaw.parse(args.law)
    kappa = kappa_solve(law).kappa
    moment = moment_rho_log(law, kappa)
    ig = iglehart_constant(law, kappa, n_excursions=args.excursions,
                           seed=args.seed)
    c_f, c_f_se = feller_from_estimate(ig, kappa, moment)
    n = ig.n_excursions
    rows = [("quantity", "value", "stderr", "route"),
            ("kappa", f"{kappa:.12g}", "-", "closed_form" if law.kind == "beta" else "bisection"),
            ("E[rho^k log rho]", f"{moment:.12g}", "-", "formula"),
            ("C_I", f"{ig.c_i:.6g}", f"{ig.stderr:.2g}", "excursion_mc"),
            ("E[e^(k V(e1))]", f"{ig.e_kv:.6g}",
             f"{math.sqrt(ig.cov[0, 0] / n):.2g}", "excursion_mc"),
            ("E[e1]", f"{ig.e_len:.6g}",
             f"{math.sqrt(ig.cov[1, 1] / n):.2g}", "excursion_mc"),
            ("C_F", f"{c_f:.6g}", f"{c_f_se:.2g}", "formula")]
    if law.kind == "beta":
        c_k = kesten_constant_beta(law.alpha, law.beta)
        rows.append(("C_K", f"{c_k:.12g}", "-", "closed_form"))
    series = {"n_series": args.series} if args.series else {}
    if series or law.kind != "beta":
        est = kesten_tail_estimate(law, kappa, seed=stream_key(args.seed, "ck"), **series)
        rows.append(("C_K", f"{est.constant_hat:.6g}", f"{est.stderr:.2g}", "goldie"))
        if law.kind != "beta":
            c_k = est.constant_hat
    params = limit_scale(kappa, c_k, moment)
    rows += [("Lambda", f"{params.lambda_scale:.10g}", "-", "formula"),
             ("tau_prefactor", f"{params.tau_prefactor:.10g}", "-", "formula"),
             ("x_scale", f"{params.x_scale:.10g}", "-", "formula")]
    _print_table(rows)
    return 0


def _cmd_valleys(args) -> int:
    law = EnvironmentLaw.parse(args.law)
    kappa = kappa_solve(law).kappa
    found, growths, _ = _widening(
        law, args.seed, -2000, 4 * args.n + 1000,
        lambda path, table: [detect(path, args.n, args.epsilon, kappa, table=table())
                             for detect in (detect_deep_valleys, detect_star_valleys)])
    if found is None:
        raise RuntimeError(f"the valleys ran off the window after {growths} growths")
    deep, star = found
    print(f"# deep valleys: {len(deep)}  star valleys: {len(star)}")
    print("a  b  c  d  height")
    for v in deep:
        print(f"{v.a}  {v.b}  {v.c}  {v.d}  {v.height:.3f}")
    matches = {(v.b, v.d_bar) for v in deep} & {(v.b, v.d_bar) for v in star}
    print(f"# coinciding (b, d_bar) pairs: {len(matches)}")
    return 0


def _cmd_stable(args) -> int:
    spec = StableSpec(kappa=args.kappa, scale=args.scale)
    draws = sample_positive_stable(spec, args.count, seed=args.seed)
    for value in draws:
        print(repr(float(value)))
    return 0


def _cmd_experiment(experiment, args) -> int:
    config = _config_from_args(args)
    return _print_outcome(experiment.runner(
        config, workers=args.workers,
        **{key: value for key, value in vars(args).items() if key in experiment.flags}),
        args.output_dir)


def _cmd_report(args) -> int:
    report = run_from_manifest(args.manifest, workers=args.workers)
    return _print_outcome(report, args.output_dir or os.path.dirname(args.manifest) or ".")


def _print_outcome(report, output_dir: str | None) -> int:
    """Write the CSV and manifest into output_dir and say where, or put the
    CSV on stdout when no directory is given."""
    if output_dir is None:
        sys.stdout.write(report_csv_text(report))
    else:
        print(f"wrote {write_report(report, output_dir)['csv']}")
    return 0


_COMMANDS = {
    "kappa": _cmd_kappa,
    "constants": _cmd_constants,
    "valleys": _cmd_valleys,
    "stable-sample": _cmd_stable,
    "report": _cmd_report,
    **{e.command: functools.partial(_cmd_experiment, e) for e in EXPERIMENTS.values()},
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except RegimeError as err:
        print(f"regime error: {err}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, FileNotFoundError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

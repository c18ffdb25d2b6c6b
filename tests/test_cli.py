"""Command-line surface: parsing, outputs, and exit codes."""

import os
import re
import shlex

import pytest

from rwre.cli import _build_parser, _config_from_args, main
from rwre.env import EnvironmentLaw
from rwre.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    run_from_manifest,
    run_position_experiment,
    run_tau_experiment,
    verify_crossing_bound,
    write_report,
)

DOCS = os.path.join(os.path.dirname(__file__), os.pardir)


def test_kappa_beta(capsys):
    assert main(["kappa", "--law", "beta:1.5,1.0"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 0.5) < 1e-10


def test_kappa_quadrature_route(capsys):
    assert main(["kappa", "--law", "beta:1.5,1.0",
                 "--method", "bisection_quadrature"]) == 0
    assert abs(float(capsys.readouterr().out) - 0.5) < 1e-8


def test_kappa_two_atom(capsys):
    assert main(["kappa", "--law", "discrete:0.8@0.6;0.25@0.4"]) == 0
    assert abs(float(capsys.readouterr().out) - 0.5199783222299662) < 1e-9


def test_kappa_monte_carlo_route_is_gone(capsys):
    assert main(["kappa", "--law", "beta:1.5,1.0", "--method", "bisection_mc"]) == 2
    capsys.readouterr()


def test_argument_errors_exit_2(capsys):
    assert main(["kappa"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["kappa", "--law", "beta:oops"]) == 2
    capsys.readouterr()


def test_regime_errors_exit_3(capsys):
    assert main(["kappa", "--law", "beta:1.0,1.5"]) == 3
    err = capsys.readouterr().err
    assert "regime" in err


def test_constants_table(capsys):
    assert main(["constants", "--law", "beta:1.5,1.0",
                 "--excursions", "20000"]) == 0
    out = capsys.readouterr().out
    lines = {line.split()[0]: line for line in out.splitlines() if line.strip()}
    assert lines["kappa"].split()[1] == "0.5"
    assert "closed_form" in lines["C_K"]
    assert lines["C_K"].split()[1] == "1"
    assert "Lambda" in lines and "x_scale" in lines and "C_F" in lines


@pytest.mark.parametrize("law, exact", [
    ("beta:1.5,1.0", {"E[e1]": 2.2998191379, "E[e^(k V(e1))]": 0.5651831992,
                      "C_I": 0.2679099425, "C_F": 0.6161444129}),
    ("discrete:0.8@0.5;0.3@0.5", {"E[e1]": 3.6964027381, "E[e^(k V(e1))]": 0.6518521845,
                                  "C_I": 0.2930155619, "C_F": 0.8416412480})])
def test_constants_table_prints_the_exact_ladder_rows(law, exact, capsys):
    # each quantity has a spitzer row, printed to 12 digits, then its Monte
    # Carlo row with the z of the sample against it
    assert main(["constants", "--law", law, "--excursions", "20000"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    for name, value in exact.items():
        width = len(name.split())
        (spitzer, sampled), = [(r, s) for r, s in zip(rows, rows[1:])
                               if " ".join(r[:width]) == name and r[width + 2] == "spitzer"]
        assert len(spitzer[width].replace(".", "").lstrip("0")) >= 11
        assert float(spitzer[width]) == pytest.approx(value, abs=1e-10)
        assert spitzer[width + 1:] == ["-", "spitzer"]
        assert " ".join(sampled[:width]) == name and sampled[width + 2] == "excursion_mc"
        z = (float(sampled[width]) - float(spitzer[width])) / float(sampled[width + 1])
        assert float(sampled[width + 3]) == pytest.approx(z, rel=0.05, abs=0.01)


def test_constants_table_prints_only_the_sample_where_the_ladder_series_refuses(capsys):
    # a four-atom law's series would enumerate too many count vectors
    assert main(["constants", "--law", "discrete:0.8@0.2;0.7@0.3;0.5@0.1;0.35@0.4",
                 "--excursions", "20000"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    routes = {(r[0], r[-1]) for r in rows if r[0] in ("E[e1]", "E[e^(k", "C_I", "C_F")}
    assert routes == {("E[e1]", "excursion_mc"), ("E[e^(k", "excursion_mc"),
                      ("C_I", "excursion_mc"), ("C_F", "excursion_mc")}
    assert not any("spitzer" in r for r in rows)


def test_constants_table_goldie_route(capsys):
    assert main(["constants", "--law", "beta:1.5,1.0", "--excursions", "20000",
                 "--series", "20000"]) == 0
    routes = [line.split()[-1] for line in capsys.readouterr().out.splitlines()
              if line.startswith("C_K ")]
    assert routes == ["closed_form", "goldie"]


@pytest.mark.parametrize("law, c_k_format", [("beta:1.5,1.0", ".12g"),
                                              ("discrete:0.8@0.5;0.3@0.5", ".6g")])
def test_constants_and_tau_report_read_one_c_k(law, c_k_format, capsys):
    # the table and both reports take C_K from experiments.limit_law
    assert main(["constants", "--law", law, "--excursions", "2000", "--seed", "3"]) == 0
    table = {line.split()[0]: line.split()[1] for line in capsys.readouterr().out.splitlines()}
    config = ExperimentConfig(law=EnvironmentLaw.parse(law), n_values=(20,), replicas=20,
                              master_seed=3)
    tau, position = run_tau_experiment(config), run_position_experiment(config)
    for report in (tau, position):
        assert table["C_K"] == format(report.extra("c_k"), c_k_format)
    assert table["Lambda"] == format(tau.extra("lambda_scale"), ".10g")
    assert table["x_scale"] == format(position.extra("x_scale"), ".10g")


@pytest.mark.parametrize("flag, value, argument", [("--excursions", "1", "n_excursions"),
                                                   ("--excursions", "0", "n_excursions"),
                                                   ("--series", "-3", "n_series")])
def test_constants_rejects_sample_sizes_without_an_estimate(flag, value, argument, capsys):
    # one excursion has no covariance, and Hill's index needs 10 draws
    argv = ["constants", "--law", "discrete:0.8@0.5;0.3@0.5", flag, value]
    assert main(argv) == 2
    assert argument in capsys.readouterr().err


def test_report_rejects_a_c_k_line(tmp_path, capsys):
    # C_K has one route; a manifest cannot set it
    config = ExperimentConfig(law=EnvironmentLaw.beta_law(1.5, 1.0), n_values=(20,),
                              replicas=20)
    manifest = write_report(run_tau_experiment(config), str(tmp_path))["manifest"]
    with open(manifest, "a") as fh:
        fh.write("c_k = 2.0\n")
    with pytest.raises(ValueError, match="unknown config key 'c_k'"):
        run_from_manifest(manifest)
    assert main(["report", "--manifest", manifest]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_valleys_listing(capsys):
    assert main(["valleys", "--law", "beta:1.5,1.0", "--n", "40",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# deep valleys:")
    assert "coinciding (b, d_bar) pairs" in out


def test_valleys_grows_a_short_window(capsys):
    # beta:1.1,1 excursions are long: the first window, 4n + 1000 sites
    # right of the origin, holds 9871 of the 20000 excursions it needs
    assert main(["valleys", "--law", "beta:1.1,1.0", "--n", "20000", "--seed", "0"]) == 0
    assert capsys.readouterr().out.startswith("# deep valleys:")


def test_stable_sample(capsys):
    assert main(["stable-sample", "--kappa", "0.5", "--count", "5",
                 "--seed", "3"]) == 0
    first = capsys.readouterr().out
    values = [float(v) for v in first.split()]
    assert len(values) == 5
    assert all(v > 0 for v in values)
    assert main(["stable-sample", "--kappa", "0.5", "--count", "5",
                 "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


def test_stable_sample_rejects_a_negative_count(capsys):
    assert main(["stable-sample", "--kappa", "0.5", "--count", "-1"]) == 2
    assert "count" in capsys.readouterr().err


def test_simulate_tau_stdout(capsys):
    assert main(["simulate-tau", "--law", "beta:1.5,1.0",
                 "--n-values", "100", "--replicas", "200",
                 "--master-seed", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# rwre-report-v2")
    assert "# experiment = tau" in out


def test_simulate_tau_writes_and_report_regenerates(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    assert main(["simulate-tau", "--law", "beta:1.5,1.0",
                 "--n-values", "100,200", "--replicas", "200",
                 "--master-seed", "4", "--output-dir", out_dir]) == 0
    capsys.readouterr()
    csv_path = os.path.join(out_dir, "tau.csv")
    manifest_path = os.path.join(out_dir, "tau.manifest.txt")
    assert os.path.exists(csv_path) and os.path.exists(manifest_path)
    with open(csv_path) as fh:
        first = fh.read()

    assert main(["report", "--manifest", manifest_path, "--workers", "2"]) == 0
    capsys.readouterr()
    with open(csv_path) as fh:
        assert fh.read() == first

    other = str(tmp_path / "elsewhere")
    assert main(["report", "--manifest", manifest_path,
                 "--output-dir", other]) == 0
    capsys.readouterr()
    with open(os.path.join(other, "tau.csv")) as fh:
        assert fh.read() == first


def test_report_rewrites_next_to_a_written_manifest(tmp_path, capsys):
    # without --output-dir, report writes into the manifest's own directory
    config = ExperimentConfig(law=EnvironmentLaw.beta_law(1.5, 1.0), replicas=12, master_seed=3)
    paths = write_report(verify_crossing_bound(config), str(tmp_path))
    with open(paths["csv"]) as fh:
        first = fh.read()
    os.remove(paths["csv"])
    assert main(["report", "--manifest", paths["manifest"]]) == 0
    assert capsys.readouterr().out == f"wrote {paths['csv']}\n"
    with open(paths["csv"]) as fh:
        assert fh.read() == first


def test_report_missing_manifest_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.manifest.txt")
    assert main(["report", "--manifest", missing]) == 2
    capsys.readouterr()


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("law = beta:1.5,1.0\nn_values = 100\nreplicas = 500\n"
                   "master_seed = 4\n")
    assert main(["simulate-tau", "--config", str(cfg),
                 "--replicas", "200"]) == 0
    out = capsys.readouterr().out
    assert "replicas = 200" not in out           # config echo is not the csv
    assert out.startswith("# rwre-report-v2")


def test_experiment_smoke_commands(capsys, tmp_path):
    assert main(["census", "--law", "beta:1.5,1.0", "--n-values", "150",
                 "--replicas", "4", "--master-seed", "2"]) == 0
    assert "# experiment = census" in capsys.readouterr().out
    assert main(["verify-crossing", "--law", "beta:1.5,1.0",
                 "--replicas", "8", "--n-values", "100",
                 "--master-seed", "2"]) == 0
    assert "# experiment = crossing" in capsys.readouterr().out
    assert main(["verify-reduction", "--law", "beta:1.5,1.0",
                 "--n-values", "200", "--replicas", "5",
                 "--environments", "12", "--master-seed", "2"]) == 0
    assert "# experiment = reduction" in capsys.readouterr().out
    assert main(["simulate-x", "--law", "beta:1.5,1.0",
                 "--n-values", "64", "--replicas", "50",
                 "--master-seed", "2"]) == 0
    assert "# experiment = position" in capsys.readouterr().out


CONFIG_FLAGS = {"--config", "--law", "--n-values", "--replicas", "--epsilon",
                "--lambda-grid", "--master-seed", "--output-dir", "--step-cap",
                "--workers", "--help"}


@pytest.mark.parametrize("command,extra", [
    ("simulate-tau", set()), ("simulate-x", set()), ("census", set()),
    ("verify-reduction", {"--environments"}), ("verify-crossing", set())])
def test_experiment_commands_keep_their_flags(command, extra, capsys):
    assert main([command, "--help"]) == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == CONFIG_FLAGS | extra


def test_verify_reduction_manifest_keeps_environments(tmp_path, capsys):
    out, again = str(tmp_path / "out"), str(tmp_path / "out2")
    assert main(["verify-reduction", "--law", "beta:1.5,1.0", "--n-values", "300",
                 "--replicas", "1", "--environments", "12", "--output-dir", out]) == 0
    assert main(["report", "--manifest", os.path.join(out, "reduction.manifest.txt"),
                 "--output-dir", again]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "reduction.csv")) as a, \
            open(os.path.join(again, "reduction.csv")) as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_reduction_rejects_no_environments(value, capsys):
    assert main(["verify-reduction", "--law", "beta:1.5,1.0", "--n-values", "300",
                 "--environments", value]) == 2
    assert "environments" in capsys.readouterr().err


def test_verify_reduction_runs_without_replicas(tmp_path, capsys):
    # the reduction counts environments and never reads replicas
    out, again = str(tmp_path / "out"), str(tmp_path / "out2")
    assert main(["verify-reduction", "--law", "beta:1.5,1.0", "--n-values", "300",
                 "--environments", "12", "--output-dir", out]) == 0
    with open(os.path.join(out, "reduction.manifest.txt")) as fh:
        assert "replicas" not in fh.read()
    assert main(["report", "--manifest", os.path.join(out, "reduction.manifest.txt"),
                 "--output-dir", again]) == 0
    with open(os.path.join(out, "reduction.csv")) as a, \
            open(os.path.join(again, "reduction.csv")) as b:
        assert a.read() == b.read()
    assert main(["verify-reduction", "--law", "beta:1.5,1.0", "--environments", "12"]) == 2
    assert "config needs n_values" in capsys.readouterr().err


def test_verify_crossing_runs_without_n_values(capsys):
    # the crossing check reads replicas as its environment count, no levels
    argv = ["verify-crossing", "--law", "beta:1.5,1.0", "--replicas", "20"]
    assert main(argv) == 0
    alone = capsys.readouterr().out
    assert "# experiment = crossing" in alone
    assert main(argv + ["--n-values", "100"]) == 0
    assert capsys.readouterr().out == alone
    assert main(["verify-crossing", "--law", "beta:1.5,1.0"]) == 2
    assert "config needs replicas" in capsys.readouterr().err


def test_simulate_tau_still_needs_replicas(capsys):
    assert main(["simulate-tau", "--law", "beta:1.5,1.0", "--n-values", "100"]) == 2
    assert "config needs replicas" in capsys.readouterr().err


def _documented_commands(name):
    """The rwre command lines of the first code block that has any."""
    with open(os.path.join(DOCS, name)) as fh:
        blocks = fh.read().split("```")[1::2]
    block = next(b for b in blocks if "\nrwre " in b)
    return [shlex.split(line) for line in block.splitlines() if line.startswith("rwre ")]


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_documented_experiment_commands_build_their_configs(doc):
    commands = {e.command for e in EXPERIMENTS.values()}
    lines = [argv[1:] for argv in _documented_commands(doc) if argv[1] in commands]
    assert {argv[0] for argv in lines} == commands
    for argv in lines:
        _config_from_args(_build_parser().parse_args(argv))

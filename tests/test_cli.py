import glob
import os
import shlex
import sys
import warnings
from xml.dom import minidom

import numpy as np
import pytest

from lisopt import AdaptiveConfig, ExperimentSpec, IsotropicGaussian, benchmark, parse_csv
from lisopt.cli import main
from lisopt.objectives import format_float
from lisopt.harness import METHODS

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# optimize
# ----------------------------------------------------------------------

def test_optimize_is_deterministic(capsys):
    argv = ("optimize", "--fn", "sphere", "--d", "3", "--method", "liso",
            "--n", "500", "--seed", "11", "--q0-center", "1,1,1")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("estimate: ")
    assert "objective value: " in out1


def test_optimize_each_method_runs(capsys):
    for method in ("random_search", "adaptive_liso", "adaptive_random_search",
                   "isotropic_es"):
        code, out, _ = run_cli(
            capsys, "optimize", "--fn", "rastrigin", "--d", "2",
            "--method", method, "--n", "40", "--batch-size", "10",
            "--seed", "3",
        )
        assert code == 0, (method, out)
        estimate = [float(v) for v in out.splitlines()[0].split()[1:]]
        assert len(estimate) == 2


def test_optimize_center_dimension_mismatch_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "optimize", "--fn", "sphere", "--d", "3", "--method", "liso",
        "--n", "100", "--q0-center", "1,1",
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("center", ["1,abc", "nan,0", pytest.param("", id="empty")])
def test_optimize_bad_center_names_the_flag(capsys, center):
    code, out, err = run_cli(capsys, "optimize", "--d", "2", "--method", "liso",
                             "--n", "100", "--q0-center", center)
    assert code == 2 and not out
    assert f"--q0-center must be comma-separated finite numbers, got '{center}'" in err


def test_optimize_negative_center_needs_the_equals_form(capsys):
    argv = ("optimize", "--d", "2", "--method", "liso", "--n", "100")
    code, out, _ = run_cli(capsys, *argv, "--q0-center=-1,2")
    assert code == 0 and out.startswith("estimate: ")
    # argparse reads "-1,2" after a space as a flag, not as the value.
    code, out, err = run_cli(capsys, *argv, "--q0-center", "-1,2")
    assert code == 2 and not out
    assert "--q0-center: expected one argument" in err


def test_optimize_static_method_checks_every_config_field(capsys):
    code, _, err = run_cli(
        capsys, "optimize", "--fn", "sphere", "--d", "2", "--method", "liso",
        "--n", "100", "--batch-size", "0",
    )
    assert code == 2
    assert "batch_size must be >= 1" in err


def test_optimize_zero_dimension_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "optimize", "--d", "0", "--method", "liso", "--n", "100")
    assert code == 2
    assert "dimension must be >= 1" in err


@pytest.mark.parametrize("flag,value,method,message", [
    pytest.param("--alpha0", "inf", "liso", "alpha0 must be finite, got inf", id="--alpha0"),
    pytest.param("--sigma2", "inf", "liso", "sigma2 must be finite, got inf", id="--sigma2"),
    # A finite alpha0 whose temperature at the budget overflows.
    pytest.param("--alpha0", "1e308", "liso", "alpha0 is too large", id="--alpha0-overflow-liso"),
    pytest.param("--alpha0", "1e308", "adaptive_liso", "alpha0 is too large",
                 id="--alpha0-overflow-adaptive_liso"),
    # Finite flags that the spec refuses: squared errors that overflow, and
    # a budget beyond int64.  The suite turns a RuntimeWarning into an error.
    pytest.param("--q0-center", "1e300,1e300", "liso", "q0_center is too large",
                 id="--q0-center-overflow"),
    pytest.param("--n", "99999999999999999999", "liso", "budget must be at most 2**63 - 1",
                 id="--n-beyond-int64"),
])
def test_optimize_non_finite_number_is_usage_error(capsys, flag, value, method, message):
    code, out, err = run_cli(capsys, "optimize", "--d", "2", "--method", method,
                             "--n", "400", flag, value)
    assert code == 2
    assert message in err and not out


@pytest.mark.parametrize("method", sorted(METHODS))
def test_optimize_prints_the_driver_run_of_its_flags(capsys, method):
    code, out, _ = run_cli(capsys, "optimize", "--fn", "ackley", "--d", "3", "--method", method,
                           "--n", "2000", "--seed", "7", "--q0-center=1,-0.5,2", "--q0-var", "2",
                           "--alpha0", "1.5", "--mixture-weight", "0.3", "--batch-size", "100")
    objective = benchmark("ackley", 3)
    config = AdaptiveConfig(budget=2000, alpha0=1.5, q0=IsotropicGaussian([1.0, -0.5, 2.0], 2.0),
                            seed=7, mixture_weight=0.3, batch_size=100)
    estimate, _ = METHODS[method][0](objective, config)
    assert code == 0
    assert out == (f"estimate: {' '.join(format_float(v) for v in estimate)}\n"
                   f"objective value: {format_float(objective(estimate))}\n")


def pid_recording_child(pid_file):
    """An external child that writes its pid, then answers every line with garbage."""
    code = ("import os, sys\n"
            "open(sys.argv[1], 'w').write(str(os.getpid()))\n"
            "for line in sys.stdin:\n"
            "    print('garbage'); sys.stdout.flush()\n")
    return " ".join(shlex.quote(a) for a in (sys.executable, "-c", code, str(pid_file)))


def test_optimize_external_driver_error_reaps_the_child(capsys, tmp_path):
    pid_file = tmp_path / "pid"
    code, _, err = run_cli(
        capsys, "optimize", "--external", pid_recording_child(pid_file), "--d", "2",
        "--method", "adaptive_liso", "--n", "100", "--batch-size", "10",
    )
    assert code == 1 and "malformed response line" in err
    with pytest.raises(ProcessLookupError):  # exited and waited for: no zombie
        os.kill(int(pid_file.read_text()), 0)


@pytest.mark.parametrize("command,message", [
    ("", "the command '' names no program"),
    ("   ", "the command '   ' names no program"),
    ("'x", "cannot split the command \"'x\": No closing quotation"),
], ids=["empty", "blank", "unclosed_quote"])
def test_optimize_bad_external_command_is_usage_error(capsys, command, message):
    # An empty command is a command, not a request for the built-in objective.
    code, out, err = run_cli(capsys, "optimize", "--external", command, "--d", "2",
                             "--method", "liso", "--n", "100")
    assert code == 2 and not out
    assert message in err


def test_optimize_external_child_that_answers_twice_fails(capsys):
    # Two answers per request: the later requests would be paired with stale answers.
    child = " ".join(shlex.quote(a) for a in (sys.executable, "-u", "-c", (
        "import sys\n"
        "for line in sys.stdin:\n"
        "    xs = [float(v) for v in line.split()]\n"
        "    print(repr(sum(v * v for v in xs)), flush=True)\n"
        "    print('1.0', flush=True)\n")))
    code, out, err = run_cli(capsys, "optimize", "--d", "2", "--n", "100", "--method", "liso",
                             "--external", child)
    assert code == 1 and not out
    assert "error: child answered more lines than it was sent: " in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "optimize", "--does-not-exist", "1")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------

def test_bench_writes_csv_and_svg(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LISOPT_WORKERS", "1")
    config = tmp_path / "exp.yaml"
    config.write_text(
        "objective: sphere\n"
        "dimension: 2\n"
        "methods: [liso, random_search]\n"
        "budget: 300\n"
        "seed: 5\n"
        "alpha0: 1.0\n"
        "q0_center: [0.7, 0.7]\n"
        "q0_variance: 0.5\n"
        "trials: 3\n"
        "checkpoint_start: 50\n"
        "checkpoint_count: 6\n"
    )
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    code, out, _ = run_cli(
        capsys, "bench", "--config", str(config),
        "--csv-out", str(csv_path), "--svg-out", str(svg_path),
    )
    assert code == 0
    assert csv_path.exists() and svg_path.exists()
    report = parse_csv(str(csv_path))
    assert set(report.methods) == {"liso", "random_search"}
    assert svg_path.read_text().startswith("<svg ")


def test_bench_trials_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LISOPT_WORKERS", "1")
    config = tmp_path / "exp.yaml"
    config.write_text(
        "objective: sphere\ndimension: 2\nmethods: [random_search]\n"
        "budget: 200\nseed: 5\nalpha0: 1.0\nq0_center: [0.5, 0.5]\n"
        "q0_variance: 0.5\ntrials: 50\ncheckpoint_start: 50\n"
        "checkpoint_count: 4\n"
    )
    csv_path = tmp_path / "out.csv"
    code, _, _ = run_cli(
        capsys, "bench", "--config", str(config), "--trials", "2",
        "--csv-out", str(csv_path), "--svg-out", str(tmp_path / "out.svg"),
    )
    assert code == 0
    assert report_trials(str(csv_path)) == 2


@pytest.mark.parametrize("bad", ["csv", "svg"])
def test_bench_output_in_missing_directory_is_usage_error(tmp_path, capsys, monkeypatch, bad):
    def no_trial(spec):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("lisopt.cli.run_experiment", no_trial)
    config = tmp_path / "exp.yaml"
    ExperimentSpec(objective="sphere", dimension=2, methods=["liso"], budget=100,
                   seed=1, alpha0=1.0, q0_center=[0.5, 0.5], q0_variance=1.0,
                   trials=2).to_yaml(str(config))
    paths = {"csv": tmp_path / "r.csv", "svg": tmp_path / "r.svg"}
    paths[bad] = tmp_path / "missing" / f"r.{bad}"
    code, out, err = run_cli(capsys, "bench", "--config", str(config),
                             "--csv-out", str(paths["csv"]), "--svg-out", str(paths["svg"]))
    assert code == 2
    assert f"cannot write {paths[bad]}" in err and out == ""
    assert not any(p.exists() for p in paths.values())


@pytest.mark.parametrize("csv_out,svg_out,message", [
    ("out", "r.svg", "cannot write out: it is a directory"),
    ("r.csv", "out", "cannot write out: it is a directory"),
    ("r.out", "r.out", "cannot write both the CSV and the SVG to r.out"),
    ("r.out", "./sub/../r.out", "cannot write both the CSV and the SVG to ./sub/../r.out"),
    ("r.out", "link.out", "cannot write both the CSV and the SVG to link.out"),
], ids=["csv_is_a_directory", "svg_is_a_directory", "same_path", "same_path_after_resolving",
        "svg_is_a_link_to_the_csv"])
def test_bench_output_path_that_cannot_be_written_is_usage_error(
        tmp_path, capsys, monkeypatch, csv_out, svg_out, message):
    def no_trial(spec):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("lisopt.cli.run_experiment", no_trial)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.out").symlink_to("r.out")
    ExperimentSpec(objective="sphere", dimension=2, methods=["liso"], budget=100,
                   seed=1, alpha0=1.0, q0_center=[0.5, 0.5], q0_variance=1.0,
                   trials=2).to_yaml("exp.yaml")
    code, out, err = run_cli(capsys, "bench", "--config", "exp.yaml",
                             "--csv-out", csv_out, "--svg-out", svg_out)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.yaml", "link.out", "out", "sub"]


def report_trials(path):
    report = parse_csv(path)
    (stats,) = report.methods.values()
    return stats.trials


def test_bench_missing_config_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bench", "--config", "/nonexistent/x.yaml")
    assert code == 2
    assert "error:" in err


def test_bench_config_that_is_a_directory_is_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "bench", "--config", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("flags,message", [
    (("--csv-out", "", "--svg-out", ""), "--csv-out must name a file, got ''"),
    (("--csv-out", "r.csv", "--svg-out", ""), "--svg-out must name a file, got ''"),
    ((), "csv_out must name a file, got ''"),
], ids=["csv_flag", "svg_flag", "spec_field"])
def test_bench_empty_output_path_is_usage_error(tmp_path, capsys, monkeypatch, flags, message):
    # An empty path is a path, not a request for the default report.csv.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.yaml").write_text(
        "objective: sphere\ndimension: 2\nmethods: [random_search]\nbudget: 100\nseed: 1\n"
        "alpha0: 1.0\nq0_center: [0.5, 0.5]\nq0_variance: 1.0\ntrials: 2\n"
        + ("" if flags else "csv_out: ''\n"))
    code, out, err = run_cli(capsys, "bench", "--config", "exp.yaml", *flags)
    assert code == 2 and out == ""
    assert message in err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.yaml"]


def test_bench_unknown_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "exp.yaml"
    config.write_text("objective: sphere\nbad_key: 1\n")
    code, _, err = run_cli(capsys, "bench", "--config", str(config))
    assert code == 2
    assert "bad_key" in err


def test_bench_invalid_yaml_is_usage_error(tmp_path, capsys):
    config = tmp_path / "exp.yaml"
    config.write_text("objective: sphere\ndimension: 2\n- x\n")
    code, out, err = run_cli(capsys, "bench", "--config", str(config))
    assert code == 2
    assert f"{config}: not valid YAML" in err and "trial" not in err
    assert out == ""


@pytest.mark.parametrize("repeat", ["budget: 600", "'budget': 600"])
def test_bench_repeated_key_is_usage_error(tmp_path, capsys, monkeypatch, repeat):
    # yaml.safe_load would keep the last value and run 600 evaluations.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.yaml").write_text(
        "objective: sphere\ndimension: 2\nmethods: [random_search]\nbudget: 400\nseed: 1\n"
        f"alpha0: 1.0\nq0_center: [0.5, 0.5]\nq0_variance: 1.0\ntrials: 2\n{repeat}\n")
    code, out, err = run_cli(capsys, "bench", "--config", "exp.yaml")
    assert code == 2 and out == ""
    assert err == ("error: exp.yaml: key 'budget' on line 10 repeats line 4 "
                   "(silent typos corrupt experiments)\n")
    assert [p.name for p in tmp_path.iterdir()] == ["exp.yaml"]


@pytest.mark.parametrize("command", ["bench", "slope"])
def test_file_that_is_not_utf8_is_usage_error_naming_it(tmp_path, capsys, command):
    if command == "bench":  # a 0xff byte in a YAML comment
        path = tmp_path / "exp.yaml"
        path.write_bytes(b"# budget \xff\nobjective: sphere\ndimension: 2\nmethods: [liso]\nbudget: 100\n"
                         b"seed: 1\nalpha0: 1.0\nq0_center: [0.5, 0.5]\nq0_variance: 1.0\ntrials: 2\n")
        argv = ("bench", "--config", str(path), "--csv-out", str(tmp_path / "r.csv"),
                "--svg-out", str(tmp_path / "r.svg"))
    else:  # a 0xff byte in a CSV row
        path = tmp_path / "r.csv"
        synthetic_csv(str(path))
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"m,", b"m\xff,", 1)
        path.write_bytes(b"\n".join(lines))
        argv = ("slope", "--csv", str(path), "--method", "m")
    at = path.read_bytes().index(b"\xff")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position {at}: "
                   "invalid start byte\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_bench_spec_that_is_not_a_mapping_is_usage_error(tmp_path, capsys):
    config = tmp_path / "exp.yaml"
    config.write_text("- objective\n- sphere\n")
    code, out, err = run_cli(capsys, "bench", "--config", str(config))
    assert code == 2 and out == ""
    assert f"{config}: expected a YAML mapping" in err


def test_bench_float_budget_is_usage_error(tmp_path, capsys):
    config = tmp_path / "exp.yaml"
    spec = ExperimentSpec(objective="sphere", dimension=2, methods=["liso"], budget=1000,
                          seed=1, alpha0=1.0, q0_center=[0.5, 0.5], q0_variance=1.0,
                          trials=2)
    spec.to_yaml(str(config))
    config.write_text(config.read_text().replace("budget: 1000", "budget: 1000.0"))
    code, _, err = run_cli(capsys, "bench", "--config", str(config),
                           "--csv-out", str(tmp_path / "r.csv"),
                           "--svg-out", str(tmp_path / "r.svg"))
    assert code == 2
    assert "budget must be an integer" in err and "trial" not in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_bench_nonpositive_trials_is_usage_error(tmp_path, capsys, trials):
    config = tmp_path / "exp.yaml"
    ExperimentSpec(objective="sphere", dimension=2, methods=["liso"], budget=100,
                   seed=1, alpha0=1.0, q0_center=[0.5, 0.5], q0_variance=1.0,
                   trials=2).to_yaml(str(config))
    code, _, err = run_cli(capsys, "bench", "--config", str(config), "--trials", trials,
                           "--csv-out", str(tmp_path / "r.csv"),
                           "--svg-out", str(tmp_path / "r.svg"))
    assert code == 2
    assert "trials must be >= 1" in err
    assert not (tmp_path / "r.csv").exists()


def test_bench_isotropic_es_batch_of_one_is_usage_error(tmp_path, capsys):
    config = tmp_path / "exp.yaml"
    config.write_text(
        "objective: sphere\ndimension: 2\nmethods: [liso, isotropic_es]\n"
        "budget: 200\nseed: 1\nalpha0: 1.0\nq0_center: [0.5, 0.5]\n"
        "q0_variance: 1.0\ntrials: 2\nbatch_size: 1\n"
    )
    code, _, err = run_cli(capsys, "bench", "--config", str(config),
                           "--csv-out", str(tmp_path / "r.csv"),
                           "--svg-out", str(tmp_path / "r.svg"))
    assert code == 2
    assert "isotropic_es requires batch_size >= 2" in err and "trial" not in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("key,value", [("alpha0", ".inf"), ("q0_variance", ".inf"),
                                       ("sigma2", ".inf"), ("alpha0", ".nan")])
def test_bench_non_finite_number_is_usage_error(tmp_path, capsys, key, value):
    config = tmp_path / "exp.yaml"
    ExperimentSpec(objective="sphere", dimension=2, methods=["liso"], budget=100,
                   seed=1, alpha0=1.0, q0_center=[0.5, 0.5], q0_variance=1.0,
                   trials=2).to_yaml(str(config))
    text = "".join(line for line in config.read_text().splitlines(True)
                   if not line.startswith(f"{key}:"))
    config.write_text(text + f"{key}: {value}\n")
    code, _, err = run_cli(capsys, "bench", "--config", str(config),
                           "--csv-out", str(tmp_path / "r.csv"),
                           "--svg-out", str(tmp_path / "r.svg"))
    assert code == 2
    assert f"{key} must be finite" in err and "trial" not in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("key,value,message", [
    ("alpha0", "1" + "0" * 400, "alpha0 must be finite"),
    ("q0_center", f"[0.5, {10**400}]", "q0_center entries must be finite"),
    ("budget", str(10**30), "budget must be at most 2**63 - 1"),
    ("alpha0", "1.0e+308", "alpha0 is too large: its temperature at 100 evaluations is inf"),
    ("q0_variance", "0", "q0_variance must be positive"),
    ("q0_variance", "-1.0", "q0_variance must be positive"),
], ids=["alpha0", "q0_center", "budget", "alpha0_overflow", "q0_variance_zero", "q0_variance_negative"])
def test_bench_over_large_integer_is_usage_error(tmp_path, capsys, key, value, message):
    fields = {"objective": "sphere", "dimension": "2", "methods": "[liso]", "budget": "100",
              "seed": "1", "alpha0": "1.0", "q0_center": "[0.5, 0.5]", "q0_variance": "1.0",
              "trials": "2", key: value}
    config = tmp_path / "exp.yaml"
    config.write_text("".join(f"{k}: {v}\n" for k, v in fields.items()))
    code, _, err = run_cli(capsys, "bench", "--config", str(config),
                           "--csv-out", str(tmp_path / "r.csv"),
                           "--svg-out", str(tmp_path / "r.svg"))
    assert code == 2
    assert message in err and "trial" not in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("key,value,trials", [
    ("q0_center", "[1.0e+300, 1.0e+300]", 2), ("q0_center", "[1.0e+153, 1.0e+153]", 100),
    ("q0_variance", "1.0e+300", 2), ("sigma2", "1.0e+154", 2),
])
def test_bench_q0_whose_draws_overflow_is_usage_error(tmp_path, capsys, key, value, trials):
    # At a center of 1e300 the squared errors overflow; at 1e153, their sum
    # over 100 trials does; at a variance of 1e300 (or an adapted one of
    # 1e154), their squared deviations from the mean do.
    fields = {"objective": "sphere", "dimension": "2", "budget": "400", "seed": "1",
              "methods": "[liso, random_search, adaptive_liso]", "alpha0": "1.0",
              "q0_center": "[0.0, 0.0]", "q0_variance": "1.0", "trials": trials, key: value}
    config = tmp_path / "exp.yaml"
    config.write_text("".join(f"{k}: {v}\n" for k, v in fields.items()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "bench", "--config", str(config),
                               "--csv-out", str(tmp_path / "r.csv"),
                               "--svg-out", str(tmp_path / "r.svg"))
    assert code == 2 and not caught
    assert f"{key} is too large: its draws' squared norms reach" in err, err
    assert "derived seed" not in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("key,value", [("checkpoint_start", 0), ("checkpoint_count", -3)])
def test_bench_nonpositive_checkpoint_field_is_usage_error(tmp_path, capsys, key, value):
    config = tmp_path / "exp.yaml"
    ExperimentSpec(objective="sphere", dimension=2, methods=["liso"], budget=100,
                   seed=1, alpha0=1.0, q0_center=[0.5, 0.5], q0_variance=1.0,
                   trials=2).to_yaml(str(config))
    default = {"checkpoint_start": 100, "checkpoint_count": 30}[key]
    text = config.read_text()
    assert f"\n{key}: {default}\n" in text  # replaced, not repeated: a repeated key is an error itself
    config.write_text(text.replace(f"\n{key}: {default}\n", f"\n{key}: {value}\n"))
    code, _, err = run_cli(capsys, "bench", "--config", str(config),
                           "--csv-out", str(tmp_path / "r.csv"),
                           "--svg-out", str(tmp_path / "r.svg"))
    assert code == 2
    assert f"{key} must be >= 1" in err and "trial" not in err
    assert not (tmp_path / "r.csv").exists()


def test_bench_svg_title_is_escaped(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LISOPT_WORKERS", "1")
    config = tmp_path / "exp.yaml"
    ExperimentSpec(objective="sphere", dimension=2, methods=["liso"], budget=200,
                   seed=1, alpha0=1.0, q0_center=[0.5, 0.5], q0_variance=1.0,
                   trials=2, checkpoint_start=50, checkpoint_count=4,
                   title="a < b & c > d").to_yaml(str(config))
    svg_path = tmp_path / "r.svg"
    code, _, _ = run_cli(capsys, "bench", "--config", str(config),
                         "--csv-out", str(tmp_path / "r.csv"), "--svg-out", str(svg_path))
    assert code == 0
    title = minidom.parse(str(svg_path)).getElementsByTagName("text")[0]
    assert title.firstChild.data == "a < b & c > d"


def test_bench_at_a_temperature_whose_products_overflow(tmp_path, capsys, monkeypatch):
    # alpha0 1e306 passes the temperature check, but alpha times a shifted
    # value overflows: that log-weight is -inf, the weight exactly 0 that the
    # unoverflowed product gives too, so the softmin picks the best point.
    monkeypatch.setenv("LISOPT_WORKERS", "1")  # a warning in a pool worker is not caught here
    methods = "[liso, random_search, adaptive_liso, adaptive_random_search]"
    fields = {"objective": "sphere", "dimension": "2", "methods": methods, "budget": "400",
              "seed": "1", "alpha0": "1.0e+306", "q0_center": "[0.5, 0.5]", "q0_variance": "1.0",
              "trials": "2"}
    config = tmp_path / "exp.yaml"
    config.write_text("".join(f"{k}: {v}\n" for k, v in fields.items()))
    csv = tmp_path / "r.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "bench", "--config", str(config),
                               "--csv-out", str(csv), "--svg-out", str(tmp_path / "r.svg"))
    assert code == 0 and not caught, err
    report = parse_csv(str(csv))
    assert report.methods["liso"] == report.methods["random_search"]
    assert report.methods["adaptive_liso"] == report.methods["adaptive_random_search"]


@pytest.mark.parametrize("key,value,message", [
    ("csv_out", "1", "csv_out must be a string, got 1"),
    ("svg_out", "[a, b]", "svg_out must be a string"),
    ("title", "7", "title must be a string"),
    ("objective", "[sphere]", "objective must be a string"),
    ("methods", "liso", "methods must be a list of method names, got 'liso'"),
])
def test_bench_mistyped_field_is_usage_error(tmp_path, capsys, key, value, message):
    fields = {"objective": "sphere", "dimension": "2", "methods": "[liso]", "budget": "100",
              "seed": "1", "alpha0": "1.0", "q0_center": "[0.5, 0.5]", "q0_variance": "1.0",
              "trials": "2", key: value}
    config = tmp_path / "exp.yaml"
    config.write_text("".join(f"{k}: {v}\n" for k, v in fields.items()))
    code, out, err = run_cli(capsys, "bench", "--config", str(config))
    assert code == 2
    assert message in err and "trial" not in err
    assert out == ""


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------

def test_oracle_tempered_mean_matches_frozen_value(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--fn", "quad-cubic",
                           "--alpha", "16")
    assert code == 0
    mean = float(out.split(":")[1])
    assert mean == pytest.approx(-0.0095115333, abs=1e-8)


def test_oracle_quadratic_mean_is_zero(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--fn", "quadratic",
                           "--alpha", "8")
    assert code == 0
    assert float(out.split(":")[1]) == pytest.approx(0.0, abs=1e-10)


def test_oracle_gaps_decrease(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--fn", "quad-cubic",
                           "--alphas", "4,8,16,32")
    assert code == 0
    gaps = [float(line.split("gap=")[1]) for line in out.splitlines()]
    assert len(gaps) == 4
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_oracle_decreasing_alphas_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "oracle", "--fn", "quad-cubic",
                         "--alphas", "16,8")
    assert code == 2


def test_oracle_infinite_alpha_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "oracle", "--fn", "quad-cubic",
                             "--alpha", "inf", "--grid", "101")
    assert code == 2
    assert "alpha must be positive and finite" in err and not out


@pytest.mark.parametrize("alphas", ["1,x", "1,inf", pytest.param("", id="empty")])
def test_oracle_bad_alphas_names_the_flag(capsys, alphas):
    code, out, err = run_cli(capsys, "oracle", "--fn", "quad-cubic", "--alphas", alphas)
    assert code == 2
    assert f"--alphas must be comma-separated finite numbers, got '{alphas}'" in err
    assert not out


# ----------------------------------------------------------------------
# slope
# ----------------------------------------------------------------------

def synthetic_csv(path):
    ns = np.unique(np.geomspace(100, 10000, 10).astype(int))
    lines = ["method,n_evals,mean_mse,std,ci_half_width,trials"]
    for n in ns:
        mse = 3.0 * float(n) ** -0.5
        lines.append(f"m,{n},{mse!r},0.0,0.0,5")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_slope_recovers_power_law(tmp_path, capsys):
    path = tmp_path / "r.csv"
    synthetic_csv(str(path))
    code, out, _ = run_cli(capsys, "slope", "--csv", str(path),
                           "--method", "m")
    assert code == 0
    slope = float(out.split("slope=")[1].split()[0])
    assert slope == pytest.approx(-0.5, abs=1e-9)


def test_slope_zero_max_n_fits_no_checkpoint(tmp_path, capsys):
    path = tmp_path / "r.csv"
    synthetic_csv(str(path))
    code, out, err = run_cli(capsys, "slope", "--csv", str(path), "--method", "m",
                             "--max-n", "0")
    assert code == 2 and not out
    assert "need at least 5 checkpoints in the fit range" in err


def test_slope_nan_min_n_is_usage_error_naming_n_range(tmp_path, capsys):
    path = tmp_path / "r.csv"
    synthetic_csv(str(path))
    code, out, err = run_cli(capsys, "slope", "--csv", str(path), "--method", "m", "--min-n", "nan")
    assert code == 2 and not out
    assert err == "error: n_range must not be NaN, got nan\n"


def test_slope_refuses_a_non_finite_mean(tmp_path, capsys):
    path = tmp_path / "r.csv"
    synthetic_csv(str(path))
    lines = path.read_text().splitlines()
    row = lines[3].split(",")
    lines[3] = ",".join(row[:2] + ["inf"] + row[3:])
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "slope", "--csv", str(path), "--method", "m")
    assert code == 2 and not out and not caught
    assert "mean MSE must be positive and finite throughout the fit range" in err


@pytest.mark.parametrize("field, value", [("mean_mse", "x"), ("n_evals", "1.5"), ("trials", "4"),
                                          ("n_evals", "0"), ("n_evals", "-100"), ("n_evals", str(2**63))])
def test_slope_names_the_file_and_row_of_a_malformed_row(tmp_path, capsys, field, value):
    path = tmp_path / "r.csv"
    synthetic_csv(str(path))
    lines = path.read_text().splitlines()
    row = lines[3].split(",")
    row[lines[0].split(",").index(field)] = value
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "slope", "--csv", str(path), "--method", "m")
    assert code == 2 and not out
    assert f"error: {path}: malformed row {lines[3]!r}" in err


@pytest.mark.parametrize("case", ["zero_trials", "repeated_n_evals"])
def test_slope_names_a_row_that_emit_csv_never_writes(tmp_path, capsys, case):
    path = tmp_path / "r.csv"
    synthetic_csv(str(path))
    lines = path.read_text().splitlines()
    if case == "zero_trials":  # in every row, so that none disagrees with the first
        lines[1:] = [line.rsplit(",", 1)[0] + ",0" for line in lines[1:]]
        bad = lines[1]
    else:  # the same checkpoint twice, which a fit would count twice
        bad = lines[3]
        lines.append(bad)
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "slope", "--csv", str(path), "--method", "m")
    assert code == 2 and not out
    assert f"error: {path}: malformed row {bad!r}" in err


def test_slope_csv_that_is_a_directory_is_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "slope", "--csv", str(tmp_path), "--method", "m")
    assert code == 2 and out == ""
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_slope_missing_csv_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing.csv"
    code, out, err = run_cli(capsys, "slope", "--csv", str(path), "--method", "m")
    assert code == 2 and out == ""
    assert err == f"error: cannot read {path}: No such file or directory\n"


def test_slope_unknown_method_is_usage_error(tmp_path, capsys):
    path = tmp_path / "r.csv"
    synthetic_csv(str(path))
    code, _, err = run_cli(capsys, "slope", "--csv", str(path),
                           "--method", "nope")
    assert code == 2
    assert "error:" in err


# ----------------------------------------------------------------------
# shipped configuration files
# ----------------------------------------------------------------------

def test_all_shipped_configs_parse():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml")))
    assert len(paths) == 24
    for path in paths:
        spec = ExperimentSpec.from_yaml(path)
        assert spec.dimension in (2, 4, 8, 12)
        assert spec.trials == 100

"""Command-line behavior: exit statuses, overrides, and reproducible outputs."""

import dataclasses
import json
import math
import subprocess
import sys

import pytest

from nearfocus import cli
from nearfocus.cli import main
from nearfocus.config import ConfigError, parse_config

BASE = """\
frequency: 6 GHz
num_elements: 40
spacing: 2.27 lambda
focal_distance: 200 lambda
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "experiment.yaml"
    path.write_text(BASE)
    return path


def test_successful_run_writes_table_and_summary(tmp_path, config_path, capsys):
    out = tmp_path / "results"
    code = main(["optimal-spacing", "--config", str(config_path), "--output", str(out)])
    assert code == 0
    assert (out / "optimal-spacing.csv").exists()
    summary = json.loads((out / "optimal-spacing_summary.json").read_text())
    assert summary["optimal_spacing_over_lambda"] == pytest.approx(5.0**0.5, rel=1e-9)
    stdout = capsys.readouterr().out
    assert "optimal_spacing_over_lambda" in stdout


def test_format_flag_overrides_config(tmp_path, config_path):
    out = tmp_path / "results"
    code = main(["optimal-spacing", "--config", str(config_path), "--output", str(out), "--format", "json"])
    assert code == 0
    payload = json.loads((out / "optimal-spacing.json").read_text())
    assert payload["columns"][0] == "null_index"


def test_missing_config_exits_one(tmp_path, capsys):
    code = main(["scan", "--config", str(tmp_path / "nope.yaml")])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["exit_status"] == 1


def test_config_error_exits_one_with_record(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(BASE + "spacing_mm: 4\n")
    code = main(["scan", "--config", str(bad)])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert "spacing_mm" in record["message"]
    assert "line 5" in record["message"]


@pytest.mark.parametrize(
    "extra, key, experiment",
    [
        ("frequency: .inf\n", "frequency", "scan"),
        ("spacing: .inf\n", "spacing", "gain-profile"),
        ("focal_distance: .inf\n", "focal_distance", "optimal-spacing"),
        ("axial:\n  z_max: .inf\n", "axial.z_max", "axial"),
    ],
    ids=["frequency", "spacing", "focal_distance", "axial-z_max"],
)
def test_non_finite_value_exits_one_with_record(tmp_path, capsys, extra, key, experiment):
    lines = [l for l in BASE.splitlines(keepends=True) if l.split(":")[0] != extra.split(":")[0]]
    bad = tmp_path / "bad.yaml"
    bad.write_text("".join(lines) + extra)
    out = tmp_path / "o"
    code = main([experiment, "--config", str(bad), "--output", str(out)])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "ConfigError", "message": record["message"], "exit_status": 1}
    assert record["message"].startswith(f"{key} (line ")
    assert "finite" in record["message"]
    assert not out.exists()


def test_frequency_with_infinite_wavelength_exits_one(tmp_path):
    # a subprocess, so stderr is exactly what a shell would see, warnings included
    bad = tmp_path / "bad.yaml"
    bad.write_text(BASE.replace("frequency: 6 GHz", "frequency: 1e-300 Hz"))
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "nearfocus.cli", "gain-profile", "--config", str(bad), "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("frequency (line 1): wavelength must be finite")
    assert "RuntimeWarning" not in proc.stderr
    assert not out.exists()


def test_integer_too_large_for_a_float_exits_one_naming_the_key(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(BASE.replace("num_elements: 40", f"num_elements: {10**400}"))
    out = tmp_path / "o"
    code = main(["optimal-spacing", "--config", str(bad), "--output", str(out)])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError" and record["exit_status"] == 1
    assert record["message"].startswith("num_elements (line 2): num_elements must be an integer of at least 1")
    assert not out.exists()


def test_unexpected_error_exits_two_without_traceback(tmp_path, config_path, capsys, monkeypatch):
    def broken(config):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "run_experiment", broken)
    code = main(["scan", "--config", str(config_path), "--output", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err) == {"error": "ZeroDivisionError", "message": "float division by zero", "exit_status": 2}
    assert "Traceback" not in err


def test_non_finite_table_cell_exits_two(tmp_path, config_path, capsys, monkeypatch):
    run = cli.run_experiment

    def with_nan(config):
        table, summary = run(config)
        return dataclasses.replace(table, rows=table.rows + ((5.0, math.nan, 1.0),)), summary

    monkeypatch.setattr(cli, "run_experiment", with_nan)
    out = tmp_path / "o"
    code = main(["optimal-spacing", "--config", str(config_path), "--output", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError" and "not finite" in record["message"]
    assert not (out / "optimal-spacing.csv").exists()


def test_domain_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "axial.yaml"
    bad.write_text(BASE + "axial:\n  z_min: 300 lambda\n  z_max: 400 lambda\n")
    code = main(["axial", "--config", str(bad), "--output", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["exit_status"] == 2


def test_experiment_argument_overrides_config_value(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(BASE + "experiment: scan\n")
    out = tmp_path / "o"
    code = main(["optimal-spacing", "--config", str(path), "--output", str(out)])
    assert code == 0
    assert (out / "optimal-spacing.csv").exists()


def test_seed_flag_lands_in_metadata(tmp_path, config_path):
    out = tmp_path / "o"
    code = main([
        "optimal-spacing", "--config", str(config_path),
        "--output", str(out), "--format", "json", "--seed", "77",
    ])
    assert code == 0
    payload = json.loads((out / "optimal-spacing.json").read_text())
    assert payload["metadata"]["seed"] == 77


def test_cli_reruns_are_byte_identical(tmp_path, config_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["scan", "--config", str(config_path), "--output", str(out)]) == 0
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()
    assert (out1 / "scan_summary.json").read_bytes() == (out2 / "scan_summary.json").read_bytes()


def test_console_entry_point_runs(tmp_path, config_path):
    out = tmp_path / "o"
    proc = subprocess.run(
        [
            sys.executable, "-m", "nearfocus.cli",
            "optimal-spacing", "--config", str(config_path), "--output", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "optimal-spacing.csv").exists()


def test_unknown_experiment_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["everything", "--config", "x.yaml"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, value, yaml_line",
    [("--seed", "-5", "seed: -5\n"), ("--output", "", "output:\n  directory: ''\n")],
    ids=["seed", "output"],
)
def test_flags_are_checked_like_their_keys(tmp_path, config_path, capsys, monkeypatch, flag, value, yaml_line):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code = main(["optimal-spacing", "--config", str(config_path), flag, value])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError" and record["exit_status"] == 1
    # the flag carries the message its YAML key gets from the schema
    with pytest.raises(ConfigError) as from_yaml:
        parse_config(BASE + yaml_line)
    key, _, message = str(from_yaml.value).partition(" (line ")
    assert record["message"] == f"{key} (command line): {message.partition('): ')[2]}"
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["everything", "--config", "x.yaml"], "argument experiment: invalid choice"),
        (["scan"], "the following arguments are required: --config"),
        (["scan", "--config", "x.yaml", "--seed", "abc"], "argument --seed: invalid int value"),
        (["scan", "--config", "x.yaml", "--format", "xml"], "argument --format: invalid choice"),
    ],
    ids=["experiment", "missing-config", "seed", "format"],
)
def test_usage_errors_print_one_json_record(capsys, argv, fragment):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.out == ""
    record = json.loads(lines[0])
    assert record["error"] == "ArgumentError" and record["exit_status"] == 2
    assert record["message"].startswith(fragment)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: nearfocus")

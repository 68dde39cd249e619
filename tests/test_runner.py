"""Experiment dispatch, table structure, and deterministic serialization."""

import csv
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from nearfocus import (
    parse_config,
    run_experiment,
    serialize_config,
    write_summary,
    write_table,
)

BASE = """\
frequency: 6 GHz
num_elements: 40
spacing: 2.27 lambda
focal_distance: 200 lambda
"""

FAST_SWEEP = "sweep:\n  start: 2.0 lambda\n  stop: 2.5 lambda\n  step: 0.05 lambda\n"


def config_for(experiment: str, extra: str = ""):
    return parse_config(BASE + f"experiment: {experiment}\n" + extra)


def test_requires_an_experiment_name():
    cfg = parse_config(BASE)
    with pytest.raises(ValueError):
        run_experiment(cfg)


def test_optimal_spacing_table():
    table, summary = run_experiment(config_for("optimal-spacing"))
    assert table.columns == ("null_index", "spacing_m", "spacing_over_lambda")
    assert len(table.rows) == 4
    assert table.rows[0][2] == pytest.approx(math.sqrt(5.0), rel=1e-12)
    assert table.rows[3][1] == pytest.approx(2.0 * table.rows[0][1], rel=1e-12)
    assert summary["optimal_spacing_over_lambda"] == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_dof_sweep_table():
    table, summary = run_experiment(config_for("dof-sweep", FAST_SWEEP))
    assert table.columns == (
        "spacing_m",
        "spacing_over_lambda",
        "effective_dof",
        "neighbor_gain",
        "is_best",
    )
    assert len(table.rows) == 11
    flags = [row[4] for row in table.rows]
    assert flags.count(1.0) == 1
    best_row = table.rows[flags.index(1.0)]
    assert best_row[2] == pytest.approx(summary["best_dof"], rel=1e-12)
    assert best_row[2] == max(row[2] for row in table.rows)
    assert all(0.0 <= row[3] <= 1.0 for row in table.rows)
    assert summary["closed_form_spacing_over_lambda"] == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_neighbor_gain_matches_scalar_ratio_of_sines():
    # the per-spacing scalar formula the vectorised column replaced, pole limit included
    cfg = config_for("dof-sweep", "sweep:\n  start: 0.1 lambda\n  stop: 4 lambda\n  step: 0.05 lambda\n")
    table, _ = run_experiment(cfg)
    n, lam = cfg.num_elements, cfg.wave.wavelength
    for row in table.rows:
        u = math.pi * row[0] * row[0] / (lam * cfg.focal_distance)
        if abs(math.sin(u)) < 1e-9:
            ratio = n * math.cos(n * u) / math.cos(u)
        else:
            ratio = math.sin(n * u) / math.sin(u)
        assert row[3] == pytest.approx((ratio / n) ** 2, rel=1e-12)


def test_gain_profile_table():
    table, summary = run_experiment(config_for("gain-profile"))
    assert table.columns == ("offset_m", "offset_over_lambda", "gain_exact_db", "gain_paraxial_db")
    offsets = [row[0] for row in table.rows]
    assert offsets[0] == pytest.approx(-offsets[-1])
    assert 0.0 in offsets
    exact_db = [row[2] for row in table.rows]
    assert max(exact_db) <= 1e-6
    assert max(exact_db) > -0.01
    assert summary["first_null_exact_m"] > 0.0
    assert summary["first_null_paraxial_m"] > 0.0
    assert summary["peak_gain_paraxial"] == pytest.approx(40.0, rel=1e-9)


def test_scan_table():
    table, summary = run_experiment(config_for("scan"))
    assert table.columns == ("target_x_m", "peak_x_m", "position_error_m", "peak_db", "lobe_count")
    assert len(table.rows) == 5
    assert max(row[3] for row in table.rows) == pytest.approx(0.0, abs=1e-12)
    assert summary["max_position_error_m"] == pytest.approx(
        max(abs(row[2]) for row in table.rows), rel=1e-12
    )
    assert summary["peak_spread_db"] < 1.0


def test_axial_table():
    table, summary = run_experiment(config_for("axial", "axial:\n  samples: 801\n"))
    assert table.columns == ("z_m", "z_over_lambda", "magnitude_db")
    assert len(table.rows) == 801
    assert summary["focal_shift_m"] == pytest.approx(
        parse_config(BASE).focal_distance - summary["z_peak_m"], rel=1e-12
    )


def test_metadata_echoes_resolved_config():
    cfg = config_for("optimal-spacing", "seed: 5\n")
    table, _ = run_experiment(cfg)
    md = table.metadata
    assert md["tool"] == "nearfocus"
    assert md["experiment"] == "optimal-spacing"
    assert md["num_elements"] == 40
    assert md["seed"] == 5
    assert md["config_sha256"] == hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


class TestWriteTable:
    def test_csv_layout_and_values(self, tmp_path):
        table, _ = run_experiment(config_for("optimal-spacing"))
        path = write_table(table, "csv", tmp_path / "t.csv")
        text = path.read_text()
        assert text.startswith("# tool = nearfocus")
        assert "\r" not in text
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        reader = csv.reader(lines)
        header = next(reader)
        assert tuple(header) == table.columns
        parsed = [tuple(float(v) for v in row) for row in reader]
        assert parsed == [tuple(row) for row in table.rows]

    def test_json_mirrors_table(self, tmp_path):
        table, _ = run_experiment(config_for("optimal-spacing"))
        path = write_table(table, "json", tmp_path / "t.json")
        payload = json.loads(path.read_text())
        assert payload["columns"] == list(table.columns)
        assert payload["rows"] == [list(row) for row in table.rows]
        assert payload["metadata"]["config_sha256"] == table.metadata["config_sha256"]

    def test_reruns_are_byte_identical(self, tmp_path):
        for fmt in ("csv", "json"):
            cfg = config_for("scan")
            t1, s1 = run_experiment(cfg)
            t2, s2 = run_experiment(cfg)
            p1 = write_table(t1, fmt, tmp_path / f"a.{fmt}")
            p2 = write_table(t2, fmt, tmp_path / f"b.{fmt}")
            assert p1.read_bytes() == p2.read_bytes()
            assert s1 == s2

    def test_unknown_format_rejected(self, tmp_path):
        table, _ = run_experiment(config_for("optimal-spacing"))
        with pytest.raises(ValueError):
            write_table(table, "xml", tmp_path / "t.xml")

    def test_json_rejects_non_finite_values(self, tmp_path):
        table, _ = run_experiment(config_for("optimal-spacing"))
        bad = dataclasses.replace(table, rows=table.rows + ((5.0, math.nan, math.inf),))
        with pytest.raises(ValueError):
            write_table(bad, "json", tmp_path / "t.json")
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_csv_rejects_non_finite_values(self, tmp_path, bad):
        table, _ = run_experiment(config_for("optimal-spacing"))
        row = (5.0, 1.0, bad)
        with pytest.raises(ValueError, match="spacing_over_lambda of row 4 is not finite"):
            write_table(dataclasses.replace(table, rows=table.rows + (row,)), "csv", tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    def test_write_failure_names_path(self, tmp_path):
        table, _ = run_experiment(config_for("optimal-spacing"))
        bad = tmp_path / "missing_dir" / "t.csv"
        with pytest.raises(OSError, match="missing_dir"):
            write_table(table, "csv", bad)


def test_summary_sidecar_round_trips(tmp_path):
    _, summary = run_experiment(config_for("optimal-spacing"))
    path = write_summary(summary, tmp_path / "s.json")
    assert json.loads(path.read_text()) == summary


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_summary_rejects_non_finite_values(tmp_path, bad):
    with pytest.raises(ValueError):
        write_summary({"focal_shift_m": bad}, tmp_path / "s.json")
    assert not (tmp_path / "s.json").exists()


def test_full_precision_floats_survive_csv(tmp_path):
    table, _ = run_experiment(config_for("axial", "axial:\n  samples: 11\n"))
    path = write_table(table, "csv", tmp_path / "t.csv")
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    first_row = lines[1].split(",")
    assert float(first_row[0]) == table.rows[0][0]
    assert repr(float(first_row[2])) == first_row[2]

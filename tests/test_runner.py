"""Experiment dispatch, table structure, and deterministic serialization."""

import csv
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from nearfocus import (
    axial_profile,
    dof_sweep,
    gain_exact,
    gain_paraxial,
    optimal_spacing,
    parse_config,
    run_experiment,
    scan_focal_points,
    serialize_config,
    write_summary,
    write_table,
)
from nearfocus import runner

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
    with pytest.raises(ValueError, match="unknown experiment 'nope'"):
        run_experiment(dataclasses.replace(cfg, experiment="nope"))


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
    offsets = np.array([row[0] for row in table.rows])
    assert np.array_equal(offsets[::-1], -offsets)
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


def db(values, reference, per_decade):
    return [per_decade * math.log10(v / reference) for v in values]


def library_columns(cfg):
    """The library values each column reports, computed here from the same config."""
    lam, n, z0 = cfg.wave.wavelength, cfg.num_elements, cfg.focal_distance
    if cfg.experiment == "optimal-spacing":
        spacings = [optimal_spacing(n, z0, cfg.wave, n=i) for i in (1, 2, 3, 4)]
        return {"null_index": [1, 2, 3, 4], "spacing_m": spacings, "spacing_over_lambda": [d / lam for d in spacings]}
    if cfg.experiment == "dof-sweep":
        # FAST_SWEEP: 11 spacings from 2 lambda in steps of 0.05 lambda
        sweep = dof_sweep(cfg.scenario(), np.linspace(cfg.sweep_start, cfg.sweep_start + 10 * cfg.sweep_step, 11))
        return {
            "spacing_m": sweep.spacings,
            "spacing_over_lambda": [d / lam for d in sweep.spacings],
            "effective_dof": sweep.dof_curve,
        }
    if cfg.experiment == "gain-profile":
        n_side = round(cfg.gain_span / cfg.gain_step)
        offsets = np.arange(-n_side, n_side + 1, dtype=float) * cfg.gain_step
        exact = gain_exact(cfg.scenario().tx, z0, offsets)
        parax = gain_paraxial(n, cfg.spacing, z0, cfg.wave, offsets)
        return {
            "offset_m": exact.offsets,
            "offset_over_lambda": [o / lam for o in offsets],
            "gain_exact_db": db(exact.gain, exact.peak_gain, 10.0),
            "gain_paraxial_db": db(parax.gain, parax.peak_gain, 10.0),
        }
    if cfg.experiment == "scan":
        report = scan_focal_points(cfg.scenario(), np.asarray(cfg.scan_targets), cfg.scan_resolution)
        mags = [m for _, m in report.achieved_peaks]
        return {
            "target_x_m": report.focal_targets,
            "peak_x_m": [x for x, _ in report.achieved_peaks],
            "position_error_m": report.position_errors,
            "peak_db": db(mags, max(mags), 20.0),
            "lobe_count": report.lobe_counts,
        }
    profile = axial_profile(cfg.scenario(), (cfg.axial_z_min, cfg.axial_z_max), samples=cfg.axial_samples)
    return {
        "z_m": profile.z_samples,
        "z_over_lambda": [z / lam for z in profile.z_samples],
        "magnitude_db": db(profile.magnitude, max(profile.magnitude), 20.0),
    }


@pytest.mark.parametrize(
    "experiment, extra",
    [("optimal-spacing", ""), ("dof-sweep", FAST_SWEEP), ("gain-profile", ""), ("scan", ""),
     ("axial", "axial:\n  samples: 801\n")],
)
def test_columns_equal_the_library_values_they_report(experiment, extra):
    cfg = config_for(experiment, extra)
    table, summary = run_experiment(cfg)
    columns = {name: [row[i] for row in table.rows] for i, name in enumerate(table.columns)}
    assert all(type(row) is tuple and all(type(v) is float for v in row) for row in table.rows)
    expected = library_columns(cfg)
    assert set(expected) <= set(table.columns)
    for name, values in expected.items():
        assert columns[name] == [float(v) for v in values], name
    if experiment == "dof-sweep":
        best = columns["spacing_m"].index(summary["best_spacing_m"])
        assert columns["is_best"] == [float(i == best) for i in range(len(table.rows))]


def test_short_column_raises(monkeypatch):
    def short(config):
        return {"a": [1.0, 2.0, 3.0], "b": np.array([1.0, 2.0])}, {}

    monkeypatch.setitem(runner._RUNNERS, "scan", short)
    with pytest.raises(ValueError, match="shorter"):
        run_experiment(config_for("scan"))


def test_grids_stay_within_their_configured_end():
    # 3.9 / 0.7 and 1 / 0.6 are not whole: the grids stop at the last step inside the end
    sweep = "sweep:\n  start: 0.1 lambda\n  stop: 4 lambda\n  step: 0.7 lambda\n"
    table, summary = run_experiment(config_for("dof-sweep", sweep))
    assert [row[1] for row in table.rows] == pytest.approx([0.1, 0.8, 1.5, 2.2, 2.9, 3.6], rel=1e-12)
    assert summary["best_spacing_over_lambda"] <= 4.0
    table, _ = run_experiment(config_for("gain-profile", "gain:\n  span: 1 lambda\n  step: 0.6 lambda\n"))
    assert [row[1] for row in table.rows] == pytest.approx([-0.6, 0.0, 0.6], rel=1e-12)
    # 0.3 lambda / 0.1 lambda is 2.999999999999999 in floats; float noise keeps the end sample
    table, _ = run_experiment(config_for("gain-profile", "gain:\n  span: 0.3 lambda\n  step: 0.1 lambda\n"))
    assert [row[1] for row in table.rows] == pytest.approx([-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3], abs=1e-12)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_rejects_non_finite_values(self, tmp_path, bad):
        table, _ = run_experiment(config_for("optimal-spacing"))
        row = (5.0, 1.0, bad)
        with pytest.raises(ValueError, match="spacing_over_lambda of row 4 is not finite"):
            write_table(dataclasses.replace(table, rows=table.rows + (row,)), "json", tmp_path / "t.json")
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
        with pytest.raises(OSError, match="cannot write summary to .*missing_dir"):
            write_summary({"focal_shift_m": 0.0}, bad.with_name("s.json"))


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

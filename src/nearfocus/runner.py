"""Experiment dispatch: resolved configs in, deterministic result tables out."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, serialize_config
from .dof import dof_sweep, optimal_spacing
from .focusing import _sine_ratio, _symmetric_grid, axial_profile, gain_exact, gain_paraxial, scan_focal_points

_TINY = 1e-300  # keeps logs finite when a sampled profile value underflows to zero


@dataclass(frozen=True)
class ResultTable:
    """Rectangular numeric result with named columns and run metadata."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    metadata: dict


def _metadata(config: ExperimentConfig) -> dict:
    # the hash identifies the experiment content; where results are written
    # must not change it, so output fields are normalized before hashing
    canonical = dataclasses.replace(config, output_dir="out", output_format="csv")
    md = {
        "tool": "nearfocus",
        "version": __version__,
        "experiment": config.experiment,
        "config_sha256": hashlib.sha256(serialize_config(canonical).encode()).hexdigest(),
        "frequency_hz": config.frequency,
        "wavelength_m": config.wave.wavelength,
        "num_elements": config.num_elements,
        "spacing_m": config.spacing,
        "focal_distance_m": config.focal_distance,
        "pattern": config.pattern.value,
        "rx_num": config.rx_num,
        "rx_spacing_m": config.rx_spacing,
    }
    if config.seed is not None:
        md["seed"] = config.seed
    return md


def _db(value: float, reference: float, per_decade: float) -> float:
    """``per_decade`` is 10 for a power ratio and 20 for a field ratio."""
    return per_decade * math.log10(max(value, _TINY) / reference)


def _run_optimal_spacing(config: ExperimentConfig):
    wave = config.wave
    rows = []
    for n in (1, 2, 3, 4):
        d = optimal_spacing(config.num_elements, config.focal_distance, wave, n=n)
        rows.append((float(n), d, d / wave.wavelength))
    best = rows[0][1]
    summary = {
        "optimal_spacing_m": best,
        "optimal_spacing_over_lambda": best / wave.wavelength,
        "num_elements": config.num_elements,
        "focal_distance_m": config.focal_distance,
    }
    return ("null_index", "spacing_m", "spacing_over_lambda"), rows, summary


def _run_dof_sweep(config: ExperimentConfig):
    wave = config.wave
    npts = int(round((config.sweep_stop - config.sweep_start) / config.sweep_step)) + 1
    spacings = np.linspace(
        config.sweep_start,
        config.sweep_start + (npts - 1) * config.sweep_step,
        npts,
    )
    sweep = dof_sweep(config.scenario(), spacings)
    # Normalized paraxial gain seen at the adjacent element offset delta = d;
    # the DoF maximum is expected where this response falls into its first null.
    u = np.pi * sweep.spacings * sweep.spacings / (wave.wavelength * config.focal_distance)
    neighbor_gains = (_sine_ratio(config.num_elements, u) / config.num_elements) ** 2
    rows = [
        (
            float(d),
            float(d / wave.wavelength),
            float(ne),
            float(g),
            1.0 if d == sweep.best_spacing else 0.0,
        )
        for d, ne, g in zip(sweep.spacings, sweep.dof_curve, neighbor_gains)
    ]
    closed_form = optimal_spacing(config.num_elements, config.focal_distance, wave)
    summary = {
        "best_spacing_m": sweep.best_spacing,
        "best_spacing_over_lambda": sweep.best_spacing / wave.wavelength,
        "best_dof": sweep.best_dof,
        "closed_form_spacing_m": closed_form,
        "closed_form_spacing_over_lambda": closed_form / wave.wavelength,
    }
    columns = ("spacing_m", "spacing_over_lambda", "effective_dof", "neighbor_gain", "is_best")
    return columns, rows, summary


def _run_gain_profile(config: ExperimentConfig):
    wave = config.wave
    scenario = config.scenario()
    offsets = _symmetric_grid(max(1, round(config.gain_span / config.gain_step)), config.gain_step)
    exact = gain_exact(scenario.tx, config.focal_distance, offsets)
    parax = gain_paraxial(
        config.num_elements, config.spacing, config.focal_distance, wave, offsets
    )
    rows = [
        (
            float(o),
            float(o / wave.wavelength),
            _db(ge, exact.peak_gain, 10.0),
            _db(gp, parax.peak_gain, 10.0),
        )
        for o, ge, gp in zip(offsets, exact.gain, parax.gain)
    ]
    summary = {
        "peak_offset_m": exact.peak_offset,
        "peak_gain_exact": exact.peak_gain,
        "peak_gain_paraxial": parax.peak_gain,
        "first_null_exact_m": exact.first_positive_null,
        "first_null_paraxial_m": parax.first_positive_null,
    }
    columns = ("offset_m", "offset_over_lambda", "gain_exact_db", "gain_paraxial_db")
    return columns, rows, summary


def _run_scan(config: ExperimentConfig):
    scenario = config.scenario()
    report = scan_focal_points(
        scenario, np.asarray(config.scan_targets), strip_resolution=config.scan_resolution
    )
    reference = max(m for _, m in report.achieved_peaks)
    rows = [
        (
            float(xt),
            float(xp),
            float(err),
            _db(mag, reference, 20.0),
            float(count),
        )
        for xt, (xp, mag), err, count in zip(
            report.focal_targets,
            report.achieved_peaks,
            report.position_errors,
            report.lobe_counts,
        )
    ]
    summary = {
        "max_position_error_m": float(np.max(np.abs(report.position_errors))),
        "peak_spread_db": report.peak_spread_db,
        "total_lobes": int(sum(report.lobe_counts)),
        "strip_half_extent_m": 0.5 * scenario.strip_extent,
    }
    columns = ("target_x_m", "peak_x_m", "position_error_m", "peak_db", "lobe_count")
    return columns, rows, summary


def _run_axial(config: ExperimentConfig):
    wave = config.wave
    profile = axial_profile(
        config.scenario(),
        (config.axial_z_min, config.axial_z_max),
        samples=config.axial_samples,
    )
    reference = float(np.max(profile.magnitude))
    rows = [
        (float(z), float(z / wave.wavelength), _db(float(m), reference, 20.0))
        for z, m in zip(profile.z_samples, profile.magnitude)
    ]
    summary = {
        "z_peak_m": profile.z_peak,
        "z_peak_over_lambda": profile.z_peak / wave.wavelength,
        "focal_shift_m": profile.focal_shift,
        "focal_shift_over_lambda": profile.focal_shift / wave.wavelength,
    }
    columns = ("z_m", "z_over_lambda", "magnitude_db")
    return columns, rows, summary


_RUNNERS = {
    "optimal-spacing": _run_optimal_spacing,
    "dof-sweep": _run_dof_sweep,
    "gain-profile": _run_gain_profile,
    "scan": _run_scan,
    "axial": _run_axial,
}


def run_experiment(config: ExperimentConfig) -> tuple[ResultTable, dict]:
    """Run the experiment named in the config; returns the table and a summary.

    The summary carries the headline scalars of the run; the table holds the
    plot-ready samples. Both are fully determined by the config, so repeated
    runs produce identical values.
    """
    if config.experiment is None:
        raise ValueError("config does not name an experiment to run")
    if config.experiment not in _RUNNERS:
        raise ValueError(f"unknown experiment {config.experiment!r}")
    columns, rows, summary = _RUNNERS[config.experiment](config)
    table = ResultTable(
        columns=tuple(columns),
        rows=tuple(tuple(row) for row in rows),
        metadata=_metadata(config),
    )
    return table, summary


def write_table(table: ResultTable, fmt: str, destination) -> Path:
    """Write a result table as CSV or JSON; reruns are byte-identical.

    CSV carries the metadata as leading comment lines, then a header row and
    one line per row with full-precision floats. JSON mirrors the table as
    {"metadata", "columns", "rows"}. Both formats reject NaN and infinite
    values with ``ValueError`` before anything is written.
    """
    path = Path(destination)
    if fmt == "csv":
        for i, row in enumerate(table.rows):
            for column, value in zip(table.columns, row):
                if not math.isfinite(value):
                    raise ValueError(f"CSV cell {column} of row {i} is not finite: {value!r}")
        lines = [f"# {key} = {value}" for key, value in table.metadata.items()]
        lines.append(",".join(table.columns))
        lines.extend(",".join(map(str, row)) for row in table.rows)
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "metadata": table.metadata,
            "columns": list(table.columns),
            "rows": [list(row) for row in table.rows],
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}; use csv or json")
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write table to {path}: {exc}") from exc
    return path


def write_summary(summary: dict, destination) -> Path:
    """Write the headline scalars of a run as a small JSON document."""
    path = Path(destination)
    try:
        path.write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write summary to {path}: {exc}") from exc
    return path

"""The benchmark's three workloads: inputs from the seed, one op, its check.

Each workload builds its fixed inputs when constructed, draws the fresh
inputs of every op from the workload seed in ``draw``, runs one op against
the public nearfocus API or CLI in ``run`` and judges the op's result in
``check``, which returns ``None`` when it passes or the reason it failed.
``check`` runs outside the timed region and compares against the
independent oracles of ``tests/_oracles.py`` or against reference values
frozen in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import nearfocus
from nearfocus import ArraySpec, ElementPattern, FocusScenario, wave_from_frequency

HERE = Path(__file__).resolve().parent
WAVE = wave_from_frequency(6e9)
LAM = WAVE.wavelength

PEAK_TOL_WL = 1e-3  # achieved scan peak against the continuous-field oracle
DOF_REL_TOL = 1e-8  # Gram-eigenvalue DoF against the SVD participation ratio
SUMMARY_REL_TOL = 1e-6  # frozen-value tolerance of tests/test_acceptance.py
LENGTH_ABS_TOL_WL = 1e-9  # lengths near zero, where a relative bound is meaningless


class ScanLarge:
    """Focal scan of a 1024-element isotropic array at its optimal spacing."""

    name = "scan_large"
    runs_children = False

    def __init__(self, root: Path, seed: int, scratch: Path, tiny: bool = False):
        self.num = 64 if tiny else 1024
        self.z0 = 200.0 * LAM
        self.spacing = nearfocus.optimal_spacing(self.num, self.z0, WAVE)
        tx = ArraySpec(wave=WAVE, num_elements=self.num, spacing=self.spacing)
        self.scenario = FocusScenario(tx=tx, focal_distance=self.z0)
        self.half = 0.5 * self.scenario.strip_extent
        self.resolution = 16
        self.num_targets = 5
        self.rng = np.random.default_rng(seed)

    def sizes(self) -> dict:
        n_side = math.ceil(self.half * self.resolution / LAM)
        return {
            "num_elements": self.num,
            "spacing_over_lambda": self.spacing / LAM,
            "focal_distance_over_lambda": self.z0 / LAM,
            "field_points": 2 * n_side + 1,
            "targets": self.num_targets,
            "strip_resolution": self.resolution,
            "pattern": "isotropic",
        }

    def draw(self) -> np.ndarray:
        # targets anywhere in the inner half of the strip
        return self.rng.uniform(-0.5 * self.half, 0.5 * self.half, self.num_targets)

    def run(self, targets, recorder=None):
        report = nearfocus.scan_focal_points(self.scenario, targets, strip_resolution=self.resolution)
        return [x for x, _ in report.achieved_peaks]

    def check(self, targets, peaks) -> str | None:
        from _oracles import true_peak_position

        # half the null spacing keeps the search bracket inside the main lobe
        bracket = 0.5 * LAM * self.z0 / (self.num * self.spacing)
        for xt, xp in zip(targets, peaks):
            x_ref = true_peak_position(
                self.num, self.spacing, WAVE.wavenumber, self.z0, float(xt), self.half, bracket
            )
            if not abs(xp - x_ref) <= PEAK_TOL_WL * LAM:
                return f"peak for target {xt / LAM:.6f} wl at {xp / LAM:.6f} wl, oracle {x_ref / LAM:.6f} wl"
        return None


class DofDesign:
    """Spacing sweep of a 128-element patch array plus one 1024-element DoF."""

    name = "dof_design"
    runs_children = False

    def __init__(self, root: Path, seed: int, scratch: Path, tiny: bool = False):
        self.sweep_num = 16 if tiny else 128
        self.big_num = 64 if tiny else 1024
        # the grid of configs/dof_sweep.yaml: 0.1 to 4 wavelengths in 0.01 steps
        start, stop, step = 0.1 * LAM, 4.0 * LAM, (0.1 if tiny else 0.01) * LAM
        npts = int(round((stop - start) / step)) + 1
        self.spacings = np.linspace(start, start + (npts - 1) * step, npts)
        self.sweep_tx = ArraySpec(
            wave=WAVE, num_elements=self.sweep_num, spacing=0.5 * LAM, pattern=ElementPattern.PATCH
        )
        self.big_tx = ArraySpec(
            wave=WAVE, num_elements=self.big_num, spacing=0.5 * LAM, pattern=ElementPattern.PATCH
        )
        self.rng = np.random.default_rng(seed)

    def sizes(self) -> dict:
        return {
            "sweep_num_elements": self.sweep_num,
            "sweep_spacings": len(self.spacings),
            "sweep_spacing_range_over_lambda": [self.spacings[0] / LAM, self.spacings[-1] / LAM],
            "dof_num_elements": self.big_num,
            "dof_spacing_over_lambda": 0.5,
            "focal_distance_range_over_lambda": [150.0, 250.0],
            "checked_sweep_spacings": 3,
            "pattern": "patch",
        }

    def draw(self) -> dict:
        return {
            "z0": float(self.rng.uniform(150.0, 250.0)) * LAM,
            "checked": sorted(int(i) for i in self.rng.choice(len(self.spacings), 3, replace=False)),
        }

    def _sweep_channel(self, z0: float, spacing: float):
        # the scenario dof_sweep builds at one spacing
        tx = ArraySpec(wave=WAVE, num_elements=self.sweep_num, spacing=spacing, pattern=ElementPattern.PATCH)
        return nearfocus.channel_matrix(
            FocusScenario(tx=tx, focal_distance=z0, rx_num=self.sweep_num, rx_spacing=spacing)
        )

    def run(self, inputs, recorder=None):
        z0 = inputs["z0"]
        sweep = nearfocus.dof_sweep(FocusScenario(tx=self.sweep_tx, focal_distance=z0), self.spacings)
        big = nearfocus.effective_dof(
            nearfocus.channel_matrix(FocusScenario(tx=self.big_tx, focal_distance=z0))
        ).effective_dof
        return {"curve": [float(v) for v in sweep.dof_curve], "dof": float(big)}

    def check(self, inputs, out) -> str | None:
        from _oracles import participation_ratio_svd

        z0 = inputs["z0"]
        curve = out["curve"]
        if not all(1.0 <= v <= self.sweep_num for v in curve):
            return f"sweep DoF outside [1, {self.sweep_num}]: {min(curve)!r}..{max(curve)!r}"
        big = nearfocus.channel_matrix(FocusScenario(tx=self.big_tx, focal_distance=z0))
        pairs = [(big, out["dof"], f"N={self.big_num} DoF")]
        for i in inputs["checked"]:
            d = float(self.spacings[i])
            pairs.append((self._sweep_channel(z0, d), curve[i], f"sweep DoF at {d / LAM:.2f} wl"))
        for channel, got, what in pairs:
            want = participation_ratio_svd(channel.entries)
            if not abs(got - want) <= DOF_REL_TOL * abs(want):
                return f"{what} {got!r} against SVD {want!r} at z0 = {z0 / LAM:.4f} wl"
        return None


class CliConfigs:
    """The five shipped configs, each run by ``nearfocus <experiment>`` in its own process."""

    name = "cli_configs"
    runs_children = True  # peak RSS is the largest child's

    def __init__(self, root: Path, seed: int, scratch: Path, tiny: bool = False):
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self.configs = []
        for path in sorted((root / "configs").glob("*.yaml")):
            config = nearfocus.parse_config(path.read_text())
            self.configs.append((config.experiment, config.output_format, path))
        self.reference = json.loads((HERE / "reference.json").read_text())["summaries"]
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.ops = 0
        self.first_digests = None

    def sizes(self) -> dict:
        return {"configs": [p.name for _, _, p in self.configs], "invocations": len(self.configs)}

    def draw(self) -> Path:
        self.ops += 1
        return self.scratch / f"op{self.ops}"

    def run(self, out_dir: Path, recorder=None):
        codes = {}
        for experiment, _, path in self.configs:
            argv = [experiment, "--config", str(path), "--output", str(out_dir), "--seed", str(self.seed)]
            if recorder is None:
                codes[experiment] = self._child([sys.executable, "-m", "nearfocus.cli", *argv])
                continue
            spans_path = out_dir / f"{experiment}.spans.json"
            with recorder.span("cli.proc") as proc:
                codes[experiment] = self._child(
                    [sys.executable, str(HERE / "launcher.py"), str(spans_path), str(int(recorder.memory)), *argv]
                )
            if spans_path.is_file():
                recorder.absorb(json.loads(spans_path.read_text()), proc)
        return codes

    def _child(self, cmd: list[str]) -> int:
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        return proc.returncode

    def check(self, out_dir: Path, codes) -> str | None:
        failed = {e: c for e, c in codes.items() if c != 0}
        if failed:
            return f"non-zero exit: {failed}"
        digests = {}
        for experiment, fmt, _ in self.configs:
            table = out_dir / f"{experiment}.{fmt}"
            summary = out_dir / f"{experiment}_summary.json"
            digests[table.name] = hashlib.sha256(table.read_bytes()).hexdigest()
            digests[summary.name] = hashlib.sha256(summary.read_bytes()).hexdigest()
            problem = compare_summary(json.loads(summary.read_text()), self.reference[experiment])
            if problem:
                return f"{experiment}: {problem}"
        # the README's rerun contract: every op writes the bytes the first op wrote
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            differ = sorted(k for k in digests if digests[k] != self.first_digests.get(k))
            return f"output differs from the run's first op: {differ}"
        return None


def compare_summary(got: dict, want: dict) -> str | None:
    """``None`` when a CLI summary matches its frozen reference, else the first mismatch."""
    if got.keys() != want.keys():
        return f"summary keys {sorted(got)} differ from {sorted(want)}"
    for key, ref in want.items():
        value = got[key]
        if isinstance(ref, float) and isinstance(value, float):
            close = abs(value - ref) <= SUMMARY_REL_TOL * abs(ref)
            if key.endswith("_m"):
                close = close or abs(value - ref) <= LENGTH_ABS_TOL_WL * LAM
            if not close:
                return f"{key} = {value!r}, reference {ref!r}"
        elif type(value) is not type(ref) or value != ref:
            return f"{key} = {value!r}, reference {ref!r}"
    return None


WORKLOADS = {w.name: w for w in (ScanLarge, DofDesign, CliConfigs)}

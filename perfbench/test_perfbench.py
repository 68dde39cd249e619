"""Self-tests of the benchmark: tiny smoke runs and the correctness gates.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

from workloads import LAM, CliConfigs, DofDesign, ScanLarge, compare_summary  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_the_metrics_of_benchmark_json(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)
        assert f"  {m['name']} = " in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_map_names_every_per_layer_metric():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    mapped = [name for layer in layer_map["layers"] for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for layer in layer_map["layers"]:
        for claim in layer["moves"] + layer["unmoved"]:
            assert claim["metric"] in end_to_end and claim["workload"] in WORKLOADS


def test_scan_gate_fails_a_peak_moved_by_a_hundredth_wavelength(tmp_path):
    workload = ScanLarge(ROOT, 11, tmp_path, tiny=True)
    targets = workload.draw()
    peaks = workload.run(targets)
    assert workload.check(targets, peaks) is None
    moved = [peaks[0] + 1e-2 * LAM, *peaks[1:]]
    assert "oracle" in workload.check(targets, moved)


def test_dof_gate_fails_a_perturbed_dof(tmp_path):
    workload = DofDesign(ROOT, 11, tmp_path, tiny=True)
    inputs = workload.draw()
    out = workload.run(inputs)
    assert workload.check(inputs, out) is None
    assert "SVD" in workload.check(inputs, {**out, "dof": out["dof"] * (1 + 1e-6)})
    curve = list(out["curve"])
    curve[inputs["checked"][0]] *= 1 + 1e-6
    assert "SVD" in workload.check(inputs, {**out, "curve": curve})
    curve = list(out["curve"])
    curve[0] = workload.sweep_num + 1.0
    assert "outside" in workload.check(inputs, {**out, "curve": curve})


def test_summary_gate_tolerances():
    ref = {"z_m": 1.0, "peak_offset_m": 1.7e-15, "gain": 40.0, "total_lobes": 10, "null_m": None}
    assert compare_summary(dict(ref), ref) is None
    assert compare_summary({**ref, "z_m": 1.0 + 1e-9}, ref) is None
    assert compare_summary({**ref, "peak_offset_m": 2e-11}, ref) is None
    assert compare_summary({**ref, "gain": 40.0 * (1 + 2e-6)}, ref) is not None
    assert compare_summary({**ref, "total_lobes": 11}, ref) is not None
    assert compare_summary({**ref, "total_lobes": 10.0}, ref) is not None
    assert compare_summary({**ref, "null_m": 0.1}, ref) is not None


def test_cli_gate_fails_output_that_differs_from_the_first_op(tmp_path):
    workload = CliConfigs(ROOT, 3, tmp_path, tiny=True)
    first = workload.draw()
    codes = workload.run(first)
    assert workload.check(first, codes) is None
    second = workload.draw()
    shutil.copytree(first, second)
    table = second / "scan.csv"
    table.write_text(table.read_text() + "\n")
    assert "differs" in workload.check(second, codes)
    assert "non-zero exit" in workload.check(second, {**codes, "scan": 2})

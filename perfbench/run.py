"""Benchmark of nearfocus: three workloads against the public API and CLI.

    python3 perfbench/run.py --workload scan_large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a checkout; it measures the ``src/`` next to it.
Each run starts one fresh worker process (worker.py) that sets up, runs ops
in a closed loop for ``--seconds`` and checks every op's result afterwards.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off; ``--trace 1`` reports its per-layer metrics from traced ops that
alternate with untraced ones. ``--workload all`` runs every workload both
ways. Every metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The run record (commit, versions, BLAS threads,
problem sizes) and, for traced runs, every span are written to
``perfbench/out/``. The exit status is 0 only when every op passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 11  # fresh processes per untraced run; set-up time is their median
RUN_BUDGET_S = 170.0  # a run must end within 180 s
COVERAGE_MIN = 0.9  # share of a traced op that its child spans must cover
COVERAGE_CHECKED = ("scan_large", "dof_design")


def _worker(workload: str, args, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    if args.tiny:
        cmd.append("--tiny")
    # a session of its own, so a timeout also ends the worker's children
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _layer_metrics(layer_ops: list[dict]) -> dict:
    """Per-layer figures: memory from the op that traced memory, the rest the
    median over the ops that traced time. A span no op recorded stays absent."""

    def medians(ops: list[dict]) -> dict:
        keys = set().union(*ops)
        return {k: statistics.median_low(op.get(k, 0) for op in ops) for k in keys}

    memory = medians([op["metrics"] for op in layer_ops if op["memory"]])
    values = medians([op["metrics"] for op in layer_ops if not op["memory"]])
    values.update({k: v for k, v in memory.items() if k.endswith(".alloc_peak_mb")})
    return values


def _unsteady_counts(layer_ops: list[dict]) -> list[str]:
    """Count figures that differ between traced ops; every op does the same work."""
    ops = [op["metrics"] for op in layer_ops]
    keys = {k for op in ops for k in op if k.endswith((".calls", ".elem_points", ".bytes"))}
    return sorted(k for k in keys if len({op.get(k) for op in ops}) > 1)


def run_workload(workload: str, trace: int, args, spec: dict) -> dict:
    """One run of one workload: prints its report and returns its result object."""
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{trace}"
    setup = []
    if not trace:
        # the first sample also compiles bytecode in a fresh checkout; it is discarded
        for i in range(SETUP_SAMPLES):
            sample = _worker(workload, args, deadline, "--setup-only")["setup_s"]
            if i:
                setup.append(sample)
    extra = ("--trace", str(trace)) + (("--spans", str(OUT / f"{stem}-spans.jsonl")) if trace else ())
    raw = _worker(workload, args, deadline, *extra)
    setup.append(raw["setup_s"])

    ops = raw["ops"]
    failures = [op["error"] for op in ops if op["error"]]
    failed = len(failures)
    fail_frac = failed / len(ops)
    timed = [op for op in ops if not op["warmup"]]
    untraced = [op["wall_s"] for op in timed if not op["traced"]]
    traced = [op["wall_s"] for op in timed if op["traced"] and not op["memory"]]
    correct = not failures
    if not trace:
        values = {
            "op_p50_s": statistics.median(untraced),
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        names = spec["end_to_end"]
    else:
        values = _layer_metrics(raw["layer_ops"])
        base = statistics.median(untraced)
        values["proc.cpu_s_per_op"] = statistics.median(op["cpu_s"] for op in timed if not op["traced"])
        values["proc.tracing_overhead_frac"] = (statistics.median(traced) - base) / base
        names = spec["per_layer"]
        absent = [m["name"] for m in names if m["name"] not in values]
        values["proc.spans_absent"] = len(absent) - ("proc.spans_absent" in absent)
        coverage = values["proc.span_coverage_frac"]
        if workload in COVERAGE_CHECKED and coverage < COVERAGE_MIN:
            correct = False
            failures.append(f"child spans cover {coverage:.3f} of the traced op time, below {COVERAGE_MIN}")
        unsteady = _unsteady_counts(raw["layer_ops"])
        if unsteady:
            correct = False
            failures.append(f"counts differ between traced ops: {unsteady}")

    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": raw["numpy"],
        "blas": raw["blas"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "op_count": len(untraced),
        "traced_op_count": len(traced),
        "warmup_op_wall_s": ops[0]["wall_s"],
        "op_wall_s": untraced,
        "traced_op_wall_s": traced,
        "fail_frac": fail_frac,
        "failures": failures[:5],
        "setup_samples_s": setup,
        "sizes": raw["sizes"],
    }
    # a span that never fired is reported as absent (null); the result line
    # carries only numbers, so there it reads 0 and proc.spans_absent counts it
    report = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in names}
    (OUT / f"{stem}.json").write_text(json.dumps({"record": record, "metrics": report}, indent=1) + "\n")

    print(f"== {workload} (trace {trace})")
    for name, metric in report.items():
        value = "absent" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {name} = {value} {metric['unit']}")
    print(f"  fail_frac = {fail_frac:.6g} (of {len(ops)} ops)")
    for failure in failures[:5]:
        print(f"  FAILED: {failure}")
    print(f"  record: {json.dumps(record)}")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v["value"] or 0, "unit": v["unit"]} for k, v in report.items()},
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny problem sizes, for the self-tests")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    needed = ("src/nearfocus/__init__.py", "tests/_oracles.py", "configs")
    missing = [p for p in needed if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: {ROOT} is not a nearfocus checkout; missing {missing}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads} or 'all'")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if args.workload != "all":
        result = run_workload(args.workload, args.trace, args, spec)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads:
            for trace in (0, 1):
                part = run_workload(workload, trace, args, spec)
                result["correct"] &= part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                result["metrics"].update({f"{workload}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

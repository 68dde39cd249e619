"""One workload run in a fresh process: set-up, closed-loop ops, then checks.

Started by run.py, once per run and once per extra set-up sample. One client:
the next op starts when the last one ends. After one warm-up op, ops run
until ``--seconds`` have passed. With ``--trace 1`` every second one is
traced; the first traced op traces memory, the others time. The correctness checks run
after the loop, once peak RSS has been read, so neither the oracles' time
nor their memory lands in the figures. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            get = getattr(ctypes.CDLL(lib), symbol, None)
            if get is not None:
                threads = int(get())
                break
    env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": threads,
        "thread_env": {key: os.environ.get(key) for key in env},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="write the traced spans here as JSON lines")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    scratch = None
    if not args.setup_only:
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="ops-", dir=out_dir))
    try:
        # set-up: import nearfocus and build the workload's inputs
        t0 = time.perf_counter()
        import nearfocus  # noqa: F401
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](ROOT, args.seed, scratch, tiny=args.tiny)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(json.dumps(_run(workload, args, setup_s)))
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0


def _run(workload, args, setup_s: float) -> dict:
    import numpy as np

    from tracing import Recorder, op_metrics, traced_op

    recorder = Recorder() if args.trace else None
    ops = []
    start = None
    while True:
        # op 0 warms up (BLAS threads, first-touch pages) and is not timed;
        # in a traced run the timed ops alternate traced, untraced, traced, ...
        # and the first traced op traces memory instead of time
        warmup = not ops
        traced = recorder is not None and not warmup and len(ops) % 2 == 1
        memory = traced and len(ops) == 1
        inputs = workload.draw()
        cpu0 = _cpu_s()
        t = time.perf_counter()
        output, error = None, None
        try:
            if traced:
                with traced_op(recorder, len(ops), memory) as root:
                    output = workload.run(inputs, recorder)
                wall = root["end"] - root["start"]
            else:
                output = workload.run(inputs)
                wall = time.perf_counter() - t
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            wall = time.perf_counter() - t
            error = f"{type(exc).__name__}: {exc}"
        ops.append({"warmup": warmup, "traced": traced, "memory": memory, "wall_s": wall,
                    "cpu_s": _cpu_s() - cpu0, "inputs": inputs, "output": output, "error": error})
        if start is None:
            start = time.perf_counter()
        elif time.perf_counter() - start >= args.seconds and (recorder is None or len(ops) >= 5):
            break

    who = resource.RUSAGE_CHILDREN if workload.runs_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    for op in ops:
        if op["error"] is None:
            try:
                op["error"] = workload.check(op["inputs"], op["output"])
            except Exception as exc:  # a check that cannot run fails the op
                op["error"] = f"check raised {type(exc).__name__}: {exc}"

    layer_ops = []
    if recorder is not None:
        by_op: dict = {}
        for span in recorder.spans:
            by_op.setdefault(span["op"], []).append(span)
        layer_ops = [{"memory": ops[i]["memory"], "metrics": op_metrics(spans)}
                     for i, spans in sorted(by_op.items())]
        if args.spans is not None:
            with open(args.spans, "w") as fh:
                for span in recorder.spans:
                    fh.write(json.dumps(span) + "\n")

    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": [{k: op[k] for k in ("warmup", "traced", "memory", "wall_s", "cpu_s", "error")} for op in ops],
        "layer_ops": layer_ops,
        "sizes": workload.sizes(),
        "numpy": np.__version__,
        "blas": _blas(),
    }


if __name__ == "__main__":
    sys.exit(main())

"""Layer spans for nearfocus, recorded from outside the package.

Every public function of a layer module is wrapped where its caller looks it
up: the attribute of each ``nearfocus`` module, and of the package itself,
that refers to it. A call from ``focusing`` into ``field_at`` goes through
``nearfocus.focusing.field_at``, a call from ``dof_sweep`` into
``effective_dof`` through ``nearfocus.dof.effective_dof``, and so on. A
wrapper records a span (name, start, end, parent span, op id) and, while
``tracemalloc`` runs, the peak of traced memory allocated inside it. Spans
stay in memory until the run ends.

Wrappers are installed for the duration of one traced op and removed after
it, so untraced ops call the library unchanged. ``tracemalloc`` slows
Python-heavy code several times over, so an op traces either memory or time:
its span times are only trusted when it ran without ``tracemalloc``.

This module imports nothing heavy at load time: the CLI launcher imports it
before timing ``import nearfocus``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
import tracemalloc

LAYERS = ("model", "field", "dof", "focusing", "config", "runner", "cli")


def _field_points(bound) -> int:
    import numpy as np

    a = bound.arguments
    return a["tx"].num_elements * np.broadcast(np.asarray(a["x"]), np.asarray(a["z"])).size


def _channel_points(bound) -> int:
    scenario = bound.arguments["scenario"]
    return scenario.tx.num_elements * scenario.rx_num


# computed work counts: elements x field points of each evaluation
ELEM_POINTS = {
    "field.field_at": _field_points,
    "field.channel_matrix": _channel_points,
}

# functions whose return value is the path of a file they wrote
WRITES_FILE = ("runner.write_table", "runner.write_summary")


class Recorder:
    """In-memory span store with a stack of open spans.

    ``op`` is the id of the op being traced; wrappers record nothing while it
    is ``None``. ``memory`` tells whether that op traces memory.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = None
        self.memory = False
        self._open: list[dict] = []

    def open(self, name: str) -> dict:
        parent = self._open[-1]["id"] if self._open else None
        span = {"id": len(self.spans), "parent": parent, "op": self.op, "name": name}
        if tracemalloc.is_tracing():
            current = self._note_peak()
            span["_base"] = span["_peak"] = current
        self.spans.append(span)
        self._open.append(span)
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if "_base" in span:
            self._note_peak()
            span["alloc_bytes"] = span.pop("_peak") - span.pop("_base")
        self._open.pop()

    def _note_peak(self) -> int:
        # tracemalloc keeps one global peak; fold it into every open span and
        # restart it, so each span sees the highest level reached while open
        current, peak = tracemalloc.get_traced_memory()
        for span in self._open:
            if "_peak" in span:
                span["_peak"] = max(span["_peak"], peak)
        tracemalloc.reset_peak()
        return current

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def absorb(self, spans: list[dict], parent: dict) -> None:
        """Adopt spans recorded in a child process under ``parent``."""
        offset = len(self.spans)
        for s in spans:
            s = dict(s)
            s["id"] += offset
            s["parent"] = parent["id"] if s["parent"] is None else s["parent"] + offset
            s["op"] = self.op
            self.spans.append(s)


def _wrap(fn, name: str, recorder: Recorder):
    signature = inspect.signature(fn)
    count = ELEM_POINTS.get(name)
    writes_file = name in WRITES_FILE

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.op is None:
            return fn(*args, **kwargs)
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if count is not None:
            span["elem_points"] = count(signature.bind(*args, **kwargs))
        if writes_file:
            span["bytes"] = os.path.getsize(result)
        return result

    return wrapper


def install(recorder: Recorder) -> list[tuple]:
    """Wrap every public nearfocus function at each module attribute naming it.

    Returns the replaced attributes for :func:`uninstall`.
    """
    modules = [importlib.import_module("nearfocus")]
    modules += [importlib.import_module(f"nearfocus.{layer}") for layer in LAYERS]
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            owner = value.__module__.rpartition(".")
            if owner[0] != "nearfocus" or owner[2] not in LAYERS:
                continue
            setattr(module, attr, _wrap(value, f"{owner[2]}.{value.__name__}", recorder))
            patched.append((module, attr, value))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for module, attr, value in patched:
        setattr(module, attr, value)


@contextlib.contextmanager
def traced_op(recorder: Recorder, op_id: int, memory: bool):
    """Install the wrappers and trace one op under a root span named ``op``."""
    patched = install(recorder)
    if memory:
        tracemalloc.start()
    recorder.op, recorder.memory = op_id, memory
    try:
        with recorder.span("op") as root:
            yield root
    finally:
        recorder.op, recorder.memory = None, False
        if memory:
            tracemalloc.stop()
        uninstall(patched)


def op_metrics(spans: list[dict]) -> dict:
    """Per-layer figures of one traced op from its spans; the root is named ``op``.

    Gives ``<span>.s``, ``.self_s`` and ``.calls`` for every span name, ``.elem_points``
    and ``.bytes`` where counted, ``<layer>.alloc_peak_mb`` for layers whose spans
    allocated traced memory, ``cli.proc_s`` and ``cli.import_s`` per child
    process, and ``proc.span_coverage_frac``, the share of the op's time that
    its child spans cover.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out: dict = {}
    root = None
    for s in spans:
        duration = s["end"] - s["start"]
        covered = sum(c["end"] - c["start"] for c in children.get(s["id"], ()))
        if s["name"] == "op":
            root = s
            out["proc.span_coverage_frac"] = covered / duration
            continue
        name = s["name"]
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + duration
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + duration - covered
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for key in ("elem_points", "bytes"):
            if key in s:
                out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + s[key]
        if "alloc_bytes" in s:
            layer = name.partition(".")[0]
            mb = s["alloc_bytes"] / 2**20
            out[f"{layer}.alloc_peak_mb"] = max(out.get(f"{layer}.alloc_peak_mb", 0.0), mb)
    if root is None:
        raise ValueError("spans hold no root span named 'op'")
    for name in ("cli.proc", "cli.import"):
        if f"{name}.calls" in out:
            out[f"{name}_s"] = out[f"{name}.s"] / out[f"{name}.calls"]
    return out

"""Outside-in tracing of fedrot's layers.

The program is left unchanged: each layer function is replaced, for the
duration of one traced invocation, by a wrapper at every module-level name
that refers to it, which is the name its callers look up (``federation``
calls ``procrustes_rotation`` through its own import, ``qr_orthonormal``
calls ``numerics.svd``).  Task methods are wrapped on their classes.  Spans
(name, start, end, parent) stay in memory until the invocation ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import sys
import time
from collections import Counter

# Span name -> (module, attribute) of the function it wraps.
LAYER_FUNCTIONS = {
    "config.load_config": ("fedrot.config", "load_config"),
    "tasks.build": ("fedrot.federation", "build_task"),
    "federation.run_sweep": ("fedrot.federation", "run_sweep"),
    "federation.run_federation": ("fedrot.federation", "run_federation"),
    "federation.client_round": ("fedrot.federation", "client_round"),
    "federation.local_train": ("fedrot.federation", "local_train"),
    "alignment.select_reference": ("fedrot.alignment", "select_reference"),
    "alignment.procrustes_rotation": ("fedrot.alignment", "procrustes_rotation"),
    "alignment.soft_rotation": ("fedrot.alignment", "soft_rotation"),
    "alignment.apply_alignment": ("fedrot.alignment", "apply_alignment"),
    "alignment.haar_random_rotation": ("fedrot.alignment", "haar_random_rotation"),
    "numerics.svd": ("fedrot.numerics", "svd"),
    "numerics.qr_orthonormal": ("fedrot.numerics", "qr_orthonormal"),
    "numerics.frobenius_norm": ("fedrot.numerics", "frobenius_norm"),
    "aggregation.server_step": ("fedrot.aggregation", "server_step"),
    "aggregation.aggregation_error": ("fedrot.aggregation", "aggregation_error"),
    "lora.semantic_update": ("fedrot.lora", "semantic_update"),
    "cli.output": ("fedrot.cli", "_write_run_outputs"),
}
# Span name -> method name, wrapped on every task class in ``fedrot.tasks``.
TASK_METHODS = {
    "tasks.client_grads": "client_grads",
    "tasks.client_loss": "client_loss",
    "tasks.global_loss": "global_loss",
}
LOSS_SPANS = ("tasks.client_loss", "tasks.global_loss")
ALIGNMENT_SPANS = ("alignment.procrustes_rotation", "alignment.soft_rotation")


def _fedrot_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "fedrot" or name.startswith("fedrot.")]


def _rebind(original, replacement) -> list:
    """Point every fedrot module-level name bound to ``original`` at
    ``replacement``; return the (module, name, original) triples."""
    done = []
    for module in _fedrot_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                done.append((module, name, original))
    return done


class _Patches:
    """Context manager that undoes, on exit, the rebindings in ``_undo``."""

    def __init__(self):
        self._undo: list = []  # (owner, name, original)

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


class Tracer(_Patches):
    """Records one span per call of each layer function while installed."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def __enter__(self):
        for name, (module, attr) in LAYER_FUNCTIONS.items():
            fn = getattr(importlib.import_module(module), attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._undo += _rebind(fn, self._wrap(fn, name))
        tasks = importlib.import_module("fedrot.tasks")
        for name, method in TASK_METHODS.items():
            classes = [c for c in vars(tasks).values()
                       if inspect.isclass(c) and method in vars(c)]
            if not classes:
                self.missing.append(name)
            for cls in classes:
                fn = vars(cls)[method]
                setattr(cls, method, self._wrap(fn, name))
                self._undo.append((cls, method, fn))
        return self

    def write(self, path) -> None:
        """Write the spans as CSV: index, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end}\n")


class CellSpans(_Patches):
    """Per-cell spans from the sweep's pool workers.

    ``federation._run_cell`` is what the pool pickles by name, so the
    wrapper installed here is the one forked workers run; it stamps each
    returned cell with the worker's pid and the cell's start and end.
    ``cli.run_sweep`` is wrapped to keep the cells and the sweep's span.
    """

    def __init__(self):
        super().__init__()
        self.cells = []
        self.sweep_span = (0, 0)

    def __enter__(self):
        federation = importlib.import_module("fedrot.federation")
        run_cell, run_sweep = federation._run_cell, federation.run_sweep

        @functools.wraps(run_cell)
        def timed_cell(args):
            start = time.perf_counter_ns()
            cell = run_cell(args)
            cell.bench_span = (os.getpid(), start, time.perf_counter_ns())
            return cell

        @functools.wraps(run_sweep)
        def kept_sweep(*args, **kwargs):
            start = time.perf_counter_ns()
            self.cells = run_sweep(*args, **kwargs)
            self.sweep_span = (start, time.perf_counter_ns())
            return self.cells

        self._undo = _rebind(run_cell, timed_cell) + _rebind(run_sweep, kept_sweep)
        return self

    def idle_frac(self, jobs: int) -> float:
        """Share of jobs x sweep wall time with no cell running on a worker."""
        spans = [getattr(c, "bench_span", None) for c in self.cells]
        if not spans or None in spans:
            raise RuntimeError("sweep cells came back without worker spans")
        busy = sum(end - start for _, start, end in spans)
        start, end = self.sweep_span
        return 1.0 - busy / (jobs * (end - start))


def layer_metrics(spans: list[list], wall_ns: int) -> tuple[dict, Counter]:
    """Per-layer metrics of one traced invocation, and its call counts.

    ``.ms`` is inclusive time summed over the outermost spans of a layer,
    ``.self_ms`` subtracts the time of child spans, ``.calls`` counts spans
    and ``.share`` is inclusive time over the invocation's wall time.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, total_ns, self_ns = Counter(), Counter(), Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        parent_name = spans[parent][0] if parent >= 0 else None
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
        if parent_name != name:
            total_ns[name] += end - start
        if name == "numerics.svd" and parent_name in ALIGNMENT_SPANS:
            calls["numerics.svd.via_alignment"] += 1
        if name in LOSS_SPANS and parent_name not in LOSS_SPANS:
            total_ns["tasks.loss"] += end - start
        if parent < 0:
            total_ns["trace.top_level"] += end - start

    metrics = {}
    for layer in ("tasks.client_grads", "federation.local_train", "numerics.svd",
                  "alignment.procrustes_rotation", "alignment.soft_rotation",
                  "numerics.frobenius_norm", "aggregation.server_step",
                  "lora.semantic_update"):
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    metrics["tasks.loss.calls"] = (calls["tasks.client_loss"], "count")
    for layer in ("tasks.client_grads", "numerics.svd", "alignment.apply_alignment",
                  "alignment.select_reference", "alignment.haar_random_rotation",
                  "numerics.qr_orthonormal", "tasks.loss",
                  "aggregation.aggregation_error", "lora.semantic_update",
                  "config.load_config", "tasks.build", "cli.output"):
        metrics[f"{layer}.ms"] = (total_ns[layer] / 1e6, "ms")
    for layer in ("federation.local_train", "alignment.procrustes_rotation",
                  "alignment.soft_rotation", "federation.client_round",
                  "federation.run_federation", "aggregation.server_step"):
        metrics[f"{layer}.self_ms"] = (self_ns[layer] / 1e6, "ms")
    for layer in ("federation.local_train", "numerics.svd"):
        metrics[f"{layer}.share"] = (total_ns[layer] / wall_ns, "frac")
    metrics["federation.local_train.us_per_client_step"] = (
        total_ns["federation.local_train"] / 1e3 / max(calls["tasks.client_grads"], 1),
        "us")
    metrics["numerics.svd.us_per_call"] = (
        total_ns["numerics.svd"] / 1e3 / max(calls["numerics.svd"], 1), "us")
    metrics["trace.coverage_frac"] = (total_ns["trace.top_level"] / wall_ns, "frac")
    return metrics, calls

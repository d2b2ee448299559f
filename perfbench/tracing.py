"""Spans recorded from outside the program, around calls into esgnn.

While :func:`instrument` is active, the public functions listed in
``FUNCTIONS`` and ``METHODS`` are replaced by wrappers that open a span on
entry and close it on exit.  ``gin`` and ``explainer`` import the autodiff
ops by name, so a function is patched in every module namespace that holds
it; calls autodiff makes to itself (``linear`` calling ``matmul``) resolve
through the globals of ``esgnn.autodiff`` and are caught there.

Spans stay in memory as ``[id, parent, name, start_ns, end_ns]`` lists and
are written out once, when the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import gzip
import json
import time
import tracemalloc
from collections import defaultdict

from esgnn import autodiff, explainer, gin, graphs, optim

OPS = (
    "spmm",
    "matmul",
    "add",
    "mul",
    "relu",
    "gather_rows",
    "segment_sum",
    "sigmoid",
    "concat_cols",
    "custom_primitive",
    "cross_entropy_mean",
)

# span name -> (defining module, attribute)
FUNCTIONS = {
    "gin.build_graph_batch": (gin, "build_graph_batch"),
    "gin.backbone_forward_batch": (gin, "backbone_forward_batch"),
    "gin.evaluate_accuracy": (gin, "evaluate_accuracy"),
    "optim.step_from_gradients": (optim, "step_from_gradients"),
    "explainer.edge_logits": (explainer, "edge_logits"),
    "explainer.concrete_sample": (explainer, "concrete_sample"),
    "explainer.hard_threshold": (explainer, "hard_threshold"),
    "explainer.edge_scores": (explainer, "edge_scores"),
    "explainer.generate_bag_topk": (explainer, "generate_bag_topk"),
    "explainer.generate_bag_noise": (explainer, "generate_bag_noise"),
    "explainer.bag_to_json": (explainer, "bag_to_json"),
    "explainer.bag_from_json": (explainer, "bag_from_json"),
    **{f"autodiff.{op}": (autodiff, op) for op in OPS},
}

# span name -> (class, method)
METHODS = {
    "graphs.edge_array": (graphs.Graph, "edge_array"),
    "autodiff.backward": (autodiff.Tensor, "backward"),
    "gin.params_copy": (gin.BackboneParams, "copy"),
}

NAMESPACES = (autodiff, gin, explainer, graphs, optim)

MB = 1024.0 * 1024.0


class Tracer:
    """In-memory span recorder for one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.taped_forwards = 0
        # tracemalloc bookkeeping, filled only while memory tracing is on
        self.memory = False
        self._step_start = 0
        self.step_peaks: list[int] = []
        self.live_after_step: list[int] = []
        self._hooks = {
            # a training step runs from its batch build to its optimizer step
            "gin.build_graph_batch": (self._mark_step_start, None),
            "optim.step_from_gradients": (None, self._mark_step_end),
            "gin.backbone_forward_batch": (None, self._count_tape),
        }

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [len(self.spans), parent, name, time.perf_counter_ns(), 0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        before, after = self._hooks.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(out)
            return out

        return wrapper

    def _count_tape(self, out) -> None:
        if out[0].requires_grad:
            self.taped_forwards += 1

    def _mark_step_start(self) -> None:
        if self.memory:
            tracemalloc.reset_peak()
            self._step_start = tracemalloc.get_traced_memory()[0]

    def _mark_step_end(self, _out) -> None:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            self.step_peaks.append(peak - self._step_start)
            self.live_after_step.append(current)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
        )
        for sid, _parent, name, start, end in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns[sid]) / 1e6
        return out

    def write(self, path, header: dict) -> None:
        """Gzipped JSON lines: the header, then one span per line as
        [id, parent id or -1, name, start ns, end ns, workload]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span + [self.workload]) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers for the duration of the block, then restore."""
    originals = {name: getattr(mod, attr) for name, (mod, attr) in FUNCTIONS.items()}
    by_id = {id(fn): name for name, fn in originals.items()}
    wrappers = {name: tracer.wrap(name, fn) for name, fn in originals.items()}
    patched = []
    for mod in NAMESPACES:
        for attr, value in list(vars(mod).items()):
            name = by_id.get(id(value))  # the originals are alive, so ids are theirs
            if name is not None:
                setattr(mod, attr, wrappers[name])
                patched.append((mod, attr, value))
    for name, (cls, attr) in METHODS.items():
        method = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, method))
        patched.append((cls, attr, method))
    try:
        yield
    finally:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)


@contextlib.contextmanager
def memory_tracing(tracer: Tracer):
    """tracemalloc on, with per-step peaks recorded through the wrappers."""
    tracemalloc.start()
    tracer.memory = True
    try:
        yield
    finally:
        tracer.memory = False
        tracemalloc.stop()


def gc_totals() -> tuple[int, int]:
    """(generation-2 collections, objects collected over all generations)."""
    stats = gc.get_stats()
    return stats[2]["collections"], sum(s["collected"] for s in stats)

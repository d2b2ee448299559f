"""Run one workload, untraced or traced, and assemble its metrics.

An untraced run sets the workload up ``SETUP_REPEATS`` times (``setup_s`` is
the median), then runs rounds until the next one would end past the
requested seconds, and reports the end-to-end metrics.  Every timed interval
is normalized by the reference kernel of :mod:`calibration`, run between
operations; the raw figures are kept in the result file.

A traced run sets up once and runs one warm-up round, then runs the same
fixed number of rounds three times: untraced (the overhead reference), with span wrappers (per-layer
times and counts), and with span wrappers plus tracemalloc (per-step
memory).  The fixed round count makes every count repeat exactly.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import time
from dataclasses import asdict
from pathlib import Path

import networkx
import numpy as np
import scipy

from calibration import Clock
from tracing import MB, OPS, Tracer, gc_totals, instrument, memory_tracing
from workloads import FULL, Record, Sizes, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "graphs_per_s": "graphs/s",
    "graph_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


# per-layer metrics read straight from the span totals: span name -> stats
SPAN_STATS = (
    ("ba2motifs.generate_ba2motifs", ("ms",)),
    ("tud.write_tud_dataset", ("ms",)),
    ("tud.load_tud_dataset", ("ms",)),
    ("graphs.edge_array", ("calls", "self_ms")),
    ("gin.build_graph_batch", ("calls", "self_ms")),
    ("gin.backbone_forward_batch", ("calls", "self_ms")),
    ("gin.evaluate_accuracy", ("calls", "ms")),
    ("gin.params_copy", ("calls",)),
    ("autodiff.backward", ("calls", "self_ms")),
    ("optim.step_from_gradients", ("calls", "self_ms")),
    ("explainer.edge_logits", ("self_ms",)),
    ("explainer.concrete_sample", ("self_ms",)),
    ("explainer.hard_threshold", ("self_ms",)),
    ("explainer.edge_scores", ("calls", "self_ms")),
    ("explainer.generate_bag_topk", ("self_ms",)),
    ("explainer.generate_bag_noise", ("self_ms",)),
    ("explainer.bag_to_json", ("ms",)),
    ("explainer.bag_from_json", ("ms",)),
)


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith((".ms", ".self_ms")) or metric.startswith("autodiff.op_ms."):
        return "ms"
    if metric.endswith(".calls") or metric.startswith(("autodiff.op_calls.", "gc.")):
        return "count"
    if metric.endswith("_mb"):
        return "MB"
    if metric == "tud.bytes_read":
        return "bytes"
    return "ratio"


def git_sha(root: Path) -> str | None:
    """HEAD commit read from the .git directory, or None outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, sizes: Sizes) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": {
                var: os.environ.get(var)
                for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
        "git_sha": git_sha(ROOT),
        "workload": workload,
        "seed": seed,
        "sizes": asdict(sizes),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _summary(values: list[float]) -> dict:
    return {"samples": len(values), **{f"p{q}": _percentile(values, q) for q in (10, 50, 90)}}


def _untraced(wl, seconds: float) -> tuple[Record, dict]:
    clock = Clock()
    clock.calibrate()
    setup_raw, setup_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        t1 = time.perf_counter()
        clock.calibrate()
        setup_raw.append(t1 - t0)
        setup_s.append(clock.seconds(t0, t1))
    rec = Record(clock)
    t0 = time.perf_counter()
    rounds = 0
    while True:
        _round(wl, rounds, rec)
        rounds += 1
        if rounds == wl.min_rounds:
            # peak memory over a fixed amount of work: taped garbage keeps
            # growing between collections, so later rounds would tie it to speed
            peak_rss = _peak_rss_mb()
        elapsed = time.perf_counter() - t0
        if rounds >= wl.min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    clock.calibrate()
    wl.finish(rec)

    def rates(samples, normalized=True):
        return [n / (clock.seconds(a, b) if normalized else b - a) for n, a, b in samples]

    def ms(samples, normalized=True):
        return [1e3 * (clock.seconds(a, b) if normalized else b - a) / n for n, a, b in samples]

    metrics = {
        "setup_s": _percentile(setup_s, 50),
        "graphs_per_s": _percentile(rates(rec.batched), 50),
        "graph_ms_p50": _percentile(ms(rec.per_graph), 50),
        "peak_rss_mb": peak_rss,
    }
    detail = {
        "rounds": rounds,
        "timed_s": elapsed,
        "setup_s": {"normalized": setup_s, "raw": setup_raw},
        "kernel_ms": _summary([1e3 * k for k in clock.kernel_s]),
        "quality": wl.quality,
    }
    for name, values in (
        ("graphs_per_s", rates(rec.batched)),
        ("graph_ms", ms(rec.per_graph)),
        ("request_ms", ms(rec.requests)),
    ):
        if values:
            detail[name] = {**_summary(values), "values": values}
    detail["raw"] = {
        "graphs_per_s": _summary(rates(rec.batched, False)),
        "graph_ms": _summary(ms(rec.per_graph, False)),
    }
    return rec, {"metrics": metrics, "detail": detail}


def _round(wl, k: int, rec: Record) -> None:
    # Every round starts from a collected heap.  Taped evaluation leaves
    # cyclic garbage that only the cyclic collector frees; without this the
    # memory figures would depend on when a generation-2 collection happens
    # to fall, which varies with the random graph sizes.
    gc.collect()
    wl.round(k, rec)


def _rounds(wl, rec: Record) -> float:
    t0 = time.perf_counter()
    for k in range(wl.min_rounds):
        _round(wl, k, rec)
    return time.perf_counter() - t0


def _traced(wl) -> tuple[Record, dict, Tracer]:
    tracer = Tracer(wl.name)
    wl.setup(tracer)
    rec = Record()
    _round(wl, 0, rec)  # warm-up: first-touch memory would bias the reference pass
    plain_s = _rounds(wl, rec)

    rec.tracer = tracer
    gc0 = gc_totals()
    with instrument(tracer):
        traced_s = _rounds(wl, rec)
    gc1 = gc_totals()

    mem = Tracer(wl.name)
    rec.tracer = None
    with instrument(mem), memory_tracing(mem):
        _rounds(wl, rec)
    wl.finish(rec)

    tot = tracer.totals()

    def stat(name: str, key: str):
        return tot[name][key] if name in tot else 0

    metrics = {
        f"{name}.{key}": stat(name, key) for name, keys in SPAN_STATS for key in keys
    }
    metrics["tud.bytes_read"] = getattr(wl, "bytes_read", 0)
    metrics["gin.evaluate_accuracy.share"] = stat("gin.evaluate_accuracy", "ms") / (traced_s * 1e3)
    for op in OPS:
        metrics[f"autodiff.op_calls.{op}"] = stat(f"autodiff.{op}", "calls")
        metrics[f"autodiff.op_ms.{op}"] = stat(f"autodiff.{op}", "self_ms")
    # no tape built means none was wasted
    taped = tracer.taped_forwards
    metrics["autodiff.tape_use_ratio"] = stat("autodiff.backward", "calls") / taped if taped else 1.0
    metrics["autodiff.step_peak_mb"] = max(mem.step_peaks, default=0) / MB
    metrics["autodiff.live_after_step_mb"] = max(mem.live_after_step, default=0) / MB
    # not counting the collection forced before each round
    metrics["gc.gen2_collections"] = gc1[0] - gc0[0] - wl.min_rounds
    metrics["gc.collected"] = gc1[1] - gc0[1]
    metrics["explainer.mask_fraction"] = wl.quality["mask_fraction"]
    for name in ("test_acc", "explain_auc", "explain_precision"):
        metrics[f"quality.{name}"] = wl.quality[name]
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    detail = {
        "rounds_per_pass": wl.min_rounds,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "quality": wl.quality,
    }
    return rec, {"metrics": metrics, "detail": detail}, tracer


def result_line(record: dict) -> dict:
    """The one-line result: correct, attempted, failed and metrics with units."""
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in record["metrics"].items()
        },
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes = FULL,
    out_dir: Path | None = None,
) -> dict:
    """Run one workload; returns the result with every metric and the run's record.

    Temporary files, the result file and (traced) the span file go to out_dir.
    """
    out_dir = Path(out_dir) if out_dir is not None else ROOT / ".perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment(name, seed, sizes)
    wl = WORKLOADS[name](sizes, seed, out_dir)
    gc.collect()
    if trace:
        rec, report, tracer = _traced(wl)
    else:
        rec, report = _untraced(wl, seconds)
    result = {
        "correct": rec.failed == 0 and rec.attempted > 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": report["metrics"],
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = {"environment": env, **result, "detail": report["detail"]}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        tracer.write(out_dir / f"spans-{stem}.jsonl.gz", {"workload": name, "seed": seed})
    return record

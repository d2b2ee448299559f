"""The benchmark's three workloads, each a closed loop with one client.

A workload is set up from its seed, then runs rounds of a fixed unit of
work.  Every timed call into esgnn is one operation; its output is checked
outside the timed call, right after it or in ``finish()``, and a failed
check marks that operation failed.

- ``backbone_train``: ``train_backbone`` on BA-2Motifs, scoring a held-out
  set each epoch.  Small graphs, so per-op Python overhead, the taped
  forward, ``Tensor.backward`` and Adam set the cost.  No explainer, no TU I/O.
- ``explain_bags``: set-up trains the backbone; a round runs
  ``train_explainer`` against it, then builds one top-K and one noise bag per
  graph and round-trips both through JSON.  Exercises the edge-MLP, concrete
  sampling and the straight-through threshold, and per-graph bag overhead.
  Backbone backward never runs.
- ``infer_large``: Barabasi-Albert graphs of 100-300 nodes written and read
  back in TU format, a randomly initialised backbone and explainer (forward
  cost does not depend on weight values), then 32-graph classification
  requests through ``evaluate_accuracy`` and bags on graphs about 8x larger.
  Forward only and kernel-bound: backward or optimizer changes leave it flat.
"""

from __future__ import annotations

import contextlib
import math
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np
import scipy.stats

from esgnn import explainer, gin, tud
from esgnn.ba2motifs import generate_ba2motifs
from esgnn.graphs import FeatureSpec, Graph, GraphDataset, constant_features


@dataclass(frozen=True)
class Sizes:
    train_graphs: int  # BA-2Motifs graphs the backbone trains on
    test_graphs: int  # held-out BA-2Motifs graphs
    train_epochs: int
    explain_graphs: int  # first graphs of the training set
    explain_epochs: int
    bag_graphs: int  # explain_bags: graphs given bags per round
    noise_bag_size: int
    large_graphs: int
    large_nodes: tuple[int, int]  # inclusive node-count range
    degree_cap: int
    request_graphs: int
    requests_per_round: int
    large_bags_per_round: int
    infer_min_rounds: int  # infer_large rounds in the shortest run


FULL = Sizes(
    train_graphs=1000,
    test_graphs=200,
    train_epochs=25,
    explain_graphs=800,
    explain_epochs=30,
    bag_graphs=1000,
    noise_bag_size=10,
    large_graphs=1000,
    large_nodes=(100, 300),
    degree_cap=10,
    request_graphs=32,
    requests_per_round=20,
    large_bags_per_round=40,
    infer_min_rounds=5,
)

TINY = Sizes(
    train_graphs=48,
    test_graphs=16,
    train_epochs=2,
    explain_graphs=32,
    explain_epochs=2,
    bag_graphs=12,
    noise_bag_size=3,
    large_graphs=24,
    large_nodes=(20, 40),
    degree_cap=10,
    request_graphs=8,
    requests_per_round=3,
    large_bags_per_round=4,
    infer_min_rounds=2,
)


class Record:
    """Samples and per-operation outcomes of one run.

    Samples are (graphs, start, end) intervals; the harness turns them into
    rates and per-graph times once the run is over.
    """

    def __init__(self, clock=None):
        self.ok: list[bool] = []
        self.batched: list[tuple[int, float, float]] = []  # epochs or requests
        self.per_graph: list[tuple[int, float, float]] = []  # the per-graph phase
        self.requests: list[tuple[int, float, float]] = []  # infer_large requests
        self.clock = clock  # calibration.Clock, or None when not normalizing
        self.tracer = None

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def fail(self, op: int) -> None:
        self.ok[op] = False

    def calibrate(self) -> None:
        if self.clock is not None:
            self.clock.calibrate()

    def timed(self, name: str, fn):
        """Run one operation; returns (op index, output or None, start, end)."""
        if self.clock is not None:
            self.clock.maybe_calibrate()
        op = len(self.ok)
        self.ok.append(True)
        with _span(self.tracer, name):
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.ok[op] = False
                out = None
            return op, out, t0, time.perf_counter()


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


@contextlib.contextmanager
def _marks(owner, attr: str, rec: Record, marks: list, when=lambda args: True):
    """While active, each call of owner.attr whose arguments satisfy when()
    appends (entry, return, resume) times, where resume follows a kernel
    calibration run between the two: the program pauses for it, and the
    intervals the harness times stop at return and restart at resume."""
    fn = getattr(owner, attr)

    def marked(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        if when(args):
            t1 = time.perf_counter()
            rec.calibrate()
            marks.append((t0, t1, time.perf_counter()))
        return out

    setattr(owner, attr, marked)
    try:
        yield
    finally:
        setattr(owner, attr, fn)


def _epochs(graphs: int, epochs: int, spans: list[tuple[float, float]], call) -> list:
    """(graphs, start, end) per epoch; the whole call as one sample when the
    epoch boundaries were not all seen."""
    if len(spans) != epochs:
        return [(graphs * epochs, call[0], call[1])]
    return [(graphs, a, b) for a, b in spans]


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(a)))


def _same_fit(a, b) -> bool:
    """Bit-identical histories and parameters of two training calls."""
    (pa, ha), (pb, hb) = a, b
    if ha != hb:
        return False
    na, nb = pa.named(), pb.named()
    return na.keys() == nb.keys() and all(
        np.array_equal(na[k].data, nb[k].data) for k in na
    )


def roc_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney ROC-AUC with tied scores counted as half."""
    ranks = scipy.stats.rankdata(scores)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def explanation_quality(graphs, backbone, params) -> tuple[float, float, bool]:
    """(edge ROC-AUC pooled over all edges, mean precision@|motif|, finite)."""
    all_scores, all_pos, precisions, finite = [], [], [], True
    for g in graphs:
        scores = explainer.edge_scores(g, backbone, params)
        finite &= _finite(scores)
        motif = np.zeros(g.num_edges, dtype=bool)
        motif[sorted(g.ground_truth_motif_edges)] = True
        top = np.argsort(-scores, kind="stable")[: int(motif.sum())]
        precisions.append(float(motif[top].mean()))
        all_scores.append(scores)
        all_pos.append(motif)
    auc = roc_auc(np.concatenate(all_scores), np.concatenate(all_pos))
    return auc, float(np.mean(precisions)), finite


# ---------------------------------------------------------------- bags


def bag_op(g, backbone, params, sizes: Sizes, noise_seed: int):
    """One top-K and one noise bag for g, each round-tripped through JSON."""
    topk = explainer.generate_bag_topk(g, backbone, params)
    noise = explainer.generate_bag_noise(
        g, backbone, params, m=sizes.noise_bag_size, noise_scale=1.0, seed=noise_seed
    )
    back = tuple(
        explainer.bag_from_json(explainer.bag_to_json(bag, 0), g) for bag in (topk, noise)
    )
    return topk, noise, back


def bag_ok(g, out, sizes: Sizes, noise_seed: int) -> bool:
    topk, noise, back = out
    budgets = [max(1, math.ceil(f * g.num_edges)) for f in explainer.DEFAULT_FRACTIONS]
    masks = topk.masks
    if [m.budget for m in masks] != budgets or [int(m.hard.sum()) for m in masks] != budgets:
        return False
    if any(np.any(a.hard > b.hard) for a, b in zip(masks, masks[1:])):
        return False
    seeds = [explainer.mask_seed(noise_seed, t) for t in range(sizes.noise_bag_size)]
    if [m.seed for m in noise.masks] != seeds:
        return False
    if not all(_finite(m.soft) for m in topk.masks + noise.masks):
        return False
    for bag, loaded in zip((topk, noise), back):
        if loaded.policy_tag != bag.policy_tag or len(loaded) != len(bag):
            return False
        for a, b in zip(bag.masks, loaded.masks):
            if not np.array_equal(a.hard, b.hard) or (a.budget, a.seed) != (b.budget, b.seed):
                return False
    return True


def same_bag_bits(a, b) -> bool:
    return all(
        np.array_equal(x.hard, y.hard) and x.seed == y.seed
        for bag_a, bag_b in zip(a[:2], b[:2])
        for x, y in zip(bag_a.masks, bag_b.masks)
    )


class _Workload:
    name = ""

    # every n-th bag is kept and regenerated in finish(), to check determinism
    BAG_SAMPLE_EVERY = 25

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.bag_samples: list[tuple] = []  # (op, graph, explainer params, noise seed, output)
        self._bags_done = 0
        # 0 where the workload has no trained model, motifs or explainer fit
        self.quality = dict.fromkeys(
            ("test_acc", "explain_auc", "explain_precision", "mask_fraction"), 0.0
        )

    @property
    def min_rounds(self) -> int:
        """Rounds in the shortest run, and in each pass of a traced run."""
        return 1

    def _bag_round(self, rec: Record, graphs, backbone, params) -> None:
        for g, noise_seed in graphs:
            op, out, t0, t1 = rec.timed(
                "bench.bag_graph",
                lambda: bag_op(g, backbone, params, self.sizes, noise_seed),
            )
            if out is None:
                continue
            rec.per_graph.append((1, t0, t1))
            if not bag_ok(g, out, self.sizes, noise_seed):
                rec.fail(op)
            if self._bags_done % self.BAG_SAMPLE_EVERY == 0:
                self.bag_samples.append((op, g, params, noise_seed, out))
            self._bags_done += 1

    def _recheck_bags(self, rec: Record, backbone) -> None:
        for op, g, params, noise_seed, out in self.bag_samples:
            if not same_bag_bits(out, bag_op(g, backbone, params, self.sizes, noise_seed)):
                rec.fail(op)


class BackboneTrain(_Workload):
    name = "backbone_train"

    def setup(self, tracer=None) -> None:
        s = self.sizes
        with _span(tracer, "ba2motifs.generate_ba2motifs"):
            ds = generate_ba2motifs(s.train_graphs + s.test_graphs, self.seed)
        self.train = list(ds.graphs[: s.train_graphs])
        self.test = list(ds.graphs[s.train_graphs :])
        self.cfg = gin.TrainConfig(epochs=s.train_epochs, seed=self.seed)
        self.fits: list[tuple] = []  # (op, (params, history))

    def round(self, k: int, rec: Record) -> None:
        # train_backbone evaluates each eval set once per epoch, after the
        # epoch's steps: the held-out evaluation ends an epoch, and its
        # duration is the per-graph inference sample
        marks: list[tuple[float, float, float]] = []
        with _marks(gin, "evaluate_accuracy", rec, marks, lambda args: args[0] is self.test):
            op, out, t0, t1 = rec.timed(
                "bench.train_call",
                lambda: gin.train_backbone(self.train, 2, self.cfg, {"test": self.test}),
            )
        if out is None:
            return
        starts = [t0] + [resume for _, _, resume in marks]
        spans = [(a, end) for a, (_, end, _) in zip(starts, marks)]
        rec.batched.extend(_epochs(len(self.train), self.cfg.epochs, spans, (t0, t1)))
        rec.per_graph.extend((len(self.test), a, b) for a, b, _ in marks)
        self.fits.append((op, out))

    def finish(self, rec: Record) -> None:
        if not self.fits:
            return
        first = self.fits[0][1]
        for op, out in self.fits:
            if not all(np.isfinite(e["loss"]) for e in out[1]) or not _same_fit(first, out):
                rec.fail(op)
        # the batched held-out labels must equal predict's, graph by graph
        op, (params, history) = self.fits[0]
        logits = gin.backbone_forward_batch(gin.build_graph_batch(self.test), params)[0].data
        preds = [gin.predict(g, params) for g in self.test]
        hits = sum(p.label == g.y for p, g in zip(preds, self.test))
        if (
            not _finite(logits)
            or not all(_finite(p.probs) for p in preds)
            or [p.label for p in preds] != list(logits.argmax(axis=1))
            or history[-1]["test_acc"] != hits / len(self.test)
        ):
            rec.fail(op)
        # with a single timed call, a short pair still checks determinism
        small = gin.TrainConfig(epochs=2, seed=self.seed)
        if not _same_fit(*(gin.train_backbone(self.train[:64], 2, small) for _ in range(2))):
            rec.fail(op)
        self.quality["test_acc"] = history[-1]["test_acc"]


class ExplainBags(_Workload):
    name = "explain_bags"

    def setup(self, tracer=None) -> None:
        s = self.sizes
        with _span(tracer, "ba2motifs.generate_ba2motifs"):
            ds = generate_ba2motifs(s.train_graphs + s.test_graphs, self.seed)
        self.train = list(ds.graphs[: s.train_graphs])
        self.test = list(ds.graphs[s.train_graphs :])
        cfg = gin.TrainConfig(epochs=s.train_epochs, seed=self.seed)
        self.backbone, _ = gin.train_backbone(self.train, 2, cfg)
        self.cfg = explainer.ExplainerConfig(epochs=s.explain_epochs)
        self.bag_graphs = [
            (g, explainer.mask_seed(self.seed, i))
            for i, g in enumerate(self.train[: s.bag_graphs])
        ]
        self.fits: list[tuple] = []

    def round(self, k: int, rec: Record) -> None:
        graphs = self.train[: self.sizes.explain_graphs]
        # train_explainer asks for each epoch's temperature as the epoch starts
        marks: list[tuple[float, float, float]] = []
        with _marks(explainer.ExplainerConfig, "tau_at", rec, marks):
            op, out, t0, t1 = rec.timed(
                "bench.explain_call",
                lambda: explainer.train_explainer(graphs, self.backbone, self.cfg, seed=self.seed),
            )
        if out is None:
            return
        ends = [entry for entry, _, _ in marks[1:]] + [t1]
        spans = [(resume, end) for (_, _, resume), end in zip(marks, ends)]
        rec.batched.extend(_epochs(len(graphs), self.cfg.epochs, spans, (t0, t1)))
        self.fits.append((op, out))
        self._bag_round(rec, self.bag_graphs, self.backbone, out[0])

    def finish(self, rec: Record) -> None:
        if not self.fits:
            return
        first = self.fits[0][1]
        for op, out in self.fits:
            if not all(np.isfinite(e["loss"]) for e in out[1]) or not _same_fit(first, out):
                rec.fail(op)
        self._recheck_bags(rec, self.backbone)
        auc, precision, finite = explanation_quality(self.test, self.backbone, first[0])
        if not finite:
            rec.fail(self.fits[0][0])
        self.quality.update(
            test_acc=gin.evaluate_accuracy(self.test, self.backbone),
            explain_auc=auc,
            explain_precision=precision,
            mask_fraction=first[1][-1]["mean_mask_fraction"],
        )


class InferLarge(_Workload):
    name = "infer_large"

    @property
    def min_rounds(self) -> int:
        return self.sizes.infer_min_rounds

    def _graphs(self) -> GraphDataset:
        s = self.sizes
        rng = np.random.default_rng(self.seed)
        graphs = []
        for i in range(s.large_graphs):
            n = int(rng.integers(s.large_nodes[0], s.large_nodes[1] + 1))
            nxg = nx.barabasi_albert_graph(n, 2, seed=int(rng.integers(0, 2**31 - 1)))
            edges = tuple(sorted((min(a, b), max(a, b)) for a, b in nxg.edges()))
            graphs.append(Graph(num_nodes=n, edges=edges, x=constant_features(n), y=i % 2))
        return GraphDataset(
            graphs=tuple(graphs), num_classes=2, name="BALARGE", feature_spec=FeatureSpec("constant")
        )

    def setup(self, tracer=None) -> None:
        s = self.sizes
        ds = self._graphs()
        tmp = Path(tempfile.mkdtemp(prefix="tud-", dir=self.workdir))
        try:
            with _span(tracer, "tud.write_tud_dataset"):
                tud.write_tud_dataset(ds, tmp)
            self.bytes_read = sum(p.stat().st_size for p in tmp.iterdir())
            with _span(tracer, "tud.load_tud_dataset"):
                loaded = tud.load_tud_dataset(tmp, ds.name, FeatureSpec("degree", cap=s.degree_cap))
        finally:
            shutil.rmtree(tmp)
        self.graphs = list(loaded.graphs)
        rng = np.random.default_rng([self.seed, 1])
        self.backbone = gin.init_backbone(rng, s.degree_cap + 1, 2)
        self.params = explainer.init_explainer(rng, hidden=self.backbone.hidden)
        self.requests: list[tuple] = []  # (op, graphs, accuracy)

    def round(self, k: int, rec: Record) -> None:
        s, n = self.sizes, len(self.graphs)
        for r in range(s.requests_per_round):
            start = (k * s.requests_per_round + r) * s.request_graphs
            chunk = [self.graphs[(start + t) % n] for t in range(s.request_graphs)]
            op, acc, t0, t1 = rec.timed(
                "bench.classify_request", lambda: gin.evaluate_accuracy(chunk, self.backbone)
            )
            if acc is not None:
                rec.batched.append((len(chunk), t0, t1))
                rec.requests.append((1, t0, t1))
                self.requests.append((op, chunk, acc))
        first = k * s.large_bags_per_round
        picks = [(first + b) % n for b in range(s.large_bags_per_round)]
        graphs = [(self.graphs[i], explainer.mask_seed(self.seed, i)) for i in picks]
        self._bag_round(rec, graphs, self.backbone, self.params)

    def finish(self, rec: Record) -> None:
        for op, chunk, acc in self.requests:
            if not 0.0 <= acc <= 1.0:
                rec.fail(op)
        # on a sample of requests, batched labels must equal predict's
        for op, chunk, acc in self.requests[::10]:
            logits = gin.backbone_forward_batch(gin.build_graph_batch(chunk), self.backbone)[0].data
            labels = [gin.predict(g, self.backbone).label for g in chunk]
            hits = sum(lab == g.y for lab, g in zip(labels, chunk))
            if (
                not _finite(logits)
                or list(logits.argmax(axis=1)) != labels
                or acc != hits / len(chunk)
            ):
                rec.fail(op)
        self._recheck_bags(rec, self.backbone)


WORKLOADS = {w.name: w for w in (BackboneTrain, ExplainBags, InferLarge)}

"""GIN graph classifier: stacked message-passing layers, sum pooling, head.

Each layer computes MLP((1 + eps) * H + A_mask H) where A_mask is the
symmetric adjacency with one weight per undirected edge (0 for a masked
edge); eps is a learnable scalar per layer.  A batch carries its edges once,
as (E, 2) undirected pairs, and its ``SparseMatrix`` owns the directed
entries; A_mask is assembled once per forward and shared by all layers and
their backward.  Graphs are trained in block-diagonal minibatches with a
graph-indicator vector for pooling.

``train_backbone``'s per-epoch ``train_acc`` is the running minibatch
accuracy: the share of training graphs that their minibatch's logits, taken
before that minibatch's optimizer step, classify correctly.  Only the
``<name>_acc`` entries of ``eval_sets`` re-score a set with the end-of-epoch
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .autodiff import (
    SparseMatrix,
    Tensor,
    WeightedSparse,
    cross_entropy_mean,
    linear,
    relu,
    segment_sum,
    spmm,
)
from .graphs import EdgeMask, Graph
from .optim import AdamState, TrainingError, step_from_gradients

__all__ = [
    "BackboneParams",
    "GinLayerParams",
    "GraphBatch",
    "Prediction",
    "TrainConfig",
    "apply_gin_layer",
    "backbone_forward_batch",
    "build_graph_batch",
    "evaluate_accuracy",
    "frozen_forward",
    "glorot",
    "init_backbone",
    "init_gin_layer",
    "predict",
    "softmax",
    "train_backbone",
]


# There is no normalization anywhere in the stack, so plain Glorot makes the
# summed aggregation explode on high-degree nodes; halving the bound keeps
# 4-layer activations O(1) while leaving enough signal to train.
INIT_SCALE = 0.5


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = INIT_SCALE * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


@dataclass
class GinLayerParams:
    """Two-linear-layer MLP with an internal ReLU, plus the learnable eps."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    eps: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}/lin1/W": self.w1,
            f"{prefix}/lin1/b": self.b1,
            f"{prefix}/lin2/W": self.w2,
            f"{prefix}/lin2/b": self.b2,
            f"{prefix}/eps": self.eps,
        }


def init_gin_layer(rng: np.random.Generator, in_dim: int, hidden: int) -> GinLayerParams:
    return GinLayerParams(
        w1=Tensor(glorot(rng, in_dim, hidden), requires_grad=True),
        b1=Tensor(np.zeros(hidden), requires_grad=True),
        w2=Tensor(glorot(rng, hidden, hidden), requires_grad=True),
        b2=Tensor(np.zeros(hidden), requires_grad=True),
        eps=Tensor(np.asarray(0.0), requires_grad=True),
    )


@dataclass
class BackboneParams:
    layers: list[GinLayerParams]
    head_w: Tensor
    head_b: Tensor
    in_dim: int
    hidden: int
    num_classes: int

    def named(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for k, layer in enumerate(self.layers):
            out.update(layer.named(f"{prefix}layers/{k}"))
        out[f"{prefix}head/W"] = self.head_w
        out[f"{prefix}head/b"] = self.head_b
        return out

    def _map(self, wrap) -> "BackboneParams":
        return BackboneParams(
            layers=[
                GinLayerParams(wrap(l.w1), wrap(l.b1), wrap(l.w2), wrap(l.b2), wrap(l.eps))
                for l in self.layers
            ],
            head_w=wrap(self.head_w),
            head_b=wrap(self.head_b),
            in_dim=self.in_dim,
            hidden=self.hidden,
            num_classes=self.num_classes,
        )

    def copy(self) -> "BackboneParams":
        """Independent trainable parameters holding copies of the arrays."""
        return self._map(lambda t: Tensor(t.data.copy(), requires_grad=True))

    def frozen(self) -> "BackboneParams":
        """Views of the same arrays with ``requires_grad=False``.

        No data is copied, so the view follows in-place updates of the
        originals.  Forwards through it record no tape for the backbone;
        they are still taped through any input that needs a gradient.
        """
        return self._map(lambda t: Tensor(t.data))


def init_backbone(
    rng: np.random.Generator,
    in_dim: int,
    num_classes: int,
    hidden: int = 32,
    num_layers: int = 4,
) -> BackboneParams:
    layers = [init_gin_layer(rng, in_dim if k == 0 else hidden, hidden) for k in range(num_layers)]
    return BackboneParams(
        layers=layers,
        head_w=Tensor(glorot(rng, hidden, num_classes), requires_grad=True),
        head_b=Tensor(np.zeros(num_classes), requires_grad=True),
        in_dim=in_dim,
        hidden=hidden,
        num_classes=num_classes,
    )


@dataclass
class GraphBatch:
    """Block-diagonal concatenation of graphs (and optionally their masks).

    Its sizes are ``len(labels)`` graphs, ``len(x)`` nodes and
    ``len(edges)`` undirected edges.
    """

    x: np.ndarray
    node_graph: np.ndarray  # node row -> graph index
    edges: np.ndarray  # (E, 2) undirected edges in batch node ids, i < j
    adj: SparseMatrix  # the symmetric adjacency over edges
    edge_graph: np.ndarray  # undirected edge -> graph index
    labels: np.ndarray
    default_values: np.ndarray  # per-undirected-edge weights from masks (or ones)


def build_graph_batch(
    graphs: list[Graph], masks: list[EdgeMask] | None = None
) -> GraphBatch:
    """One block-diagonal batch; graph gi's nodes start at row sum(n[:gi]).

    Each mask sets its graph's edge weights and zeroes its ``zeroed_nodes``
    feature rows in the batch copy of ``x``.
    """
    if masks is not None and len(masks) != len(graphs):
        raise ValueError(f"{len(masks)} masks for {len(graphs)} graphs")
    width = graphs[0].x.shape[1] if graphs else 1
    xs, edge_arrays, num_nodes, num_edges = [], [], [], []
    for gi, g in enumerate(graphs):
        if g.x.shape[1] != width:
            raise ValueError(f"graph {gi} has {g.x.shape[1]} feature columns, graph 0 has {width}")
        xs.append(g.x)
        edge_arrays.append(g.edge_array())
        num_nodes.append(g.num_nodes)
        num_edges.append(g.num_edges)
    n = np.array(num_nodes, dtype=np.intp)
    m = np.array(num_edges, dtype=np.intp)
    offsets = np.cumsum(n) - n
    edges = np.concatenate(edge_arrays or [np.zeros((0, 2), dtype=np.intp)])
    edges += np.repeat(offsets, m)[:, None]
    # a fresh copy, so zeroing deleted nodes below never writes to g.x
    x = np.concatenate(xs or [np.zeros((0, width))], dtype=np.float64)

    if masks is None:
        values = np.ones(len(edges))
    else:
        for gi, (g, mask) in enumerate(zip(graphs, masks)):
            if mask.num_edges != g.num_edges:
                raise ValueError(
                    f"mask length {mask.num_edges} vs {g.num_edges} edges in graph {gi}"
                )
            if mask.zeroed_nodes:
                zeroed = np.asarray(mask.zeroed_nodes, dtype=np.intp)
                if zeroed.min() < 0 or zeroed.max() >= g.num_nodes:
                    raise ValueError(
                        f"mask zeroes nodes {mask.zeroed_nodes} outside 0..{g.num_nodes - 1}"
                        f" in graph {gi}"
                    )
                x[offsets[gi] + zeroed] = 0.0
        values = np.concatenate([mask.hard for mask in masks] or [np.zeros(0)], dtype=np.float64)

    graph_index = np.arange(len(graphs), dtype=np.intp)
    return GraphBatch(
        x=x,
        node_graph=np.repeat(graph_index, n),
        edges=edges,
        adj=SparseMatrix(len(x), edges),
        edge_graph=np.repeat(graph_index, m),
        labels=np.array([g.y for g in graphs], dtype=np.intp),
        default_values=values,
    )


def apply_gin_layer(layer: GinLayerParams, h: Tensor, adj: WeightedSparse) -> Tensor:
    agg = spmm(adj, h)
    z = h * (layer.eps + 1.0) + agg
    z = relu(linear(z, layer.w1, layer.b1))
    return linear(z, layer.w2, layer.b2)


def backbone_forward_batch(
    batch: GraphBatch,
    params: BackboneParams,
    mask_values: Tensor | None = None,
) -> tuple[Tensor, Tensor]:
    """Forward over a batch; returns (logits, last-layer node states).

    mask_values, when given, is a per-undirected-edge weight tensor that
    overrides the batch defaults; gradients flow through it into the mask
    machinery.
    """
    if batch.x.shape[1] != params.in_dim:
        raise ValueError(f"feature dim {batch.x.shape[1]} vs layer-0 input {params.in_dim}")
    adj = batch.adj.assemble(batch.default_values if mask_values is None else mask_values)
    h = Tensor(batch.x)
    for layer in params.layers:
        h = apply_gin_layer(layer, h, adj)
    pooled = segment_sum(h, batch.node_graph, len(batch.labels))
    return linear(pooled, params.head_w, params.head_b), h


# graphs per untaped forward; bounds the activations one forward holds
FORWARD_CHUNK = 256


def frozen_forward(
    graphs: list[Graph], params: BackboneParams
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Untaped logits (G, C) and each graph's last-layer node states.

    Runs ``FORWARD_CHUNK`` graphs per block-diagonal forward through
    ``params.frozen()``, so no tape is built and no ``.grad`` is touched.
    Node states equal those of a one-graph call bit for bit; logits may
    differ from it in the last digits.
    """
    frozen = params.frozen()
    logits, states = [], []
    for start in range(0, len(graphs), FORWARD_CHUNK):
        chunk = graphs[start : start + FORWARD_CHUNK]
        out, h = backbone_forward_batch(build_graph_batch(chunk), frozen)
        logits.append(out.data)
        bounds = list(accumulate((g.num_nodes for g in chunk), initial=0))
        states.extend(h.data[a:b] for a, b in zip(bounds, bounds[1:]))
    return np.concatenate(logits or [np.zeros((0, params.num_classes))]), states


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class Prediction:
    label: int
    probs: np.ndarray


def predict(g: Graph, params: BackboneParams) -> Prediction:
    logits, _ = frozen_forward([g], params)
    probs = softmax(logits[0])
    return Prediction(label=int(np.argmax(probs)), probs=probs)


def evaluate_accuracy(graphs: list[Graph], params: BackboneParams) -> float:
    if not graphs:
        return float("nan")
    logits, _ = frozen_forward(graphs, params)
    labels = np.array([g.y for g in graphs], dtype=np.intp)
    return int((logits.argmax(axis=1) == labels).sum()) / len(graphs)


@dataclass
class TrainConfig:
    epochs: int = 350
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    hidden: int = 32
    num_layers: int = 4

    def __post_init__(self):
        for name in ("batch_size", "hidden", "num_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} {getattr(self, name)} must be >= 1")
        if not np.isfinite(self.lr):
            raise ValueError(f"lr {self.lr} must be finite")
        for name in ("epochs", "lr"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} {getattr(self, name)} must be >= 0")


def train_backbone(
    graphs: list[Graph],
    num_classes: int,
    cfg: TrainConfig,
    eval_sets: dict[str, list[Graph]] | None = None,
) -> tuple[BackboneParams, list[dict]]:
    """Minibatch cross-entropy training; deterministic under cfg.seed.

    Each history entry holds the epoch's mean minibatch ``loss`` and its
    ``train_acc``, the running minibatch accuracy: the fraction of training
    graphs classified correctly by their minibatch's logits before that
    minibatch's step.  Each ``eval_sets`` entry adds ``<name>_acc``, the
    exact accuracy of the end-of-epoch parameters on that set.
    """
    if not graphs:
        raise ValueError("empty training set")
    for i, g in enumerate(graphs):
        if not 0 <= g.y < num_classes:
            raise ValueError(f"graph {i} has label {g.y} outside 0..{num_classes - 1}")
    rng = np.random.default_rng(cfg.seed)
    params = init_backbone(
        rng, graphs[0].x.shape[1], num_classes, hidden=cfg.hidden, num_layers=cfg.num_layers
    )
    named = params.named()
    state = AdamState()
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(graphs))
        losses, hits = [], 0
        for start in range(0, len(order), cfg.batch_size):
            chunk = [graphs[i] for i in order[start : start + cfg.batch_size]]
            batch = build_graph_batch(chunk)
            logits, _ = backbone_forward_batch(batch, params)
            loss = cross_entropy_mean(logits, batch.labels)
            if not np.isfinite(loss.data):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            hits += int((logits.data.argmax(axis=1) == batch.labels).sum())
            loss.backward()
            step_from_gradients(named, state, cfg.lr)
            losses.append(loss.item())
        entry = {"epoch": epoch, "loss": float(np.mean(losses)), "train_acc": hits / len(graphs)}
        for name, subset in (eval_sets or {}).items():
            entry[f"{name}_acc"] = evaluate_accuracy(subset, params)
        history.append(entry)
    return params, history

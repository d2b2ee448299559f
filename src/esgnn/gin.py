"""GIN graph classifier: stacked message-passing layers, sum pooling, head.

Each layer computes MLP((1 + eps) * H + A_mask H) where A_mask is the
symmetric adjacency with one weight per undirected edge (0 for a masked
edge); eps is a learnable scalar per layer.  A layer is one taped op: its
backward returns the gradients of the edge weights, H, eps and the MLP's
two weights and biases at once, bit-identical to the same layer composed
of ``spmm``, ``mul``, ``add``, ``linear`` and ``relu``.  A batch holds its
edges once, as the (E, 2) undirected pairs ``batch.adj.edges``, and no
code here indexes directed entries: the edge-weight gradient comes from
``SparseMatrix.weight_grad``, one value per undirected edge.  A_mask is
assembled once per forward and shared by all layers and their backward.
A layer applies its ReLU in place.  When no input requires a gradient, as
in ``frozen_forward``, the tape drops the layer's backward closure, so the
layer keeps nothing and records no node.  Graphs are trained in
block-diagonal minibatches whose node and edge offsets are the only record
of which rows and edges belong to which graph; a batch builds its sum-pooling
CSR from the node offsets once, and a forward pools with one product.  Adam
updates all parameters in one flat vector step (``optim``).

``train_backbone``'s per-epoch ``train_acc`` is the running minibatch
accuracy: the share of training graphs that their minibatch's logits, taken
before that minibatch's optimizer step, classify correctly.  Only the
``<name>_acc`` entries of ``eval_sets`` re-score a set with the end-of-epoch
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .autodiff import (
    DimensionError,
    SparseMatrix,
    Tensor,
    WeightedSparse,
    cross_entropy_mean,
    custom_primitive,
    linear,
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
    """GIN layers and a linear head; every size is read off the arrays."""

    layers: list[GinLayerParams]
    head_w: Tensor
    head_b: Tensor

    @property
    def in_dim(self) -> int:
        """Feature width of layer 0's input; ``hidden`` with no layers."""
        return self.layers[0].w1.data.shape[0] if self.layers else self.hidden

    @property
    def hidden(self) -> int:
        return self.head_w.data.shape[0]

    @property
    def num_classes(self) -> int:
        return self.head_w.data.shape[1]

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
    )


@dataclass
class GraphBatch:
    """Block-diagonal concatenation of graphs (and optionally their masks).

    Its sizes are ``len(labels)`` graphs, ``len(x)`` nodes and
    ``adj.num_edges`` undirected edges.
    """

    x: np.ndarray
    node_offsets: np.ndarray  # (graphs + 1,) first node row of each graph, then len(x)
    pool: scipy.sparse.csr_matrix  # (graphs, nodes) ones; row g sums graph g's rows in order
    adj: SparseMatrix  # the symmetric adjacency over adj.edges, (E, 2) batch node ids, i < j
    edge_offsets: np.ndarray  # (graphs + 1,) first edge of each graph, then adj.num_edges
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
        edge_arrays.append(g.edges)
        num_nodes.append(g.num_nodes)
        num_edges.append(g.num_edges)
    node_offsets = np.cumsum([0, *num_nodes], dtype=np.intp)
    edge_offsets = np.cumsum([0, *num_edges], dtype=np.intp)
    edges = np.concatenate(edge_arrays or [np.zeros((0, 2), dtype=np.intp)])
    edges += np.repeat(node_offsets[:-1], num_edges)[:, None]
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
                x[node_offsets[gi] + zeroed] = 0.0
        values = np.concatenate([mask.hard for mask in masks] or [np.zeros(0)], dtype=np.float64)

    # each graph's rows are contiguous, so row g of the pooling operator lists
    # rows node_offsets[g]..node_offsets[g + 1] - 1 in order, as segment_sum's would
    pool = scipy.sparse.csr_matrix(
        (np.ones(len(x)), np.arange(len(x), dtype=np.int32), node_offsets.astype(np.int32)),
        shape=(len(graphs), len(x)),
    )
    return GraphBatch(
        x=x,
        node_offsets=node_offsets,
        pool=pool,
        adj=SparseMatrix(len(x), edges),
        edge_offsets=edge_offsets,
        labels=np.array([g.y for g in graphs], dtype=np.intp),
        default_values=values,
    )


def apply_gin_layer(layer: GinLayerParams, h: Tensor, adj: WeightedSparse) -> Tensor:
    """MLP((1 + eps) * h + A h) as one taped op over the layer's seven inputs.

    The forward applies the ReLU in place.  The backward closure keeps the
    MLP input ``z`` and the hidden activations ``r``; when no input requires
    a gradient the tape drops it, so an untaped layer keeps nothing and
    records no node.  The backward returns the gradients of the edge
    weights, ``h``, ``eps``, ``w1``, ``b1``, ``w2`` and ``b2`` with the same
    arithmetic as the composed ``spmm``/``mul``/``add``/``linear``/``relu``
    ops, so the two agree bit for bit.
    """
    pattern, weights = adj.pattern, adj.weights
    eps, w1, b1, w2, b2 = layer.eps, layer.w1, layer.b1, layer.w2, layer.b2
    if h.data.ndim != 2 or h.data.shape[0] != pattern.n:
        raise DimensionError(f"GIN layer: states {h.data.shape} vs {pattern.n} nodes")
    if h.data.shape[1] != w1.data.shape[0]:
        raise DimensionError(f"GIN layer: states {h.data.shape} vs weight {w1.data.shape}")
    scale = eps.data + 1.0
    z = h.data * scale + adj.csr @ h.data
    r = z @ w1.data
    r += b1.data
    np.maximum(r, 0.0, out=r)
    out = r @ w2.data
    out += b2.data
    needs_gz = weights.requires_grad or h.requires_grad or eps.requires_grad

    def _bp(grad):
        # r > 0 exactly where the pre-activation was > 0 (NaN in neither)
        ga = (grad @ w2.data.T) * (r > 0)
        gz = ga @ w1.data.T if needs_gz else None
        return (
            pattern.weight_grad(gz, h.data) if weights.requires_grad else None,
            gz * scale + adj.csr @ gz if h.requires_grad else None,
            (gz * h.data).sum(axis=0).sum(axis=0) if eps.requires_grad else None,
            z.T @ ga if w1.requires_grad else None,
            ga.sum(axis=0) if b1.requires_grad else None,
            r.T @ grad if w2.requires_grad else None,
            grad.sum(axis=0) if b2.requires_grad else None,
        )

    return custom_primitive(out, (weights, h, eps, w1, b1, w2, b2), _bp)


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
    pooled = custom_primitive(
        batch.pool @ h.data, (h,), lambda g: (np.repeat(g, np.diff(batch.node_offsets), 0),)
    )
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
        batch = build_graph_batch(graphs[start : start + FORWARD_CHUNK])
        out, h = backbone_forward_batch(batch, frozen)
        logits.append(out.data)
        bounds = batch.node_offsets.tolist()
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
    """Share of graphs whose argmax logit is their label.

    Scores one ``FORWARD_CHUNK`` at a time, so each chunk's node states are
    freed before the next chunk runs.
    """
    if not graphs:
        return float("nan")
    hits = 0
    for start in range(0, len(graphs), FORWARD_CHUNK):
        chunk = graphs[start : start + FORWARD_CHUNK]
        logits = frozen_forward(chunk, params)[0]
        labels = np.array([g.y for g in chunk], dtype=np.intp)
        hits += int((logits.argmax(axis=1) == labels).sum())
    return hits / len(graphs)


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
    state = AdamState(params.named())
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(graphs))
        losses, hits = [], 0
        for bi, start in enumerate(range(0, len(order), cfg.batch_size)):
            chunk = [graphs[i] for i in order[start : start + cfg.batch_size]]
            batch = build_graph_batch(chunk)
            logits, _ = backbone_forward_batch(batch, params)
            loss = cross_entropy_mean(logits, batch.labels)
            if not np.isfinite(loss.data):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {bi}")
            hits += int((logits.data.argmax(axis=1) == batch.labels).sum())
            loss.backward()
            step_from_gradients(state, cfg.lr)
            losses.append(loss.item())
        entry = {"epoch": epoch, "loss": float(np.mean(losses)), "train_acc": hits / len(graphs)}
        for name, subset in (eval_sets or {}).items():
            entry[f"{name}_acc"] = evaluate_accuracy(subset, params)
        history.append(entry)
    return params, history

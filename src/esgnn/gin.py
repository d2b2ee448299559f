"""GIN graph classifier: stacked message-passing layers, sum pooling, head.

Each layer computes MLP((1 + eps) * H + A_mask H) where A_mask is the
symmetric adjacency with one weight per undirected edge (0 for a masked
edge); eps is a learnable scalar per layer.  Its forward arithmetic lives
once, in the array kernel ``_gin_layer``: the sparse product A H, the
scale-add and ``_mlp``, the package's one two-layer ReLU MLP.  Two loops
call it, each in one mode.  ``backbone_forward_batch`` runs the taped op
``apply_gin_layer`` per layer, one kernel call over all rows whose
backward returns the gradients of the edge weights, H, eps and the MLP's
two weights and biases at once from ``_mlp_grads``, bit-identical to the
same layer composed of ``spmm``, ``mul``, ``add``, ``linear`` and ``relu``:
both take their sums over rows with ``autodiff.col_sum`` and their
products by transposed weights with ``autodiff.times_transpose``; with no
input taped it records nothing.  ``untaped_states`` calls the kernel
directly on the parameters' arrays and a bare CSR, in row blocks with bias
tiles above ``ROW_BLOCK + 1`` rows, with no Tensor, closure or tape
node: it is the forward of ``frozen_forward`` (and so of
``evaluate_accuracy``, ``predict`` and ``train_explainer``'s targets and
node states) and of ``explainer.edge_scores``.  A batch holds its edges
once, as the (E, 2) undirected pairs ``batch.edges``, and no code here
indexes directed entries: the edge-weight gradient comes from
``WeightedSparse.weight_grad``, one value per undirected edge.  Graphs are
trained in block-diagonal minibatches whose node and edge offsets are the
only record of which rows and edges belong to which graph.
``build_graph_batch`` joins its graphs' sorted CSR layouts
(``Graph.entry_layout``, sorted once per graph) with no sort;
``backbone_forward_batch`` puts the edge weights on that layout once, in
the forward that uses it, shares the CSR with every layer and their
backward, and pools each graph's states with one product by a sum-pooling
CSR built from the node offsets; ``frozen_forward`` builds the same CSR and
pooling on arrays (``autodiff._layout_csr``, ``autodiff._affine``), and
``explainer.edge_scores`` runs ``untaped_states`` on one graph's cached
``Graph.adjacency``, with no batch.  Adam updates all parameters in one
flat vector step (``optim``).

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
    Tensor,
    WeightedSparse,
    _affine,
    _csr,
    _layout_csr,
    col_sum,
    concat_entries,
    cross_entropy_mean,
    custom_primitive,
    from_layout,
    linear,
    times_transpose,
)
from .graphs import EdgeMask, Graph, _check_count, _check_real, _misfit
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
    "untaped_states",
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
    ``len(edges)`` undirected edges.
    """

    x: np.ndarray
    node_offsets: np.ndarray  # (graphs + 1,) first node row of each graph, then len(x)
    edges: np.ndarray  # (E, 2) intp batch node ids, i < j, each graph's in its own order
    edge_offsets: np.ndarray  # (graphs + 1,) first edge of each graph, then len(edges)
    labels: np.ndarray
    default_values: np.ndarray | None  # per-undirected-edge weights from masks; None: all 1
    entry_layout: np.ndarray  # the adjacency's CSR layout, joined from the graphs' layouts


def build_graph_batch(
    graphs: list[Graph], masks: list[EdgeMask] | None = None
) -> GraphBatch:
    """One block-diagonal batch; graph gi's nodes start at row sum(n[:gi]).

    Mask gi must fit graph gi (``graphs._misfit``; a misfit is named "mask
    gi"); it sets its graph's edge weights and zeroes its ``zeroed_nodes``
    feature rows in the batch copy of ``x``; with no masks every edge weighs
    1.  The batch's CSR layout is its graphs' ``entry_layout`` joined by
    ``autodiff.concat_entries``: a graph sorts its entries the first time a
    batch holds it, and never again.  A batch of 2**31 nodes or directed
    entries or more is rejected, naming both counts, before any n-sized
    array is made.
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
    # checks the int32 sizes before any graph sorts its entries
    layout = concat_entries((g.entry_layout for g in graphs), node_offsets, edge_offsets)
    edges = np.concatenate(edge_arrays or [np.zeros((0, 2), dtype=np.intp)])
    # both ends of graph gi's edges move by its first node row, as one (E, 2) add
    edges += np.repeat(node_offsets[:-1], 2 * np.diff(edge_offsets)).reshape(-1, 2)
    # a fresh copy, so zeroing deleted nodes below never writes to g.x
    x = np.concatenate(xs or [np.zeros((0, width))], dtype=np.float64)

    values = None
    if masks is not None:
        for gi, (g, mask) in enumerate(zip(graphs, masks)):
            fault = _misfit(mask, g)
            if fault is not None:
                raise ValueError(f"mask {gi} {fault}")
            if mask.zeroed_nodes:
                x[node_offsets[gi] + np.asarray(mask.zeroed_nodes, dtype=np.intp)] = 0.0
        values = np.concatenate([mask.hard for mask in masks] or [np.zeros(0)], dtype=np.float64)

    return GraphBatch(
        x=x,
        node_offsets=node_offsets,
        edges=edges,
        edge_offsets=edge_offsets,
        labels=np.array([g.y for g in graphs], dtype=np.intp),
        default_values=values,
        entry_layout=layout,
    )


def _add_bias(a, bias):
    """``a += bias`` on every row; a 2-D ``bias`` is a tile of equal bias rows.

    numpy adds a 1-D bias with one short inner loop per row.  A tile is
    added one tile of rows at a time, each a single contiguous add of two
    arrays of the same shape; the sums are the same.
    """
    if bias.ndim == 1:
        a += bias
        return
    for start in range(0, len(a), len(bias)):
        rows = a[start : start + len(bias)]
        rows += bias[: len(rows)]


def _mlp(x, w1, w2, biases, r=None, out=None):
    """``relu(x @ w1 + b1) @ w2 + b2``, the one MLP forward (GIN layer, edge scorer).

    ``biases`` are b1 and b2 as vectors or tiles (``_add_bias``).  Returns the
    hidden activations and the output, written to ``r`` and ``out`` if given.
    """
    r = np.matmul(x, w1, out=r)
    _add_bias(r, biases[0])
    np.maximum(r, 0.0, out=r)
    out = np.matmul(r, w2, out=out)
    _add_bias(out, biases[1])
    return r, out


def _mlp_grads(grad, x, r, w1, b1, w2, b2, needs_gx, x_grads):
    """The one MLP backward: the gradients behind x, then those of w1, b1, w2 and b2.

    They are those of the composed ``linear``/``relu`` ops, bit for bit:
    the bias gradients are the same ``autodiff.col_sum`` of rows and the
    products by the transposed weights the same ``autodiff.times_transpose``
    that ``linear``'s backward takes.  ``x`` and ``r`` are the forward's
    input and hidden activations.  ``x_grads`` maps the gradient of x, None
    unless ``needs_gx``, to the tuple of gradients of the inputs x was
    computed from; the weights' and biases' follow, each None unless its
    Tensor requires one.
    """
    ga = times_transpose(grad, w2.data)
    # r > 0 exactly where the pre-activation was > 0 (NaN in neither)
    np.multiply(ga, r > 0, out=ga)
    gx = times_transpose(ga, w1.data) if needs_gx else None
    # the inputs' gradients come first, while ga and gx live: made after the
    # weights', they left the heap so that train_backbone's untaped held-out
    # forward between epochs ran about 20% slower
    return (
        *x_grads(gx),
        x.T @ ga if w1.requires_grad else None,
        col_sum(ga) if b1.requires_grad else None,
        r.T @ grad if w2.requires_grad else None,
        col_sum(grad) if b2.requires_grad else None,
    )


def _gin_layer(h, csr, eps, w1, b1, w2, b2, keep):
    """The GIN layer's forward on arrays: MLP((1 + eps) * h + A h), A = ``csr``.

    Checks the states against the adjacency and the first weight, then adds
    ``(1 + eps) * h`` to ``z = A h`` and runs ``_mlp`` on it.  With ``keep``
    it returns ``z``, the hidden activations and the output, for a backward:
    ``apply_gin_layer`` always keeps them.  Without it, as only
    ``untaped_states`` calls it, a layer of at most ``ROW_BLOCK + 1`` rows
    runs the same one call, and a larger one runs in blocks of ``ROW_BLOCK``
    rows that stay in cache, with one block's scratch for the hidden
    activations, the output written over ``z`` when the widths match and the
    biases added from tiles; it then returns None, None and the output.  Addition commutes
    exactly, so a block's rows equal those of one call bit for bit wherever
    BLAS gives a row the same sums whatever the row count, as OpenBLAS does
    for output widths that are multiples of 8.
    """
    n = csr.shape[0]
    if h.ndim != 2 or h.shape[0] != n:
        raise DimensionError(f"GIN layer: states {h.shape} vs {n} nodes")
    if h.shape[1] != w1.shape[0]:
        raise DimensionError(f"GIN layer: states {h.shape} vs weight {w1.shape}")
    scale = eps + 1.0
    z = csr @ h
    if keep or n <= ROW_BLOCK + 1:
        z += h * scale
        r, out = _mlp(z, w1, w2, (b1, b2))
        return z, r, out
    r = np.empty((ROW_BLOCK + 1, w1.shape[1]))
    out = z if z.shape[1] == w2.shape[1] else np.empty((n, w2.shape[1]))
    biases = tuple(np.tile(b, ((ROW_BLOCK + 1) // 2, 1)) for b in (b1, b2))
    # the last block takes a lone leftover row, which BLAS would multiply
    # on its matrix-vector path, whose sums can differ in the last bits
    starts = range(0, n - 1, ROW_BLOCK)
    for a, b in zip(starts, [*starts[1:], n]):
        z[a:b] += h[a:b] * scale
        _mlp(z[a:b], w1, w2, biases, r[: b - a], out[a:b])
    return None, None, out


def apply_gin_layer(layer: GinLayerParams, h: Tensor, adj: WeightedSparse) -> Tensor:
    """MLP((1 + eps) * h + A h) as one taped op over the layer's seven inputs.

    The forward is one ``_gin_layer`` call over all rows, kept for the
    backward; when no input is taped, ``custom_primitive`` records nothing.
    The backward is ``_mlp_grads``, which maps the gradient of ``z`` to
    those of the edge weights, ``h`` and ``eps``; all seven are bit for bit
    those of the composed ``spmm``/``mul``/``add``/``linear``/``relu`` ops.
    """
    weights = adj.weights
    eps, w1, b1, w2, b2 = layer.eps, layer.w1, layer.b1, layer.w2, layer.b2
    z, r, out = _gin_layer(
        h.data, adj.csr, eps.data, w1.data, b1.data, w2.data, b2.data, keep=True
    )
    needs_gz = weights.requires_grad or h.requires_grad or eps.requires_grad

    def _input_grads(gz):
        gh = None
        if h.requires_grad:
            # spmm's path plus mul's; addition commutes exactly
            gh = adj.csr @ gz
            gh += gz * (eps.data + 1.0)
        return (
            adj.weight_grad(gz, h.data) if weights.requires_grad else None,
            gh,
            # mul's unbroadcast of (n, d) to eps's shape ()
            col_sum(col_sum(gz * h.data)) if eps.requires_grad else None,
        )

    def _bp(grad):
        return _mlp_grads(grad, z, r, w1, b1, w2, b2, needs_gz, _input_grads)

    return custom_primitive(out, (weights, h, eps, w1, b1, w2, b2), _bp)


def _check_features(x: np.ndarray, params: BackboneParams) -> None:
    if x.shape[1] != params.in_dim:
        raise ValueError(f"feature dim {x.shape[1]} vs layer-0 input {params.in_dim}")


def untaped_states(x: np.ndarray, csr, params: BackboneParams) -> np.ndarray:
    """Last-layer node states of features ``x`` over the CSR ``csr``, with no tape.

    ``backbone_forward_batch``'s layer loop on the parameters' arrays: every
    layer is one ``_gin_layer`` call, in row blocks above ``ROW_BLOCK + 1``
    rows; no Tensor is made and no ``.grad`` touched.  ``frozen_forward``
    runs it on a batch and ``explainer.edge_scores`` on one graph's cached
    ``Graph.adjacency``.
    """
    _check_features(x, params)
    h = np.asarray(x, dtype=np.float64)
    for layer in params.layers:
        arrays = (layer.eps.data, layer.w1.data, layer.b1.data, layer.w2.data, layer.b2.data)
        h = _gin_layer(h, csr, *arrays, keep=False)[2]
    return h


def _pool_matrix(node_offsets: np.ndarray) -> scipy.sparse.csr_matrix:
    """The (graphs, nodes) CSR of ones whose row g sums graph g's node rows.

    Row g lists rows node_offsets[g] to node_offsets[g + 1] - 1 in order, as
    segment_sum's would.
    """
    n = int(node_offsets[-1])
    indptr = node_offsets.astype(np.int32)
    return _csr(np.ones(n), np.arange(n, dtype=np.int32), indptr, (len(node_offsets) - 1, n))


def backbone_forward_batch(
    batch: GraphBatch,
    params: BackboneParams,
    mask_values: Tensor | None = None,
) -> tuple[Tensor, Tensor]:
    """Forward over a batch; returns (logits, last-layer node states).

    Builds the batch adjacency once, from the batch's CSR layout with no
    sort (``autodiff.from_layout``), and runs ``apply_gin_layer`` over it
    per layer.
    mask_values, when given, is a per-undirected-edge weight tensor that
    overrides the batch defaults; gradients flow through it into the mask
    machinery.  Each graph's states are then summed by one product with a
    (graphs, nodes) CSR of ones, whose row g lists rows node_offsets[g] to
    node_offsets[g + 1] - 1 in order, as segment_sum's would, and fed to
    the linear head.
    """
    _check_features(batch.x, params)
    weights = batch.default_values if mask_values is None else mask_values
    adj = from_layout(len(batch.x), batch.edges, weights, batch.entry_layout)
    h = Tensor(batch.x)
    for layer in params.layers:
        h = apply_gin_layer(layer, h, adj)
    pooled = custom_primitive(
        _pool_matrix(batch.node_offsets) @ h.data,
        (h,),
        lambda g: (np.repeat(g, np.diff(batch.node_offsets), 0),),
    )
    return linear(pooled, params.head_w, params.head_b), h


# graphs per untaped forward; bounds the activations one forward holds
FORWARD_CHUNK = 256
# node rows per block of a GIN layer's dense half: a block's (512, 32)
# float64 operands stay in cache; 512 was faster than 256, 1024 and 2048
ROW_BLOCK = 512


def frozen_forward(
    graphs: list[Graph], params: BackboneParams
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Untaped logits (G, C) and each graph's last-layer node states.

    Runs ``FORWARD_CHUNK`` graphs per block-diagonal batch through
    ``untaped_states`` and pools and applies the head on arrays, with
    ``backbone_forward_batch``'s arithmetic: no Tensor is made, so no tape
    is built and no ``.grad`` is touched.
    A graph's node states equal those of a one-graph call bit for bit when
    the hidden width is a multiple of 8 and the graph has at least 2 nodes:
    OpenBLAS then gives each row the same sums whatever the row count.  A
    one-node graph alone is multiplied on BLAS's matrix-vector path, whose
    sums can differ in the last bits.  Logits may differ from a one-graph
    call in the last digits.
    """
    logits, states = [], []
    for start in range(0, len(graphs), FORWARD_CHUNK):
        batch = build_graph_batch(graphs[start : start + FORWARD_CHUNK])
        csr = _layout_csr(len(batch.x), batch.edges, None, batch.entry_layout)
        h = untaped_states(batch.x, csr, params)
        pooled = _pool_matrix(batch.node_offsets) @ h
        logits.append(_affine(pooled, params.head_w.data, params.head_b.data))
        bounds = batch.node_offsets.tolist()
        states.extend(h[a:b] for a, b in zip(bounds, bounds[1:]))
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
            _check_count(name, getattr(self, name), 1)
        _check_count("epochs", self.epochs, 0)
        _check_count("seed", self.seed, 0)
        _check_real("lr", self.lr)
        if self.lr < 0:
            raise ValueError(f"lr {self.lr} must be >= 0")


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
    _check_count("num_classes", num_classes, 1)
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

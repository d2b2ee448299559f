"""Learned hard edge-mask explanations over a frozen classifier.

A small MLP maps concatenated endpoint embeddings [z_i ; z_j] to one logit
per undirected edge.  Its forward arithmetic lives once, in the array
kernel ``_edge_mlp``: one gather of both endpoints, then the GIN layer's
MLP kernel ``gin._mlp``.  ``edge_logits`` is the taped op around it, from
the gather to the logits, with ``gin._mlp_grads`` as its backward; it has
one mode, and untaped scores call the kernel on arrays instead.  Soft
weights come from a binary-concrete relaxation (logistic noise,
temperature tau), all drawn by ``concrete_sample``: by taped ops for a
Tensor of logits, as in training, and on arrays through
``autodiff._sigmoid`` for the bag generators' array scores.  The
classifier only ever sees hard binary masks, obtained either by
thresholding or by an exact top-K budget, with a straight-through
estimator carrying gradients back to the logits.  The sparsity penalty
acts on the hard bits, i.e. it counts selected edges.
``edge_scores`` runs only the backbone's layers, by ``gin.untaped_states``
on its one graph's cached CSR, ``Graph.adjacency``, with no batch,
pooling or head, then ``_edge_mlp``, all on the parameters' arrays: it
makes no Tensor, frozen view or closure.  ``train_explainer`` scores a
batch's ``edges`` on the node states one ``frozen_forward`` returned, and
feeds the hard bits to the batch forward as its edge weights.  Every bag's
masks are built from its (m, E) soft and hard blocks by
``EdgeMask.block``, and a bag's JSON packs and unpacks the bits of all its
masks in one array pass.  ``bag_from_json`` checks only the document's own
form and leaves every mask rule to ``graphs``: ``EdgeMask.block`` builds
the masks and ``SubgraphBag`` the bag, as for every other bag.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    DimensionError,
    Tensor,
    _sigmoid,
    cross_entropy_mean,
    custom_primitive,
    reshape,
    segment_matrix,
    sigmoid,
    sum_all,
)
from .gin import (
    BackboneParams,
    _mlp,
    _mlp_grads,
    backbone_forward_batch,
    build_graph_batch,
    frozen_forward,
    glorot,
    untaped_states,
)
from .graphs import (
    POLICY_TAGS,
    EdgeMask,
    Graph,
    PolicyError,
    SubgraphBag,
    _check_count,
    _check_real,
    _is_real,
)
from .optim import AdamState, TrainingError, step_from_gradients

__all__ = [
    "ExplainerConfig",
    "ExplainerParams",
    "bag_from_json",
    "bag_to_json",
    "concrete_sample",
    "edge_logits",
    "generate_bag_noise",
    "generate_bag_topk",
    "hard_threshold",
    "init_explainer",
    "mask_seed",
    "topk_binarize",
    "train_explainer",
]

# top-K bag budgets, as fractions of the graph's edges
DEFAULT_FRACTIONS = (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75)
# bags are drawn at temperature 1
BAG_TAU = 1.0
# soft weights above this become hard bits, in training and in noise bags
THRESHOLD = 0.5
# hidden width of the edge MLP
MLP_WIDTH = 32


@dataclass
class ExplainerParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named(self) -> dict[str, Tensor]:
        return {
            "explainer/lin1/W": self.w1,
            "explainer/lin1/b": self.b1,
            "explainer/lin2/W": self.w2,
            "explainer/lin2/b": self.b2,
        }


def init_explainer(rng: np.random.Generator, hidden: int = 32) -> ExplainerParams:
    return ExplainerParams(
        w1=Tensor(glorot(rng, 2 * hidden, MLP_WIDTH), requires_grad=True),
        b1=Tensor(np.zeros(MLP_WIDTH), requires_grad=True),
        w2=Tensor(glorot(rng, MLP_WIDTH, 1), requires_grad=True),
        b2=Tensor(np.zeros(1), requires_grad=True),
    )


@dataclass
class ExplainerConfig:
    tau_start: float = 5.0
    tau_end: float = 1.0
    lam: float = 0.1
    noise_scale: float = 1.0
    epochs: int = 30
    lr: float = 3e-3
    batch_size: int = 32

    def __post_init__(self):
        for name in ("tau_start", "tau_end", "lam", "noise_scale", "lr"):
            _check_real(name, getattr(self, name))
        if self.tau_start <= 0 or self.tau_end <= 0:
            raise ValueError(
                f"tau_start {self.tau_start} and tau_end {self.tau_end} must be positive"
            )
        for name in ("lam", "noise_scale", "lr"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} {getattr(self, name)} must be >= 0")
        _check_count("epochs", self.epochs, 0)
        _check_count("batch_size", self.batch_size, 1)

    def tau_at(self, epoch: int) -> float:
        if self.epochs <= 1:
            return self.tau_end
        step = (self.tau_end - self.tau_start) / (self.epochs - 1)
        return self.tau_start + step * epoch


def _edge_mlp(Z, edges, w1, b1, w2, b2):
    """The edge MLP's forward on arrays: one logit per edge of the (E, 2) ``edges``.

    Checks the states' width against the first weight (2 * width rows) and
    the shapes ``init_explainer`` gives the weights and biases, then gathers
    both endpoints' rows of ``Z`` in one gather, which lays them out as the
    concatenated pairs [z_i ; z_j], and runs ``gin._mlp`` on them in one
    call.  Returns the pairs, the hidden activations and the (E,) logits.
    """
    if Z.ndim != 2 or w1.ndim != 2 or 2 * Z.shape[1] != w1.shape[0]:
        raise DimensionError(f"edge MLP: states {Z.shape} vs weight {w1.shape}")
    hidden = w1.shape[1]
    if b1.shape != (hidden,) or w2.shape != (hidden, 1) or b2.shape != (1,):
        raise DimensionError(
            f"edge MLP: weight {w1.shape} with bias {b1.shape},"
            f" weight {w2.shape} with bias {b2.shape}"
        )
    # row k is [z_i ; z_j] for edge k = (i, j): both ends in one gather
    pair = Z.take(edges.reshape(-1), axis=0).reshape(len(edges), w1.shape[0])
    h, out = _mlp(pair, w1, w2, (b1, b2))
    return pair, h, out.reshape(len(edges))


def edge_logits(Z: Tensor, edges: np.ndarray, params: ExplainerParams) -> Tensor:
    """One logit per undirected edge from [z_i ; z_j] on the canonical i < j pair.

    One taped op over ``Z``, ``w1``, ``b1``, ``w2`` and ``b2`` whose forward
    is ``_edge_mlp``; with no input taped, ``custom_primitive`` records
    nothing.  Untaped scores run ``_edge_mlp`` on arrays (``edge_scores``).
    The backward is ``gin._mlp_grads``, which sums the pairs' gradient onto
    each end by one product with that end's ``autodiff.segment_matrix`` and
    adds the two, with the same arithmetic as the composed ``gather_rows``/
    ``concat_cols``/``linear``/``relu``/``linear``/``reshape`` ops, so the
    two agree bit for bit.
    """
    w1, b1, w2, b2 = params.w1, params.b1, params.w2, params.b2
    pair, h, logits = _edge_mlp(Z.data, edges, w1.data, b1.data, w2.data, b2.data)

    def _z_grad(gpair):
        if gpair is None:
            return (None,)
        n, split = Z.data.shape
        # each end's rows are summed apart, in edge order, and then added, as
        # the two gathers' scatters are
        gi = segment_matrix(edges[:, 0], n) @ gpair[:, :split]
        gj = segment_matrix(edges[:, 1], n) @ gpair[:, split:]
        return (gi + gj,)

    def _bp(grad):
        grad = grad.reshape(len(edges), 1)
        return _mlp_grads(grad, pair, h, w1, b1, w2, b2, Z.requires_grad, _z_grad)

    return custom_primitive(logits, (Z, w1, b1, w2, b2), _bp)


def concrete_sample(omega: Tensor | np.ndarray, tau: float, noise_scale: float, seeds) -> Tensor:
    """(len(seeds), E) binary-concrete soft weights over the E logits ``omega``.

    Row t is sigmoid((omega + noise_scale * logistic) / tau), its Logistic(0, 1)
    draws from ``default_rng(seeds[t])``.  noise_scale = 0 draws nothing and
    gives the deterministic map sigmoid(omega / tau) in every row.  A
    Tensor ``omega`` gets the taped ``add``, ``mul`` and ``sigmoid`` ops; an
    array, as the bag generators give, the same arithmetic on arrays,
    through ``autodiff._sigmoid``, wrapped in one Tensor: addition commutes
    exactly, so both give the same bits.  ``tau`` and ``noise_scale`` must
    be real numbers; a bool or a string counts as none.
    """
    for name, value in (("tau", tau), ("noise_scale", noise_scale)):
        if not _is_real(value):
            raise ValueError(f"{name} {value!r} must be a real number")
    if not tau > 0:  # NaN too
        raise ValueError(f"temperature {tau} must be positive")
    if not (math.isfinite(noise_scale) and noise_scale >= 0):
        raise ValueError(f"noise_scale {noise_scale} must be finite and >= 0")
    logits = omega.data if isinstance(omega, Tensor) else np.asarray(omega, dtype=np.float64)
    shape = (len(seeds), logits.shape[0])
    if noise_scale == 0.0:
        noise = np.zeros(shape)
    else:
        # each generator writes its row of one block, and the logistic map
        # noise_scale * (log(u) - log1p(-u)) runs in place, in that order
        u = np.empty(shape)
        for row, seed in zip(u, seeds):
            np.random.default_rng(seed).random(out=row)
        np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
        noise = np.log(u)
        noise -= np.log1p(np.negative(u, out=u), out=u)
        noise *= noise_scale
    if isinstance(omega, Tensor):
        return sigmoid((omega + Tensor(noise)) * (1.0 / tau))
    # omega + noise and the scaling by 1 / tau, in place: addition commutes exactly
    noise += logits
    noise *= 1.0 / tau
    return Tensor(_sigmoid(noise))


def hard_threshold(s: Tensor, threshold: float) -> Tensor:
    """Bits 1{s > threshold}; backward is the identity (straight-through)."""
    bits = (s.data > threshold).astype(np.float64)
    return custom_primitive(bits, [s], lambda g: [g])


def topk_binarize(s: Tensor | np.ndarray, budgets: list[int]) -> tuple[EdgeMask, ...]:
    """One EdgeMask per budget k keeping exactly the k largest soft weights.

    All budgets come from one stable sort, so the masks are nested.  Edges
    are ranked by their rounded float64 scores, equal scores in edge order:
    two edges whose scores are equal in exact arithmetic but differ in the
    last bit are ranked by that bit, so a change that only moves rounding
    can swap them at a budget's edge.
    """
    soft = s.data if isinstance(s, Tensor) else np.asarray(s, dtype=np.float64)
    for k in budgets:
        if not 1 <= k <= soft.size:
            raise ValueError(f"budget {k} outside 1..{soft.size}")
    rank = np.empty(soft.size, dtype=np.intp)
    rank[np.argsort(-soft, kind="stable")] = np.arange(soft.size)
    hard = (rank < np.array(budgets, dtype=np.intp)[:, None]).astype(np.float64)
    # every mask's soft row is a read-only view of one copy of the scores
    return EdgeMask.block(np.broadcast_to(soft.copy(), hard.shape), hard, budgets=budgets)


def train_explainer(
    graphs: list[Graph],
    backbone: BackboneParams,
    cfg: ExplainerConfig,
    seed: int = 0,
) -> tuple[ExplainerParams, list[dict]]:
    """Fit the edge-logit MLP against the frozen classifier's predictions.

    Per graph the objective is cross-entropy of the masked prediction to the
    unmasked predicted label plus the normalized hard-edge count; the batch
    loss is the mean over graphs.  A batch without edges gives the explainer
    no gradient and takes no optimizer step.  Deterministic for a fixed
    (cfg, seed).
    """
    _check_count("seed", seed, 0)
    if not graphs:
        raise ValueError("empty training set")
    frozen = backbone.frozen()
    params = init_explainer(np.random.default_rng(seed), hidden=backbone.hidden)
    state = AdamState(params.named())
    logits, z_cache = frozen_forward(graphs, backbone)
    targets = logits.argmax(axis=1)
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        tau = cfg.tau_at(epoch)
        order = np.random.default_rng([seed, 1, epoch]).permutation(len(graphs))
        losses, fractions = [], []
        for bi, start in enumerate(range(0, len(order), cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            batch = build_graph_batch([graphs[i] for i in idx])
            z = Tensor(np.concatenate([z_cache[i] for i in idx]))

            omega = edge_logits(z, batch.edges, params)
            s = reshape(concrete_sample(omega, tau, cfg.noise_scale, [[seed, 2, epoch, bi]]), -1)
            e = hard_threshold(s, THRESHOLD)

            logits, _ = backbone_forward_batch(batch, frozen, mask_values=e)
            ce = cross_entropy_mean(logits, targets[idx])
            # mean over graphs of (selected edges / graph edges); an edgeless graph has no term
            counts = np.diff(batch.edge_offsets)
            weight = 1.0 / (np.repeat(counts, counts) * len(idx))
            loss = ce + sum_all(e * Tensor(weight)) * cfg.lam
            if not np.isfinite(loss.data):
                raise TrainingError(f"non-finite explainer loss at epoch {epoch}, batch {bi}")
            losses.append(loss.item())
            if len(batch.edges):
                loss.backward()
                step_from_gradients(state, cfg.lr)
                fractions.append(float(e.data.mean()))
        history.append(
            {
                "epoch": epoch,
                "loss": float(np.mean(losses)),
                "tau": tau,
                "mean_mask_fraction": float(np.mean(fractions)) if fractions else 0.0,
            }
        )
    return params, history


def mask_seed(*parts: int) -> int:
    """Single recordable integer seed derived from a tuple of parts."""
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def edge_scores(g: Graph, backbone: BackboneParams, params: ExplainerParams) -> np.ndarray:
    """Raw per-edge logits omega for one graph (no gradients, no tape).

    Runs only the backbone's layers, with no readout, by
    ``gin.untaped_states`` on the graph's own CSR, ``Graph.adjacency``,
    then ``_edge_mlp``, all on the parameters' arrays: no Tensor is made,
    and after a graph's first call no batch or CSR is built.  The node
    states equal those of ``frozen_forward([g])`` bit for bit, and those of
    a batched ``frozen_forward`` call under the condition that it names: a
    hidden width that is a multiple of 8 and a graph of at least 2 nodes.
    """
    z = untaped_states(g.x, g.adjacency, backbone)
    arrays = (params.w1.data, params.b1.data, params.w2.data, params.b2.data)
    return _edge_mlp(z, g.edges, *arrays)[2]


def generate_bag_noise(
    g: Graph,
    backbone: BackboneParams,
    params: ExplainerParams,
    m: int,
    noise_scale: float,
    seed: int,
) -> SubgraphBag:
    """m independent concrete draws, thresholded into hard masks.

    Mask t draws its uniforms from ``mask_seed(seed, t)``; the noise, the
    sigmoid and the threshold then run once over the stacked (m, E) draws.
    """
    _check_count("bag size", m, 1)
    _check_count("seed", seed, 0)
    omega = edge_scores(g, backbone, params)
    seeds = [mask_seed(seed, t) for t in range(m)]
    s = concrete_sample(omega, BAG_TAU, noise_scale, seeds)
    hard = hard_threshold(s, THRESHOLD).data
    masks = EdgeMask.block(s.data, hard, seeds=seeds)
    return SubgraphBag(base=g, masks=masks, policy_tag="EXPLAIN_NOISE")


def generate_bag_topk(
    g: Graph,
    backbone: BackboneParams,
    params: ExplainerParams,
) -> SubgraphBag:
    """One mask per fraction f of ``DEFAULT_FRACTIONS`` with budget
    max(1, ceil(f * |E|)); noise-free, so the masks are nested."""
    if g.num_edges == 0:
        raise PolicyError("top-K bags need at least one edge")
    omega = edge_scores(g, backbone, params)
    (s,) = concrete_sample(omega, BAG_TAU, 0.0, [0]).data
    budgets = [max(1, math.ceil(f * g.num_edges)) for f in DEFAULT_FRACTIONS]
    return SubgraphBag(base=g, masks=topk_binarize(s, budgets), policy_tag="EXPLAIN_TOPK")


def bag_to_json(bag: SubgraphBag, graph_id: int) -> dict:
    """Each mask's hard bits packed big-endian into bytes, base64-encoded.

    ``graph_id`` must be an integer >= 0.  It, the budgets, seeds and zeroed
    nodes are written as Python ints, so numpy integers give a document
    ``json.dumps`` accepts.
    """
    _check_count("graph_id", graph_id, 0)
    packed = np.packbits(np.array([m.hard for m in bag.masks], dtype=np.uint8), axis=1)
    masks = [
        {
            "bits": base64.b64encode(row).decode("ascii"),
            "K": None if m.budget is None else int(m.budget),
            "seed": None if m.seed is None else int(m.seed),
            "zeroed_nodes": list(map(int, m.zeroed_nodes)),
        }
        for m, row in zip(bag.masks, packed)
    ]
    return {"graph_id": int(graph_id), "policy": bag.policy_tag, "masks": masks}


def bag_from_json(doc: dict, base: Graph) -> SubgraphBag:
    """The bag ``bag_to_json`` wrote for ``base``.

    Checks only what the document alone can get wrong: ``doc`` must be an
    object with a known ``policy`` and a list of objects as ``masks``, and
    every mask's bits a string, decoded strictly, so a character outside
    the base64 alphabet is an error, and of the byte length ``base``'s edges
    need, checked for every mask before any is unpacked.  Each mask's ``K``
    holds its budget; it, ``seed`` and ``zeroed_nodes`` (none when absent)
    go as they are to ``EdgeMask.block``, and the masks to ``SubgraphBag``,
    which check them by ``graphs``' rules.  Every error names the graph.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"bag document is {type(doc).__name__}, expected an object")
    graph_id = doc.get("graph_id")
    for key in ("policy", "masks"):
        if key not in doc:
            raise ValueError(f"graph {graph_id}: bag document has no {key!r}")
    if doc["policy"] not in POLICY_TAGS:
        raise ValueError(f"graph {graph_id}: unknown bag policy {doc['policy']!r}")
    entries = doc["masks"]
    if not isinstance(entries, list):
        kind = type(entries).__name__
        raise ValueError(f"graph {graph_id}: bag document's 'masks' is {kind}, expected a list")
    nbytes = (base.num_edges + 7) // 8
    raws = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            kind = type(entry).__name__
            raise ValueError(f"graph {graph_id}: mask {k} is {kind}, expected an object")
        if "bits" not in entry:
            raise ValueError(f"graph {graph_id}: mask {k} has no 'bits'")
        bits = entry["bits"]
        if not isinstance(bits, str):
            kind = type(bits).__name__
            raise ValueError(f"graph {graph_id}: mask {k} bits are not base64: {kind}, not a str")
        try:
            raw = base64.b64decode(bits, validate=True)
        except ValueError as err:
            raise ValueError(f"graph {graph_id}: mask {k} bits are not base64: {err}") from None
        if len(raw) != nbytes:
            raise ValueError(
                f"graph {graph_id}: mask {k} has {len(raw)} bytes of bits,"
                f" expected {nbytes} for {base.num_edges} edges"
            )
        raws.append(raw)
    packed = np.frombuffer(b"".join(raws), dtype=np.uint8).reshape(len(raws), nbytes)
    hard = np.unpackbits(packed, axis=1, count=base.num_edges).astype(np.float64)
    budgets = [entry.get("K") for entry in entries]
    seeds = [entry.get("seed") for entry in entries]
    zeroed = [entry.get("zeroed_nodes", []) for entry in entries]
    try:
        masks = EdgeMask.block(hard.copy(), hard, budgets, seeds, zeroed)
        return SubgraphBag(base=base, masks=masks, policy_tag=doc["policy"])
    except ValueError as err:
        raise ValueError(f"graph {graph_id}: {err}") from None

"""Learned hard edge-mask explanations over a frozen classifier.

A small MLP maps concatenated endpoint embeddings [z_i ; z_j] to one logit
per undirected edge.  The MLP is one taped op, from the gather of both
endpoints to the reshape of the logits, and untaped it keeps nothing for a
backward.  Soft weights come from a binary-concrete relaxation (logistic
noise, temperature tau), all drawn by ``concrete_sample``; the classifier
only ever sees hard binary masks, obtained either by thresholding or by an
exact top-K budget, with a straight-through estimator carrying gradients
back to the logits.  The sparsity penalty acts on the hard bits, i.e. it
counts selected edges.
A bag's JSON packs and unpacks the bits of all its masks in one array pass.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    DimensionError,
    Tensor,
    cross_entropy_mean,
    custom_primitive,
    reshape,
    sigmoid,
    sum_all,
)
from .gin import BackboneParams, backbone_forward_batch, build_graph_batch, frozen_forward, glorot
from .graphs import POLICY_TAGS, EdgeMask, Graph, PolicyError, SubgraphBag
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

    def frozen(self) -> "ExplainerParams":
        """Views of the same arrays with ``requires_grad=False`` (no copy)."""
        return ExplainerParams(*(Tensor(t.data) for t in (self.w1, self.b1, self.w2, self.b2)))


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
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} {getattr(self, name)} must be finite")
        if self.tau_start <= 0 or self.tau_end <= 0:
            raise ValueError(
                f"tau_start {self.tau_start} and tau_end {self.tau_end} must be positive"
            )
        for name in ("lam", "noise_scale", "lr", "epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} {getattr(self, name)} must be >= 0")
        if self.batch_size < 1:
            raise ValueError(f"batch_size {self.batch_size} must be >= 1")

    def tau_at(self, epoch: int) -> float:
        if self.epochs <= 1:
            return self.tau_end
        step = (self.tau_end - self.tau_start) / (self.epochs - 1)
        return self.tau_start + step * epoch


def edge_logits(Z: Tensor | np.ndarray, edges: np.ndarray, params: ExplainerParams) -> Tensor:
    """One logit per undirected edge from [z_i ; z_j] on the canonical i < j pair.

    One taped op over ``Z``, ``w1``, ``b1``, ``w2`` and ``b2``: the forward
    gathers both endpoints' rows, concatenates them and applies the MLP,
    with its ReLU in place.  The backward closure keeps the concatenated
    pairs and the hidden activations; when no input requires a gradient the
    tape drops it, so an untaped call keeps nothing and records no node.
    The backward returns the five gradients with the same arithmetic as the
    composed ``gather_rows``/``concat_cols``/``linear``/``relu``/``linear``/
    ``reshape`` ops, so the two agree bit for bit.  The weights and biases
    must have the shapes ``init_explainer`` gives them.
    """
    Z = Z if isinstance(Z, Tensor) else Tensor(Z)
    w1, b1, w2, b2 = params.w1, params.b1, params.w2, params.b2
    if Z.data.ndim != 2 or w1.data.ndim != 2 or 2 * Z.data.shape[1] != w1.data.shape[0]:
        raise DimensionError(f"edge MLP: states {Z.data.shape} vs weight {w1.data.shape}")
    hidden = w1.data.shape[1]
    if b1.data.shape != (hidden,) or w2.data.shape != (hidden, 1) or b2.data.shape != (1,):
        raise DimensionError(
            f"edge MLP: weight {w1.data.shape} with bias {b1.data.shape},"
            f" weight {w2.data.shape} with bias {b2.data.shape}"
        )
    pair = np.concatenate([Z.data[edges[:, 0]], Z.data[edges[:, 1]]], axis=1)
    h = pair @ w1.data
    h += b1.data
    np.maximum(h, 0.0, out=h)
    out = h @ w2.data
    out += b2.data
    logits = out.reshape(len(edges))

    def _bp(grad):
        grad = grad.reshape(out.shape)
        # h > 0 exactly where the pre-activation was > 0 (NaN in neither)
        gh = (grad @ w2.data.T) * (h > 0)
        gz = None
        if Z.requires_grad:
            gpair = gh @ w1.data.T
            split = Z.data.shape[1]
            # each end's rows are summed apart and then added, as the two gathers' are
            gi, gj = np.zeros_like(Z.data), np.zeros_like(Z.data)
            np.add.at(gi, edges[:, 0], gpair[:, :split])
            np.add.at(gj, edges[:, 1], gpair[:, split:])
            gz = gi + gj
        return (
            gz,
            pair.T @ gh if w1.requires_grad else None,
            gh.sum(axis=0) if b1.requires_grad else None,
            h.T @ grad if w2.requires_grad else None,
            grad.sum(axis=0) if b2.requires_grad else None,
        )

    return custom_primitive(logits, (Z, w1, b1, w2, b2), _bp)


def concrete_sample(omega: Tensor | np.ndarray, tau: float, noise_scale: float, seeds) -> Tensor:
    """(len(seeds), E) binary-concrete soft weights over the E logits ``omega``.

    Row t is sigmoid((omega + noise_scale * logistic) / tau), its Logistic(0, 1)
    draws from ``default_rng(seeds[t])``.  noise_scale = 0 draws nothing and
    gives the deterministic map sigmoid(omega / tau) in every row.
    """
    if not tau > 0:  # NaN too
        raise ValueError(f"temperature {tau} must be positive")
    if not (math.isfinite(noise_scale) and noise_scale >= 0):
        raise ValueError(f"noise_scale {noise_scale} must be finite and >= 0")
    omega = omega if isinstance(omega, Tensor) else Tensor(omega)
    noise = np.zeros((len(seeds), omega.data.shape[0]))
    if noise_scale != 0.0:
        for row, seed in zip(noise, seeds):
            row[:] = np.random.default_rng(seed).random(noise.shape[1])
        u = np.clip(noise, 1e-12, 1.0 - 1e-12)
        noise = noise_scale * (np.log(u) - np.log1p(-u))
    return sigmoid((omega + Tensor(noise)) * (1.0 / tau))


def hard_threshold(s: Tensor, threshold: float) -> Tensor:
    """Bits 1{s > threshold}; backward is the identity (straight-through)."""
    bits = (s.data > threshold).astype(np.float64)
    return custom_primitive(bits, [s], lambda g: [g])


def topk_binarize(s: Tensor | np.ndarray, budgets: list[int]) -> list[EdgeMask]:
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
    return [EdgeMask(soft=soft.copy(), hard=bits, budget=k) for k, bits in zip(budgets, hard)]


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

            omega = edge_logits(z, batch.adj.edges, params)
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
            if batch.adj.num_edges:
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
    """Raw per-edge logits omega for one graph (no gradients, no tape)."""
    _, (z,) = frozen_forward([g], backbone)
    return edge_logits(z, g.edges, params.frozen()).data


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
    if m < 1:
        raise ValueError(f"bag size {m} must be >= 1")
    omega = edge_scores(g, backbone, params)
    seeds = [mask_seed(seed, t) for t in range(m)]
    s = concrete_sample(omega, BAG_TAU, noise_scale, seeds)
    hard = hard_threshold(s, THRESHOLD).data
    masks = tuple(EdgeMask(soft=s.data[t], hard=hard[t], seed=seeds[t]) for t in range(m))
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
    return SubgraphBag(base=g, masks=tuple(topk_binarize(s, budgets)), policy_tag="EXPLAIN_TOPK")


def bag_to_json(bag: SubgraphBag, graph_id: int) -> dict:
    """Each mask's hard bits packed big-endian into bytes, base64-encoded."""
    packed = np.packbits(np.array([m.hard for m in bag.masks], dtype=np.uint8), axis=1)
    masks = [
        {
            "bits": base64.b64encode(row.tobytes()).decode("ascii"),
            "K": m.budget,
            "seed": m.seed,
            "zeroed_nodes": list(m.zeroed_nodes),
        }
        for m, row in zip(bag.masks, packed)
    ]
    return {"graph_id": graph_id, "policy": bag.policy_tag, "masks": masks}


def bag_from_json(doc: dict, base: Graph) -> SubgraphBag:
    """The bag ``bag_to_json`` wrote for ``base``.

    Every mask's bits are decoded strictly, so a character outside the
    base64 alphabet is an error, and checked for their byte length before
    any is unpacked; an error names the graph and the first bad mask.
    """
    graph_id = doc.get("graph_id")
    for key in ("policy", "masks"):
        if key not in doc:
            raise ValueError(f"graph {graph_id}: bag document has no {key!r}")
    if doc["policy"] not in POLICY_TAGS:
        raise ValueError(f"graph {graph_id}: unknown bag policy {doc['policy']!r}")
    entries = doc["masks"]
    if not entries:
        raise ValueError(f"graph {graph_id}: bag document lists no masks")
    nbytes = (base.num_edges + 7) // 8
    raws = []
    for k, entry in enumerate(entries):
        if "bits" not in entry:
            raise ValueError(f"graph {graph_id}: mask {k} has no 'bits'")
        try:
            raw = base64.b64decode(entry["bits"], validate=True)
        except (TypeError, ValueError) as err:
            raise ValueError(f"graph {graph_id}: mask {k} bits are not base64: {err}") from None
        if len(raw) != nbytes:
            raise ValueError(
                f"graph {graph_id}: mask {k} has {len(raw)} bytes of bits,"
                f" expected {nbytes} for {base.num_edges} edges"
            )
        raws.append(raw)
    packed = np.frombuffer(b"".join(raws), dtype=np.uint8).reshape(len(raws), nbytes)
    hard = np.unpackbits(packed, axis=1, count=base.num_edges).astype(np.float64)
    soft = hard.copy()
    masks = []
    for k, entry in enumerate(entries):
        zeroed = tuple(int(v) for v in entry.get("zeroed_nodes", ()))
        if any(not 0 <= v < base.num_nodes for v in zeroed):
            raise ValueError(
                f"graph {graph_id}: mask {k} zeroes nodes {zeroed} outside 0..{base.num_nodes - 1}"
            )
        try:
            mask = EdgeMask(
                soft=soft[k],
                hard=hard[k],
                budget=entry.get("K"),
                seed=entry.get("seed"),
                zeroed_nodes=zeroed,
            )
        except ValueError as err:
            raise ValueError(f"graph {graph_id}: mask {k}: {err}") from err
        masks.append(mask)
    return SubgraphBag(base=base, masks=tuple(masks), policy_tag=doc["policy"])

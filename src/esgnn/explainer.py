"""Learned hard edge-mask explanations over a frozen classifier.

A small MLP maps concatenated endpoint embeddings [z_i ; z_j] to one logit
per undirected edge.  Soft weights come from a binary-concrete relaxation
(logistic noise, temperature tau); the classifier only ever sees hard binary
masks, obtained either by thresholding or by an exact top-K budget, with a
straight-through estimator carrying gradients back to the logits.  The
sparsity penalty acts on the hard bits, i.e. it counts selected edges.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    concat_cols,
    cross_entropy_mean,
    custom_primitive,
    gather_rows,
    linear,
    relu,
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
    """One logit per undirected edge from [z_i ; z_j] on the canonical i < j pair."""
    Z = Z if isinstance(Z, Tensor) else Tensor(Z)
    if edges.size == 0:
        return Tensor(np.zeros(0))
    pair = concat_cols(gather_rows(Z, edges[:, 0]), gather_rows(Z, edges[:, 1]))
    h = relu(linear(pair, params.w1, params.b1))
    return reshape(linear(h, params.w2, params.b2), (edges.shape[0],))


def concrete_sample(omega: Tensor | np.ndarray, tau: float, noise_scale: float, seed) -> Tensor:
    """Binary-concrete soft weights: sigmoid((omega + noise_scale * logistic) / tau).

    noise_scale = 0 gives the deterministic map sigmoid(omega / tau).
    """
    if tau <= 0:
        raise ValueError(f"temperature {tau} must be positive")
    omega = omega if isinstance(omega, Tensor) else Tensor(omega)
    n = omega.data.shape[0]
    if noise_scale == 0.0:
        noise = np.zeros(n)
    else:
        u = np.random.default_rng(seed).random(n)
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        noise = noise_scale * (np.log(u) - np.log1p(-u))
    return sigmoid((omega + Tensor(noise)) * (1.0 / tau))


def hard_threshold(s: Tensor, threshold: float) -> Tensor:
    """Bits 1{s > threshold}; backward is the identity (straight-through)."""
    bits = (s.data > threshold).astype(np.float64)
    return custom_primitive(bits, [s], lambda g: [g])


def topk_binarize(s: Tensor | np.ndarray, k: int) -> EdgeMask:
    """Keep exactly the k largest soft weights as an EdgeMask."""
    soft = s.data if isinstance(s, Tensor) else np.asarray(s, dtype=np.float64)
    if not 1 <= k <= soft.size:
        raise ValueError(f"budget {k} outside 1..{soft.size}")
    order = np.argsort(-soft, kind="stable")
    hard = np.zeros_like(soft)
    hard[order[:k]] = 1.0
    return EdgeMask(soft=soft.copy(), hard=hard, budget=k)


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
    named = params.named()
    state = AdamState()
    logits, z_cache = frozen_forward(graphs, backbone)
    targets = logits.argmax(axis=1)
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        tau = cfg.tau_at(epoch)
        order = np.random.default_rng([seed, 1, epoch]).permutation(len(graphs))
        losses, fractions = [], []
        for bi, start in enumerate(range(0, len(order), cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            chunk = [graphs[i] for i in idx]
            batch = build_graph_batch(chunk)
            z = Tensor(np.concatenate([z_cache[i] for i in idx]))

            omega = edge_logits(z, batch.edges, params)
            s = concrete_sample(omega, tau, cfg.noise_scale, [seed, 2, epoch, bi])
            e = hard_threshold(s, THRESHOLD)

            logits, _ = backbone_forward_batch(batch, frozen, mask_values=e)
            ce = cross_entropy_mean(logits, targets[idx])
            # mean over graphs of (selected edges / graph edges)
            edge_counts = np.array([g.num_edges for g in chunk], dtype=np.float64)
            weight = 1.0 / (edge_counts[batch.edge_graph] * len(chunk))
            loss = ce + sum_all(e * Tensor(weight)) * cfg.lam
            if not np.isfinite(loss.data):
                raise TrainingError(f"non-finite explainer loss at epoch {epoch}")
            losses.append(loss.item())
            if len(batch.edges):
                loss.backward()
                step_from_gradients(named, state, cfg.lr)
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
    return edge_logits(z, g.edge_array(), params.frozen()).data


def generate_bag_noise(
    g: Graph,
    backbone: BackboneParams,
    params: ExplainerParams,
    m: int,
    noise_scale: float,
    seed: int,
) -> SubgraphBag:
    """m independent concrete draws, thresholded into hard masks."""
    if m < 1:
        raise ValueError(f"bag size {m} must be >= 1")
    omega = edge_scores(g, backbone, params)
    masks = []
    for t in range(m):
        child = mask_seed(seed, t)
        s = concrete_sample(omega, BAG_TAU, noise_scale, child)
        hard = hard_threshold(s, THRESHOLD).data
        masks.append(EdgeMask(soft=s.data, hard=hard, seed=child))
    return SubgraphBag(base=g, masks=tuple(masks), policy_tag="EXPLAIN_NOISE")


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
    s = concrete_sample(omega, BAG_TAU, 0.0, 0)
    masks = tuple(
        topk_binarize(s, max(1, math.ceil(f * g.num_edges))) for f in DEFAULT_FRACTIONS
    )
    return SubgraphBag(base=g, masks=masks, policy_tag="EXPLAIN_TOPK")


def bag_to_json(bag: SubgraphBag, graph_id: int) -> dict:
    masks = []
    for m in bag.masks:
        packed = np.packbits(m.hard.astype(np.uint8)) if m.num_edges else np.zeros(0, dtype=np.uint8)
        masks.append(
            {
                "bits": base64.b64encode(packed.tobytes()).decode("ascii"),
                "K": m.budget,
                "seed": m.seed,
                "zeroed_nodes": list(m.zeroed_nodes),
            }
        )
    return {"graph_id": graph_id, "policy": bag.policy_tag, "masks": masks}


def bag_from_json(doc: dict, base: Graph) -> SubgraphBag:
    graph_id = doc.get("graph_id")
    for key in ("policy", "masks"):
        if key not in doc:
            raise ValueError(f"graph {graph_id}: bag document has no {key!r}")
    if doc["policy"] not in POLICY_TAGS:
        raise ValueError(f"graph {graph_id}: unknown bag policy {doc['policy']!r}")
    if not doc["masks"]:
        raise ValueError(f"graph {graph_id}: bag document lists no masks")
    nbytes = (base.num_edges + 7) // 8
    masks = []
    for k, entry in enumerate(doc["masks"]):
        if "bits" not in entry:
            raise ValueError(f"graph {graph_id}: mask {k} has no 'bits'")
        raw = base64.b64decode(entry["bits"])
        if len(raw) != nbytes:
            raise ValueError(
                f"graph {graph_id}: mask {k} has {len(raw)} bytes of bits,"
                f" expected {nbytes} for {base.num_edges} edges"
            )
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=base.num_edges)
        hard = bits.astype(np.float64)
        zeroed = tuple(int(v) for v in entry.get("zeroed_nodes", ()))
        if any(not 0 <= v < base.num_nodes for v in zeroed):
            raise ValueError(
                f"graph {graph_id}: mask {k} zeroes nodes {zeroed} outside 0..{base.num_nodes - 1}"
            )
        try:
            mask = EdgeMask(
                soft=hard.copy(),
                hard=hard,
                budget=entry.get("K"),
                seed=entry.get("seed"),
                zeroed_nodes=zeroed,
            )
        except ValueError as err:
            raise ValueError(f"graph {graph_id}: mask {k}: {err}") from err
        masks.append(mask)
    return SubgraphBag(base=base, masks=tuple(masks), policy_tag=doc["policy"])

"""Reference oracles for the tests; no program code calls them.

``grad_check`` compares an op's analytic gradients with central
differences, ``softmax_cross_entropy`` is the one-row loss that
``cross_entropy_mean`` must agree with, ``masked_sigmoid`` is the sigmoid
that evaluates each branch only on its own entries, which ``sigmoid`` must
match bit for bit, ``policy_edge_deleted_loop`` and
``policy_node_deleted_loop`` build the ED and ND bags one checked mask at a
time, as the block-built policies must, and ``generate_ba2motifs_networkx``
is the BA-2Motifs generator built on ``networkx.barabasi_albert_graph`` that
``generate_ba2motifs`` must reproduce graph for graph.
"""

import networkx as nx
import numpy as np

from esgnn.autodiff import DimensionError, Tensor, _log_softmax, _record, custom_primitive
from esgnn.ba2motifs import _CYCLE, _HOUSE, BASE_NODES, MOTIF_NODES
from esgnn.graphs import (
    EdgeMask,
    FeatureSpec,
    Graph,
    GraphDataset,
    PolicyError,
    SubgraphBag,
    constant_features,
)


def softmax_cross_entropy(logits, target: int) -> Tensor:
    """-log softmax(logits)[target] for a single logit vector."""
    logits = logits if isinstance(logits, Tensor) else Tensor(logits)
    if logits.data.ndim != 1 or logits.data.shape[0] < 2:
        raise DimensionError(f"softmax_cross_entropy: logits {logits.data.shape}")
    target = int(target)
    if not 0 <= target < logits.data.shape[0]:
        raise ValueError(f"target {target} out of range for {logits.data.shape[0]} classes")
    log_probs = _log_softmax(logits.data)
    data = np.asarray(-log_probs[target])

    def _bp(grad):
        g = np.exp(log_probs)
        g[target] -= 1.0
        return (g * grad,)

    return custom_primitive(data, (logits,), _bp)


def masked_sigmoid(x) -> Tensor:
    """Sigmoid with a boolean gather and scatter per branch: exp(-x) on x >= 0, exp(x) elsewhere."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    data = np.empty_like(x.data)
    pos = x.data >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    data[~pos] = ex / (1.0 + ex)
    return _record(data, (x,), lambda grad: (grad * data * (1.0 - data),))


def policy_edge_deleted_loop(g: Graph) -> SubgraphBag:
    """One subgraph per edge, each dropping exactly that edge."""
    if g.num_edges == 0:
        raise PolicyError("edge-deleted policy needs at least one edge")
    masks = []
    for k in range(g.num_edges):
        hard = np.ones(g.num_edges)
        hard[k] = 0.0
        masks.append(EdgeMask(soft=hard.copy(), hard=hard))
    return SubgraphBag(base=g, masks=tuple(masks), policy_tag="ED")


def policy_node_deleted_loop(g: Graph) -> SubgraphBag:
    """One subgraph per node, dropping its incident edges and feature row."""
    if g.num_nodes < 1:
        raise PolicyError("node-deleted policy needs at least one node")
    masks = []
    for v in range(g.num_nodes):
        hard = np.ones(g.num_edges)
        hard[(g.edges == v).any(axis=1)] = 0.0
        masks.append(EdgeMask(soft=hard.copy(), hard=hard, zeroed_nodes=(v,)))
    return SubgraphBag(base=g, masks=tuple(masks), policy_tag="ND")


def grad_check(f, params, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f()`` must rebuild a scalar Tensor from the given parameter tensors on
    every call.  Error per coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    if not 1e-6 <= h <= 1e-4:
        raise ValueError(f"step size {h} outside [1e-6, 1e-4]")
    if isinstance(params, dict):
        params = list(params.values())
    out = f()
    out.backward()
    if not np.isfinite(out.data).all():
        raise FloatingPointError("non-finite value in forward pass")
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f().data)
            flat[i] = orig - h
            f_minus = float(f().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            if not np.isfinite(numeric):
                raise FloatingPointError("non-finite value in finite-difference probe")
            a_i = a.reshape(-1)[i]
            worst = max(worst, abs(a_i - numeric) / max(1.0, abs(a_i)))
    return worst


def generate_ba2motifs_networkx(n_graphs: int, seed: int) -> GraphDataset:
    """Build a balanced dataset of n_graphs motif-labelled graphs."""
    if n_graphs <= 0:
        raise ValueError(f"n_graphs must be positive, got {n_graphs}")
    if n_graphs % 2 != 0:
        raise ValueError(f"n_graphs must be even for balanced classes, got {n_graphs}")
    rng = np.random.default_rng(seed)
    graphs = []
    for idx in range(n_graphs):
        label = idx % 2
        base_seed = int(rng.integers(0, 2**31 - 1))
        base = nx.barabasi_albert_graph(BASE_NODES, 1, seed=base_seed)
        edges = {(min(i, j), max(i, j)) for i, j in base.edges()}

        motif_local = _CYCLE if label == 1 else _HOUSE
        special = {(BASE_NODES + i, BASE_NODES + j) for i, j in motif_local}
        anchor = int(rng.integers(0, BASE_NODES))
        motif_entry = BASE_NODES + int(rng.integers(0, MOTIF_NODES))
        special.add((anchor, motif_entry))

        all_edges = tuple(sorted(edges | special))
        motif_idx = frozenset(k for k, e in enumerate(all_edges) if e in special)
        n = BASE_NODES + MOTIF_NODES
        graphs.append(
            Graph(
                num_nodes=n,
                edges=all_edges,
                x=constant_features(n),
                y=label,
                node_labels=tuple([0] * n),
                ground_truth_motif_edges=motif_idx,
            )
        )
    return GraphDataset(
        graphs=tuple(graphs),
        num_classes=2,
        name="BA-2Motifs",
        feature_spec=FeatureSpec("constant"),
    )

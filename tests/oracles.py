"""Reference oracles for the tests; no program code calls them.

``grad_check`` compares an op's analytic gradients with central
differences, ``softmax_cross_entropy`` is the one-row loss that
``cross_entropy_mean`` must agree with, ``masked_sigmoid`` is the sigmoid
that evaluates each branch only on its own entries, which ``sigmoid`` must
match bit for bit, ``policy_edge_deleted_loop`` and
``policy_node_deleted_loop`` build the ED and ND bags one checked mask at a
time, as the block-built policies must, and ``generate_ba2motifs_networkx``
is the BA-2Motifs generator built on ``networkx.barabasi_albert_graph`` that
``generate_ba2motifs`` must reproduce graph for graph.  ``block_fault_loop``
and ``bag_json_fault_loop`` check a bag's masks and its JSON document one
row and one entry at a time, with plain Python values, and return the
message that ``EdgeMask.block`` and ``explainer.bag_from_json`` must raise.
``assemble`` builds the adjacency of edges that no graph holds in one call,
for the tests that compare an op or a batch CSR against it.
``dfs_postorder`` is the plain recursive postorder that ``Tensor._toposort``
must return node for node, and ``walk_leaf_grads`` the backward on it that
starts every leaf from zeros and keeps gradients in a dict, whose leaf
gradients ``Tensor.backward`` must match bit for bit.
"""

import base64
import math
import numbers

import networkx as nx
import numpy as np

from esgnn.autodiff import (
    DimensionError,
    Tensor,
    WeightedSparse,
    _log_softmax,
    _record,
    custom_primitive,
    from_layout,
    sort_entries,
)
from esgnn.ba2motifs import _CYCLE, _HOUSE, BASE_NODES, MOTIF_NODES
from esgnn.graphs import (
    POLICY_TAGS,
    EdgeMask,
    FeatureSpec,
    Graph,
    GraphDataset,
    PolicyError,
    SubgraphBag,
    constant_features,
)


def assemble(n: int, edges, weights=None) -> WeightedSparse:
    """The n x n adjacency of the (E, 2) undirected ``edges``, one CSR.

    ``from_layout`` over ``sort_entries(n, edges)``: each edge gives both of
    its directed entries its weight, 1 when ``weights`` is None.  The edges
    must obey ``Graph``'s rules, in range, with no self-loop and no pair
    given twice, but may be in either orientation and in any order.  A
    graph sorts its entries once (``Graph.entry_layout``) and a batch joins
    its graphs' layouts (``autodiff.concat_entries``); this takes both steps
    for bare edges.
    """
    edges = np.asarray(edges, dtype=np.intp)
    return from_layout(n, edges, weights, sort_entries(n, edges))


def dfs_postorder(root: Tensor) -> list[Tensor]:
    """Every node reachable from ``root``, once, in recursive depth-first postorder.

    A node's inputs are visited in ``_prev`` order, each at its first
    sighting; a node follows all its inputs.
    """
    order, seen = [], set()

    def visit(node):
        seen.add(id(node))
        for child in node._prev:
            if id(child) not in seen:
                visit(child)
        order.append(node)

    visit(root)
    return order


def walk_leaf_grads(root: Tensor) -> list[tuple[Tensor, np.ndarray]]:
    """Each leaf that requires a gradient, in ``dfs_postorder``, with d(root)/d(leaf).

    Walks the postorder backwards from ``root``'s ones; every leaf starts
    from zeros and each gradient is added to what its node holds, in walk
    order.  Gradients live in a dict, so no ``.grad`` is read or written.
    """
    order = dfs_postorder(root)
    leaves = [t for t in order if t.requires_grad and t._backward is None]
    grads = {id(t): np.zeros_like(t.data) for t in leaves}
    grads[id(root)] = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is None or id(node) not in grads:
            continue
        for t, g in zip(node._prev, node._backward(grads[id(node)])):
            if g is not None and t.requires_grad:
                grads[id(t)] = grads[id(t)] + g if id(t) in grads else g
    return [(t, grads[id(t)]) for t in leaves]


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


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def block_fault_loop(soft, hard, budgets=None, seeds=None, zeroed_nodes=None) -> str | None:
    """The message ``EdgeMask.block`` raises for these rows and fields, or None.

    The fields come first, all budgets, then all seeds, then all zeroed
    nodes; then the rows in order, each with its first broken rule: finite
    soft weights, binary hard bits, then the budget.
    """
    for name, values in (("budget", budgets), ("seed", seeds)):
        for k, value in enumerate(values or ()):
            if value is not None and not _is_integer(value):
                return f"mask {k}: {name} {value!r} must be an integer or None"
    for k, nodes in enumerate(zeroed_nodes or ()):
        if not isinstance(nodes, (tuple, list)) or not all(_is_integer(v) for v in nodes):
            return f"mask {k}: zeroed_nodes {nodes!r} must be integers"
    for k, (soft_row, hard_row) in enumerate(zip(soft.tolist(), hard.tolist())):
        for e, w in enumerate(soft_row):
            if not math.isfinite(w):
                return f"mask {k}: non-finite soft weight at edge {e}"
        if not all(b == 0 or b == 1 for b in hard_row):
            return f"mask {k}: hard mask must be binary"
        ones = sum(b == 1 for b in hard_row)
        budget = None if budgets is None else budgets[k]
        if budget is not None and ones != budget:
            return f"mask {k}: hard mask sums to {ones}, budget is {budget}"
    return None


def bag_json_fault_loop(doc, base: Graph) -> str | None:
    """The message ``bag_from_json(doc, base)`` raises, or None for a valid document.

    The document's own form first, entry by entry: an object with a known
    policy and a list of objects as masks, each with strict base64 bits of
    the right byte count.  Then, behind ``graph {id}: ``, the unpacked bits
    and each entry's ``K``, ``seed`` and ``zeroed_nodes`` as they are, with
    ``block_fault_loop``; then a bag with no mask, and then each mask's
    zeroed nodes against the base graph's node range.
    """
    if not isinstance(doc, dict):
        return f"bag document is {type(doc).__name__}, expected an object"
    graph = f"graph {doc.get('graph_id')}"
    for key in ("policy", "masks"):
        if key not in doc:
            return f"{graph}: bag document has no {key!r}"
    if doc["policy"] not in POLICY_TAGS:
        return f"{graph}: unknown bag policy {doc['policy']!r}"
    entries = doc["masks"]
    if not isinstance(entries, list):
        return f"{graph}: bag document's 'masks' is {type(entries).__name__}, expected a list"
    nbytes = (base.num_edges + 7) // 8
    rows = []
    for k, entry in enumerate(entries):
        mask = f"{graph}: mask {k}"
        if not isinstance(entry, dict):
            return f"{mask} is {type(entry).__name__}, expected an object"
        if "bits" not in entry:
            return f"{mask} has no 'bits'"
        if not isinstance(entry["bits"], str):
            return f"{mask} bits are not base64: {type(entry['bits']).__name__}, not a str"
        try:
            raw = base64.b64decode(entry["bits"], validate=True)
        except ValueError as err:
            return f"{mask} bits are not base64: {err}"
        if len(raw) != nbytes:
            return (
                f"{mask} has {len(raw)} bytes of bits, expected {nbytes}"
                f" for {base.num_edges} edges"
            )
        bits = [(byte >> (7 - b)) & 1 for byte in raw for b in range(8)]
        rows.append(bits[: base.num_edges])
    hard = np.array(rows, dtype=np.float64).reshape(len(rows), base.num_edges)
    budgets = [entry.get("K") for entry in entries]
    seeds = [entry.get("seed") for entry in entries]
    zeroed = [entry.get("zeroed_nodes", []) for entry in entries]
    fault = block_fault_loop(hard, hard, budgets, seeds, zeroed)
    if fault is not None:
        return f"{graph}: {fault}"
    if not entries:
        return f"{graph}: bag must hold at least one mask"
    for k, nodes in enumerate(zeroed):
        nodes = tuple(int(v) for v in nodes)
        if any(not 0 <= v < base.num_nodes for v in nodes):
            return f"{graph}: mask {k} zeroes nodes {nodes} outside 0..{base.num_nodes - 1}"
    return None

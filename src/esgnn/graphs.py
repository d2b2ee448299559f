"""Graph containers, subgraph policies and node features.

Graphs are immutable once built.  Their undirected edges are one read-only
(E, 2) intp array of canonically ordered pairs (i, j), i < j: the one edge
format of the package.  Batches concatenate these arrays, and only
``autodiff.SparseMatrix`` expands them into directed entries.  Every
subgraph view is an edge mask with one weight per row of that array.  Node
deletion keeps the node slot and zeroes its feature row plus incident
edges, so matrix shapes never change across a bag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EdgeMask",
    "FeatureSpec",
    "Graph",
    "GraphDataset",
    "POLICY_TAGS",
    "PolicyError",
    "SubgraphBag",
    "constant_features",
    "policy_edge_deleted",
    "policy_node_deleted",
    "sample_bag",
]


# ED / ND delete one edge / node per subgraph; EXPLAIN_* are explainer bags
POLICY_TAGS = ("ED", "ND", "EXPLAIN_NOISE", "EXPLAIN_TOPK")


class PolicyError(ValueError):
    """A subgraph policy was applied to a graph it cannot handle."""


@dataclass(frozen=True)
class FeatureSpec:
    """How node feature matrices are derived for a dataset.

    kind: "node_labels" (one-hot over observed labels), "degree" (one-hot of
    the capped degree), or "constant" (single all-ones column).
    """

    kind: str = "node_labels"
    cap: int | None = None

    def __post_init__(self):
        if self.kind not in ("node_labels", "degree", "constant"):
            raise ValueError(f"unknown feature kind '{self.kind}'")
        if self.kind == "degree" and (self.cap is None or self.cap < 1):
            raise ValueError("degree features need cap >= 1")


@dataclass(frozen=True)
class Graph:
    """Undirected graph with node features and a class label.

    ``edges`` takes any (E, 2) sequence of pairs and holds it as one
    read-only (E, 2) intp array; a read-only intp array is kept as it is,
    so ``dataclasses.replace`` shares it.  An empty
    ``ground_truth_motif_edges`` is held as None.
    """

    num_nodes: int
    edges: np.ndarray
    x: np.ndarray
    y: int
    node_labels: tuple[int, ...] | None = None
    ground_truth_motif_edges: frozenset[int] | None = None

    def __post_init__(self):
        edges = self.edges
        if not (
            isinstance(edges, np.ndarray) and edges.dtype == np.intp and not edges.flags.writeable
        ):
            edges = np.asarray(edges)
            if edges.shape == (0,):
                edges = edges.reshape(0, 2)
            if edges.size and edges.dtype.kind not in "iu":
                raise ValueError(f"edges have dtype {edges.dtype}, expected integer node ids")
            edges = edges.astype(np.intp)  # always a copy, so the caller's array stays writable
            edges.flags.writeable = False
            object.__setattr__(self, "edges", edges)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges have shape {edges.shape}, expected (E, 2)")
        i, j = edges[:, 0], edges[:, 1]
        key = i * self.num_nodes + j
        canonical = (i >= 0) & (i < j) & (j < self.num_nodes)
        # strictly increasing keys, the order every builder here uses, cannot repeat
        if not (canonical.all() and (key[1:] > key[:-1]).all()):
            repeat = np.ones(len(edges), dtype=bool)
            repeat[np.unique(key, return_index=True)[1]] = False
            bad = np.flatnonzero(~canonical | repeat)
            if bad.size:
                a, b = int(i[bad[0]]), int(j[bad[0]])
                if a == b:
                    raise ValueError(f"self-loop at node {a}")
                if not canonical[bad[0]]:
                    raise ValueError(
                        f"edge ({a}, {b}) outside 0..{self.num_nodes - 1} or not canonical"
                    )
                raise ValueError(f"duplicate edge ({a}, {b})")
        if self.x.ndim != 2:
            raise ValueError(f"feature matrix has shape {self.x.shape}, expected 2-D")
        if self.x.shape[0] != self.num_nodes:
            raise ValueError(f"feature matrix has {self.x.shape[0]} rows for {self.num_nodes} nodes")
        if not np.isfinite(self.x).all():
            bad = np.flatnonzero(~np.isfinite(self.x).all(axis=1))[0]
            raise ValueError(f"non-finite feature at node {bad}")
        if self.node_labels is not None and len(self.node_labels) != self.num_nodes:
            raise ValueError(f"{len(self.node_labels)} node labels for {self.num_nodes} nodes")
        motif = self.ground_truth_motif_edges
        if motif is not None and not motif:
            # an empty motif set is no motif, so both forms compare equal
            object.__setattr__(self, "ground_truth_motif_edges", None)
        elif motif:
            for k in (min(motif), max(motif)):
                if not 0 <= k < len(edges):
                    raise ValueError(f"motif edge index {k} outside 0..{len(edges) - 1}")

    def __eq__(self, other):
        # the dataclass default compares the arrays with ==, which has no truth value
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.num_nodes, self.y, self.node_labels, self.ground_truth_motif_edges)
            == (other.num_nodes, other.y, other.node_labels, other.ground_truth_motif_edges)
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.x, other.x)
        )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_array(self) -> np.ndarray:
        """``edges``, the read-only (E, 2) intp array (empty -> shape (0, 2))."""
        return self.edges


@dataclass(frozen=True)
class GraphDataset:
    graphs: tuple[Graph, ...]
    num_classes: int
    name: str
    feature_spec: FeatureSpec

    def __post_init__(self):
        dims = {g.x.shape[1] for g in self.graphs}
        if len(dims) > 1:
            raise ValueError(f"inconsistent feature dimensions {sorted(dims)}")
        for g in self.graphs:
            if not 0 <= g.y < self.num_classes:
                raise ValueError(f"label {g.y} outside 0..{self.num_classes - 1}")

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def feature_dim(self) -> int:
        return self.graphs[0].x.shape[1]

    def labels(self) -> np.ndarray:
        return np.array([g.y for g in self.graphs], dtype=np.intp)


@dataclass(frozen=True)
class EdgeMask:
    """Per-undirected-edge selection: soft weights plus hard bits.

    ``zeroed_nodes`` flags feature rows to blank at encoding time (node
    deletion); index removal never happens.
    """

    soft: np.ndarray
    hard: np.ndarray
    budget: int | None = None
    seed: int | None = None
    zeroed_nodes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.soft.ndim != 1 or self.hard.ndim != 1:
            raise ValueError(
                f"soft mask has shape {self.soft.shape} and hard {self.hard.shape}, expected 1-D"
            )
        if self.hard.shape != self.soft.shape:
            raise ValueError("soft and hard mask lengths differ")
        if not np.isfinite(self.soft).all():
            bad = np.flatnonzero(~np.isfinite(self.soft))[0]
            raise ValueError(f"non-finite soft weight at edge {bad}")
        # binary exactly when every nonzero entry (NaN included) is a one
        ones = np.count_nonzero(self.hard == 1.0)
        if ones != np.count_nonzero(self.hard):
            raise ValueError("hard mask must be binary")
        if self.budget is not None and ones != self.budget:
            raise ValueError(f"hard mask sums to {ones}, budget is {self.budget}")

    @property
    def num_edges(self) -> int:
        return self.soft.shape[0]

    @staticmethod
    def full(num_edges: int) -> "EdgeMask":
        ones = np.ones(num_edges)
        return EdgeMask(soft=ones.copy(), hard=ones)


@dataclass(frozen=True)
class SubgraphBag:
    """Ordered collection of edge-mask views over one base graph."""

    base: Graph
    masks: tuple[EdgeMask, ...]
    policy_tag: str  # one of POLICY_TAGS

    def __post_init__(self):
        if not self.masks:
            raise ValueError("bag must hold at least one mask")
        for m in self.masks:
            if m.num_edges != self.base.num_edges:
                raise ValueError(
                    f"mask over {m.num_edges} edges for a base graph with {self.base.num_edges}"
                )

    def __len__(self) -> int:
        return len(self.masks)


def policy_edge_deleted(g: Graph) -> SubgraphBag:
    """One subgraph per edge, each dropping exactly that edge."""
    if g.num_edges == 0:
        raise PolicyError("edge-deleted policy needs at least one edge")
    masks = []
    for k in range(g.num_edges):
        hard = np.ones(g.num_edges)
        hard[k] = 0.0
        masks.append(EdgeMask(soft=hard.copy(), hard=hard))
    return SubgraphBag(base=g, masks=tuple(masks), policy_tag="ED")


def policy_node_deleted(g: Graph) -> SubgraphBag:
    """One subgraph per node, dropping its incident edges and feature row."""
    if g.num_nodes < 1:
        raise PolicyError("node-deleted policy needs at least one node")
    masks = []
    for v in range(g.num_nodes):
        hard = np.ones(g.num_edges)
        hard[(g.edges == v).any(axis=1)] = 0.0
        masks.append(EdgeMask(soft=hard.copy(), hard=hard, zeroed_nodes=(v,)))
    return SubgraphBag(base=g, masks=tuple(masks), policy_tag="ND")


def sample_bag(bag: SubgraphBag, fraction: float, seed) -> SubgraphBag:
    """Keep ceil(fraction * m) masks, sampled uniformly without replacement."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside (0, 1]")
    m = len(bag.masks)
    keep = math.ceil(fraction * m)
    if keep >= m:
        return bag
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(m, size=keep, replace=False))
    return SubgraphBag(
        base=bag.base,
        masks=tuple(bag.masks[int(i)] for i in chosen),
        policy_tag=bag.policy_tag,
    )


def constant_features(num_nodes: int) -> np.ndarray:
    return np.ones((num_nodes, 1))

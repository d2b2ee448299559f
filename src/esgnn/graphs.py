"""Graph containers, subgraph policies and node features.

Graphs are immutable once built.  Their undirected edges are one read-only
(E, 2) intp array of canonically ordered pairs (i, j), i < j: the one edge
format of the package.  Batches concatenate these arrays, and only CSRs
hold them as directed entries.  A graph sorts its directed entries once, on
first use, into ``Graph.entry_layout``, one read-only int32 array; every
batch CSR that holds the graph is joined from these layouts, and so is its
own unit-weight adjacency, ``Graph.adjacency``, a bare scipy CSR that it
keeps, read-only, for one-graph untaped forwards such as edge scoring.
Every subgraph view is an edge mask with one weight per row of that
array.  Node deletion keeps the node slot and zeroes its feature row plus
incident edges, so matrix shapes never change across a bag.

Each rule is checked once, here.  ``Graph`` checks its edges: each a
canonical pair i < j in range, so no self-loop, and no pair given twice,
in any order; ``autodiff.sort_entries`` sorts them with no check.
``_mask_fault`` holds the one-mask rules: a budget and a seed are integers
or None, zeroed nodes a tuple or list of integers, soft weights finite,
hard bits binary, and a budget the count of kept bits.  ``EdgeMask`` runs
it on its one row, and ``EdgeMask.block``, which builds a bag's masks from
(m, E) soft and hard blocks, on every row in one pass.  ``_misfit`` holds
the rule that a mask fits a graph: it covers the graph's edges and zeroes
only its nodes.  ``SubgraphBag`` runs it on each mask and
``gin.build_graph_batch`` on each mask it is given.  So every bag that
``explainer.bag_to_json`` writes reads back, and ``explainer.bag_from_json``
checks only the document's own form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np
import scipy.sparse

from .autodiff import _layout_csr, sort_entries

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


def _is_int(value) -> bool:
    """True for Python and numpy integers; a bool counts as none."""
    # the exact-type test first: masks check every budget and seed, and the
    # abstract-class isinstance costs several times more
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _check_count(name: str, value, minimum: int) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer >= ``minimum``."""
    if not _is_int(value):
        raise ValueError(f"{name} {value!r} must be an integer")
    if value < minimum:
        raise ValueError(f"{name} {value} must be >= {minimum}")


def _is_real(value) -> bool:
    """True for Python and numpy real numbers; a bool counts as none, and so does a str."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_real(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a finite real number (``_is_real``)."""
    if not _is_real(value):
        raise ValueError(f"{name} {value!r} must be a real number")
    if not math.isfinite(value):
        raise ValueError(f"{name} {value} must be finite")


def _real_array(name: str, value) -> np.ndarray:
    """``value`` as a numpy array of a real dtype (bool, integer or float), naming ``name``.

    An array is kept as it is; a sequence is converted, as ``np.asarray``
    converts it.
    """
    if not isinstance(value, np.ndarray):
        try:
            value = np.asarray(value)
        except ValueError as err:
            raise ValueError(f"{name} is no array: {err}") from None
    if value.dtype.kind not in "biuf":
        raise ValueError(f"{name} has dtype {value.dtype}, expected bool, integer or real float")
    return value


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
        if self.kind == "degree":
            if self.cap is None or (_is_int(self.cap) and self.cap < 1):
                raise ValueError("degree features need cap >= 1")
            _check_count("cap", self.cap, 1)


@dataclass(frozen=True)
class Graph:
    """Undirected graph with node features and a class label.

    ``edges`` takes any (E, 2) sequence of pairs and holds it as one
    read-only (E, 2) intp array; a read-only intp array is kept as it is,
    so ``dataclasses.replace`` shares it.  ``x`` is a (num_nodes, F) array
    of any real dtype (bool, integer or float), kept as it is: the loaders
    here build 0/1 features as uint8, one byte per entry, and the batch
    copy that ``gin.build_graph_batch`` makes widens them to float64.  An
    empty ``ground_truth_motif_edges`` is held as None.  ``num_nodes`` and
    the label ``y`` must be integers >= 0; a bool counts as none.
    """

    num_nodes: int
    edges: np.ndarray
    x: np.ndarray
    y: int
    node_labels: tuple[int, ...] | None = None
    ground_truth_motif_edges: frozenset[int] | None = None

    def __post_init__(self):
        _check_count("num_nodes", self.num_nodes, 0)
        _check_count("y", self.y, 0)
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
        object.__setattr__(self, "x", _real_array("feature matrix", self.x))
        if self.x.ndim != 2:
            raise ValueError(f"feature matrix has shape {self.x.shape}, expected 2-D")
        if self.x.shape[0] != self.num_nodes:
            raise ValueError(f"feature matrix has {self.x.shape[0]} rows for {self.num_nodes} nodes")
        # only a float entry can be non-finite
        if self.x.dtype.kind == "f" and not np.isfinite(self.x).all():
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

    @cached_property
    def entry_layout(self) -> np.ndarray:
        """The CSR layout of the graph's symmetric adjacency, sorted on first use and kept.

        ``autodiff.sort_entries``'s read-only int32 array, 16 bytes per edge:
        the column of each directed entry, then the edge it comes from.
        ``adjacency`` and every batch (``autodiff.concat_entries``) are built
        from it, so a graph's entries are sorted once.
        ``dataclasses.replace`` builds a new graph, which sorts its own.
        """
        layout = sort_entries(self.num_nodes, self.edges)
        layout.flags.writeable = False
        return layout

    @cached_property
    def adjacency(self) -> scipy.sparse.csr_matrix:
        """The unit-weight symmetric adjacency as a scipy CSR, built on first use and kept.

        The graph is immutable, so its CSR is too: its arrays are read-only.
        Its columns are a view of ``entry_layout``, so beyond the layout it
        keeps its values, 16 bytes per edge, and its row pointers, 4 bytes
        per node plus 4.
        """
        csr = _layout_csr(self.num_nodes, self.edges, None, self.entry_layout)
        csr.data.flags.writeable = False
        csr.indptr.flags.writeable = False
        return csr

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
        _check_count("num_classes", self.num_classes, 0)
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


def _mask_fault(
    soft: np.ndarray, hard: np.ndarray, budgets=None, seeds=None, zeroed_nodes=None
) -> tuple[int, str] | None:
    """The first mask of an (m, E) soft/hard block that breaks a mask rule, and why.

    ``budgets``, ``seeds`` and ``zeroed_nodes`` are each None or hold one
    entry per row.  Every budget, then every seed, must be an integer or
    None, and then every entry of zeroed nodes a tuple or list of integers;
    a bool counts as no integer.  Then, row by row, the soft weights must be
    finite, the hard bits 0 or 1 (-0.0 is a zero, NaN neither), and a row
    with a budget must keep exactly that many bits.  A row is reported with
    the first rule it breaks, in that order.
    """
    for name, values in (("budget", budgets), ("seed", seeds)):
        for k, value in enumerate(values or ()):
            if value is not None and not _is_int(value):
                return k, f"{name} {value!r} must be an integer or None"
    for k, nodes in enumerate(zeroed_nodes or ()):
        if not (isinstance(nodes, (tuple, list)) and all(map(_is_int, nodes))):
            return k, f"zeroed_nodes {nodes!r} must be integers"
    # one pass over the whole block for each of the first two rules; the
    # rows are looked at one by one only when one of them fails
    bad = None  # the first row that breaks the first or second rule
    if not (np.isfinite(soft).all() and np.count_nonzero(hard == 1.0) == np.count_nonzero(hard)):
        finite = np.isfinite(soft).all(axis=1)
        # binary exactly when every nonzero entry (NaN included) is a one
        binary = np.count_nonzero(hard == 1.0, axis=1) == np.count_nonzero(hard, axis=1)
        bad = int(np.argmin(finite & binary))
    if budgets is not None:
        # the rows before ``bad`` are binary, so a row's sum is its count of ones
        kept = hard[:bad].sum(axis=1, dtype=np.float64).astype(np.intp).tolist()
        for k, (budget, count) in enumerate(zip(budgets, kept)):
            # Python ints, so no budget can overflow
            if budget is not None and budget != count:
                return k, f"hard mask sums to {count}, budget is {budget}"
    if bad is None:
        return None
    if not finite[bad]:
        return bad, f"non-finite soft weight at edge {np.flatnonzero(~np.isfinite(soft[bad]))[0]}"
    return bad, "hard mask must be binary"


def _node_tuple(nodes) -> tuple[int, ...]:
    """Checked zeroed nodes as a tuple of Python ints; such a tuple is kept as it is."""
    if isinstance(nodes, tuple) and all(type(v) is int for v in nodes):
        return nodes
    return tuple(map(int, nodes))


@dataclass(frozen=True)
class EdgeMask:
    """Per-undirected-edge selection: soft weights plus hard bits.

    ``zeroed_nodes`` flags feature rows to blank at encoding time (node
    deletion); index removal never happens.  It is kept as a tuple of
    Python ints, numpy integers converted, so a mask equals the one read
    back from bag JSON and has the same ``repr``.
    ``EdgeMask.block`` builds a bag's masks from (m, E) blocks, checked with
    the same rules in one pass.
    """

    soft: np.ndarray
    hard: np.ndarray
    budget: int | None = None
    seed: int | None = None
    zeroed_nodes: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("soft", "hard"):
            object.__setattr__(self, name, _real_array(f"{name} mask", getattr(self, name)))
        if self.soft.ndim != 1 or self.hard.ndim != 1:
            raise ValueError(
                f"soft mask has shape {self.soft.shape} and hard {self.hard.shape}, expected 1-D"
            )
        if self.hard.shape != self.soft.shape:
            raise ValueError("soft and hard mask lengths differ")
        fault = _mask_fault(
            self.soft[None], self.hard[None], (self.budget,), (self.seed,), (self.zeroed_nodes,)
        )
        if fault is not None:
            raise ValueError(fault[1])
        object.__setattr__(self, "zeroed_nodes", _node_tuple(self.zeroed_nodes))

    @classmethod
    def block(
        cls, soft: np.ndarray, hard: np.ndarray, budgets=None, seeds=None, zeroed_nodes=None
    ) -> tuple["EdgeMask", ...]:
        """One mask per row of the (m, E) ``soft`` and ``hard`` blocks.

        Mask k holds row k of both blocks (views, not copies) and entry k of
        each of ``budgets``, ``seeds`` and ``zeroed_nodes`` that is given.
        All rows are checked against ``__post_init__``'s rules, the soft and
        hard rows in one pass; the first fault found raises that rule's
        message, prefixed "mask k: ".
        """
        if soft.ndim != 2 or hard.ndim != 2:
            raise ValueError(
                f"soft block has shape {soft.shape} and hard {hard.shape}, expected 2-D"
            )
        if hard.shape != soft.shape:
            raise ValueError(f"soft block has shape {soft.shape} and hard {hard.shape}")
        m = len(soft)
        fields = {"budgets": budgets, "seeds": seeds, "zeroed_nodes": zeroed_nodes}
        for name, values in fields.items():
            if values is not None and len(values) != m:
                raise ValueError(f"{len(values)} {name} for {m} masks")
        fault = _mask_fault(soft, hard, budgets, seeds, zeroed_nodes)
        if fault is not None:
            raise ValueError(f"mask {fault[0]}: {fault[1]}")
        # every row is checked, so ``__init__`` and its one-row check are skipped
        none = repeat(None)
        rows = zip(
            soft,
            hard,
            none if budgets is None else budgets,
            none if seeds is None else seeds,
            repeat(()) if zeroed_nodes is None else map(_node_tuple, zeroed_nodes),
        )
        masks = []
        for s, h, budget, seed, zeroed in rows:
            mask = object.__new__(cls)
            mask.__dict__.update(soft=s, hard=h, budget=budget, seed=seed, zeroed_nodes=zeroed)
            masks.append(mask)
        return tuple(masks)

    @property
    def num_edges(self) -> int:
        return self.soft.shape[0]


def _misfit(mask: EdgeMask, g: Graph) -> str | None:
    """Why ``mask`` does not fit ``g``, or None: it must cover g's edges and zero only g's nodes."""
    if mask.num_edges != g.num_edges:
        return f"covers {mask.num_edges} edges of a graph with {g.num_edges}"
    nodes = mask.zeroed_nodes
    if nodes and not (min(nodes) >= 0 and max(nodes) < g.num_nodes):
        return f"zeroes nodes {nodes} outside 0..{g.num_nodes - 1}"
    return None


@dataclass(frozen=True)
class SubgraphBag:
    """Ordered collection of edge-mask views over one base graph.

    Every mask fits the base graph (``_misfit``); the first that does not
    is named with its index.
    """

    base: Graph
    masks: tuple[EdgeMask, ...]
    policy_tag: str  # one of POLICY_TAGS

    def __post_init__(self):
        if not self.masks:
            raise ValueError("bag must hold at least one mask")
        for k, mask in enumerate(self.masks):
            fault = _misfit(mask, self.base)
            if fault is not None:
                raise ValueError(f"mask {k} {fault}")

    def __len__(self) -> int:
        return len(self.masks)


def policy_edge_deleted(g: Graph) -> SubgraphBag:
    """One subgraph per edge, each dropping exactly that edge."""
    if g.num_edges == 0:
        raise PolicyError("edge-deleted policy needs at least one edge")
    hard = 1.0 - np.eye(g.num_edges)
    return SubgraphBag(base=g, masks=EdgeMask.block(hard.copy(), hard), policy_tag="ED")


def policy_node_deleted(g: Graph) -> SubgraphBag:
    """One subgraph per node, dropping its incident edges and feature row."""
    if g.num_nodes < 1:
        raise PolicyError("node-deleted policy needs at least one node")
    # column k of the (nodes, E) incidence block is zero at both ends of edge k
    hard = np.ones((g.num_nodes, g.num_edges))
    hard[g.edges.T, np.arange(g.num_edges)] = 0.0
    zeroed = [(v,) for v in range(g.num_nodes)]
    masks = EdgeMask.block(hard.copy(), hard, zeroed_nodes=zeroed)
    return SubgraphBag(base=g, masks=masks, policy_tag="ND")


def sample_bag(bag: SubgraphBag, fraction: float, seed: int) -> SubgraphBag:
    """Keep ceil(fraction * m) masks, sampled uniformly without replacement.

    ``fraction`` is a real number in (0, 1] (``_is_real``)."""
    _check_count("seed", seed, 0)
    if not _is_real(fraction):
        raise ValueError(f"fraction {fraction!r} must be a real number")
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
    """One all-ones uint8 column: one byte per node."""
    return np.ones((num_nodes, 1), dtype=np.uint8)

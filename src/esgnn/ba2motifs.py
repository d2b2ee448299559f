"""Synthetic benchmark: Barabasi-Albert trees with an attached class motif.

Every graph is a 20-node preferential-attachment base (one edge per new
node) plus a 5-node motif hooked on by a single bridge edge.  Class 0 gets a
house motif, class 1 a five-node cycle; the motif edges and the bridge are
recorded as ground-truth explanation edges.  Node features are a constant
scalar, so only the topology carries the label.

The base is drawn with ``random.Random`` exactly as
``networkx.barabasi_albert_graph(n, 1, seed)`` draws it, so the datasets
match graphs built with networkx while the package does not import it;
networkx is only a test and benchmark dependency.
"""

from __future__ import annotations

import random

import numpy as np

from .graphs import FeatureSpec, Graph, GraphDataset, _check_count, constant_features

__all__ = ["generate_ba2motifs", "BASE_NODES", "MOTIF_NODES"]

BASE_NODES = 20
MOTIF_NODES = 5

# local motif edges over nodes 0..4
_HOUSE = ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4))
_CYCLE = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))


def _ba_tree(n: int, seed: int) -> list[tuple[int, int]]:
    """Edges (t, s), t < s, of a preferential-attachment tree on n >= 2 nodes.

    Starts from the edge (0, 1) and joins each new node s to a node t drawn
    with probability proportional to its degree: one ``choice`` over the list
    that holds every node once per incident edge, the draws networkx makes.
    """
    rng = random.Random(seed)
    edges = [(0, 1)]
    repeated = [0, 1]
    for source in range(2, n):
        target = rng.choice(repeated)
        edges.append((target, source))
        repeated += (target, source)
    return edges


def generate_ba2motifs(n_graphs: int, seed: int) -> GraphDataset:
    """Build a balanced dataset of n_graphs motif-labelled graphs."""
    _check_count("n_graphs", n_graphs, 1)
    _check_count("seed", seed, 0)
    if n_graphs % 2 != 0:
        raise ValueError(f"n_graphs must be even for balanced classes, got {n_graphs}")
    rng = np.random.default_rng(seed)
    n = BASE_NODES + MOTIF_NODES
    graphs = []
    for idx in range(n_graphs):
        label = idx % 2
        edges = _ba_tree(BASE_NODES, int(rng.integers(0, 2**31 - 1)))

        motif_local = _CYCLE if label == 1 else _HOUSE
        special = {(BASE_NODES + i, BASE_NODES + j) for i, j in motif_local}
        anchor = int(rng.integers(0, BASE_NODES))
        motif_entry = BASE_NODES + int(rng.integers(0, MOTIF_NODES))
        special.add((anchor, motif_entry))

        # base pairs stay below BASE_NODES and every special pair reaches
        # past it, so the two lists never share an edge
        all_edges = tuple(sorted(edges + list(special)))
        motif_idx = frozenset(k for k, e in enumerate(all_edges) if e in special)
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

from collections import Counter

import networkx as nx
import numpy as np
import pytest

from esgnn.ba2motifs import BASE_NODES, MOTIF_NODES, _ba_tree, generate_ba2motifs
from tests.conftest import same_bits
from tests.oracles import generate_ba2motifs_networkx


def motif_oracle_is_five_cycle(g) -> bool:
    """Brute-force label oracle over the recorded ground-truth edges.

    Drops the unique bridge (the edge touching the only degree-1 endpoint in
    the ground-truth subgraph) and checks whether the rest is a 5-cycle:
    exactly 5 edges over 5 nodes, all of degree 2.
    """
    edges = g.edges[sorted(g.ground_truth_motif_edges)].tolist()
    deg = Counter()
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    leaves = [v for v, d in deg.items() if d == 1]
    assert len(leaves) == 1, "expected exactly one bridge into the base"
    bridge = next(e for e in edges if leaves[0] in e)
    core = [e for e in edges if e != bridge]
    core_deg = Counter()
    for i, j in core:
        core_deg[i] += 1
        core_deg[j] += 1
    return len(core) == 5 and len(core_deg) == 5 and all(d == 2 for d in core_deg.values())


class TestGenerator:
    def test_counts_and_balance(self):
        ds = generate_ba2motifs(1000, seed=0)
        labels = ds.labels()
        assert (labels == 0).sum() == 500
        assert (labels == 1).sum() == 500
        assert all(g.num_nodes == 25 for g in ds.graphs)

    def test_two_graphs_one_per_class(self):
        ds = generate_ba2motifs(2, seed=3)
        assert sorted(ds.labels().tolist()) == [0, 1]

    def test_cycle_motif_has_five_edges(self):
        ds = generate_ba2motifs(50, seed=1)
        for g in ds.graphs:
            motif_nodes = range(BASE_NODES, BASE_NODES + MOTIF_NODES)
            internal = [
                e
                for k, e in enumerate(g.edges)
                if k in g.ground_truth_motif_edges
                and e[0] in motif_nodes
                and e[1] in motif_nodes
            ]
            if g.y == 1:
                assert len(internal) == 5
            else:
                assert len(internal) == 6

    def test_label_recoverable_by_cycle_oracle(self):
        ds = generate_ba2motifs(200, seed=2)
        for g in ds.graphs:
            assert motif_oracle_is_five_cycle(g) == (g.y == 1)

    def test_constant_scalar_features(self):
        ds = generate_ba2motifs(4, seed=0)
        assert ds.feature_spec.kind == "constant"
        assert np.array_equal(ds.graphs[0].x, np.ones((25, 1)))

    def test_deterministic_under_seed(self):
        a = generate_ba2motifs(10, seed=9)
        b = generate_ba2motifs(10, seed=9)
        for g1, g2 in zip(a.graphs, b.graphs):
            assert g1.edges.tolist() == g2.edges.tolist()
            assert g1.ground_truth_motif_edges == g2.ground_truth_motif_edges

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            generate_ba2motifs(0, seed=0)
        with pytest.raises(ValueError):
            generate_ba2motifs(-4, seed=0)
        with pytest.raises(ValueError):
            generate_ba2motifs(5, seed=0)
        for count in (4.0, True, "4"):
            with pytest.raises(ValueError, match=f"n_graphs {count!r} must be an integer"):
                generate_ba2motifs(count, seed=0)

    def test_a_numpy_count_is_a_count(self):
        assert generate_ba2motifs(np.int64(4), seed=0).graphs == generate_ba2motifs(4, 0).graphs

    def test_base_is_connected_tree_plus_motif(self):
        ds = generate_ba2motifs(20, seed=4)
        for g in ds.graphs:
            base_edges = [
                e for k, e in enumerate(g.edges) if k not in g.ground_truth_motif_edges
            ]
            assert len(base_edges) == BASE_NODES - 1  # preferential-attachment tree
            assert all(i < BASE_NODES and j < BASE_NODES for i, j in base_edges)


class TestSameGraphsAsNetworkx:
    @pytest.mark.parametrize(
        "n, seeds", [(20, range(500)), (2, range(3)), (3, range(10)), (60, range(10))]
    )
    def test_base_tree_draws_what_barabasi_albert_graph_draws(self, n, seeds):
        for s in seeds:
            assert sorted(_ba_tree(n, s)) == sorted(nx.barabasi_albert_graph(n, 1, seed=s).edges())

    @pytest.mark.parametrize("n_graphs, seed", [(200, 0), (200, 1), (50, 7)])
    def test_dataset_equals_the_networkx_reference_field_by_field(self, n_graphs, seed):
        ds, ref = generate_ba2motifs(n_graphs, seed), generate_ba2motifs_networkx(n_graphs, seed)
        assert ds.name == ref.name == "BA-2Motifs"
        assert (ds.num_classes, ds.feature_spec) == (ref.num_classes, ref.feature_spec)
        assert len(ds) == len(ref) == n_graphs
        for g, h in zip(ds.graphs, ref.graphs):
            assert same_bits(g.edges, h.edges)
            assert same_bits(g.x, h.x)
            assert (g.num_nodes, g.y, g.node_labels) == (h.num_nodes, h.y, h.node_labels)
            assert g.ground_truth_motif_edges == h.ground_truth_motif_edges

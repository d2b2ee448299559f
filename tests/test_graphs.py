import dataclasses

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from esgnn.autodiff import Tensor
from esgnn.gin import GinLayerParams, apply_gin_layer, build_graph_batch
from esgnn.graphs import (
    EdgeMask,
    FeatureSpec,
    Graph,
    GraphDataset,
    PolicyError,
    constant_features,
    policy_edge_deleted,
    policy_node_deleted,
    sample_bag,
)
from esgnn.tud import load_tud_dataset, write_tud_dataset
from tests.conftest import make_graph


def degree_features(g, cap, root):
    """The degree features of `g` after a TU round trip, one-hot of min(deg, cap)."""
    ds = GraphDataset(graphs=(g,), num_classes=1, name="G", feature_spec=FeatureSpec("constant"))
    write_tud_dataset(ds, root)
    return load_tud_dataset(root, "G", FeatureSpec("degree", cap)).graphs[0].x


def tuple_and_array(edges):
    """The same edges as a tuple of pairs and as a writable (E, 2) int64 array."""
    return [edges, np.array(edges, dtype=np.int64).reshape(-1, 2)]


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        for edges in tuple_and_array(((0, 1), (1, 1))):
            with pytest.raises(ValueError, match="self-loop at node 1"):
                Graph(num_nodes=2, edges=edges, x=constant_features(2), y=0)

    def test_rejects_duplicate_edge(self):
        for edges in tuple_and_array(((0, 1), (1, 2), (0, 1))):
            with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
                Graph(num_nodes=3, edges=edges, x=constant_features(3), y=0)

    def test_rejects_out_of_range_endpoint(self):
        for bad in ((0, 2), (-1, 1), (1, 0)):
            for edges in tuple_and_array(((0, 1), bad)):
                with pytest.raises(ValueError, match=rf"edge \({bad[0]}, {bad[1]}\) outside 0..1"):
                    Graph(num_nodes=2, edges=edges, x=constant_features(2), y=0)

    def test_names_the_first_bad_edge(self):
        # a repeat, then a non-canonical edge, then a self-loop: the repeat is first
        for edges in tuple_and_array(((0, 1), (1, 2), (0, 1), (2, 1), (2, 2))):
            with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
                Graph(num_nodes=3, edges=edges, x=constant_features(3), y=0)
        for edges in tuple_and_array(((0, 1), (2, 1), (0, 1), (2, 2))):
            with pytest.raises(ValueError, match=r"edge \(2, 1\) outside"):
                Graph(num_nodes=3, edges=edges, x=constant_features(3), y=0)

    def test_accepts_canonical_edges_in_any_order(self):
        for edges in tuple_and_array(((1, 2), (0, 2), (0, 1))):
            g = Graph(num_nodes=3, edges=edges, x=constant_features(3), y=0)
            assert g.edges.tolist() == [[1, 2], [0, 2], [0, 1]]

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([0, 1], r"shape \(2,\), expected \(E, 2\)"),
            ([[0, 1, 2]], r"shape \(1, 3\), expected \(E, 2\)"),
            (np.zeros((0, 3), dtype=np.intp), r"shape \(0, 3\), expected \(E, 2\)"),
            ([[0.0, 1.0]], "dtype float64, expected integer"),
            ([[True, False]], "dtype bool, expected integer"),
        ],
    )
    def test_rejects_edges_that_are_not_integer_pairs(self, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph(num_nodes=3, edges=edges, x=constant_features(3), y=0)

    def test_rejects_feature_row_mismatch(self):
        for edges in tuple_and_array(()):
            with pytest.raises(ValueError, match="rows"):
                Graph(num_nodes=3, edges=edges, x=constant_features(2), y=0)

    def test_rejects_features_that_are_not_2d_naming_the_shape(self):
        for edges in tuple_and_array(()):
            with pytest.raises(ValueError, match=r"shape \(3,\), expected 2-D"):
                Graph(num_nodes=3, edges=edges, x=np.ones(3), y=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_feature_naming_the_first_bad_node(self, bad):
        x = np.ones((4, 2))
        x[2, 1] = x[3, 0] = bad
        for edges in tuple_and_array(((0, 1),)):
            with pytest.raises(ValueError, match="non-finite feature at node 2"):
                Graph(num_nodes=4, edges=edges, x=x, y=0)

    def test_rejects_node_labels_of_the_wrong_length(self):
        for edges in tuple_and_array(((0, 1),)):
            with pytest.raises(ValueError, match="3 node labels for 2 nodes"):
                Graph(num_nodes=2, edges=edges, x=constant_features(2), y=0, node_labels=(1, 2, 3))

    def test_rejects_motif_edge_out_of_range(self):
        for edges in tuple_and_array(((0, 1),)):
            with pytest.raises(ValueError, match="motif edge index 5 outside 0..0"):
                Graph(
                    num_nodes=2,
                    edges=edges,
                    x=constant_features(2),
                    y=0,
                    ground_truth_motif_edges=frozenset({0, 5}),
                )

    def test_an_empty_motif_set_is_stored_as_none(self):
        plain = Graph(num_nodes=2, edges=((0, 1),), x=constant_features(2), y=0)
        empty = dataclasses.replace(plain, ground_truth_motif_edges=frozenset())
        assert empty.ground_truth_motif_edges is None
        assert empty == plain


class TestEdgeArray:
    def test_is_the_read_only_edges_array(self, path4):
        arr = path4.edges
        assert path4.edge_array() is arr
        assert arr.dtype == np.intp and arr.shape == (3, 2)
        assert arr.tolist() == [[0, 1], [1, 2], [2, 3]]
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 5

    def test_replace_shares_the_array_and_rebuilds_new_edges(self, path4):
        same = dataclasses.replace(path4)
        assert same.edges is path4.edges and same == path4
        other = dataclasses.replace(path4, edges=((0, 1),))
        assert other.edges.tolist() == [[0, 1]]
        assert path4.edges.tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_graphs_from_equal_distinct_arrays_compare_by_value(self):
        def build(edges=((0, 1), (1, 2)), x=None):
            x = np.eye(3) if x is None else x
            return Graph(num_nodes=3, edges=np.array(edges), x=x, y=1, node_labels=(0, 1, 2))

        g = build()
        assert g == build() and not g != build()
        assert g != build(edges=((0, 1), (0, 2)))
        assert g != build(edges=((0, 1),))
        x = np.eye(3)
        x[2, 0] = 0.5
        assert g != build(x=x)
        assert g != dataclasses.replace(g, y=0) and g != "graph"

    def test_a_writable_array_is_copied_and_stays_writable(self):
        given_edges = np.array([[0, 1], [1, 2]])
        g = Graph(num_nodes=3, edges=given_edges, x=constant_features(3), y=0)
        given_edges[0, 1] = 2
        assert given_edges.flags.writeable and g.edges.tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("empty", [(), [], np.zeros((0, 2), dtype=np.int32)])
    def test_no_edges_give_a_0_by_2_array(self, empty):
        g = Graph(num_nodes=2, edges=empty, x=constant_features(2), y=0)
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.intp and g.num_edges == 0


class TestEdgeDeletedPolicy:
    def test_triangle_gives_three_two_edge_subgraphs(self, triangle):
        bag = policy_edge_deleted(triangle)
        assert len(bag) == 3
        assert bag.policy_tag == "ED"
        for k, mask in enumerate(bag.masks):
            assert mask.hard.sum() == 2
            assert mask.hard[k] == 0

    def test_single_edge_gives_empty_subgraph(self, single_edge):
        bag = policy_edge_deleted(single_edge)
        assert len(bag) == 1
        assert bag.masks[0].hard.sum() == 0

    def test_edgeless_graph_rejected(self):
        with pytest.raises(PolicyError):
            policy_edge_deleted(make_graph(3, []))

    def test_each_mask_differs_from_full_in_one_position(self, cycle6):
        bag = policy_edge_deleted(cycle6)
        full = np.ones(cycle6.num_edges)
        for mask in bag.masks:
            assert (mask.hard != full).sum() == 1


class TestNodeDeletedPolicy:
    def test_triangle_leaves_single_edges(self, triangle):
        bag = policy_node_deleted(triangle)
        assert len(bag) == 3
        assert bag.policy_tag == "ND"
        for mask in bag.masks:
            assert mask.hard.sum() == 1

    def test_star_center_removal_is_edgeless(self, star_k13):
        bag = policy_node_deleted(star_k13)
        assert bag.masks[0].hard.sum() == 0  # node 0 is the center
        assert bag.masks[0].zeroed_nodes == (0,)

    def test_path4_edge_counts(self, path4):
        bag = policy_node_deleted(path4)
        counts = [int(m.hard.sum()) for m in bag.masks]
        assert counts == [2, 1, 1, 2]

    def test_bag_size_equals_node_count(self, cycle6):
        assert len(policy_node_deleted(cycle6)) == cycle6.num_nodes


class TestSampleBag:
    def test_ceiling_rule(self, cycle6):
        bag = policy_node_deleted(make_graph(30, [(i, i + 1) for i in range(29)]))
        assert len(sample_bag(bag, 0.1, seed=0)) == 3

    def test_full_fraction_is_identity(self, triangle):
        bag = policy_edge_deleted(triangle)
        assert sample_bag(bag, 1.0, seed=5) is bag

    def test_seven_of_ten_percent(self):
        g = make_graph(7, [(i, i + 1) for i in range(6)])
        bag = policy_node_deleted(g)
        assert len(sample_bag(bag, 0.1, seed=3)) == 1

    def test_deterministic_under_seed(self, cycle6):
        bag = policy_edge_deleted(cycle6)
        a = sample_bag(bag, 0.5, seed=42)
        b = sample_bag(bag, 0.5, seed=42)
        assert all(np.array_equal(x.hard, y.hard) for x, y in zip(a.masks, b.masks))

    def test_fraction_bounds(self, triangle):
        bag = policy_edge_deleted(triangle)
        with pytest.raises(ValueError):
            sample_bag(bag, 0.0, seed=0)
        with pytest.raises(ValueError):
            sample_bag(bag, 1.5, seed=0)


class TestDegreeFeatures:
    def test_triangle_all_degree_two(self, triangle, tmp_path):
        x = degree_features(triangle, 3, tmp_path)
        assert np.array_equal(x.argmax(axis=1), [2, 2, 2])
        assert x.shape == (3, 4)

    def test_isolated_node(self, tmp_path):
        x = degree_features(make_graph(1, []), 2, tmp_path)
        assert np.array_equal(x[0], [1.0, 0.0, 0.0])

    def test_cap_clamps(self, tmp_path):
        center_star = make_graph(6, [(0, k) for k in range(1, 6)])
        x = degree_features(center_star, 3, tmp_path)
        assert x[0].argmax() == 3


class TestConnectivityOperators:
    def test_adjacency_pattern_is_symmetric(self, path4, triangle):
        # the CSR equals scipy's COO -> CSR of both directions of every edge
        adj = build_graph_batch([path4, triangle]).adj
        edges = adj.edges
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        want = scipy.sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(7, 7)).tocsr()
        got = adj.assemble(np.ones(adj.num_edges)).csr
        assert got.indptr.tolist() == want.indptr.tolist()
        assert got.indices.tolist() == want.indices.tolist()
        assert got.data.tolist() == want.data.tolist()
        assert (got != got.T).nnz == 0

    def test_self_loop_operator_matches_explicit_form(self, triangle):
        # with an identity MLP a GIN layer is (A + (1 + eps) I) h; h >= 0 keeps
        # the inner ReLU the identity
        eps = 0.25
        h = np.random.default_rng(0).random((3, 2))
        eye, zero = np.eye(2), np.zeros(2)
        layer = GinLayerParams(Tensor(eye), Tensor(zero), Tensor(eye), Tensor(zero), Tensor(eps))
        batch = build_graph_batch([triangle])
        adj = batch.adj.assemble(np.ones(batch.adj.num_edges))
        combined = apply_gin_layer(layer, Tensor(h), adj).data
        dense = np.zeros((3, 3))
        for i, j in triangle.edges:
            dense[i, j] = dense[j, i] = 1.0
        expected = (dense + (1.0 + eps) * np.eye(3)) @ h
        assert np.allclose(combined, expected, atol=1e-12)


class TestEdgeMask:
    def test_rejects_non_binary_hard(self):
        with pytest.raises(ValueError, match="binary"):
            EdgeMask(soft=np.array([0.5]), hard=np.array([0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_soft_weight_naming_the_edge(self, bad):
        soft = np.array([0.2, 0.9, bad, bad])
        with pytest.raises(ValueError, match="non-finite soft weight at edge 2"):
            EdgeMask(soft=soft, hard=np.ones(4))

    def test_rejects_a_2d_pair_as_not_1d(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) and hard \(2, 3\), expected 1-D"):
            EdgeMask(soft=np.ones((2, 3)), hard=np.ones((2, 3)))
        with pytest.raises(ValueError, match="lengths differ"):
            EdgeMask(soft=np.ones(3), hard=np.ones(2))

    def test_rejects_budget_mismatch(self):
        with pytest.raises(ValueError, match="budget"):
            EdgeMask(soft=np.ones(3), hard=np.ones(3), budget=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0, 0.5])
    def test_rejects_any_value_but_zero_and_one_as_not_binary(self, bad):
        with pytest.raises(ValueError, match="hard mask must be binary"):
            EdgeMask(soft=np.ones(4), hard=np.array([1.0, 0.0, bad, 1.0]), budget=2)

    def test_accepts_negative_zero_as_a_zero_bit(self):
        mask = EdgeMask(soft=np.ones(3), hard=np.array([1.0, -0.0, 1.0]), budget=2)
        assert mask.budget == 2

    def test_a_budget_mismatch_names_the_count_and_the_budget(self):
        with pytest.raises(ValueError, match="hard mask sums to 2, budget is 3"):
            EdgeMask(soft=np.ones(3), hard=np.array([1.0, 0.0, 1.0]), budget=3)

    def test_feature_spec_validation(self):
        with pytest.raises(ValueError):
            FeatureSpec("bogus")
        with pytest.raises(ValueError):
            FeatureSpec("degree")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10_000))
def test_policy_cardinalities_hold_for_random_paths(n, seed):
    g = make_graph(n, [(i, i + 1) for i in range(n - 1)])
    assert len(policy_edge_deleted(g)) == g.num_edges
    assert len(policy_node_deleted(g)) == g.num_nodes
    rng = np.random.default_rng(seed)
    frac = float(rng.uniform(0.05, 1.0))
    sampled = sample_bag(policy_node_deleted(g), frac, seed=seed)
    assert len(sampled) == int(np.ceil(frac * n))


def test_shapes_preserved_under_all_policies(path4):
    for bag in (policy_edge_deleted(path4), policy_node_deleted(path4)):
        for mask in bag.masks:
            x = path4.x.copy()
            x[list(mask.zeroed_nodes)] = 0.0
            assert x.shape == path4.x.shape
            assert mask.hard.shape == (path4.num_edges,)


def test_degrees_helper(star_k13, tmp_path):
    assert degree_features(star_k13, 3, tmp_path).argmax(axis=1).tolist() == [3, 1, 1, 1]


@pytest.mark.parametrize(
    "n, edges", [(0, []), (3, []), (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])]
)
def test_degrees_match_an_edge_loop(n, edges, tmp_path):
    g = make_graph(n, edges)
    expected = np.zeros(n, dtype=np.intp)
    for i, j in g.edges:
        expected[i] += 1
        expected[j] += 1
    cap = max(1, n)  # no degree reaches the cap
    got = degree_features(g, cap, tmp_path)
    assert got.dtype == np.float64 and np.array_equal(got, np.eye(cap + 1)[expected])

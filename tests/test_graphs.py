import dataclasses
import re

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
from tests.conftest import make_graph, same_bits
from tests.oracles import (
    assemble,
    block_fault_loop,
    policy_edge_deleted_loop,
    policy_node_deleted_loop,
)


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

    # ids above 2**16, whose flat index i * n + j needs more than 32 bits
    @pytest.mark.parametrize(
        "edges, message",
        [
            ([[3, 70000], [3, 70000]], "duplicate edge (3, 70000)"),
            ([[3, 70000], [70000, 3]], "edge (70000, 3) outside 0..70000 or not canonical"),
            ([[70000, 3], [5, 6], [3, 70000]], "edge (70000, 3) outside 0..70000 or not canonical"),
        ],
    )
    def test_a_pair_of_high_ids_given_twice_is_named_in_either_orientation(self, edges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Graph(num_nodes=70001, edges=edges, x=constant_features(70001), y=0)

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

    @pytest.mark.parametrize(
        "x",
        [
            np.ones((3, 1), dtype=np.complex128),
            np.full((3, 1), "1"),
            np.ones((3, 1), dtype=object),
        ],
    )
    def test_rejects_features_of_a_non_real_dtype_naming_it(self, x):
        message = f"feature matrix has dtype {x.dtype}, expected bool, integer or real float"
        for edges in tuple_and_array(((0, 1),)):
            with pytest.raises(ValueError, match=re.escape(message)):
                Graph(num_nodes=3, edges=edges, x=x, y=0)

    def test_converts_features_given_as_a_list(self):
        g = Graph(num_nodes=2, edges=((0, 1),), x=[[1.0, 0.0], [0.5, 2.0]], y=0)
        assert same_bits(g.x, np.array([[1.0, 0.0], [0.5, 2.0]]))

    @pytest.mark.parametrize(
        "x, message",
        [
            ([["a"], ["b"]], "feature matrix has dtype <U1"),
            ([[1.0], [1.0, 2.0]], "feature matrix is no array"),
            ([[None], [1.0]], "feature matrix has dtype object"),
        ],
    )
    def test_rejects_a_feature_list_that_is_no_real_array_by_name(self, x, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Graph(num_nodes=2, edges=((0, 1),), x=x, y=0)

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64, np.float32, np.float64])
    def test_keeps_features_of_a_real_dtype_as_they_are(self, dtype):
        x = np.ones((3, 2), dtype=dtype)
        assert Graph(num_nodes=3, edges=((0, 1),), x=x, y=0).x is x

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("num_nodes", True, "must be an integer"),
            ("num_nodes", 2.0, "must be an integer"),
            ("num_nodes", -1, "must be >= 0"),
            ("y", 0.5, "must be an integer"),
            ("y", True, "must be an integer"),
            ("y", "1", "must be an integer"),
            ("y", -1, "must be >= 0"),
        ],
    )
    def test_rejects_a_node_count_or_label_that_is_no_non_negative_integer_by_name(
        self, field, bad, message
    ):
        fields = {"num_nodes": 2, "edges": ((0, 1),), "x": constant_features(2), "y": 0}
        with pytest.raises(ValueError, match=f"^{field} {re.escape(repr(bad))} {message}$"):
            Graph(**{**fields, field: bad})

    def test_accepts_a_numpy_integer_node_count_and_label(self):
        g = Graph(num_nodes=np.int64(2), edges=((0, 1),), x=constant_features(2), y=np.uint8(1))
        assert (g.num_nodes, g.y) == (2, 1)

    @pytest.mark.parametrize(
        "bad, message",
        [(2.5, "must be an integer"), (True, "must be an integer"), (-1, "must be >= 0")],
    )
    def test_a_dataset_rejects_a_class_count_that_is_no_non_negative_integer(self, bad, message):
        g = Graph(num_nodes=2, edges=((0, 1),), x=constant_features(2), y=0)
        with pytest.raises(ValueError, match=f"^num_classes {re.escape(repr(bad))} {message}$"):
            GraphDataset(
                graphs=(g,), num_classes=bad, name="G", feature_spec=FeatureSpec("constant")
            )

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


def kept_arrays(obj) -> list[np.ndarray]:
    """The distinct arrays that own the memory of every array reachable from ``obj``
    through tuples, lists, dicts and object attributes."""
    owners, seen, stack = {}, set(), [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, type):
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            while isinstance(o.base, np.ndarray):
                o = o.base
            owners[id(o)] = o
        elif isinstance(o, (tuple, list)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.values())
        else:
            slots = [n for c in type(o).__mro__ for n in getattr(c, "__slots__", ())]
            stack.extend(getattr(o, n) for n in slots if hasattr(o, n))
            stack.extend(getattr(o, "__dict__", {}).values())
    return list(owners.values())


class TestAdjacency:
    def test_keeps_its_layout_and_then_16_bytes_per_edge_for_its_adjacency(self):
        # every array the graph keeps beyond its edges and features: once a
        # batch has used it, its layout's int32 column and edge of each
        # directed entry (8 + 8 bytes per edge); once its adjacency is built,
        # also the CSR's values (16 bytes per edge) and its int32 row pointers
        # (4 bytes per node, plus 4).  The CSR's columns are the layout's
        # first half.
        rng = np.random.default_rng(0)
        n = 200
        pairs = rng.integers(0, n, (900, 2))
        g = make_graph(n, np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0))

        def kept_bytes():
            own = (g.edges, g.x)
            arrays = [a for a in kept_arrays(g) if not any(np.shares_memory(a, b) for b in own)]
            return sum(a.nbytes for a in arrays)

        assert kept_bytes() == 0
        build_graph_batch([g, g])
        assert kept_bytes() == 16 * g.num_edges
        adj = g.adjacency
        assert kept_bytes() == 32 * g.num_edges + 4 * (n + 1)
        assert np.shares_memory(adj.indices, g.entry_layout)

    def test_is_built_on_first_use_and_kept(self, cycle6):
        assert "adjacency" not in vars(cycle6)
        adj = cycle6.adjacency
        assert cycle6.adjacency is adj and isinstance(adj, scipy.sparse.csr_matrix)

    def test_its_csr_arrays_are_read_only(self, cycle6):
        csr = cycle6.adjacency
        assert not any(a.flags.writeable for a in (csr.data, csr.indices, csr.indptr))
        with pytest.raises(ValueError, match="read-only"):
            csr.data[0] = 2.0

    @pytest.mark.parametrize(
        "n, edges",
        [(6, [(i, (i + 1) % 6) for i in range(6)]), (5, [(0, 4), (1, 3), (3, 4)]), (0, []), (3, [])],
    )
    def test_equals_a_fresh_unit_assembly_bit_for_bit(self, n, edges):
        g = make_graph(n, edges)
        want = assemble(n, g.edges, np.ones(g.num_edges)).csr
        got = g.adjacency
        assert got.shape == (n, n)
        for name in ("indptr", "indices", "data"):
            assert same_bits(getattr(got, name), getattr(want, name))

    def test_replace_builds_a_new_adjacency(self, path4):
        adj = path4.adjacency
        same = dataclasses.replace(path4)
        assert "adjacency" not in vars(same) and same.adjacency is not adj
        assert same_bits(same.adjacency.data, adj.data)
        fewer = dataclasses.replace(path4, edges=((0, 1),))
        assert fewer.adjacency.nnz == 2 and adj.nnz == 6

    def test_equality_ignores_it_and_builds_none(self, path4):
        path4.adjacency
        cold = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert path4 == cold and cold == path4
        assert path4 != make_graph(4, [(0, 1), (1, 2)])
        assert "adjacency" not in vars(cold)


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

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    @pytest.mark.parametrize("fraction", [0.5, 1.0])
    def test_the_seed_is_checked_by_name(self, cycle6, seed, fraction):
        # also when the fraction keeps every mask and no draw is made
        with pytest.raises(ValueError, match=rf"^seed {seed!r} must be"):
            sample_bag(policy_edge_deleted(cycle6), fraction, seed=seed)

    @pytest.mark.parametrize(
        "fraction, message",
        [
            ("0.3", "'0.3' must be a real number"),
            (None, "None must be a real number"),
            (True, "True must be a real number"),
            (float("nan"), "nan outside (0, 1]"),
            (-0.5, "-0.5 outside (0, 1]"),
        ],
    )
    def test_the_fraction_is_checked_by_name(self, cycle6, fraction, message):
        with pytest.raises(ValueError, match="^fraction " + re.escape(message)):
            sample_bag(policy_edge_deleted(cycle6), fraction, seed=0)

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
        edges = build_graph_batch([path4, triangle]).edges
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        want = scipy.sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(7, 7)).tocsr()
        got = assemble(7, edges, np.ones(len(edges))).csr
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
        adj = assemble(3, batch.edges, np.ones(len(batch.edges)))
        combined = apply_gin_layer(layer, Tensor(h), adj).data
        dense = np.zeros((3, 3))
        for i, j in triangle.edges:
            dense[i, j] = dense[j, i] = 1.0
        expected = (dense + (1.0 + eps) * np.eye(3)) @ h
        assert np.allclose(combined, expected, atol=1e-12)


class TestEdgeMask:
    def test_converts_masks_given_as_lists(self):
        mask = EdgeMask(soft=[0.25, 0.75], hard=[0.0, 1.0], budget=1)
        assert same_bits(mask.soft, np.array([0.25, 0.75]))
        assert same_bits(mask.hard, np.array([0.0, 1.0]))

    @pytest.mark.parametrize(
        "soft, hard, message",
        [
            (["x", "y"], [0.0, 1.0], "soft mask has dtype <U1"),
            ([0.5, 0.5], [0.0, [1.0]], "hard mask is no array"),
            ([0.5, None], [0.0, 1.0], "soft mask has dtype object"),
        ],
    )
    def test_rejects_a_mask_that_is_no_real_array_by_name(self, soft, hard, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            EdgeMask(soft=soft, hard=hard)

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

    @pytest.mark.parametrize("field", ["budget", "seed"])
    @pytest.mark.parametrize("bad", [True, False, 2.0, 1.5, np.float64(2.0), "2"])
    def test_a_budget_or_seed_that_is_no_integer_is_rejected_by_name(self, field, bad):
        # a budget of 2.0 or True would match the two kept bits, and bag_from_json
        # would then refuse the mask that bag_to_json wrote
        message = rf"^{field} {re.escape(repr(bad))} must be an integer or None$"
        with pytest.raises(ValueError, match=message):
            EdgeMask(soft=np.ones(2), hard=np.ones(2), **{field: bad})

    @pytest.mark.parametrize("bad", [(1.0,), (True,), (0, 1.5), (np.float64(1.0),), 5])
    def test_a_zeroed_node_that_is_no_integer_is_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"^zeroed_nodes {re.escape(repr(bad))} must be"):
            EdgeMask(soft=np.ones(2), hard=np.ones(2), zeroed_nodes=bad)

    def test_numpy_integer_fields_are_kept_as_given(self):
        fields = {"budget": np.int64(2), "seed": np.uint64(2**63), "zeroed_nodes": (np.int32(1),)}
        mask = EdgeMask(soft=np.ones(2), hard=np.ones(2), **fields)
        assert (mask.budget, mask.seed, mask.zeroed_nodes) == (2, 2**63, (1,))

    def test_feature_spec_validation(self):
        with pytest.raises(ValueError):
            FeatureSpec("bogus")
        with pytest.raises(ValueError):
            FeatureSpec("degree")
        for cap in (2.5, 0.5, True, False, np.float64(3.0), "3"):
            with pytest.raises(ValueError, match=re.escape(f"cap {cap!r} must be an integer")):
                FeatureSpec("degree", cap=cap)
        for cap in (0, -2):
            with pytest.raises(ValueError, match="degree features need cap >= 1"):
                FeatureSpec("degree", cap=cap)
        assert FeatureSpec("degree", cap=np.int64(3)).cap == 3


class TestEdgeMaskBlock:
    def test_rows_become_masks_holding_views_and_their_own_fields(self):
        soft = np.array([[0.2, 0.7, 0.9], [0.1, 0.4, 0.8]])
        hard = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        masks = EdgeMask.block(soft, hard, budgets=[2, None], seeds=[5, 6], zeroed_nodes=[(), (1,)])
        assert [(m.budget, m.seed, m.zeroed_nodes) for m in masks] == [(2, 5, ()), (None, 6, (1,))]
        for k, m in enumerate(masks):
            assert np.shares_memory(m.soft, soft[k]) and same_bits(m.soft, soft[k])
            assert np.shares_memory(m.hard, hard[k]) and same_bits(m.hard, hard[k])
        plain = EdgeMask.block(soft, hard)
        assert [(m.budget, m.seed, m.zeroed_nodes) for m in plain] == [(None, None, ())] * 2

    @pytest.mark.parametrize(
        "row, soft, hard, budget, message",
        [
            (1, [0.5, np.nan, np.inf], [1.0, 0.0, 1.0], None, "non-finite soft weight at edge 1"),
            (2, [0.5, 0.5, 0.5], [1.0, 0.5, 1.0], None, "hard mask must be binary"),
            (0, [0.5, 0.5, 0.5], [1.0, np.nan, 1.0], 2, "hard mask must be binary"),
            (1, [0.5, 0.5, 0.5], [1.0, -0.0, 1.0], 3, "hard mask sums to 2, budget is 3"),
            # a row breaking two rules reports the first
            (2, [np.inf, 0.5, 0.5], [2.0, 0.0, 1.0], 1, "non-finite soft weight at edge 0"),
        ],
    )
    def test_each_rule_names_the_first_bad_row_with_its_single_mask_message(
        self, row, soft, hard, budget, message
    ):
        soft_block, hard_block = np.full((4, 3), 0.5), np.ones((4, 3))
        soft_block[row], hard_block[row] = soft, hard
        hard_block[3, 0] = 2.0  # a later bad row is never reported
        budgets = [None] * 4
        budgets[row] = budget
        with pytest.raises(ValueError, match=rf"^mask {row}: {message}$"):
            EdgeMask.block(soft_block, hard_block, budgets=budgets)
        # the one-row check raises the same message without the index
        with pytest.raises(ValueError, match=rf"^{message}$"):
            EdgeMask(soft=np.array(soft), hard=np.array(hard), budget=budget)

    def test_a_budget_of_every_integer_size_is_compared_exactly(self):
        hard = np.ones((3, 2))
        with pytest.raises(ValueError, match=rf"^mask 2: hard mask sums to 2, budget is {2**70}$"):
            EdgeMask.block(hard.copy(), hard, budgets=[2, np.int64(2), 2**70])
        with pytest.raises(ValueError, match="^mask 0: hard mask sums to 2, budget is -1$"):
            EdgeMask.block(hard.copy(), hard, budgets=[-1, None, None])

    def test_rejects_blocks_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"shape \(3,\) and hard \(3,\), expected 2-D"):
            EdgeMask.block(np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match=r"soft block has shape \(2, 3\) and hard \(2, 4\)$"):
            EdgeMask.block(np.ones((2, 3)), np.ones((2, 4)))

    @pytest.mark.parametrize("field", ["budgets", "seeds", "zeroed_nodes"])
    def test_rejects_per_row_fields_of_another_length(self, field):
        with pytest.raises(ValueError, match=f"3 {field} for 2 masks"):
            EdgeMask.block(np.ones((2, 4)), np.ones((2, 4)), **{field: [None] * 3})

    @pytest.mark.parametrize(
        "field, values, message",
        [
            ("budgets", [2, True], "mask 1: budget True must be an integer or None"),
            ("budgets", [2.0, 2], "mask 0: budget 2.0 must be an integer or None"),
            ("seeds", [None, 1.5], "mask 1: seed 1.5 must be an integer or None"),
            ("zeroed_nodes", [(), (0.0,)], r"mask 1: zeroed_nodes \(0.0,\) must be integers"),
            # an entry that is no sequence of nodes
            ("zeroed_nodes", [(), 3], "mask 1: zeroed_nodes 3 must be integers"),
        ],
    )
    def test_a_field_that_is_no_integer_names_its_mask(self, field, values, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            EdgeMask.block(np.ones((2, 2)), np.ones((2, 2)), **{field: values})

    def test_an_empty_block_gives_no_masks(self):
        assert EdgeMask.block(np.zeros((0, 3)), np.zeros((0, 3)), budgets=[]) == ()


def assert_same_bags(got, want):
    assert (got.base, got.policy_tag, len(got)) == (want.base, want.policy_tag, len(want))
    for a, b in zip(got.masks, want.masks):
        assert same_bits(a.soft, b.soft) and same_bits(a.hard, b.hard)
        assert (a.budget, a.seed, a.zeroed_nodes) == (b.budget, b.seed, b.zeroed_nodes)


BAG_GRAPHS = [
    make_graph(2, [(0, 1)]),
    make_graph(4, [(0, 1), (0, 2), (0, 3)]),
    make_graph(6, [(i, (i + 1) % 6) for i in range(6)]),
    make_graph(7, [(0, 1), (1, 2), (4, 5)]),  # isolated nodes 3 and 6
    make_graph(9, [(i, j) for i in range(9) for j in range(i + 1, 9) if (i * j) % 3 != 1]),
]


@pytest.mark.parametrize("g", BAG_GRAPHS)
def test_block_built_policies_equal_the_per_mask_loops(g):
    assert_same_bags(policy_edge_deleted(g), policy_edge_deleted_loop(g))
    assert_same_bags(policy_node_deleted(g), policy_node_deleted_loop(g))


def test_node_deletion_of_an_edgeless_graph_zeroes_each_node_in_turn():
    g = make_graph(3, [])
    assert_same_bags(policy_node_deleted(g), policy_node_deleted_loop(g))
    assert [m.zeroed_nodes for m in policy_node_deleted(g).masks] == [(0,), (1,), (2,)]


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
    assert got.dtype == np.uint8 and np.array_equal(got, np.eye(cap + 1)[expected])


@pytest.mark.parametrize(
    "soft, hard, message",
    [
        ([[0, 0], [0, 0]], [[1, 0], [0.5, 1]], "mask 0: hard mask sums to 1, budget is 2"),
        ([[0, 0], [np.nan, 0]], [[1, 0], [1, 1]], "mask 0: hard mask sums to 1, budget is 2"),
        ([[0, np.inf], [0, 0]], [[1, 0], [1, 1]], "mask 0: non-finite soft weight at edge 1"),
        ([[0, 0], [0, 0]], [[1, 1], [1, 2]], "mask 1: hard mask must be binary"),
    ],
)
def test_block_names_the_first_faulty_row_whichever_rule_it_breaks(soft, hard, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EdgeMask.block(np.array(soft, dtype=float), np.array(hard, dtype=float), budgets=[2, None])


# integers of every kind that a mask field may hold, and values it may not
_INTEGERS = st.one_of(
    st.integers(min_value=-3, max_value=2**64),
    st.integers(min_value=2**63, max_value=2**70),
    st.sampled_from([np.int64(3), np.uint64(2**63)]),
)
_NON_INTEGERS = [True, False, 2.0, "2", np.float64(1.0)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_block_raises_the_first_fault_that_a_row_by_row_check_finds(data):
    m, num_edges = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    hard = (rng.random((m, num_edges)) < 0.5).astype(np.float64)
    soft = rng.random((m, num_edges))
    counts = hard.sum(axis=1).astype(int).tolist()
    budgets = [data.draw(st.sampled_from([None, c, np.int64(c)])) for c in counts]
    seeds = [data.draw(st.one_of(st.none(), _INTEGERS)) for _ in range(m)]
    zeroed = [tuple(data.draw(st.lists(_INTEGERS, max_size=2))) for _ in range(m)]

    def pick(values):
        return values[rng.integers(len(values))]

    # one or two faults, each in a row and of a kind that rng spreads evenly:
    # a budget, seed or zeroed node that is no integer, a budget the bits
    # miss, a non-finite soft weight, a hard bit that is no 0 or 1, or a
    # harmless -0.0 or 1.0 bit
    for _ in range(data.draw(st.integers(1, 2))):
        k = int(rng.integers(m))
        kind = pick(["budget", "seed", "zeroed", "count", "soft", "hard"])
        if kind == "budget":
            budgets[k] = pick(_NON_INTEGERS)
        elif kind == "seed":
            seeds[k] = pick(_NON_INTEGERS)
        elif kind == "zeroed":
            zeroed[k] += (pick([*_NON_INTEGERS, None]),)
        elif kind == "count":
            budgets[k] = counts[k] + pick([-1, 1, 2**63, -(2**64)])
        elif num_edges:
            e = int(rng.integers(num_edges))
            if kind == "soft":
                soft[k, e] = pick([np.nan, np.inf, -np.inf])
            else:
                hard[k, e] = pick([0.5, 2.0, np.nan, -1.0, -0.0, 1.0])
    fields = {
        "budgets": budgets if data.draw(st.booleans()) else None,
        "seeds": seeds if data.draw(st.booleans()) else None,
        "zeroed_nodes": zeroed if data.draw(st.booleans()) else None,
    }
    expected = block_fault_loop(soft, hard, **fields)
    # each mask's fields as ``EdgeMask`` takes them, the unset ones empty
    rows = [
        {
            attr: empty if fields[name] is None else fields[name][k]
            for name, attr, empty in (
                ("budgets", "budget", None),
                ("seeds", "seed", None),
                ("zeroed_nodes", "zeroed_nodes", ()),
            )
        }
        for k in range(m)
    ]
    if expected is not None:
        with pytest.raises(ValueError) as err:
            EdgeMask.block(soft, hard, **fields)
        assert str(err.value) == expected
        if m == 1:  # the one-mask constructor raises the same message without the index
            with pytest.raises(ValueError) as err:
                EdgeMask(soft=soft[0], hard=hard[0], **rows[0])
            assert str(err.value) == expected.removeprefix("mask 0: ")
        return
    masks = EdgeMask.block(soft, hard, **fields)
    if m == 1:  # the one-mask constructor builds the same mask
        masks += (EdgeMask(soft=soft[0], hard=hard[0], **rows[0]),)
    for k, mask in enumerate(masks):
        row = min(k, m - 1)
        assert same_bits(mask.soft, soft[row]) and same_bits(mask.hard, hard[row])
        assert mask.budget is rows[row]["budget"] and mask.seed is rows[row]["seed"]
        assert mask.zeroed_nodes == rows[row]["zeroed_nodes"]
        assert all(type(v) is int for v in mask.zeroed_nodes)

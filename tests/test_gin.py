import dataclasses
import re
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import esgnn.graphs
from esgnn import autodiff, explainer, gin
from esgnn.autodiff import (
    Tensor,
    add,
    cross_entropy_mean,
    custom_primitive,
    linear,
    mul,
    relu,
    segment_sum,
    spmm,
    sum_all,
)
from esgnn.ba2motifs import generate_ba2motifs
from esgnn.gin import (
    GinLayerParams,
    TrainConfig,
    apply_gin_layer,
    backbone_forward_batch,
    build_graph_batch,
    evaluate_accuracy,
    frozen_forward,
    init_backbone,
    predict,
    train_backbone,
)
from esgnn.graphs import EdgeMask, Graph, policy_node_deleted
from esgnn.optim import TrainingError
from tests.conftest import make_graph, same_bits
from tests.oracles import assemble, grad_check


def identity_layer(dim):
    eye = np.eye(dim)
    zero = np.zeros(dim)
    return GinLayerParams(
        w1=Tensor(eye.copy(), requires_grad=True),
        b1=Tensor(zero.copy(), requires_grad=True),
        w2=Tensor(eye.copy(), requires_grad=True),
        b2=Tensor(zero.copy(), requires_grad=True),
        eps=Tensor(np.asarray(0.0), requires_grad=True),
    )


def single_graph_logits(g, params, mask=None):
    batch = build_graph_batch([g], None if mask is None else [mask])
    return backbone_forward_batch(batch, params)[0].data


def wl_fingerprint(g, rounds=10):
    """Brute-force 1-WL color refinement; returns the stable color histogram."""
    neighbors = [[] for _ in range(g.num_nodes)]
    for i, j in g.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    colors = [0] * g.num_nodes
    fingerprint = tuple(sorted(Counter(colors).items()))
    for _ in range(rounds):
        signatures = [
            (colors[v], tuple(sorted(colors[u] for u in neighbors[v])))
            for v in range(g.num_nodes)
        ]
        palette = {sig: k for k, sig in enumerate(sorted(set(signatures)))}
        colors = [palette[sig] for sig in signatures]
        new_fp = tuple(sorted(Counter(colors).items()))
        if new_fp == fingerprint and len(set(colors)) == len(palette):
            break
        fingerprint = new_fp
    return fingerprint


def batch_adjacency(batch, weights):
    """The batch's adjacency with these per-edge weights, as its forward assembles it."""
    return assemble(len(batch.x), batch.edges, weights)


class TestGinLayer:
    def test_edgeless_identity_mlp_is_identity(self):
        g = make_graph(2, [], x=[[1.0], [2.0]])
        batch = build_graph_batch([g])
        h = apply_gin_layer(identity_layer(1), Tensor(batch.x), batch_adjacency(batch, np.zeros(0)))
        assert np.array_equal(h.data, [[1.0], [2.0]])

    def test_single_edge_neighbor_sum(self):
        g = make_graph(2, [(0, 1)], x=[[1.0], [0.0]])
        batch = build_graph_batch([g])
        adj = batch_adjacency(batch, batch.default_values)
        h = apply_gin_layer(identity_layer(1), Tensor(batch.x), adj)
        assert np.array_equal(h.data, [[1.0], [1.0]])

    def test_masked_edge_touches_exactly_its_endpoints_pre_mlp(self, triangle):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 2))
        edges = build_graph_batch([triangle]).edges
        full = spmm(assemble(3, edges, np.ones(len(edges))), x).data
        masked_bits = np.array([0.0, 1.0, 1.0])  # drop edge 0 = (0, 1)
        masked = spmm(assemble(3, edges, masked_bits), x).data
        diff_rows = np.where(np.any(full != masked, axis=1))[0]
        assert diff_rows.tolist() == [0, 1]

    def test_mask_of_all_ones_is_bit_identical_to_no_mask(self, cycle6):
        params = init_backbone(np.random.default_rng(1), 1, 2, hidden=8, num_layers=2)
        plain = single_graph_logits(cycle6, params)
        full_mask = EdgeMask(soft=np.ones(cycle6.num_edges), hard=np.ones(cycle6.num_edges))
        masked = single_graph_logits(cycle6, params, full_mask)
        assert np.array_equal(plain, masked)


def composed_gin_layer(layer, h, adj):
    """The GIN layer as seven taped ops: the oracle for the fused one."""
    z = add(mul(h, add(layer.eps, 1.0)), spmm(adj, h))
    return linear(relu(linear(z, layer.w1, layer.b1)), layer.w2, layer.b2)


class TestFusedGinLayer:
    @staticmethod
    def random_inputs(seed, num_graphs=6, hidden=5):
        rng = np.random.default_rng(seed)
        graphs = list(generate_ba2motifs(num_graphs, seed=seed).graphs)
        batch = build_graph_batch(graphs)
        values = Tensor(rng.random(len(batch.edges)), requires_grad=True)
        h = Tensor(rng.standard_normal((len(batch.x), 3)), requires_grad=True)
        layer = gin.init_gin_layer(rng, 3, hidden)
        layer.eps.data[...] = 0.37
        layer.b1.data[:] = rng.standard_normal(hidden) * 0.1
        layer.b2.data[:] = rng.standard_normal(hidden) * 0.1
        return batch, values, h, layer, rng.standard_normal((len(batch.x), hidden))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_output_and_all_seven_gradients_equal_the_composed_ops_bit_for_bit(self, seed):
        batch, values, h, layer, upstream = self.random_inputs(seed)
        results = []
        for apply in (apply_gin_layer, composed_gin_layer):
            adj = batch_adjacency(batch, values)
            out = apply(layer, h, adj)
            sum_all(mul(out, upstream)).backward()
            inputs = (adj.weights, values, h, layer.eps, layer.w1, layer.b1, layer.w2, layer.b2)
            results.append([out.data] + [t.grad.copy() for t in inputs])
        fused, composed = results
        assert np.any(fused[1] != 0.0) and np.any(fused[3] != 0.0)
        assert all(same_bits(a, b) for a, b in zip(fused, composed))

    def test_taped_inputs_get_gradients_and_frozen_ones_none(self):
        batch, values, h, layer, upstream = self.random_inputs(2)
        frozen_h = Tensor(h.data)
        adj = batch_adjacency(batch, batch.default_values)
        out = apply_gin_layer(layer, frozen_h, adj)
        assert out._prev[:2] == (adj.weights, frozen_h)
        grads = out._backward(upstream)
        assert grads[0] is None and grads[1] is None
        assert all(g is not None for g in grads[2:])

    def test_grad_check_over_all_seven_inputs(self):
        batch, values, h, layer, upstream = self.random_inputs(3, num_graphs=2, hidden=3)

        def loss():
            out = apply_gin_layer(layer, h, batch_adjacency(batch, values))
            return sum_all(mul(out, upstream))

        inputs = [values, h, layer.eps, layer.w1, layer.b1, layer.w2, layer.b2]
        assert grad_check(loss, inputs, h=1e-5) < 1e-6

    def test_the_untaped_layer_equals_the_taped_forward_and_records_no_node(self):
        batch, values, h, layer, _ = self.random_inputs(4)
        taped = apply_gin_layer(layer, h, batch_adjacency(batch, values))
        frozen = GinLayerParams(*(Tensor(t.data) for t in layer.named("l").values()))
        out = apply_gin_layer(frozen, Tensor(h.data), batch_adjacency(batch, values.data))
        assert taped.requires_grad
        assert same_bits(out.data, taped.data)
        assert not out.requires_grad and out._prev == () and out._backward is None

    def test_states_that_do_not_match_the_adjacency_are_rejected(self, triangle):
        adj = assemble(3, build_graph_batch([triangle]).edges, np.ones(3))
        layer = identity_layer(2)
        with pytest.raises(ValueError, match="3 nodes"):
            apply_gin_layer(layer, Tensor(np.ones((4, 2))), adj)
        with pytest.raises(ValueError, match="weight"):
            apply_gin_layer(layer, Tensor(np.ones((3, 1))), adj)

    @staticmethod
    def random_layer(n, in_dim=3):
        """A random simple graph on n nodes, states and a width-8 layer with nonzero biases."""
        rng = np.random.default_rng(n)
        pairs = rng.integers(0, max(n, 1), (3 * n, 2))
        edges = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
        values = Tensor(rng.random(len(edges)), requires_grad=True)
        h = Tensor(rng.standard_normal((n, in_dim)), requires_grad=True)
        layer = gin.init_gin_layer(rng, in_dim, 8)
        layer.eps.data[...] = 0.37
        layer.b1.data[:] = rng.standard_normal(8) * 0.1
        layer.b2.data[:] = rng.standard_normal(8) * 0.1
        return edges, values, h, layer, rng.standard_normal((n, 8))

    # blocks of 7 rows, and bias tiles of 4 rows in every blocked layer: 0
    # nodes, fewer than a block (5), 1 whole block and a lone leftover row
    # taken into it (8), 1 whole block and 2 rows (9), 2 (14), 2 and a lone
    # leftover row (15), 3 (21), and 3 and a leftover of 1, 2 and 6 rows;
    # width 8, for which OpenBLAS gives a row the same sums whatever the row
    # count.  Only the untaped kernel, ``_gin_layer(keep=False)`` as
    # ``untaped_states`` calls it, runs in blocks; the taped op makes one
    # call, taped or not.  An input width of 8 lets the kernel write its
    # output over A h.
    @pytest.mark.parametrize("n", [0, 5, 8, 9, 14, 15, 21, 22, 23, 27])
    def test_row_blocks_give_the_output_and_all_seven_gradients_of_one_block(
        self, monkeypatch, n
    ):
        add_bias, bias_dims = gin._add_bias, []

        def spy(a, bias):
            bias_dims.append(bias.ndim)
            add_bias(a, bias)

        monkeypatch.setattr(gin, "_add_bias", spy)
        row_blocks = (gin.ROW_BLOCK, 7)
        for in_dim in (3, 8):
            edges, values, h, layer, upstream = self.random_layer(n, in_dim)
            frozen = GinLayerParams(*(Tensor(t.data) for t in layer.named("l").values()))
            arrays = (layer.eps.data, layer.w1.data, layer.b1.data, layer.w2.data, layer.b2.data)
            results = []
            for row_block in row_blocks:
                monkeypatch.setattr(gin, "ROW_BLOCK", row_block)
                bias_dims.clear()
                for t in (values, h, *layer.named("l").values()):
                    t.grad = None
                out = apply_gin_layer(layer, h, assemble(n, edges, values))
                sum_all(mul(out, upstream)).backward()
                untaped = apply_gin_layer(frozen, Tensor(h.data), assemble(n, edges, values.data))
                assert untaped._prev == () and untaped._backward is None
                op_bias_dims = set(bias_dims)
                bias_dims.clear()
                csr = assemble(n, edges, values.data).csr
                kernel = gin._gin_layer(h.data, csr, *arrays, keep=False)[2]
                assert not np.shares_memory(kernel, h.data)
                inputs = (values, h, layer.eps, layer.w1, layer.b1, layer.w2, layer.b2)
                results.append([out.data, untaped.data, kernel] + [t.grad.copy() for t in inputs])
                # tiles exactly in the untaped kernel of more than ROW_BLOCK + 1 rows
                assert op_bias_dims == {1}
                assert set(bias_dims) == ({2} if n > row_block + 1 else {1})
            one_block, blocked = results
            assert one_block[0].shape == (n, 8)
            assert all(same_bits(a, one_block[0]) for a in (*one_block[1:3], *blocked[:3]))
            assert all(same_bits(a, b) for a, b in zip(one_block[3:], blocked[3:]))

    # with ROW_BLOCK 7, 22 rows are 3 blocks; a layer taped through its edge
    # weights alone is train_explainer's, through all seven train_backbone's;
    # the taped op makes one call over all rows even with nothing taped, and
    # only the untaped kernel runs in blocks
    @pytest.mark.parametrize(
        "taped, rows",
        [("all", [22]), ("weights", [22]), ("none", [22]), ("kernel", [7, 7, 8])],
    )
    def test_only_an_untaped_layer_above_one_block_runs_in_blocks(self, monkeypatch, taped, rows):
        mlp, calls = gin._mlp, []

        def spy(x, *args):
            calls.append(len(x))
            return mlp(x, *args)

        monkeypatch.setattr(gin, "_mlp", spy)
        monkeypatch.setattr(gin, "ROW_BLOCK", 7)
        edges, values, h, layer, _ = self.random_layer(22, 8)
        if taped == "kernel":
            arrays = (layer.eps.data, layer.w1.data, layer.b1.data, layer.w2.data, layer.b2.data)
            gin._gin_layer(h.data, assemble(22, edges, values.data).csr, *arrays, keep=False)
            assert calls == rows
            return
        if taped != "all":
            layer = GinLayerParams(*(Tensor(t.data) for t in layer.named("l").values()))
            h = Tensor(h.data)
        if taped == "none":
            values = Tensor(values.data)
        out = apply_gin_layer(layer, h, assemble(22, edges, values))
        assert out.requires_grad == (taped != "none")
        assert calls == rows

    def test_training_runs_equal_those_of_the_composed_layer(self, monkeypatch):
        graphs = list(generate_ba2motifs(40, seed=4).graphs)
        cfg = TrainConfig(epochs=2, seed=3, batch_size=16, hidden=8, num_layers=3)
        ecfg = explainer.ExplainerConfig(epochs=2, batch_size=16)

        def run():
            params, history = train_backbone(graphs[:30], 2, cfg, eval_sets={"val": graphs[30:]})
            ex, ex_history = explainer.train_explainer(graphs[:30], params, ecfg, seed=5)
            arrays = {k: t.data.copy() for p in (params, ex) for k, t in p.named().items()}
            return history, ex_history, arrays

        fused = run()
        monkeypatch.setattr(gin, "apply_gin_layer", composed_gin_layer)
        composed = run()
        assert fused[:2] == composed[:2]
        assert fused[2].keys() == composed[2].keys()
        assert all(same_bits(fused[2][k], composed[2][k]) for k in fused[2])


class TestBackboneForward:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)],
                       x=rng.standard_normal((5, 3)))
        params = init_backbone(rng, 3, 2)
        logits = single_graph_logits(g, params)
        perm = rng.permutation(5)
        inv = np.empty(5, dtype=int)
        inv[perm] = np.arange(5)
        pg = make_graph(
            5,
            [(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in g.edges],
            x=g.x[inv],
        )
        plogits = single_graph_logits(pg, params)
        assert np.max(np.abs(logits - plogits)) < 1e-9

    def test_zero_params_give_zero_logits(self, triangle):
        params = init_backbone(np.random.default_rng(0), 1, 3)
        for t in params.named().values():
            t.data[...] = 0.0
        out = single_graph_logits(triangle, params)
        assert np.array_equal(out, np.zeros((1, 3)))

    def test_c6_vs_two_triangles_indistinguishable(self, cycle6, two_triangles):
        assert wl_fingerprint(cycle6) == wl_fingerprint(two_triangles)
        for seed in range(3):
            params = init_backbone(np.random.default_rng(seed), 1, 2)
            a = single_graph_logits(cycle6, params)
            b = single_graph_logits(two_triangles, params)
            assert np.max(np.abs(a - b)) < 1e-9

    def test_wl_oracle_separates_where_it_should(self, path4, star_k13):
        assert wl_fingerprint(path4) != wl_fingerprint(star_k13)

    def test_sizes_are_read_off_the_arrays_of_the_params_their_copy_and_their_view(
        self, triangle
    ):
        params = init_backbone(np.random.default_rng(0), 3, 5, hidden=8, num_layers=2)
        for p in (params, params.copy(), params.frozen()):
            assert (p.in_dim, p.hidden, p.num_classes) == (3, 8, 5)
            with pytest.raises(ValueError, match="feature dim 1 vs layer-0 input 3"):
                single_graph_logits(triangle, p)
        assert sorted(f.name for f in dataclasses.fields(params)) == ["head_b", "head_w", "layers"]
        with pytest.raises(AttributeError):
            params.hidden = 4
        no_layers = init_backbone(np.random.default_rng(0), 3, 5, hidden=8, num_layers=0)
        assert (no_layers.in_dim, no_layers.hidden, no_layers.num_classes) == (8, 8, 5)

    def test_feature_dim_mismatch_raises(self, triangle):
        params = init_backbone(np.random.default_rng(0), 4, 2)
        with pytest.raises(ValueError, match="feature dim"):
            single_graph_logits(triangle, params)


def reference_batch(graphs, masks=None):
    """Graph-by-graph assembly: each graph's arrays shifted by the nodes before it.

    The weighted adjacency is the block diagonal of each graph's dense
    symmetric one.
    """
    xs, edges, values, blocks = [], [], [], []
    node_offsets, edge_offsets = [0], [0]
    offset = 0
    for gi, g in enumerate(graphs):
        x = np.array(g.x, dtype=np.float64)
        if masks is None:
            values.append(np.ones(g.num_edges))
        else:
            x[list(masks[gi].zeroed_nodes)] = 0.0
            values.append(masks[gi].hard)
        xs.append(x)
        block = np.zeros((g.num_nodes, g.num_nodes))
        for (i, j), w in zip(g.edges, values[-1]):
            edges.append((i + offset, j + offset))
            block[i, j] = block[j, i] = w
        blocks.append(block)
        offset += g.num_nodes
        node_offsets.append(offset)
        edge_offsets.append(len(edges))
    return {
        "x": np.concatenate(xs) if xs else np.zeros((0, 1)),
        "node_offsets": np.array(node_offsets),
        "adjacency": scipy.linalg.block_diag(*blocks) if blocks else np.zeros((0, 0)),
        "edges": np.array(edges).reshape(-1, 2),
        "edge_offsets": np.array(edge_offsets),
        "default_values": np.concatenate(values) if values else np.zeros(0),
        "labels": np.array([g.y for g in graphs]),
    }


class TestBuildGraphBatch:
    @staticmethod
    def assert_matches_reference(graphs, masks=None):
        batch = build_graph_batch(graphs, masks)
        ref = reference_batch(graphs, masks)
        if masks is None:
            # an unmasked batch holds no weights: every edge weighs 1
            assert batch.default_values is None
            del ref["default_values"]
        got = {name: getattr(batch, name, None) for name in ref}
        got["adjacency"] = batch_adjacency(batch, batch.default_values).csr.toarray()
        assert batch.edges.dtype == np.intp
        for name, want in ref.items():
            assert got[name].shape == want.shape, name
            assert np.array_equal(got[name], want), name

    @pytest.fixture
    def mixed(self):
        rng = np.random.default_rng(4)
        shapes = [
            (3, [(0, 1), (1, 2), (0, 2)]),
            (2, []),
            (4, [(0, 1), (1, 2), (2, 3)]),
            (1, []),
            (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        ]
        return [
            make_graph(n, e, y=k % 2, x=rng.normal(size=(n, 3)))
            for k, (n, e) in enumerate(shapes)
        ]

    def test_matches_per_graph_reference_with_an_edgeless_graph(self, mixed):
        self.assert_matches_reference(mixed)

    def test_matches_per_graph_reference_with_node_deleted_and_noise_masks(self, mixed):
        rng = np.random.default_rng(5)
        masks = []
        for k, g in enumerate(mixed):
            if k % 2 == 0:
                masks.append(policy_node_deleted(g).masks[-1])
            else:
                hard = (rng.random(g.num_edges) > 0.5).astype(np.float64)
                masks.append(EdgeMask(soft=rng.random(g.num_edges), hard=hard, seed=k))
        before = [g.x.copy() for g in mixed]
        self.assert_matches_reference(mixed, masks)
        for g, x in zip(mixed, before):
            assert np.array_equal(g.x, x)

    def test_empty_list(self):
        self.assert_matches_reference([])
        self.assert_matches_reference([], [])

    def test_pooling_adds_each_graphs_rows_in_the_order_segment_sum_pins(
        self, mixed, monkeypatch
    ):
        graphs = mixed[:2] + [make_graph(0, [], x=np.zeros((0, 3)))] + mixed[2:]
        sizes = [g.num_nodes for g in graphs]
        rng = np.random.default_rng(5)
        # rows of widely varying magnitude, so any change of summation order shows
        h = rng.standard_normal((sum(sizes), 4)) * 10.0 ** rng.uniform(-8, 8, (sum(sizes), 4))
        h[[0, 5, 9]] = -0.0
        # with no layers the node states are the features, and the head reads the pooled rows
        bounds = np.cumsum([0, *sizes])
        graphs = [dataclasses.replace(g, x=h[a:b]) for g, a, b in zip(graphs, bounds, bounds[1:])]
        heads = []
        monkeypatch.setattr(gin, "linear", lambda x, w, b: heads.append(x) or linear(x, w, b))
        params = init_backbone(np.random.default_rng(6), 4, 2, hidden=4, num_layers=0)
        backbone_forward_batch(build_graph_batch(graphs), params)
        node_graph = np.repeat(np.arange(len(graphs)), sizes)
        want = segment_sum(h, node_graph, len(graphs)).data
        assert len(heads) == 1 and same_bits(heads[0].data, want)

    def test_pooling_backward_sends_each_graphs_gradient_to_its_own_rows(self, mixed):
        graphs = mixed[:2] + [make_graph(0, [], x=np.zeros((0, 3)))] + mixed[2:]
        params = init_backbone(np.random.default_rng(6), 3, 2, hidden=4, num_layers=2)
        batch = build_graph_batch(graphs)
        logits, h = backbone_forward_batch(batch, params)
        cross_entropy_mean(logits, batch.labels).backward()
        pooled = {k: t.grad.copy() for k, t in params.named().items()}
        # the same states pooled by the segment_sum oracle, whose backward is grad[node_graph]
        node_graph = np.repeat(np.arange(len(graphs)), [g.num_nodes for g in graphs])
        oracle = linear(segment_sum(h, node_graph, len(graphs)), params.head_w, params.head_b)
        cross_entropy_mean(oracle, batch.labels).backward()
        assert all(same_bits(t.grad, pooled[k]) for k, t in params.named().items())

    def test_feature_width_mismatch_names_the_graph(self, triangle, single_edge):
        wide = make_graph(2, [(0, 1)], x=np.ones((2, 3)))
        with pytest.raises(ValueError, match="graph 2 has 3 feature columns"):
            build_graph_batch([triangle, single_edge, wide])

    def test_zeroed_node_outside_its_graph_is_rejected(self, triangle, single_edge):
        ones = np.ones(3)
        bad = EdgeMask(soft=ones[:1], hard=ones[:1], zeroed_nodes=(2,))
        with pytest.raises(ValueError, match=r"^mask 1 zeroes nodes \(2,\) outside 0\.\.1$"):
            build_graph_batch([triangle, single_edge], [EdgeMask(soft=ones, hard=ones), bad])

    ones = np.ones(3)

    @pytest.mark.parametrize(
        "mask, rule",
        [
            (EdgeMask(soft=ones[:2], hard=ones[:2]), "covers 2 edges of a graph with 3"),
            (EdgeMask(ones, ones, zeroed_nodes=(0, 3)), "zeroes nodes (0, 3) outside 0..2"),
            (EdgeMask(ones, ones, zeroed_nodes=(-1,)), "zeroes nodes (-1,) outside 0..2"),
        ],
    )
    def test_a_misfit_mask_is_rejected_in_the_words_of_a_bag(self, triangle, mask, rule):
        # graphs._misfit words the rule once, for a batch and for a bag
        fits = EdgeMask(soft=np.ones(3), hard=np.ones(3))
        with pytest.raises(ValueError, match=f"^mask 1 {re.escape(rule)}$"):
            build_graph_batch([triangle, triangle], [fits, mask])
        with pytest.raises(ValueError, match=f"^mask 1 {re.escape(rule)}$"):
            esgnn.graphs.SubgraphBag(triangle, (fits, mask), "ND")


def shuffled_graphs(seed, count=6):
    """BA-2Motifs graphs whose canonical edges are not in increasing key order,
    with a zero-node and an edgeless graph among them."""
    rng = np.random.default_rng(seed)
    graphs = []
    for g in generate_ba2motifs(count, seed=seed).graphs:
        edges = g.edges[rng.permutation(g.num_edges)]
        graphs.append(Graph(g.num_nodes, edges, g.x, g.y))
    zero = Graph(0, [], np.zeros((0, 1), dtype=np.uint8), 1)
    edgeless = Graph(3, [], np.ones((3, 1), dtype=np.uint8), 0)
    return graphs[:2] + [zero] + graphs[2:4] + [edgeless] + graphs[4:]


class TestBatchCsr:
    """The batch CSR, concatenated from each graph's sorted layout, equals a
    fresh ``assemble`` of the batch's edges bit for bit."""

    @staticmethod
    def assert_equals_assembly(batch, weights):
        n = len(batch.x)
        got = autodiff.from_layout(n, batch.edges, weights, batch.entry_layout).csr
        want = assemble(n, batch.edges, weights).csr
        for name in ("indptr", "indices", "data"):
            assert same_bits(getattr(got, name), getattr(want, name)), name
        assert same_bits(batch.entry_layout, autodiff.sort_entries(n, batch.edges))

    def test_a_unit_batch(self):
        graphs = shuffled_graphs(1)
        assert any((np.diff(g.edges[:, 0]) < 0).any() for g in graphs)
        batch = build_graph_batch(graphs)
        self.assert_equals_assembly(batch, batch.default_values)

    def test_a_batch_with_node_deleted_and_noise_masks(self):
        graphs = shuffled_graphs(2)
        rng = np.random.default_rng(3)
        masks = []
        for k, g in enumerate(graphs):
            if k % 2 and g.num_nodes:
                masks.append(policy_node_deleted(g).masks[k % g.num_nodes])
            else:
                hard = (rng.random(g.num_edges) > 0.5).astype(np.float64)
                masks.append(EdgeMask(soft=rng.random(g.num_edges), hard=hard, seed=k))
        batch = build_graph_batch(graphs, masks)
        assert np.any(batch.x == 0.0)
        self.assert_equals_assembly(batch, batch.default_values)

    def test_taped_mask_values_give_the_assembled_outputs_and_gradients(self, monkeypatch):
        graphs = shuffled_graphs(4)
        batch = build_graph_batch(graphs)
        params = init_backbone(np.random.default_rng(5), 1, 2, hidden=8, num_layers=3)
        values = np.random.default_rng(6).random(len(batch.edges))
        self.assert_equals_assembly(batch, values)

        def run():
            mask = Tensor(values.copy(), requires_grad=True)
            logits, h = backbone_forward_batch(batch, params, mask_values=mask)
            cross_entropy_mean(logits, batch.labels).backward()
            grads = [t.grad.copy() for t in params.named().values()]
            return [logits.data, h.data, mask.grad, *grads]

        got = run()
        monkeypatch.setattr(
            gin, "from_layout", lambda n, edges, weights, layout: assemble(n, edges, weights)
        )
        want = run()
        assert all(same_bits(a, b) for a, b in zip(got, want))

    @staticmethod
    def assert_rejected_before_allocating(graphs, message):
        tracemalloc.start()
        try:
            with pytest.raises(autodiff.DimensionError, match=re.escape(message)):
                build_graph_batch(graphs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**22
        assert not any("entry_layout" in vars(g) for g in graphs)

    def test_a_batch_of_2_to_the_31_nodes_is_rejected_naming_both_sizes(self):
        # a broadcast feature column: no memory of that size
        huge = Graph(2**31, [], np.broadcast_to(np.uint8(1), (2**31, 1)), 0)
        graphs = [make_graph(2, [(0, 1)]), huge]
        self.assert_rejected_before_allocating(graphs, f"{2**31 + 2} nodes and 2 directed entries")

    def test_a_batch_of_2_to_the_31_entries_is_rejected_naming_both_sizes(self):
        # one graph of 2**16 edges, 2**14 times over
        i, j = np.triu_indices(400, 1)
        g = Graph(400, np.stack([i, j], axis=1)[: 2**16], np.ones((400, 1)), 0)
        message = f"{400 * 2**14} nodes and {2**31} directed entries"
        self.assert_rejected_before_allocating([g] * 2**14, message)


class TestEndToEndGradient:
    def test_classification_loss_grad_check_on_five_node_fixture(self):
        rng = np.random.default_rng(3)
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
                       x=rng.standard_normal((5, 2)))
        params = init_backbone(rng, 2, 2, hidden=6, num_layers=4)
        batch = build_graph_batch([g])

        def loss():
            logits, _ = backbone_forward_batch(batch, params)
            return cross_entropy_mean(logits, [1])

        assert grad_check(loss, params.named(), h=1e-5) < 1e-4


def test_a_masked_forward_tapes_the_mask_as_each_layers_input_and_no_gather(triangle, cycle6):
    batch = build_graph_batch([triangle, cycle6])
    params = init_backbone(np.random.default_rng(0), 1, 2, hidden=8, num_layers=3).frozen()
    mask = Tensor(np.random.default_rng(1).random(len(batch.edges)), requires_grad=True)
    logits, _ = backbone_forward_batch(batch, params, mask_values=mask)
    tape = [node for node in logits._toposort() if node._backward is not None]
    assert not any("gather_rows" in node._backward.__qualname__ for node in tape)
    layers = [node for node in tape if node._backward.__qualname__.startswith("apply_gin_layer")]
    assert len(layers) == 3 and all(node._prev[0] is mask for node in layers)


def spy_on(monkeypatch, calls, owner, name):
    """Count calls of ``owner.name`` in ``calls[name]``, then call it."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestOneAdjacencyPerForward:
    @staticmethod
    def spy(monkeypatch):
        calls = Counter()
        # every namespace that holds one of these, so a call through any of them counts
        for module in (autodiff, gin, esgnn.graphs):
            for name in ("assemble", "sort_entries", "concat_entries", "from_layout"):
                if hasattr(module, name):
                    spy_on(monkeypatch, calls, module, name)
        for name in ("sort", "argsort", "lexsort"):
            spy_on(monkeypatch, calls, np, name)
        spy_on(monkeypatch, calls, scipy.sparse.csr_matrix, "transpose")
        return calls

    def test_a_four_layer_forward_and_backward_build_one_csr_and_no_transpose(
        self, monkeypatch
    ):
        calls = self.spy(monkeypatch)
        graphs = list(generate_ba2motifs(6, seed=1).graphs)
        params = init_backbone(np.random.default_rng(0), 1, 2, hidden=8, num_layers=4)
        logits, _ = backbone_forward_batch(build_graph_batch(graphs), params)
        cross_entropy_mean(logits, [g.y for g in graphs]).backward()
        # the graphs are new, so each sorts its entries once, on first use
        assert calls == {"concat_entries": 1, "from_layout": 1, "sort_entries": 6, "argsort": 6}

    def test_a_forward_over_sorted_graphs_sorts_nothing_and_assembles_nothing(
        self, monkeypatch
    ):
        graphs = list(generate_ba2motifs(6, seed=1).graphs)
        for g in graphs:
            g.entry_layout
        calls = self.spy(monkeypatch)
        params = init_backbone(np.random.default_rng(0), 1, 2, hidden=8, num_layers=4)
        masks = [policy_node_deleted(g).masks[3] for g in graphs[::-1]]
        for batch in (build_graph_batch(graphs), build_graph_batch(graphs[::-1], masks)):
            mask_values = Tensor(np.ones(len(batch.edges)), requires_grad=True)
            for values in (None, mask_values):
                logits, _ = backbone_forward_batch(batch, params, mask_values=values)
                cross_entropy_mean(logits, batch.labels).backward()
        assert calls == {"concat_entries": 2, "from_layout": 4}


def test_backward_makes_zeros_only_for_the_leaves_no_gradient_reaches(monkeypatch):
    graphs = list(generate_ba2motifs(32, seed=0).graphs)
    params = init_backbone(np.random.default_rng(0), 1, 2)  # 4 layers, 22 tensors
    batch = build_graph_batch(graphs)
    loss = cross_entropy_mean(backbone_forward_batch(batch, params)[0], batch.labels)
    # two leaves and an untaped input behind an op that passes no gradient on
    unreached = [Tensor(np.ones((3, 2)), requires_grad=True), Tensor(2.0, requires_grad=True)]
    untaped = Tensor(np.ones(4))
    cut = custom_primitive(0.0, [*unreached, untaped], lambda g: [None, None, None])
    loss = add(loss, cut)
    made = []
    zeros_like = np.zeros_like

    def spy(a, *args, **kwargs):
        made.append(zeros_like(a, *args, **kwargs))
        return made[-1]

    for t in [*params.named().values(), *unreached]:
        t.grad = np.full(t.data.shape, 7.0)
    monkeypatch.setattr(np, "zeros_like", spy)
    loss.backward()
    monkeypatch.undo()
    # the only zero arrays made are those of the leaves no gradient reaches
    assert len(made) == 2
    for t, zeros in zip(unreached, made):
        assert t.grad is zeros and same_bits(t.grad, np.zeros(t.data.shape))
    assert untaped.grad is None
    # the 22 parameters, all reached, hold new gradients of their shape
    for t in params.named().values():
        assert t.grad.shape == t.data.shape
        assert not np.array_equal(t.grad, np.full(t.data.shape, 7.0))


class TestPredict:
    def test_argmax_and_tie_rule(self, triangle):
        params = init_backbone(np.random.default_rng(0), 1, 2)
        for t in params.named().values():
            t.data[...] = 0.0
        pred = predict(triangle, params)  # logits [0, 0] -> tie -> class 0
        assert pred.label == 0
        assert np.allclose(pred.probs, [0.5, 0.5])

    def test_probs_sum_to_one_over_random_graphs(self):
        rng = np.random.default_rng(4)
        params = init_backbone(rng, 1, 3)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            edges = {
                (min(int(a), int(b)), max(int(a), int(b)))
                for a, b in rng.integers(0, n, size=(n, 2))
                if a != b
            }
            g = make_graph(n, list(edges))
            pred = predict(g, params)
            assert abs(pred.probs.sum() - 1.0) <= 1e-12


class TestFrozenForward:
    def test_batched_states_equal_single_graph_states_and_labels_equal_predict(
        self, monkeypatch
    ):
        graphs = list(generate_ba2motifs(12, seed=2).graphs) + [make_graph(3, [])]
        params = init_backbone(np.random.default_rng(3), 1, 2, hidden=8, num_layers=3)
        monkeypatch.setattr(gin, "FORWARD_CHUNK", 5)  # three chunks: 5, 5, 3 graphs
        logits, states = frozen_forward(graphs, params)
        assert logits.shape == (13, 2) and len(states) == 13
        for g, z in zip(graphs, states):
            (single,) = frozen_forward([g], params)[1]
            assert z.shape == (g.num_nodes, 8) and np.array_equal(z, single)
        assert logits.argmax(axis=1).tolist() == [predict(g, params).label for g in graphs]

    @pytest.mark.parametrize("num_graphs", [41, 45])
    def test_a_batch_of_several_row_blocks_gives_the_one_graph_states(self, num_graphs):
        # 25-node graphs: 1025 rows are two blocks and a leftover row, 1125 three blocks
        graphs = list(generate_ba2motifs(46, seed=5).graphs)[:num_graphs]
        assert sum(g.num_nodes for g in graphs) > 2 * gin.ROW_BLOCK
        params = init_backbone(np.random.default_rng(4), 1, 2, hidden=8, num_layers=3)
        _, states = frozen_forward(graphs, params)
        for g, z in zip(graphs, states):
            assert same_bits(z, frozen_forward([g], params)[1][0])

    def test_at_width_32_a_batch_of_two_whole_blocks_gives_the_one_graph_states(self):
        # the promised case: a hidden width that is a multiple of 8 and
        # graphs of at least 2 nodes; 46 graphs of 25 nodes are 1150 rows
        graphs = list(generate_ba2motifs(46, seed=6).graphs)
        assert sum(g.num_nodes for g in graphs) >= 2 * gin.ROW_BLOCK
        params = init_backbone(np.random.default_rng(5), 1, 2, hidden=32)
        rng = np.random.default_rng(6)
        for layer in params.layers:
            layer.b1.data[:] = rng.standard_normal(32) * 0.1
            layer.b2.data[:] = rng.standard_normal(32) * 0.1
        _, states = frozen_forward(graphs, params)
        for g, z in zip(graphs, states):
            assert same_bits(z, frozen_forward([g], params)[1][0])

    def test_chunks_with_a_zero_node_and_an_edgeless_graph_split_at_the_batch_offsets(
        self, monkeypatch
    ):
        graphs = list(generate_ba2motifs(4, seed=1).graphs)
        graphs[1:1] = [make_graph(0, [], x=np.zeros((0, 1))), make_graph(3, [])]
        params = init_backbone(np.random.default_rng(2), 1, 2, hidden=8, num_layers=2)
        monkeypatch.setattr(gin, "FORWARD_CHUNK", 4)  # two chunks: 4 graphs, then 2
        _, states = frozen_forward(graphs, params)
        assert [z.shape for z in states] == [(g.num_nodes, 8) for g in graphs]
        for start in (0, 4):
            batch = build_graph_batch(graphs[start : start + 4])
            _, h = backbone_forward_batch(batch, params.frozen())
            bounds = batch.node_offsets
            for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
                assert same_bits(states[start + k], h.data[a:b])
        for g, z in zip(graphs, states):
            assert same_bits(z, frozen_forward([g], params)[1][0])

    def test_empty_list(self):
        params = init_backbone(np.random.default_rng(0), 1, 3)
        logits, states = frozen_forward([], params)
        assert logits.shape == (0, 3) and states == []

    def test_a_nan_bias_gives_non_finite_logits(self, triangle):
        params = init_backbone(np.random.default_rng(0), 1, 2)
        params.layers[0].b1.data[0] = np.nan
        logits, _ = frozen_forward([triangle], params)
        assert not np.isfinite(logits).any()


class TestTraining:
    def test_zero_learning_rate_leaves_params_unchanged(self):
        ds = generate_ba2motifs(8, seed=0)
        cfg = TrainConfig(epochs=3, lr=0.0, seed=1, hidden=8, num_layers=2)
        params, _ = train_backbone(list(ds.graphs), 2, cfg)
        fresh = init_backbone(np.random.default_rng(cfg.seed), 1, 2, hidden=8, num_layers=2)
        for name, t in params.named().items():
            assert np.array_equal(t.data, fresh.named()[name].data)

    def test_learns_ba2motifs_in_fifty_epochs(self):
        ds = generate_ba2motifs(1000, seed=0)
        cfg = TrainConfig(epochs=50, lr=1e-3, seed=0, hidden=32, num_layers=4)
        params, history = train_backbone(list(ds.graphs), 2, cfg)
        assert history[-1]["train_acc"] >= 0.95
        assert evaluate_accuracy(list(ds.graphs), params) >= 0.95

    def test_train_acc_is_exact_when_the_params_do_not_move(self):
        graphs = list(generate_ba2motifs(40, seed=3).graphs)
        cfg = TrainConfig(epochs=2, lr=0.0, seed=2, batch_size=16, hidden=8, num_layers=2)
        params, history = train_backbone(graphs, 2, cfg)
        assert [e["train_acc"] for e in history] == [evaluate_accuracy(graphs, params)] * 2

    def test_scores_each_eval_set_once_per_epoch_and_nothing_else(self, monkeypatch):
        graphs = list(generate_ba2motifs(12, seed=0).graphs)
        eval_sets = {"val": graphs[8:10], "test": graphs[10:]}
        scored = []
        original = gin.evaluate_accuracy

        def spy(subset, params):
            scored.append(subset)
            return original(subset, params)

        monkeypatch.setattr(gin, "evaluate_accuracy", spy)
        cfg = TrainConfig(epochs=3, seed=0, hidden=8, num_layers=2)
        _, history = train_backbone(graphs[:8], 2, cfg, eval_sets=eval_sets)
        assert len(scored) == cfg.epochs * len(eval_sets)
        assert all(any(s is e for e in eval_sets.values()) for s in scored)
        assert [sorted(e) for e in history] == [["epoch", "loss", "test_acc", "train_acc", "val_acc"]] * 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"num_layers": 0},
            {"hidden": 0},
            {"epochs": -1},
            {"lr": -1.0},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"epochs": 2.5},
            {"batch_size": 4.0},
            {"hidden": 8.0},
            {"num_layers": True},
            {"epochs": "3"},
            {"lr": "0.1"},
            {"lr": None},
            {"lr": True},
        ],
    )
    def test_config_rejects_bad_values_naming_the_field(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("lr", ["0.1", None, True, [0.1]])
    def test_config_rejects_an_lr_that_is_no_real_number(self, lr):
        with pytest.raises(ValueError, match=re.escape(f"lr {lr!r} must be a real number")):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("lr", [np.float32(0.01), np.float64(0.01), 1, np.int64(0)])
    def test_config_takes_any_finite_real_lr(self, lr):
        assert TrainConfig(lr=lr).lr == lr

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.5, True])
    def test_config_rejects_a_seed_that_is_no_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"^seed {seed!r} must be"):
            TrainConfig(seed=seed)

    def test_numpy_integer_counts_train_like_python_ints(self):
        graphs = list(generate_ba2motifs(8, seed=0).graphs)
        counts = {"epochs": 2, "batch_size": 4, "hidden": 8, "num_layers": 2}
        p1, h1 = train_backbone(graphs, 2, TrainConfig(**counts))
        p2, h2 = train_backbone(graphs, 2, TrainConfig(**{k: np.int64(v) for k, v in counts.items()}))
        assert h1 == h2
        for name, t in p1.named().items():
            assert same_bits(t.data, p2.named()[name].data)

    def test_a_label_outside_the_classes_names_the_graph_and_label(self):
        graphs = [make_graph(3, [(0, 1)], y=1), make_graph(2, [(0, 1)], y=2)]
        with pytest.raises(ValueError, match="graph 1 has label 2 outside 0..1"):
            train_backbone(graphs, 2, TrainConfig(epochs=1))

    @pytest.mark.parametrize(
        "num_classes, message",
        [
            (2.5, "must be an integer"),
            (np.float64(2.0), "must be an integer"),
            (True, "must be an integer"),
            (0, "must be >= 1"),
        ],
    )
    def test_a_class_count_that_is_no_positive_integer_is_rejected_by_name(
        self, num_classes, message
    ):
        graphs = [make_graph(3, [(0, 1)], y=1), make_graph(2, [(0, 1)], y=0)]
        message = f"^num_classes {re.escape(repr(num_classes))} {message}$"
        with pytest.raises(ValueError, match=message):
            train_backbone(graphs, num_classes, TrainConfig(epochs=1))

    def test_a_non_finite_loss_names_the_epoch_and_the_batch(self, monkeypatch):
        graphs = list(generate_ba2motifs(12, seed=0).graphs)
        forward, calls = gin.backbone_forward_batch, []

        def nan_on_second_batch(batch, params, mask_values=None):
            logits, h = forward(batch, params, mask_values)
            calls.append(len(batch.labels))
            if len(calls) == 2:
                logits.data[:] = np.nan
            return logits, h

        monkeypatch.setattr(gin, "backbone_forward_batch", nan_on_second_batch)
        cfg = TrainConfig(epochs=2, batch_size=4, hidden=8, num_layers=2)
        with pytest.raises(TrainingError, match="non-finite loss at epoch 0, batch 1$"):
            train_backbone(graphs, 2, cfg)
        assert calls == [4, 4]

    def test_deterministic_under_seed(self):
        ds = generate_ba2motifs(10, seed=0)
        cfg = TrainConfig(epochs=2, seed=7, hidden=8, num_layers=2)
        p1, h1 = train_backbone(list(ds.graphs), 2, cfg)
        p2, h2 = train_backbone(list(ds.graphs), 2, cfg)
        assert h1 == h2
        for name, t in p1.named().items():
            assert np.array_equal(t.data, p2.named()[name].data)

    def test_history_records_eval_sets(self):
        ds = generate_ba2motifs(8, seed=0)
        graphs = list(ds.graphs)
        cfg = TrainConfig(epochs=1, seed=0, hidden=8, num_layers=2)
        _, history = train_backbone(graphs[:6], 2, cfg, eval_sets={"val": graphs[6:]})
        assert "val_acc" in history[0]
        assert "train_acc" in history[0]


def test_evaluate_accuracy_frees_each_chunks_states_before_the_next_chunk(monkeypatch):
    graphs = list(generate_ba2motifs(14, seed=1).graphs)[:13]
    params = init_backbone(np.random.default_rng(2), 1, 2, hidden=8, num_layers=2)
    monkeypatch.setattr(gin, "FORWARD_CHUNK", 5)
    expected = evaluate_accuracy(graphs, params)
    sizes, live = [], []
    forward = gin.frozen_forward

    def spy(chunk, p):
        assert all(ref() is None for ref in live)
        sizes.append(len(chunk))
        logits, states = forward(chunk, p)
        live.extend(weakref.ref(z) for z in states)
        return logits, states

    monkeypatch.setattr(gin, "frozen_forward", spy)
    assert evaluate_accuracy(graphs, params) == expected
    assert sizes == [5, 5, 3]
    logits, _ = forward(graphs, params)
    labels = np.array([g.y for g in graphs])
    assert expected == (logits.argmax(axis=1) == labels).mean()


def test_evaluate_accuracy_on_known_params(triangle, single_edge):
    params = init_backbone(np.random.default_rng(0), 1, 2)
    acc = evaluate_accuracy([triangle, single_edge], params)
    assert 0.0 <= acc <= 1.0


def random_graph(rng, n, width, uint8, y=0):
    """A random simple graph on n nodes, its edge rows out of key order."""
    pairs = rng.integers(0, max(n, 1), (2 * n, 2))
    edges = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
    if uint8:
        x = rng.integers(0, 2, (n, width)).astype(np.uint8)
    else:
        x = rng.standard_normal((n, width))
    return Graph(n, edges[rng.permutation(len(edges))], x, y)


def assert_equal_to(a, b, exact, condition):
    """Bit equality when ``exact``, else equality to 1e-12; ``condition`` names the rule."""
    if exact:
        assert same_bits(a, b), f"not bit for bit although {condition}"
    else:
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=f"not {condition}")


def pooled_logits(states, params):
    """The pooling oracle: the head over each graph's node rows summed by numpy."""
    hidden = params.head_w.data.shape[0]
    pooled = np.array([z.sum(axis=0) for z in states]).reshape(len(states), hidden)
    return pooled @ params.head_w.data + params.head_b.data


def untaped_batch_states(batch, params):
    """``untaped_states`` over a batch's own CSR, its mask weights included."""
    csr = autodiff._layout_csr(len(batch.x), batch.edges, batch.default_values, batch.entry_layout)
    return gin.untaped_states(batch.x, csr, params)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_untaped_array_forward_equals_the_taped_ops(data):
    """``frozen_forward``, ``untaped_states`` and ``edge_scores`` against the taped ops.

    The taped side is ``backbone_forward_batch`` and ``edge_logits`` with
    every parameter requiring a gradient: one ``_mlp`` call per layer over
    the whole batch.  The taped ops have one mode, so a frozen backbone and
    scorer, a taped ``mask_values`` or both give the same bits, and with
    nothing taped they record no tape node.  Both sides' logits equal an
    independent pooling oracle to 1e-12.  The untaped side runs the same
    kernels on arrays, in row blocks of a patched ``ROW_BLOCK``, and
    ``edge_scores`` runs each graph alone.  Bit equality is promised (``gin._gin_layer``,
    ``frozen_forward``, ``edge_scores``) for a hidden width that is a
    multiple of 8 and, for a graph run alone, at least 2 nodes; elsewhere
    BLAS may sum a row differently by row count, so 1e-12 is required.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # widths that are multiples of 8, where bits are promised, and any others
    hidden = data.draw(st.one_of(st.sampled_from([8, 16, 32, 40]), st.integers(1, 40)))
    num_layers = data.draw(st.integers(0, 4))
    # with no layers the features go straight to the head
    width = data.draw(st.integers(1, 3)) if num_layers else hidden
    uint8 = data.draw(st.booleans())
    sizes = data.draw(st.lists(st.integers(2, 14), max_size=5))
    # a 0-node, a 1-node and an edgeless graph in every list, at drawn places
    sizes += [0, 1, -data.draw(st.integers(2, 5))]
    graphs = []
    for k in data.draw(st.permutations(range(len(sizes)))):
        n = abs(sizes[k])
        g = random_graph(rng, n, width, uint8, y=k % 2)
        graphs.append(dataclasses.replace(g, edges=[]) if sizes[k] < 0 else g)
    params = init_backbone(rng, width, 2, hidden=hidden, num_layers=num_layers)
    for layer in params.layers:
        layer.eps.data[...] = rng.standard_normal()
        layer.b1.data[:] = rng.standard_normal(hidden) * 0.1
        layer.b2.data[:] = rng.standard_normal(hidden) * 0.1
    scorer = explainer.init_explainer(rng, hidden=hidden)
    scorer.b1.data[:] = rng.standard_normal(scorer.b1.data.shape) * 0.1
    masks = None
    if data.draw(st.booleans()):
        masks = []
        for g in graphs:
            hard = (rng.random(g.num_edges) < 0.7).astype(np.float64)
            zeroed = tuple(np.flatnonzero(rng.random(g.num_nodes) < 0.2).tolist())
            masks.append(EdgeMask(hard.copy(), hard, zeroed_nodes=zeroed))
    row_block = data.draw(st.integers(3, 9))
    exact = hidden % 8 == 0
    width8 = "the hidden width is a multiple of 8"
    alone = f"{width8} and the graph, run alone, has at least 2 nodes"

    batch = build_graph_batch(graphs, masks)
    nodes, edges = batch.node_offsets, batch.edge_offsets
    logits, h = backbone_forward_batch(batch, params)
    omega = explainer.edge_logits(h, batch.edges, scorer)
    assert logits.requires_grad and omega.requires_grad
    bounds = nodes.tolist()
    graph_rows = [h.data[a:b] for a, b in zip(bounds, bounds[1:])]
    np.testing.assert_allclose(logits.data, pooled_logits(graph_rows, params), 1e-12, 1e-12)
    # the same ops with a frozen backbone and scorer, a taped mask, or both
    frozen, taped_mask = data.draw(st.booleans()), data.draw(st.booleans())
    model, edge_model = params, scorer
    if frozen:
        model = params.frozen()
        edge_model = explainer.ExplainerParams(*(Tensor(t.data) for t in scorer.named().values()))
    values = None
    if taped_mask:
        weights = np.ones(len(batch.edges)) if masks is None else batch.default_values
        values = Tensor(weights, requires_grad=True)
    other_logits, other_h = backbone_forward_batch(batch, model, values)
    other_omega = explainer.edge_logits(other_h, batch.edges, edge_model)
    # with no layers the mask reaches nothing
    assert other_logits.requires_grad == (not frozen or (taped_mask and num_layers > 0))
    for got, want in ((other_logits, logits), (other_h, h), (other_omega, omega)):
        assert same_bits(got.data, want.data)
        if frozen and not taped_mask:
            assert not got.requires_grad and got._prev == () and got._backward is None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gin, "ROW_BLOCK", row_block)
        if masks is not None:
            assert_equal_to(untaped_batch_states(batch, params), h.data, exact, width8)
            # each graph alone with its mask: its edges' weights need no shift
            for k, (g, mask) in enumerate(zip(graphs, masks)):
                got = untaped_batch_states(build_graph_batch([g], [mask]), params)
                rows = h.data[nodes[k] : nodes[k + 1]]
                assert_equal_to(got, rows, exact and g.num_nodes >= 2, alone)
            return
        untaped_logits, states = frozen_forward(graphs, params)
        scores = [explainer.edge_scores(g, params, scorer) for g in graphs]
    assert [z.shape for z in states] == [(g.num_nodes, hidden) for g in graphs]
    assert_equal_to(np.concatenate(states), h.data, exact, width8)
    assert_equal_to(untaped_logits, logits.data, exact, width8)
    np.testing.assert_allclose(untaped_logits, pooled_logits(states, params), 1e-12, 1e-12)
    for k, g in enumerate(graphs):
        # edge_scores runs the graph alone: its states are the batch's under
        # the promise, and the edge MLP then runs on the same arrays
        z = Tensor(h.data[nodes[k] : nodes[k + 1]], requires_grad=True)
        want = explainer.edge_logits(z, g.edges, scorer).data
        assert_equal_to(scores[k], want, exact and g.num_nodes >= 2, alone)
        # no promise: the batch's MLP multiplies more rows by the one-column
        # weight, and BLAS may sum a row differently by the row count
        batch_rows = "equal to the batch's edge logits"
        assert_equal_to(scores[k], omega.data[edges[k] : edges[k + 1]], False, batch_rows)


def test_frozen_forward_and_edge_scores_make_no_tensor_and_touch_no_grad(monkeypatch):
    # 25-node graphs: 41 of them are 1025 rows, two row blocks and a leftover row
    graphs = list(generate_ba2motifs(42, seed=5).graphs)[:41]
    params = init_backbone(np.random.default_rng(4), 1, 2, hidden=8, num_layers=3)
    scorer = explainer.init_explainer(np.random.default_rng(5), hidden=8)
    tensors = [t for p in (params, scorer) for t in p.named().values()]
    for t in tensors:
        t.grad = np.full(t.data.shape, 7.0)

    def refuse(self, *args, **kwargs):
        raise AssertionError("an untaped forward made a Tensor")

    monkeypatch.setattr(autodiff.Tensor, "__init__", refuse)
    logits, states = frozen_forward(graphs, params)
    hits = logits.argmax(axis=1) == [g.y for g in graphs]
    assert evaluate_accuracy(graphs, params) == hits.mean()
    for g in graphs[:3]:
        assert explainer.edge_scores(g, params, scorer).shape == (g.num_edges,)
    monkeypatch.undo()
    assert len(states) == 41
    for t in tensors:
        assert t.requires_grad and np.array_equal(t.grad, np.full(t.data.shape, 7.0))


class TestUntapedInputChecks:
    """The checks of the taped ops hold on the untaped array path too."""

    def test_a_feature_width_that_is_not_layer_0s_is_rejected(self, triangle):
        params = init_backbone(np.random.default_rng(0), 3, 2, hidden=8, num_layers=2)
        scorer = explainer.init_explainer(np.random.default_rng(1), hidden=8)
        with pytest.raises(ValueError, match="^feature dim 1 vs layer-0 input 3$"):
            frozen_forward([triangle], params)
        with pytest.raises(ValueError, match="^feature dim 1 vs layer-0 input 3$"):
            explainer.edge_scores(triangle, params, scorer)

    def test_an_explainer_not_twice_the_hidden_width_wide_is_rejected(self, triangle):
        params = init_backbone(np.random.default_rng(0), 1, 2, hidden=8, num_layers=2)
        scorer = explainer.init_explainer(np.random.default_rng(1), hidden=4)
        message = re.escape("edge MLP: states (3, 8) vs weight (8, 32)")
        for run in (
            lambda: explainer.edge_scores(triangle, params, scorer),
            lambda: explainer.generate_bag_topk(triangle, params, scorer),
            lambda: explainer.generate_bag_noise(triangle, params, scorer, 3, 1.0, 0),
        ):
            with pytest.raises(autodiff.DimensionError, match=f"^{message}$"):
                run()

    def test_a_layer_whose_weight_does_not_fit_the_states_is_rejected(self, triangle):
        params = init_backbone(np.random.default_rng(0), 1, 2, hidden=8, num_layers=2)
        params.layers[1].w1 = Tensor(np.zeros((4, 8)))
        message = re.escape("GIN layer: states (3, 8) vs weight (4, 8)")
        with pytest.raises(autodiff.DimensionError, match=f"^{message}$"):
            frozen_forward([triangle], params)

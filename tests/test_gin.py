import dataclasses
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from esgnn import explainer, gin
from esgnn.autodiff import (
    SparseMatrix,
    Tensor,
    add,
    cross_entropy_mean,
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
from esgnn.graphs import EdgeMask, policy_node_deleted
from esgnn.optim import TrainingError
from tests.conftest import make_graph, same_bits
from tests.oracles import grad_check


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


class TestGinLayer:
    def test_edgeless_identity_mlp_is_identity(self):
        g = make_graph(2, [], x=[[1.0], [2.0]])
        batch = build_graph_batch([g])
        h = apply_gin_layer(identity_layer(1), Tensor(batch.x), batch.adj.assemble(np.zeros(0)))
        assert np.array_equal(h.data, [[1.0], [2.0]])

    def test_single_edge_neighbor_sum(self):
        g = make_graph(2, [(0, 1)], x=[[1.0], [0.0]])
        batch = build_graph_batch([g])
        adj = batch.adj.assemble(batch.default_values)
        h = apply_gin_layer(identity_layer(1), Tensor(batch.x), adj)
        assert np.array_equal(h.data, [[1.0], [1.0]])

    def test_masked_edge_touches_exactly_its_endpoints_pre_mlp(self, triangle):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 2))
        adj = build_graph_batch([triangle]).adj
        full = spmm(adj.assemble(np.ones(adj.num_edges)), x).data
        masked_bits = np.array([0.0, 1.0, 1.0])  # drop edge 0 = (0, 1)
        masked = spmm(adj.assemble(masked_bits), x).data
        diff_rows = np.where(np.any(full != masked, axis=1))[0]
        assert diff_rows.tolist() == [0, 1]

    def test_mask_of_all_ones_is_bit_identical_to_no_mask(self, cycle6):
        params = init_backbone(np.random.default_rng(1), 1, 2, hidden=8, num_layers=2)
        plain = single_graph_logits(cycle6, params)
        full_mask = EdgeMask.full(cycle6.num_edges)
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
        values = Tensor(rng.random(batch.adj.num_edges), requires_grad=True)
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
            adj = batch.adj.assemble(values)
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
        adj = batch.adj.assemble(batch.default_values)
        out = apply_gin_layer(layer, frozen_h, adj)
        assert out._prev[:2] == (adj.weights, frozen_h)
        grads = out._backward(upstream)
        assert grads[0] is None and grads[1] is None
        assert all(g is not None for g in grads[2:])

    def test_grad_check_over_all_seven_inputs(self):
        batch, values, h, layer, upstream = self.random_inputs(3, num_graphs=2, hidden=3)

        def loss():
            out = apply_gin_layer(layer, h, batch.adj.assemble(values))
            return sum_all(mul(out, upstream))

        inputs = [values, h, layer.eps, layer.w1, layer.b1, layer.w2, layer.b2]
        assert grad_check(loss, inputs, h=1e-5) < 1e-6

    def test_the_untaped_layer_equals_the_taped_forward_and_records_no_node(self):
        batch, values, h, layer, _ = self.random_inputs(4)
        taped = apply_gin_layer(layer, h, batch.adj.assemble(values))
        frozen = GinLayerParams(*(Tensor(t.data) for t in layer.named("l").values()))
        out = apply_gin_layer(frozen, Tensor(h.data), batch.adj.assemble(values.data))
        assert taped.requires_grad
        assert same_bits(out.data, taped.data)
        assert not out.requires_grad and out._prev == () and out._backward is None

    def test_states_that_do_not_match_the_adjacency_are_rejected(self, triangle):
        adj = build_graph_batch([triangle]).adj.assemble(np.ones(3))
        layer = identity_layer(2)
        with pytest.raises(ValueError, match="3 nodes"):
            apply_gin_layer(layer, Tensor(np.ones((4, 2))), adj)
        with pytest.raises(ValueError, match="weight"):
            apply_gin_layer(layer, Tensor(np.ones((3, 1))), adj)

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
    xs, node_graph, edges, values, blocks = [], [], [], [], []
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
        node_graph.append(np.full(g.num_nodes, gi))
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
        "pool": np.equal.outer(np.arange(len(graphs)), np.concatenate(node_graph or [[]])),
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
        got = {name: getattr(batch, name, None) for name in ref}
        got["edges"] = batch.adj.edges
        got["pool"] = batch.pool.toarray()
        got["adjacency"] = batch.adj.assemble(batch.default_values).csr.toarray()
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

    def test_pooling_adds_each_graphs_rows_in_the_order_segment_sum_pins(self, mixed):
        graphs = mixed[:2] + [make_graph(0, [], x=np.zeros((0, 3)))] + mixed[2:]
        batch = build_graph_batch(graphs)
        rng = np.random.default_rng(5)
        # rows of widely varying magnitude, so any change of summation order shows
        h = rng.standard_normal((len(batch.x), 4)) * 10.0 ** rng.uniform(-8, 8, (len(batch.x), 4))
        h[[0, 5, 9]] = -0.0
        node_graph = np.repeat(np.arange(len(graphs)), [g.num_nodes for g in graphs])
        want = segment_sum(h, node_graph, len(graphs)).data
        assert same_bits(batch.pool @ h, want)

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
        mask = EdgeMask.full(single_edge.num_edges)
        bad = EdgeMask(soft=mask.soft, hard=mask.hard, zeroed_nodes=(2,))
        with pytest.raises(ValueError, match="graph 1"):
            build_graph_batch([triangle, single_edge], [EdgeMask.full(3), bad])


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
    mask = Tensor(np.random.default_rng(1).random(batch.adj.num_edges), requires_grad=True)
    logits, _ = backbone_forward_batch(batch, params, mask_values=mask)
    tape = [node for node in logits._toposort() if node._backward is not None]
    assert not any("gather_rows" in node._backward.__qualname__ for node in tape)
    layers = [node for node in tape if node._backward.__qualname__.startswith("apply_gin_layer")]
    assert len(layers) == 3 and all(node._prev[0] is mask for node in layers)


class TestOneAdjacencyPerForward:
    def test_a_four_layer_forward_and_backward_assemble_one_csr_and_no_transpose(
        self, monkeypatch
    ):
        calls = Counter()

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(SparseMatrix, "assemble", spy("assemble", SparseMatrix.assemble))
        monkeypatch.setattr(
            scipy.sparse.csr_matrix, "transpose", spy("transpose", scipy.sparse.csr_matrix.transpose)
        )
        graphs = list(generate_ba2motifs(6, seed=1).graphs)
        params = init_backbone(np.random.default_rng(0), 1, 2, hidden=8, num_layers=4)
        logits, _ = backbone_forward_batch(build_graph_batch(graphs), params)
        cross_entropy_mean(logits, [g.y for g in graphs]).backward()
        assert (calls["assemble"], calls["transpose"]) == (1, 0)


def test_backward_zero_fills_only_the_parameters(monkeypatch):
    graphs = list(generate_ba2motifs(32, seed=0).graphs)
    params = init_backbone(np.random.default_rng(0), 1, 2)  # 4 layers, 22 tensors
    batch = build_graph_batch(graphs)
    loss = cross_entropy_mean(backbone_forward_batch(batch, params)[0], batch.labels)
    filled = []
    zeros_like = np.zeros_like

    def spy(a, *args, **kwargs):
        filled.append(a.shape)
        return zeros_like(a, *args, **kwargs)

    monkeypatch.setattr(np, "zeros_like", spy)
    loss.backward()
    monkeypatch.undo()
    assert sorted(filled) == sorted(t.shape for t in params.named().values())
    assert len(filled) == 22


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
        ],
    )
    def test_config_rejects_bad_values_naming_the_field(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            TrainConfig(**kwargs)

    def test_a_label_outside_the_classes_names_the_graph_and_label(self):
        graphs = [make_graph(3, [(0, 1)], y=1), make_graph(2, [(0, 1)], y=2)]
        with pytest.raises(ValueError, match="graph 1 has label 2 outside 0..1"):
            train_backbone(graphs, 2, TrainConfig(epochs=1))

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

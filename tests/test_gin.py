from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from esgnn import gin
from esgnn.autodiff import SparseMatrix, Tensor, cross_entropy_mean, grad_check, spmm
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
from tests.conftest import make_graph


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

    def test_feature_dim_mismatch_raises(self, triangle):
        params = init_backbone(np.random.default_rng(0), 4, 2)
        with pytest.raises(ValueError, match="feature dim"):
            single_graph_logits(triangle, params)


def reference_batch(graphs, masks=None):
    """Graph-by-graph assembly: each graph's arrays shifted by the nodes before it.

    The weighted adjacency is the block diagonal of each graph's dense
    symmetric one.
    """
    xs, node_graph, edges, edge_graph, values, blocks = [], [], [], [], [], []
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
        edge_graph.append(np.full(g.num_edges, gi))
        offset += g.num_nodes
    return {
        "x": np.concatenate(xs) if xs else np.zeros((0, 1)),
        "node_graph": np.concatenate(node_graph) if node_graph else np.zeros(0),
        "adjacency": scipy.linalg.block_diag(*blocks) if blocks else np.zeros((0, 0)),
        "edges": np.array(edges).reshape(-1, 2),
        "edge_graph": np.concatenate(edge_graph) if edge_graph else np.zeros(0),
        "default_values": np.concatenate(values) if values else np.zeros(0),
        "labels": np.array([g.y for g in graphs]),
    }


class TestBuildGraphBatch:
    @staticmethod
    def assert_matches_reference(graphs, masks=None):
        batch = build_graph_batch(graphs, masks)
        ref = reference_batch(graphs, masks)
        got = {name: getattr(batch, name, None) for name in ref}
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


def test_evaluate_accuracy_on_known_params(triangle, single_edge):
    params = init_backbone(np.random.default_rng(0), 1, 2)
    acc = evaluate_accuracy([triangle, single_edge], params)
    assert 0.0 <= acc <= 1.0

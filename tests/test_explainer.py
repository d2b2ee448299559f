import base64
import json
import math

import numpy as np
import pytest

from esgnn import explainer, gin
from esgnn.autodiff import (
    DimensionError,
    Tensor,
    concat_cols,
    gather_rows,
    linear,
    mul,
    relu,
    reshape,
    sum_all,
)
from esgnn.ba2motifs import generate_ba2motifs
from esgnn.explainer import (
    ExplainerConfig,
    bag_from_json,
    bag_to_json,
    concrete_sample,
    edge_logits,
    edge_scores,
    generate_bag_noise,
    generate_bag_topk,
    init_explainer,
    mask_seed,
    train_explainer,
)
from esgnn.graphs import (
    EdgeMask,
    PolicyError,
    SubgraphBag,
    policy_edge_deleted,
    policy_node_deleted,
    sample_bag,
)
from esgnn.optim import TrainingError
from tests.conftest import make_graph, same_bits


@pytest.fixture
def graphs():
    return list(generate_ba2motifs(12, seed=0).graphs)


@pytest.fixture
def backbone():
    return gin.init_backbone(np.random.default_rng(0), 1, 2, hidden=8, num_layers=2)


@pytest.fixture
def params():
    return init_explainer(np.random.default_rng(1), hidden=8)


def named_arrays(p):
    return {name: t.data.copy() for name, t in p.named().items()}


class TestTraining:
    def test_bit_deterministic_for_fixed_config_and_seed(self, graphs, backbone):
        cfg = ExplainerConfig(epochs=2, batch_size=5)
        p1, h1 = train_explainer(graphs, backbone, cfg, seed=3)
        p2, h2 = train_explainer(graphs, backbone, cfg, seed=3)
        assert h1 == h2
        a, b = named_arrays(p1), named_arrays(p2)
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert [e["epoch"] for e in h1] == [0, 1]
        assert [e["tau"] for e in h1] == [cfg.tau_start, cfg.tau_end]

    def test_backbone_forward_is_taped_only_through_the_mask(
        self, graphs, backbone, monkeypatch
    ):
        seen = []
        forward = gin.backbone_forward_batch

        def spy(batch, params, mask_values=None):
            out = forward(batch, params, mask_values)
            seen.append((mask_values is not None, out[0].requires_grad))
            return out

        monkeypatch.setattr(gin, "backbone_forward_batch", spy)
        monkeypatch.setattr(explainer, "backbone_forward_batch", spy)
        before = named_arrays(backbone)
        train_explainer(graphs, backbone, ExplainerConfig(epochs=1, batch_size=6))
        assert seen and all(masked == taped for masked, taped in seen)
        assert any(masked for masked, _ in seen) and not all(masked for masked, _ in seen)
        for name, t in backbone.named().items():
            assert t.grad is None
            assert np.array_equal(t.data, before[name])

    def test_batches_without_edges_take_no_optimizer_step(self, graphs, backbone, monkeypatch):
        steps = []
        step = explainer.step_from_gradients

        def spy(state, lr):
            steps.append({k: t.grad.copy() for k, t in state.params.items()})
            step(state, lr)

        monkeypatch.setattr(explainer, "step_from_gradients", spy)
        edgeless = [make_graph(3, []), make_graph(2, [])]
        cfg = ExplainerConfig(epochs=2, batch_size=1)
        train_explainer(graphs[:2] + edgeless, backbone, cfg, seed=3)
        assert len(steps) == 4  # two graphs with edges, two epochs
        for a, b in zip(steps, steps[1:]):
            assert not all(np.array_equal(a[k], b[k]) for k in a)

    def test_sparsity_weights_are_one_over_edges_times_graphs_beside_an_edgeless_graph(
        self, graphs, backbone, monkeypatch
    ):
        batches, weights = [], []
        build = explainer.build_graph_batch

        def build_spy(chunk, masks=None):
            batches.append(chunk)
            return build(chunk, masks)

        def sum_spy(x):
            weights.append(x._prev[1].data)  # x = e * Tensor(weight)
            return sum_all(x)

        monkeypatch.setattr(explainer, "build_graph_batch", build_spy)
        monkeypatch.setattr(explainer, "sum_all", sum_spy)
        cfg = ExplainerConfig(epochs=1, batch_size=3)
        with np.errstate(divide="raise", invalid="raise"):
            train_explainer([graphs[0], make_graph(3, []), graphs[1]], backbone, cfg)
        ((chunk,), (weight,)) = batches, weights
        want = [np.full(g.num_edges, 1.0 / (g.num_edges * 3)) for g in chunk if g.num_edges]
        assert same_bits(weight, np.concatenate(want))

    def test_a_non_finite_loss_names_the_epoch_and_the_batch(self, graphs, backbone):
        backbone.layers[0].b1.data[0] = np.nan
        with pytest.raises(TrainingError, match="explainer loss at epoch 0, batch 0$"):
            train_explainer(graphs, backbone, ExplainerConfig(epochs=1, batch_size=4))

    def test_edgeless_graphs_leave_the_explainer_at_its_init(self, backbone):
        cfg = ExplainerConfig(epochs=2, batch_size=1)
        params, history = train_explainer([make_graph(3, []), make_graph(1, [])], backbone, cfg)
        fresh = init_explainer(np.random.default_rng(0), hidden=backbone.hidden)
        assert named_arrays(params).keys() == named_arrays(fresh).keys()
        for name, value in named_arrays(params).items():
            assert np.array_equal(value, named_arrays(fresh)[name])
        assert [e["mean_mask_fraction"] for e in history] == [0.0, 0.0]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tau_start": 0.0},
        {"tau_end": -1.0},
        {"lam": -0.1},
        {"noise_scale": -1.0},
        {"batch_size": 0},
        {"epochs": -1},
        {"lr": -1.0},
        *({name: float("nan")} for name in ("lr", "tau_start", "tau_end", "lam", "noise_scale")),
        {"lam": float("inf")},
    ],
)
def test_config_rejects_bad_values(kwargs):
    (field,) = kwargs
    with pytest.raises(ValueError, match=field):
        ExplainerConfig(**kwargs)


@pytest.mark.parametrize("noise_scale", [float("nan"), float("inf"), -1.0])
class TestNoiseScaleIsChecked:
    def test_by_generate_bag_noise(self, graphs, backbone, params, noise_scale):
        with pytest.raises(ValueError, match=f"noise_scale {noise_scale} must be"):
            generate_bag_noise(graphs[0], backbone, params, m=2, noise_scale=noise_scale, seed=0)

    def test_by_concrete_sample(self, noise_scale):
        with pytest.raises(ValueError, match=f"noise_scale {noise_scale} must be"):
            concrete_sample(np.zeros(3), 1.0, noise_scale, [0])


def test_concrete_sample_rejects_a_nan_temperature():
    with pytest.raises(ValueError, match="temperature nan must be positive"):
        concrete_sample(np.zeros(3), float("nan"), 1.0, [0])


def test_concrete_sample_draws_one_row_per_seed_from_that_seed_alone():
    omega = np.linspace(-2.0, 2.0, 5)
    rows = concrete_sample(omega, 0.5, 1.0, [3, [4, 1], 3]).data
    assert rows.shape == (3, 5)
    for seed, row in zip([3, [4, 1], 3], rows):
        assert same_bits(row, concrete_sample(omega, 0.5, 1.0, [seed]).data[0])
    assert same_bits(rows[0], rows[2]) and not np.array_equal(rows[0], rows[1])
    for noise_scale in (0.0, 1.0):
        assert concrete_sample(omega, 0.5, noise_scale, []).data.shape == (0, 5)


class TestTauSchedule:
    def test_linear_from_start_at_epoch_zero_to_end_at_the_last_epoch(self):
        cfg = ExplainerConfig(tau_start=5.0, tau_end=1.0, epochs=5)
        assert [cfg.tau_at(e) for e in range(5)] == [5.0, 4.0, 3.0, 2.0, 1.0]

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_a_single_epoch_runs_at_tau_end(self, epochs):
        cfg = ExplainerConfig(tau_start=5.0, tau_end=2.0, epochs=epochs)
        assert cfg.tau_at(0) == 2.0


class TestBags:
    def test_topk_masks_are_nested_with_exact_budgets(self, graphs, backbone, params):
        for g in graphs:
            bag = generate_bag_topk(g, backbone, params)
            budgets = [max(1, math.ceil(f * g.num_edges)) for f in explainer.DEFAULT_FRACTIONS]
            assert bag.policy_tag == "EXPLAIN_TOPK"
            assert [m.budget for m in bag.masks] == budgets
            assert [int(m.hard.sum()) for m in bag.masks] == budgets
            for small, large in zip(bag.masks, bag.masks[1:]):
                assert np.all(small.hard <= large.hard)

    def test_noise_masks_carry_and_reproduce_from_their_seed(self, graphs, backbone, params):
        g = graphs[0]
        bag = generate_bag_noise(g, backbone, params, m=4, noise_scale=1.0, seed=11)
        omega = edge_scores(g, backbone, params)
        assert bag.policy_tag == "EXPLAIN_NOISE"
        for t, mask in enumerate(bag.masks):
            assert mask.seed == mask_seed(11, t)
            (soft,) = concrete_sample(omega, 1.0, 1.0, [mask.seed]).data
            assert np.array_equal(mask.soft, soft)
            assert np.array_equal(mask.hard, (soft > 0.5).astype(np.float64))
        assert len({m.hard.tobytes() for m in bag.masks}) > 1

    def test_an_edgeless_graph_has_noise_bags_but_no_topk_bag(self, backbone, params):
        g = make_graph(3, [])
        with pytest.raises(PolicyError, match="top-K bags need at least one edge"):
            generate_bag_topk(g, backbone, params)
        bag = generate_bag_noise(g, backbone, params, m=2, noise_scale=1.0, seed=0)
        assert [m.num_edges for m in bag.masks] == [0, 0]


class TestBagJson:
    @staticmethod
    def round_trip(bag, graph_id=7):
        doc = json.loads(json.dumps(bag_to_json(bag, graph_id)))
        return bag_from_json(doc, bag.base)

    @staticmethod
    def assert_same(a, b):
        assert a.policy_tag == b.policy_tag and len(a) == len(b)
        for x, y in zip(a.masks, b.masks):
            assert np.array_equal(x.hard, y.hard)
            assert (x.budget, x.seed, x.zeroed_nodes) == (y.budget, y.seed, y.zeroed_nodes)

    def test_edge_deleted(self, cycle6):
        bag = policy_edge_deleted(cycle6)
        self.assert_same(bag, self.round_trip(bag))

    def test_sampled_node_deleted_keeps_its_nodes(self):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        bag = sample_bag(policy_node_deleted(g), 0.6, 3)
        assert [m.zeroed_nodes for m in bag.masks] == [(0,), (2,), (4,)]
        self.assert_same(bag, self.round_trip(bag))

    def test_explainer_bags(self, graphs, backbone, params):
        g = graphs[1]
        for bag in (
            generate_bag_noise(g, backbone, params, m=3, noise_scale=1.0, seed=5),
            generate_bag_topk(g, backbone, params),
        ):
            self.assert_same(bag, self.round_trip(bag))

    def test_rejects_unknown_policy(self, triangle):
        doc = bag_to_json(policy_edge_deleted(triangle), 4)
        doc["policy"] = "BOGUS"
        with pytest.raises(ValueError, match="BOGUS"):
            bag_from_json(doc, triangle)

    def test_rejects_bits_of_the_wrong_length_naming_the_graph(self, triangle):
        doc = bag_to_json(policy_edge_deleted(triangle), 17)
        doc["masks"][1]["bits"] = "AAAA"  # three bytes for a three-edge graph
        with pytest.raises(ValueError, match="graph 17"):
            bag_from_json(doc, triangle)

    def test_rejects_zeroed_node_out_of_range(self, triangle):
        doc = bag_to_json(policy_node_deleted(triangle), 2)
        doc["masks"][0]["zeroed_nodes"] = [3]
        with pytest.raises(ValueError, match="graph 2"):
            bag_from_json(doc, triangle)

    @pytest.mark.parametrize("key", ["policy", "masks"])
    def test_rejects_a_document_without_a_field_naming_the_graph(self, triangle, key):
        doc = bag_to_json(policy_edge_deleted(triangle), 6)
        del doc[key]
        with pytest.raises(ValueError, match=f"graph 6: bag document has no '{key}'"):
            bag_from_json(doc, triangle)

    @pytest.mark.parametrize("bits", ["Y!A==", "a", 5])
    def test_rejects_bits_that_are_not_strict_base64_naming_graph_and_mask(self, triangle, bits):
        doc = bag_to_json(policy_edge_deleted(triangle), 9)
        doc["masks"][1]["bits"] = bits
        with pytest.raises(ValueError, match="graph 9: mask 1 bits are not base64"):
            bag_from_json(doc, triangle)

    def test_rejects_a_mask_without_bits_naming_graph_and_mask(self, triangle):
        doc = bag_to_json(policy_edge_deleted(triangle), 8)
        del doc["masks"][2]["bits"]
        with pytest.raises(ValueError, match="graph 8: mask 2 has no 'bits'"):
            bag_from_json(doc, triangle)

    def test_rejects_an_empty_mask_list_naming_the_graph(self, triangle):
        doc = bag_to_json(policy_edge_deleted(triangle), 5)
        doc["masks"] = []
        with pytest.raises(ValueError, match="graph 5: bag document lists no masks"):
            bag_from_json(doc, triangle)

    @pytest.mark.parametrize("num_edges", [0, 1, 7, 8, 9, 26])
    def test_bits_are_each_masks_own_packbits(self, num_edges):
        g = make_graph(num_edges + 1, [(i, i + 1) for i in range(num_edges)])
        rng = np.random.default_rng(num_edges)
        hard = (rng.random((5, num_edges)) > 0.5).astype(np.float64)
        bag = SubgraphBag(g, tuple(EdgeMask(soft=h.copy(), hard=h) for h in hard), "ED")
        doc = bag_to_json(bag, 3)
        for entry, h in zip(doc["masks"], hard):
            assert entry["bits"] == base64.b64encode(np.packbits(h.astype(np.uint8))).decode()
        self.assert_same(bag, bag_from_json(json.loads(json.dumps(doc)), g))

    def test_two_masks_of_the_wrong_length_name_the_first(self, cycle6):
        doc = bag_to_json(policy_edge_deleted(cycle6), 4)
        doc["masks"][1]["bits"] = doc["masks"][4]["bits"] = "AAAA"
        with pytest.raises(ValueError, match="graph 4: mask 1 has 3 bytes of bits, expected 1"):
            bag_from_json(doc, cycle6)

    def test_rejects_a_budget_the_bits_miss_naming_graph_and_mask(self, triangle):
        doc = bag_to_json(policy_edge_deleted(triangle), 9)
        doc["masks"][1]["K"] = 3  # every ED mask keeps two of three edges
        with pytest.raises(ValueError, match="graph 9: mask 1: hard mask sums to 2, budget is 3"):
            bag_from_json(doc, triangle)


class TestFrozenForwards:
    @pytest.fixture
    def spies(self, monkeypatch):
        """Record requires_grad of every backbone and edge-MLP output."""
        taped = []

        def spy(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                taped.append((out[0] if isinstance(out, tuple) else out).requires_grad)
                return out

            return wrapper

        monkeypatch.setattr(gin, "backbone_forward_batch", spy(gin.backbone_forward_batch))
        monkeypatch.setattr(
            explainer, "backbone_forward_batch", spy(explainer.backbone_forward_batch)
        )
        monkeypatch.setattr(explainer, "edge_logits", spy(explainer.edge_logits))
        return taped

    @staticmethod
    def sentinel_grads(*param_sets):
        tensors = [t for p in param_sets for t in p.named().values()]
        for t in tensors:
            t.grad = np.full(t.data.shape, 7.0)
        return tensors

    def test_inference_builds_no_tape(self, graphs, backbone, params, spies):
        tensors = self.sentinel_grads(backbone, params)
        edge_scores(graphs[0], backbone, params)
        gin.evaluate_accuracy(graphs, backbone)
        gin.predict(graphs[0], backbone)
        assert len(spies) == 4 and not any(spies)
        for t in tensors:
            assert t.requires_grad
            assert np.array_equal(t.grad, np.full(t.data.shape, 7.0))


class TestTopK:
    def test_equal_scores_rank_in_edge_order_and_budgets_nest(self):
        masks = explainer.topk_binarize(np.array([0.5, 0.7, 0.5, 0.7, 0.1]), [1, 2, 3, 5])
        assert [m.hard.tolist() for m in masks] == [
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0, 1.0, 0.0],
            [1.0, 1.0, 1.0, 1.0, 1.0],
        ]
        assert [m.budget for m in masks] == [1, 2, 3, 5]

    @pytest.mark.parametrize("budget", [0, 4])
    def test_a_budget_outside_the_edges_is_rejected(self, budget):
        with pytest.raises(ValueError, match=f"budget {budget} outside 1..3"):
            explainer.topk_binarize(np.ones(3), [1, budget])


def test_noise_free_bags_threshold_the_plain_scores(graphs, backbone, params):
    g = graphs[1]
    bag = generate_bag_noise(g, backbone, params, m=3, noise_scale=0.0, seed=2)
    (soft,) = concrete_sample(edge_scores(g, backbone, params), 1.0, 0.0, [0]).data
    assert [m.seed for m in bag.masks] == [mask_seed(2, t) for t in range(3)]
    for mask in bag.masks:
        assert np.array_equal(mask.soft, soft)
        assert np.array_equal(mask.hard, (soft > 0.5).astype(np.float64))


def composed_edge_logits(Z, edges, params):
    """The edge MLP as seven taped ops: the oracle for the fused one."""
    pair = concat_cols(gather_rows(Z, edges[:, 0]), gather_rows(Z, edges[:, 1]))
    h = relu(linear(pair, params.w1, params.b1))
    return reshape(linear(h, params.w2, params.b2), (edges.shape[0],))


class TestFusedEdgeMlp:
    @staticmethod
    def random_inputs(seed):
        rng = np.random.default_rng(seed)
        g = generate_ba2motifs(4, seed=seed).graphs[seed]
        Z = Tensor(rng.standard_normal((g.num_nodes, 8)), requires_grad=True)
        params = init_explainer(rng, hidden=8)
        params.b1.data[:] = rng.standard_normal(params.b1.data.shape) * 0.1
        params.b2.data[:] = rng.standard_normal(1)
        return Z, g.edges, params, rng.standard_normal(g.num_edges)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_output_and_all_five_gradients_equal_the_composed_ops_bit_for_bit(self, seed):
        Z, edges, params, upstream = self.random_inputs(seed)
        results = []
        for apply in (edge_logits, composed_edge_logits):
            out = apply(Z, edges, params)
            sum_all(mul(out, upstream)).backward()
            inputs = (Z, params.w1, params.b1, params.w2, params.b2)
            results.append([out.data] + [t.grad.copy() for t in inputs])
        fused, composed = results
        assert np.any(fused[1] != 0.0) and np.any(fused[2] != 0.0)
        assert all(same_bits(a, b) for a, b in zip(fused, composed))

    def test_is_one_node_over_its_five_inputs(self):
        Z, edges, params, _ = self.random_inputs(0)
        out = edge_logits(Z, edges, params)
        assert out._prev == (Z, params.w1, params.b1, params.w2, params.b2)
        assert out._backward(np.ones(len(edges)))[0] is not None
        frozen_z = edge_logits(Tensor(Z.data), edges, params)
        assert frozen_z._backward(np.ones(len(edges)))[0] is None

    def test_an_edgeless_graph_gets_no_logits_one_node_and_zero_gradients(self):
        Z = Tensor(np.ones((3, 8)), requires_grad=True)
        params = init_explainer(np.random.default_rng(0), hidden=8)
        out = edge_logits(Z, make_graph(3, []).edges, params)
        assert out.data.shape == (0,)
        assert out._prev == (Z, params.w1, params.b1, params.w2, params.b2)
        sum_all(out).backward()
        for t in (Z, params.w1, params.b1, params.w2, params.b2):
            assert same_bits(t.grad, np.zeros(t.data.shape))

    def test_untaped_it_equals_the_taped_forward_and_records_no_node(self):
        Z, edges, params, _ = self.random_inputs(1)
        taped = edge_logits(Z, edges, params)
        out = edge_logits(Z.data, edges, params.frozen())
        assert taped.requires_grad and same_bits(out.data, taped.data)
        assert not out.requires_grad and out._prev == () and out._backward is None

    @pytest.mark.parametrize(
        "name, shape",
        [("w1", (8, 8)), ("b1", (1,)), ("b1", ()), ("w2", (8, 2)), ("w2", (8,)), ("b2", ())],
    )
    def test_a_weight_or_bias_of_the_wrong_shape_raises(self, name, shape):
        Z, edges, params, _ = self.random_inputs(0)
        setattr(params, name, Tensor(np.zeros(shape)))
        with pytest.raises(DimensionError, match="edge MLP"):
            edge_logits(Z, edges, params)

    def test_training_runs_equal_those_of_the_composed_mlp(self, graphs, backbone, monkeypatch):
        cfg = ExplainerConfig(epochs=2, batch_size=5)

        def run():
            params, history = train_explainer(graphs, backbone, cfg, seed=3)
            return history, named_arrays(params)

        fused = run()
        monkeypatch.setattr(explainer, "edge_logits", composed_edge_logits)
        composed = run()
        assert fused[0] == composed[0]
        assert all(same_bits(fused[1][k], composed[1][k]) for k in fused[1])

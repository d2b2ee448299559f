import ast
import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from esgnn import autodiff as ad
from esgnn.autodiff import (
    DimensionError,
    SparseMatrix,
    Tensor,
    add,
    concat_cols,
    cross_entropy_mean,
    custom_primitive,
    gather_rows,
    linear,
    matmul,
    mul,
    relu,
    segment_sum,
    sigmoid,
    spmm,
    sum_all,
)
from tests.oracles import grad_check, softmax_cross_entropy


def rand_param(rng, *shape):
    t = Tensor(rng.standard_normal(shape), requires_grad=True)
    # keep relu inputs away from the kink so finite differences are valid
    t.data[np.abs(t.data) < 1e-3] += 0.01
    return t


class TestLinear:
    def test_identity(self):
        out = linear([[1.0, 2.0]], np.eye(2), np.zeros(2))
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_hand_value(self):
        out = linear([[1.0, 1.0]], [[2.0], [3.0]], [1.0])
        assert np.array_equal(out.data, [[6.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(1, 3\).*\(2, 2\)"):
            linear(np.ones((1, 3)), np.ones((2, 2)), np.zeros(2))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        w = rand_param(rng, 3, 2)
        x = rand_param(rng, 4, 3)
        b = rand_param(rng, 2)
        c = Tensor(rng.standard_normal((4, 2)))
        err = grad_check(lambda: sum_all(mul(linear(x, w, b), c)), [x, w, b], h=1e-5)
        assert err < 1e-6

    def test_bitwise_equal_to_matmul_then_add(self):
        rng = np.random.default_rng(13)
        x0, w0, b0 = rng.standard_normal((7, 5)), rng.standard_normal((5, 4)), rng.standard_normal(4)
        x0[2] = -0.0  # a row of negative zeros
        c = Tensor(rng.standard_normal((7, 4)) * 10.0 ** rng.uniform(-6, 6, (7, 4)))
        results = []
        for op in (linear, lambda x, w, b: add(matmul(x, w), b)):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
            out = op(x, w, b)
            sum_all(relu(mul(out, c))).backward()
            results.append([a.tobytes() for a in (out.data, x.grad, w.grad, b.grad)])
        assert results[0] == results[1]


class TestSpmm:
    def test_identity_operator(self):
        # a perfect matching swaps each pair, so applying it twice is the identity
        m = SparseMatrix(4, [[0, 1], [2, 3]])
        x = Tensor(np.arange(8.0).reshape(4, 2))
        adj = m.assemble(np.ones(2))
        assert np.array_equal(spmm(adj, spmm(adj, x)).data, x.data)

    def test_single_edge_swaps_neighbors(self):
        m = SparseMatrix(2, [[0, 1]])
        out = spmm(m.assemble(np.ones(1)), [[1.0], [2.0]])
        assert np.array_equal(out.data, [[2.0], [1.0]])

    def test_triangle_degrees(self):
        m = SparseMatrix(3, [[0, 1], [0, 2], [1, 2]])
        out = spmm(m.assemble(np.ones(3)), np.ones((3, 1)))
        assert np.array_equal(out.data, [[2.0], [2.0], [2.0]])

    def test_index_out_of_range(self):
        with pytest.raises(DimensionError):
            SparseMatrix(2, [[0, 2]])

    def test_rejects_self_loops_and_ragged_edges(self):
        with pytest.raises(DimensionError, match="self-loop"):
            SparseMatrix(3, [[0, 1], [2, 2]])
        with pytest.raises(DimensionError, match=r"\(E, 2\)"):
            SparseMatrix(3, [0, 1, 2])
        with pytest.raises(DimensionError, match="2 edges"):
            SparseMatrix(3, [[0, 1], [1, 2]]).assemble(np.ones(4))

    def test_csr_order_is_the_stable_row_major_order(self):
        # scipy's COO -> CSR of both directions of every edge: rows in order,
        # columns sorted within a row; edges in either orientation
        rng = np.random.default_rng(2)
        n = 40
        pairs = rng.integers(0, n, (300, 2))
        edges = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        edges = edges[rng.permutation(len(edges))]
        w = rng.standard_normal(len(edges))
        got = SparseMatrix(n, edges).assemble(w).csr
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        want = scipy.sparse.coo_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n)).tocsr()
        assert got.indptr.tolist() == want.indptr.tolist()
        assert got.indices.tolist() == want.indices.tolist()
        assert got.data.tobytes() == want.data.tobytes()

    def test_weight_grad_sums_the_two_directed_entries_of_each_edge_bit_for_bit(self):
        # the directed-entry formula: entry 2k is (i, j), entry 2k + 1 is (j, i)
        rng = np.random.default_rng(3)
        n = 50
        pairs = rng.integers(0, n, (200, 2))
        edges = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
        g = rng.standard_normal((n, 7)) * 10.0 ** rng.uniform(-6, 6, (n, 7))
        x = rng.standard_normal((n, 7))
        rows, cols = edges.reshape(-1), edges[:, ::-1].reshape(-1)
        entries = (g[rows] * x[cols]).sum(axis=1)
        want = np.zeros(len(edges))
        np.add.at(want, np.repeat(np.arange(len(edges)), 2), entries)
        got = SparseMatrix(n, edges).weight_grad(g, x)
        assert got.shape == (len(edges),) and got.tobytes() == want.tobytes()

    def test_each_edge_weights_both_of_its_entries(self):
        edges, w = [(0, 1), (1, 3), (0, 2)], [0.5, -2.0, 3.0]
        expected = np.zeros((4, 4))
        for (i, j), wk in zip(edges, w):
            expected[i, j] = expected[j, i] = wk
        dense = SparseMatrix(4, edges).assemble(np.array(w)).csr.toarray()
        assert np.array_equal(dense, expected)

    def test_csr_is_symmetric_and_backward_reuses_it_bit_for_bit(self):
        # a random simple graph with 30% zero weights and some -0.0 ones
        rng = np.random.default_rng(7)
        n = 300
        pairs = rng.integers(0, n, (1500, 2))
        edges = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
        w0 = rng.standard_normal(len(edges))
        w0[rng.random(w0.size) < 0.3] = 0.0
        w0[:10] = -0.0
        w = Tensor(w0, requires_grad=True)
        x = Tensor(rng.standard_normal((n, 5)), requires_grad=True)
        g = rng.standard_normal((n, 5))
        adj = SparseMatrix(n, edges).assemble(w)
        assert adj.csr.toarray().tobytes() == adj.csr.T.toarray().tobytes()
        sum_all(mul(spmm(adj, x), g)).backward()
        expected = np.zeros((n, 5))
        expected += adj.csr.T @ g
        assert x.grad.tobytes() == expected.tobytes()

    def test_gradients_wrt_values_and_input(self):
        rng = np.random.default_rng(1)
        m = SparseMatrix(3, [[0, 1], [1, 2], [0, 2]])
        w = rand_param(rng, 3)
        x = rand_param(rng, 3, 2)
        err = grad_check(lambda: sum_all(relu(spmm(m.assemble(w), x))), [w, x], h=1e-5)
        assert err < 1e-5

    def test_empty_pattern(self):
        m = SparseMatrix(3, np.zeros((0, 2)))
        out = spmm(m.assemble(np.zeros(0)), np.ones((3, 2)))
        assert np.array_equal(out.data, np.zeros((3, 2)))


class TestElementwiseAndReductions:
    def test_relu_values(self):
        out = relu([-1.0, 0.0, 2.0])
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_lets_nan_through_and_keeps_the_sign_of_zero(self):
        x = np.array([np.nan, -0.0, 0.0, -1.0, 2.0, -np.inf, np.inf])
        out = relu(x).data
        assert np.isnan(out[0])
        assert out[1:].tobytes() == np.array([0.0, 0.0, 0.0, 2.0, 0.0, np.inf]).tobytes()

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor([0.0, 1.0], requires_grad=True)
        sum_all(relu(x)).backward()
        assert np.array_equal(x.grad, [0.0, 1.0])

    def test_sigmoid_gradient(self):
        rng = np.random.default_rng(2)
        x = rand_param(rng, 5)
        err = grad_check(lambda: sum_all(sigmoid(x)), [x], h=1e-5)
        assert err < 1e-6

    def test_segment_sum_and_gather_round(self):
        rng = np.random.default_rng(3)
        x = rand_param(rng, 6, 3)
        seg = np.array([0, 0, 1, 1, 1, 2])
        pooled = segment_sum(x, seg, 3)
        assert np.allclose(pooled.data[0], x.data[:2].sum(axis=0))
        err = grad_check(
            lambda: sum_all(relu(gather_rows(segment_sum(x, seg, 3), [0, 2, 1, 1]))),
            [x],
            h=1e-5,
        )
        assert err < 1e-5

    def test_segment_sum_is_bitwise_equal_to_add_at(self):
        rng = np.random.default_rng(14)
        # rows of widely varying magnitude, so any change of summation order shows
        x = rng.standard_normal((40, 3)) * 10.0 ** rng.uniform(-8, 8, (40, 3))
        x[[3, 17, 29]] = -0.0
        x[[5, 11]] = 0.0
        seg = rng.permutation(np.arange(40) % 5)  # unsorted
        seg[seg == 2] = 4  # segment 2 is left empty, and so is the last one, 5
        want = np.zeros((6, 3))
        np.add.at(want, seg, x)
        got = segment_sum(x, seg, 6).data
        assert got.tobytes() == want.tobytes()

    def test_segment_sum_of_no_rows(self):
        out = segment_sum(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
        assert out.data.tobytes() == np.zeros((2, 3)).tobytes()

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_segment_sum_rejects_ids_outside_the_segments(self, bad):
        with pytest.raises(DimensionError, match=rf"segment_sum: segment id {bad}\b.*num_segments=3"):
            segment_sum(np.ones((3, 2)), [0, bad, 1], 3)

    def test_concat_cols_gradient(self):
        rng = np.random.default_rng(4)
        a = rand_param(rng, 3, 2)
        b = rand_param(rng, 3, 4)
        err = grad_check(lambda: sum_all(relu(concat_cols(a, b))), [a, b], h=1e-5)
        assert err < 1e-5


class TestSoftmaxCrossEntropy:
    def test_uniform_two_classes(self):
        out = softmax_cross_entropy([0.0, 0.0], 0)
        assert out.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_computed_probability(self):
        # logits chosen so softmax = (0.8, 0.2)
        logits = [math.log(0.8), math.log(0.2)]
        out = softmax_cross_entropy(logits, 0)
        assert out.item() == pytest.approx(-math.log(0.8), abs=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy([0.0, 1.0], 2)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(5)
        logits = rand_param(rng, 4)
        err = grad_check(lambda: softmax_cross_entropy(logits, 2), [logits], h=1e-5)
        assert err < 1e-6

    def test_nonnegative_and_uniform_value(self):
        rng = np.random.default_rng(6)
        for c in (2, 3, 7):
            logits = rng.standard_normal(c)
            assert softmax_cross_entropy(logits, 0).item() >= 0.0
            uniform = softmax_cross_entropy(np.zeros(c), 1)
            assert uniform.item() == pytest.approx(math.log(c), abs=1e-12)

    def test_gradient_sums_to_zero_over_classes(self):
        logits = Tensor([0.3, -1.2, 0.7], requires_grad=True)
        softmax_cross_entropy(logits, 1).backward()
        assert abs(logits.grad.sum()) < 1e-12

    def test_batched_mean_matches_single(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((3, 4))
        targets = [1, 0, 3]
        batched = cross_entropy_mean(logits, targets).item()
        singles = np.mean(
            [softmax_cross_entropy(logits[i], t).item() for i, t in enumerate(targets)]
        )
        assert batched == pytest.approx(singles, abs=1e-12)

    def test_batched_gradient(self):
        rng = np.random.default_rng(8)
        logits = rand_param(rng, 3, 4)
        err = grad_check(lambda: cross_entropy_mean(logits, [0, 2, 1]), [logits], h=1e-5)
        assert err < 1e-6


class TestTapeMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            (x + x).backward()

    def test_repeated_backward_is_bit_identical(self):
        rng = np.random.default_rng(9)
        w = rand_param(rng, 4, 3)
        x = Tensor(rng.standard_normal((2, 4)))
        loss = sum_all(relu(matmul(x, w)))
        loss.backward()
        first = w.grad.copy()
        loss.backward()
        assert np.array_equal(first, w.grad)

    def test_tape_is_freed_without_the_cyclic_collector(self):
        rng = np.random.default_rng(12)
        w = rand_param(rng, 4, 3)
        b = rand_param(rng, 3)
        x = Tensor(rng.standard_normal((2, 4)))
        # strong references, so no id below can be reused by a new Tensor
        before = [o for o in gc.get_objects() if isinstance(o, Tensor)]
        known = {id(o) for o in before}
        gc.disable()
        try:
            for _ in range(5):
                loss = sum_all(relu(linear(x, w, b)))
                loss.backward()
                del loss
            left = [o for o in gc.get_objects() if isinstance(o, Tensor) and id(o) not in known]
        finally:
            gc.enable()
        assert left == []

    def test_untaped_inputs_record_nothing(self):
        x = Tensor(np.ones((2, 2)))
        out = relu(linear(x, np.eye(2), np.zeros(2)))
        assert not out.requires_grad
        assert out._prev == () and out._backward is None

    def test_shared_subexpression_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x  # d/dx = 2x
        sum_all(y).backward()
        assert np.array_equal(x.grad, [4.0])

    def test_constant_function_has_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = sum_all(x * 0.0)
        loss.backward()
        assert np.array_equal(x.grad, [0.0, 0.0])

    def test_an_op_returning_its_upstream_gradient_twice_aliases_nothing(self):
        a = mul(Tensor([1.0, 2.0], requires_grad=True), 1.0)  # an intermediate
        b = add(a, a)  # add's vjp returns b's gradient array for both inputs
        sum_all(b).backward()
        assert np.array_equal(b.grad, [1.0, 1.0])
        assert np.array_equal(a.grad, [2.0, 2.0])

    def test_leaves_reset_to_zeros_and_unreached_nodes_stay_none(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        unreached = Tensor([3.0], requires_grad=True)
        mid = relu(unreached)
        # a vjp that passes no gradient on: nothing reaches mid
        cut = custom_primitive([0.0], [mid], lambda g: [None])
        loss = add(sum_all(relu(x)), sum_all(cut))
        x.grad, unreached.grad = np.full(2, 7.0), np.full(1, 7.0)
        loss.backward()
        assert np.array_equal(x.grad, [1.0, 1.0])
        assert np.array_equal(unreached.grad, [0.0])  # reads zeros for Adam
        assert mid.grad is None and np.array_equal(cut.grad, [1.0])

    def test_custom_primitive_backward_rule(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        doubled_grad = custom_primitive(x.data.copy(), [x], lambda g: [2.0 * g])
        sum_all(doubled_grad).backward()
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_all_primitives_pass_grad_check_at_random_points(self):
        rng = np.random.default_rng(10)
        m = SparseMatrix(3, [[0, 1], [1, 2]])
        for trial in range(10):
            w1 = rand_param(rng, 3, 3)
            b1 = rand_param(rng, 3)
            v = rand_param(rng, 2)
            x = Tensor(rng.standard_normal((3, 3)))

            def f():
                h = relu(linear(x, w1, b1))
                h = spmm(m.assemble(v), h)
                h = sigmoid(h)
                pooled = segment_sum(h, [0, 0, 1], 2)
                return cross_entropy_mean(pooled, [0, 2])

            assert grad_check(f, [w1, b1, v], h=1e-5) < 1e-4


class TestGradCheckOracle:
    def test_constant_gives_zero(self):
        x = Tensor([3.0], requires_grad=True)
        err = grad_check(lambda: sum_all(mul(x, 0.0)), [x], h=1e-5)
        assert err == 0.0

    def test_step_size_validated(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: sum_all(x), [x], h=1e-2)


class TestCheckpointRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        params = {
            "layer/W": Tensor(rng.standard_normal((3, 2)), requires_grad=True),
            "layer/b": Tensor(rng.standard_normal(2) * 1e-17, requires_grad=True),
            "eps": Tensor(np.asarray(0.1), requires_grad=True),
        }
        path = tmp_path / "ckpt.json"
        ad.save_params(params, path)
        loaded = ad.load_params(path)
        assert set(loaded) == set(params)
        for name in params:
            assert loaded[name].data.shape == params[name].data.shape
            assert np.array_equal(loaded[name].data, params[name].data)

    def test_load_error_names_parameter_and_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"layer/W": {"shape": [2, 3], "values": [1, 2, 3, 4, 5]}}))
        with pytest.raises(ValueError, match="layer/W") as info:
            ad.load_params(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("text", ['{"layer/W": {"shape": [1]', "\xff\xfe"])
    def test_load_names_the_file_when_the_json_is_unreadable(self, tmp_path, text):
        path = tmp_path / "ckpt.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError, match="unreadable checkpoint JSON") as info:
            ad.load_params(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "entry", [{"values": [1.0]}, {"shape": [1]}, [1.0], {"shape": "1", "values": [1.0]}]
    )
    def test_load_names_the_file_and_a_parameter_without_shape_or_values(self, tmp_path, entry):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"ok": {"shape": [], "values": [1.0]}, "layer/b": entry}))
        with pytest.raises(ValueError, match="parameter 'layer/b'.*shape") as info:
            ad.load_params(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_load_rejects_a_non_finite_value_naming_file_and_parameter(self, tmp_path, bad):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"layer/b": {"shape": [3], "values": [0.5, bad, 1.0]}}))
        with pytest.raises(ValueError, match="parameter 'layer/b'.*non-finite.*index 1") as info:
            ad.load_params(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_save_refuses_a_non_finite_value_and_writes_nothing(self, tmp_path, bad):
        path = tmp_path / "ckpt.json"
        params = {"ok": Tensor(np.ones(2)), "layer/b": Tensor(np.array([0.5, bad]))}
        with pytest.raises(ValueError, match="parameter 'layer/b' has a non-finite value") as info:
            ad.save_params(params, path)
        assert str(path) in str(info.value)
        assert list(tmp_path.iterdir()) == []


SRC = Path(__file__).resolve().parents[1] / "src" / "esgnn"


def grad_assignments(path: Path) -> set[str]:
    """Qualified names of the functions that assign to some ``.grad``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}{child.name}.")
                continue
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                if any(
                    isinstance(n, ast.Attribute) and n.attr == "grad"
                    for t in targets
                    for n in ast.walk(t)
                ):
                    found.add(scope.rstrip("."))
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_only_backward_assigns_gradients():
    where = {f"{p.stem}:{fn}" for p in SRC.glob("*.py") for fn in grad_assignments(p)}
    # __init__ only declares the slot as None
    assert where == {"autodiff:Tensor.__init__", "autodiff:Tensor.backward"}

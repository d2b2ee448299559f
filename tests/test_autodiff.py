import gc
import json
import math

import numpy as np
import pytest

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
    grad_check,
    linear,
    matmul,
    mul,
    relu,
    segment_sum,
    sigmoid,
    softmax_cross_entropy,
    spmm,
    sum_all,
)


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
        m = SparseMatrix(3, 3, [0, 1, 2], [0, 1, 2])
        x = Tensor(np.arange(6.0).reshape(3, 2))
        out = spmm(m.assemble(np.ones(3)), x)
        assert np.array_equal(out.data, x.data)

    def test_single_edge_swaps_neighbors(self):
        m = SparseMatrix(2, 2, [0, 1], [1, 0])
        out = spmm(m.assemble(np.ones(2)), [[1.0], [2.0]])
        assert np.array_equal(out.data, [[2.0], [1.0]])

    def test_triangle_degrees(self):
        rows = [0, 1, 0, 2, 1, 2]
        cols = [1, 0, 2, 0, 2, 1]
        m = SparseMatrix(3, 3, rows, cols)
        out = spmm(m.assemble(np.ones(6)), np.ones((3, 1)))
        assert np.array_equal(out.data, [[2.0], [2.0], [2.0]])

    def test_index_out_of_range(self):
        with pytest.raises(DimensionError):
            SparseMatrix(2, 2, [0, 2], [1, 0])

    def test_csr_order_is_the_stable_row_major_order(self):
        rng = np.random.default_rng(2)
        rows, cols = rng.integers(0, 7, 60), rng.integers(0, 5, 60)  # with repeats
        assert np.array_equal(SparseMatrix(7, 5, rows, cols)._perm, np.lexsort((cols, rows)))

    def test_gradients_wrt_values_and_input(self):
        rng = np.random.default_rng(1)
        rows = np.array([0, 1, 1, 2, 0, 2])
        cols = np.array([1, 0, 2, 1, 2, 0])
        m = SparseMatrix(3, 3, rows, cols)
        w = rand_param(rng, 6)
        x = rand_param(rng, 3, 2)
        err = grad_check(lambda: sum_all(relu(spmm(m.assemble(w), x))), [w, x], h=1e-5)
        assert err < 1e-5

    def test_empty_pattern(self):
        m = SparseMatrix(3, 3, [], [])
        out = spmm(m.assemble(np.zeros(0)), np.ones((3, 2)))
        assert np.array_equal(out.data, np.zeros((3, 2)))


class TestElementwiseAndReductions:
    def test_relu_values(self):
        out = relu([-1.0, 0.0, 2.0])
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

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

    def test_custom_primitive_backward_rule(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        doubled_grad = custom_primitive(x.data.copy(), [x], lambda g: [2.0 * g])
        sum_all(doubled_grad).backward()
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_all_primitives_pass_grad_check_at_random_points(self):
        rng = np.random.default_rng(10)
        rows = np.array([0, 1, 1, 2])
        cols = np.array([1, 0, 2, 1])
        m = SparseMatrix(3, 3, rows, cols)
        for trial in range(10):
            w1 = rand_param(rng, 3, 3)
            b1 = rand_param(rng, 3)
            v = rand_param(rng, 4)
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

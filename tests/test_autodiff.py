import ast
import gc
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from esgnn import autodiff as ad
from esgnn.autodiff import (
    DimensionError,
    Tensor,
    add,
    col_sum,
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
    times_transpose,
)
from esgnn.ba2motifs import generate_ba2motifs
from esgnn.gin import (
    apply_gin_layer,
    backbone_forward_batch,
    build_graph_batch,
    _pool_matrix,
    init_backbone,
    init_gin_layer,
)
from tests.conftest import make_graph, same_bits
from tests.oracles import (
    assemble,
    dfs_postorder,
    grad_check,
    masked_sigmoid,
    softmax_cross_entropy,
    walk_leaf_grads,
)
from tests.test_gin import composed_gin_layer


def rand_param(rng, *shape):
    t = Tensor(rng.standard_normal(shape), requires_grad=True)
    # keep relu inputs away from the kink so finite differences are valid
    t.data[np.abs(t.data) < 1e-3] += 0.01
    return t


def sigmoid_and_gradient(op, x, upstream):
    """op(x)'s output and the gradient of <op(x), upstream> with respect to x."""
    x = Tensor(x, requires_grad=True)
    out = op(x)
    sum_all(mul(out, upstream)).backward()
    return out.data, x.grad


def shuffled_edges(rng, n, draws):
    """A random simple graph's edges, each flipped at random, in a random order."""
    pairs = rng.integers(0, n, (draws, 2))
    edges = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    return edges[rng.permutation(len(edges))]


def coo_to_csr(n, edges, w):
    """scipy's COO -> CSR of both directed entries of every edge: the order oracle."""
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return scipy.sparse.coo_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n)).tocsr()


class TestSigmoidMatchesTheMaskedOracle:
    EDGES = [
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.0, -709.0, 745.0, -745.0,
        710.0, -710.0, 746.0, -746.0, 5e-324, -5e-324, 1e-300, -1e-300, 36.8, -36.8,
    ]

    @staticmethod
    def assert_same(x, upstream):
        got = sigmoid_and_gradient(sigmoid, x, upstream)
        want = sigmoid_and_gradient(masked_sigmoid, x, upstream)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    def test_edge_values_give_the_same_bits_forward_and_backward(self):
        x = np.array(self.EDGES)
        # a NaN with a payload, both signs: its sign bit must survive too
        payload = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)
        x = np.concatenate([x, payload, -payload])
        assert np.signbit(x[4]) != np.signbit(x[5])
        self.assert_same(x, np.linspace(-2.0, 2.0, x.size))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_blocks_give_the_same_bits_forward_and_backward(self, seed):
        rng = np.random.default_rng(seed)
        m, e = rng.integers(1, 12), rng.integers(1, 400)
        # magnitudes from 1e-8 to 1e3, so both branches and both tails are hit
        x = rng.standard_normal((m, e)) * 10.0 ** rng.uniform(-8, 3, (m, e))
        picked = rng.random((m, e)) < 0.05
        x[picked] = rng.choice(self.EDGES, size=int(picked.sum()))
        self.assert_same(x, rng.standard_normal((m, e)))


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


class TestBlasRowSumsAndTransposedProducts:
    @pytest.mark.parametrize("rows", [0, 1, 800])
    @pytest.mark.parametrize("tail", [(), (7,), (3, 5)])
    def test_col_sum_matches_numpy_to_rounding(self, rows, tail):
        a = np.random.default_rng(rows).standard_normal((rows, *tail)) * 1e3
        got, want = col_sum(a), a.sum(axis=0)
        assert got.shape == want.shape and got.dtype == np.float64
        # 1e-12 relative to the summed magnitudes: a column that cancels to
        # about zero is still held to the rounding of its terms
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(a).sum(axis=0))

    def test_col_sum_of_no_rows_is_zeros(self):
        assert same_bits(col_sum(np.zeros((0, 2, 3))), np.zeros((2, 3)))

    def test_col_sum_propagates_nan_and_infinities(self):
        a = np.ones((5, 6))
        a[2, 0] = np.nan
        a[1, 1] = np.inf
        a[3, 2] = -np.inf
        a[0, 3], a[4, 3] = np.inf, -np.inf
        a[0, 4], a[1, 4] = np.nan, np.inf
        # both warn of the NaN that inf + -inf makes
        with np.errstate(invalid="ignore"):
            want, got = a.sum(axis=0), col_sum(a)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[[0, 3, 4]]).all() and list(got[1:3]) == [np.inf, -np.inf]

    @pytest.mark.parametrize("rows", [*range(1, 10), 25, 800])
    @pytest.mark.parametrize("width", [1, 2, 11, 32, 64])
    def test_times_transpose_matches_the_transposed_product_to_rounding(self, rows, width):
        """OpenBLAS can give the two different last bits (seen at one row, and at
        widths 32 and 64 with few rows), so the fused and the composed ops
        must both multiply by a transposed weight through this one helper."""
        rng = np.random.default_rng(100 * rows + width)
        a, w = rng.standard_normal((rows, width)), rng.standard_normal((width + 3, width))
        got = times_transpose(a, w)
        assert got.shape == (rows, width + 3)
        bound = 4 * width * np.finfo(np.float64).eps * (np.abs(a) @ np.abs(w).T)
        assert np.all(np.abs(got - a @ w.T) <= bound)

    @pytest.mark.parametrize("op", ["linear", "matmul"])
    def test_composed_backward_multiplies_through_times_transpose(self, op):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((5, 32)), requires_grad=True)
        w, b = rng.standard_normal((32, 32)), rng.standard_normal(32)
        g = rng.standard_normal((5, 32))
        out = linear(x, w, b) if op == "linear" else matmul(x, w)
        sum_all(mul(out, g)).backward()
        assert same_bits(x.grad, times_transpose(g, w))

    def test_unbroadcast_sums_rows_through_col_sum(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.standard_normal((300, 4, 6)))
        b = Tensor(rng.standard_normal((1, 6)), requires_grad=True)
        c = Tensor(rng.standard_normal(()), requires_grad=True)
        sum_all(mul(add(a, b), add(a, c))).backward()
        assert same_bits(b.grad, col_sum(col_sum(a.data + c.data))[np.newaxis])
        assert same_bits(c.grad, col_sum(col_sum(col_sum(a.data + b.data))))


_FUSED_INPUTS = ("weights", "h", "eps", "w1", "b1", "w2", "b2")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 20),
    in_dim=st.integers(1, 40),
    hidden=st.integers(1, 40),
    taped=st.lists(st.booleans(), min_size=7, max_size=7),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_gin_layer_equals_the_composed_ops_bit_for_bit(n, in_dim, hidden, taped, seed):
    """Output and every gradient, for any subset of the seven inputs taped."""
    rng = np.random.default_rng(seed)
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)], dtype=np.intp)
    edges = pairs[rng.random(len(pairs)) < 0.3].reshape(-1, 2)
    layer = init_gin_layer(rng, in_dim, hidden)
    layer.eps.data[...] = rng.standard_normal()
    layer.b1.data[:] = rng.standard_normal(hidden)
    layer.b2.data[:] = rng.standard_normal(hidden)
    weights = Tensor(rng.random(len(edges)))
    h = Tensor(rng.standard_normal((n, in_dim)))
    inputs = (weights, h, layer.eps, layer.w1, layer.b1, layer.w2, layer.b2)
    for t, flag in zip(inputs, taped):
        t.requires_grad = flag
    upstream = rng.standard_normal((n, hidden))
    results = []
    for apply in (apply_gin_layer, composed_gin_layer):
        out = apply(layer, h, assemble(n, edges, weights))
        sum_all(mul(out, upstream)).backward()
        grads = [None if t.grad is None else t.grad.copy() for t in inputs]
        results.append((out.data, grads))
    (fused, fused_grads), (composed, composed_grads) = results
    assert same_bits(fused, composed)
    for name, a, b, flag in zip(_FUSED_INPUTS, fused_grads, composed_grads, taped):
        assert (a is None) == (b is None) == (not flag), name
        assert a is None or same_bits(a, b), name


class TestCsrBuiltWithoutChecks:
    """Every kind of CSR the package builds equals scipy's constructor's of the same arrays."""

    def assert_as_constructed(self, csr, rng):
        ref = scipy.sparse.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)
        assert type(csr) is type(ref) and vars(csr).keys() == vars(ref).keys()
        assert csr.shape == ref.shape and all(type(d) is int for d in csr.shape)
        assert csr.maxprint == ref.maxprint
        for a, b in ((csr.data, ref.data), (csr.indices, ref.indices), (csr.indptr, ref.indptr)):
            # the constructor keeps the arrays, as views of their first nnz entries
            assert same_bits(a, b) and (a.size == 0 or np.shares_memory(a, b))
        csr.check_format(full_check=True)
        assert csr.has_canonical_format
        x = rng.standard_normal((csr.shape[1], 3))
        assert same_bits(csr @ x, ref @ x)

    def test_layout_pool_and_segment_csrs(self):
        rng = np.random.default_rng(21)
        for n, draws in ((0, 0), (1, 0), (5, 0), (7, 12), (40, 300)):
            pairs = rng.integers(0, max(n, 1), (draws, 2))
            edges = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
            edges = edges.reshape(-1, 2)
            layout = ad.sort_entries(n, edges)
            w = rng.standard_normal(len(edges))
            w[: len(w) // 4] = -0.0
            for values in (None, w):
                self.assert_as_constructed(ad._layout_csr(n, edges, values, layout), rng)
            ids = rng.integers(0, max(n, 1), n)
            self.assert_as_constructed(ad.segment_matrix(ids, max(n, 1) + 2), rng)
        for counts in ([], [0], [3, 0, 4, 0], [25] * 32):
            self.assert_as_constructed(_pool_matrix(np.cumsum([0, *counts])), rng)
        g = make_graph(4, [(0, 1), (1, 2), (0, 3)])
        self.assert_as_constructed(g.adjacency, rng)


class TestSpmm:
    def test_identity_operator(self):
        # a perfect matching swaps each pair, so applying it twice is the identity
        adj = assemble(4, [[0, 1], [2, 3]], np.ones(2))
        x = Tensor(np.arange(8.0).reshape(4, 2))
        assert np.array_equal(spmm(adj, spmm(adj, x)).data, x.data)

    def test_single_edge_swaps_neighbors(self):
        out = spmm(assemble(2, [[0, 1]], np.ones(1)), [[1.0], [2.0]])
        assert np.array_equal(out.data, [[2.0], [1.0]])

    def test_triangle_degrees(self):
        out = spmm(assemble(3, [[0, 1], [0, 2], [1, 2]], np.ones(3)), np.ones((3, 1)))
        assert np.array_equal(out.data, [[2.0], [2.0], [2.0]])

    def test_rejects_weights_that_are_not_one_per_edge(self):
        with pytest.raises(DimensionError, match="2 edges"):
            assemble(3, [[0, 1], [1, 2]], np.ones(4))
        with pytest.raises(DimensionError, match=r"weights \(2, 1\) vs 2 edges"):
            assemble(3, [[0, 1], [1, 2]], np.ones((2, 1)))

    def test_csr_order_is_the_stable_row_major_order(self):
        # scipy's COO -> CSR of both directions of every edge: rows in order,
        # columns sorted within a row; edges in either orientation
        rng = np.random.default_rng(2)
        edges = shuffled_edges(rng, 40, 300)
        w = rng.standard_normal(len(edges))
        got, want = assemble(40, edges, w).csr, coo_to_csr(40, edges, w)
        assert got.indptr.tolist() == want.indptr.tolist()
        assert got.indices.tolist() == want.indices.tolist()
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("n, draws", [(40, 300), (3000, 9000)])
    def test_the_sort_keeps_scipys_order_and_every_weight_byte(self, n, draws):
        rng = np.random.default_rng(n)
        edges = shuffled_edges(rng, n, draws)
        w = rng.standard_normal(len(edges))
        special = rng.permutation(len(edges))[:50].reshape(5, 10)
        for value, picks in zip((0.0, -0.0, np.nan, np.inf, -np.inf), special):
            w[picks] = value
        got, want = assemble(n, edges, w).csr, coo_to_csr(n, edges, w)
        assert same_bits(got.indptr, want.indptr) and same_bits(got.indices, want.indices)
        assert same_bits(got.data, want.data)

    # n past the CSR's int32 indices
    @pytest.mark.parametrize("n", [2**31, 2**40])
    def test_a_size_past_the_csr_indices_is_rejected_before_allocating(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match=f"^sort_entries: {n} nodes do not fit"):
                ad.sort_entries(n, [[0, 1]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_graph_of_2_to_the_30_nodes_sorts_without_allocating(self):
        # n = 2**30: the flat index i * n + j of (1, 2) is 2**30 + 2, of (2, 1) 2**31 + 1
        tracemalloc.start()
        try:
            layout = ad.sort_entries(2**30, [[0, 1], [1, 2]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # entries (0, 1), (1, 0), (1, 2), (2, 1): their columns, then their edges
        assert layout.dtype == np.int32 and layout.tolist() == [1, 0, 2, 1, 0, 0, 1, 1]
        assert peak < 2**20

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
        got = assemble(n, edges, np.ones(len(edges))).weight_grad(g, x)
        assert got.shape == (len(edges),) and got.tobytes() == want.tobytes()

    def test_each_edge_weights_both_of_its_entries(self):
        edges, w = [(0, 1), (1, 3), (0, 2)], [0.5, -2.0, 3.0]
        expected = np.zeros((4, 4))
        for (i, j), wk in zip(edges, w):
            expected[i, j] = expected[j, i] = wk
        dense = assemble(4, edges, np.array(w)).csr.toarray()
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
        adj = assemble(n, edges, w)
        assert adj.csr.toarray().tobytes() == adj.csr.T.toarray().tobytes()
        sum_all(mul(spmm(adj, x), g)).backward()
        expected = np.zeros((n, 5))
        expected += adj.csr.T @ g
        assert x.grad.tobytes() == expected.tobytes()

    def test_gradients_wrt_values_and_input(self):
        rng = np.random.default_rng(1)
        edges = [[0, 1], [1, 2], [0, 2]]
        w = rand_param(rng, 3)
        x = rand_param(rng, 3, 2)
        err = grad_check(lambda: sum_all(relu(spmm(assemble(3, edges, w), x))), [w, x], h=1e-5)
        assert err < 1e-5

    def test_empty_pattern(self):
        out = spmm(assemble(3, np.zeros((0, 2)), np.zeros(0)), np.ones((3, 2)))
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

    def test_an_empty_batch_raises_a_value_error_naming_it(self):
        for logits in (np.zeros((0, 2)), Tensor(np.zeros((0, 3)), requires_grad=True)):
            with pytest.raises(ValueError, match="empty batch"):
                cross_entropy_mean(logits, [])

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

    def test_a_leaf_gradient_is_its_own_array_and_a_first_minus_zero_reads_plus_zero(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        # mul's vjp gives x the upstream ones times [-0.0, 3.0, -0.0]
        sum_all(mul(x, [-0.0, 3.0, -0.0])).backward()
        assert same_bits(x.grad, [0.0, 3.0, 0.0])
        assert not np.signbit(x.grad).any()
        y = Tensor([1.0, 2.0], requires_grad=True)
        # sum_all's vjp returns a read-only broadcast of its upstream gradient
        sum_all(y).backward()
        assert same_bits(y.grad, [1.0, 1.0]) and y.grad.flags.writeable

    def test_a_leaf_reached_by_several_ops_adds_their_gradients_in_walk_order(self):
        # the explainer's mask weights: taken by every GIN layer and by the
        # sparsity term, five gradients, added in the tape walk's order
        graphs = list(generate_ba2motifs(8, seed=0).graphs)
        params = init_backbone(np.random.default_rng(0), 1, 2)
        batch = build_graph_batch(graphs)
        rng = np.random.default_rng(1)
        values = Tensor(rng.random(len(batch.edges)), requires_grad=True)
        logits, _ = backbone_forward_batch(batch, params, mask_values=values)
        sparsity = sum_all(mul(values, rng.random(len(batch.edges))))
        loss = add(cross_entropy_mean(logits, batch.labels), mul(sparsity, 0.3))
        takers = [node for node in dfs_postorder(loss) if values in node._prev]
        assert len(takers) == 5
        expected = walk_leaf_grads(loss)
        loss.backward()
        assert any(t is values for t, _ in expected)
        for leaf, grad in expected:
            assert same_bits(leaf.grad, grad)

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_the_tape_walk_is_the_recursive_postorder_and_adds_in_its_order(self, data):
        # scalar nodes; an op takes 1-3 earlier nodes, repeats allowed, and
        # passes each a scaled gradient or, for a None scale, none
        nodes = [
            Tensor(data.draw(st.floats(-2, 2)), requires_grad=data.draw(st.booleans()))
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        scales = st.one_of(st.none(), st.just(-0.0), st.floats(-3, 3, allow_nan=False))
        for _ in range(data.draw(st.integers(1, 10))):
            picks = data.draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=3))
            inputs = [nodes[i] for i in picks]
            coefs = [data.draw(scales) for _ in inputs]
            nodes.append(
                custom_primitive(
                    sum(t.data for t in inputs),
                    inputs,
                    lambda g, coefs=coefs: [None if c is None else g * c for c in coefs],
                )
            )
        loss = nodes[-1]
        assert [id(t) for t in loss._toposort()] == [id(t) for t in dfs_postorder(loss)]
        expected = walk_leaf_grads(loss)
        for t in nodes:
            t.grad = np.full(t.data.shape, 7.0)
        loss.backward()
        for leaf, grad in expected:
            assert same_bits(leaf.grad, grad)
        walked = {id(t) for t in dfs_postorder(loss)}
        for t in nodes:
            if id(t) in walked and not t.requires_grad:
                assert t.grad is None

    def test_custom_primitive_backward_rule(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        doubled_grad = custom_primitive(x.data.copy(), [x], lambda g: [2.0 * g])
        sum_all(doubled_grad).backward()
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_all_primitives_pass_grad_check_at_random_points(self):
        rng = np.random.default_rng(10)
        edges = [[0, 1], [1, 2]]
        for trial in range(10):
            w1 = rand_param(rng, 3, 3)
            b1 = rand_param(rng, 3)
            v = rand_param(rng, 2)
            x = Tensor(rng.standard_normal((3, 3)))

            def f():
                h = relu(linear(x, w1, b1))
                h = spmm(assemble(3, edges, v), h)
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

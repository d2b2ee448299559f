"""Dense float64 tensors with reverse-mode differentiation.

The recorded operation graph doubles as the tape: every op returns a new
Tensor that references its inputs and carries a vector-Jacobian closure.
Every op, built in or registered through :func:`custom_primitive`, keeps
one contract: the closure takes the output gradient and returns one
gradient per input, in input order, or ``None`` for an input that needs
none, and writes to no tensor.  ``backward()`` is the only place that
allocates and adds up gradients.  It orders the tape by one iterative
depth-first postorder, resets every node's ``.grad`` to ``None``, then
walks that order once in reverse, skipping nodes that nothing reached.  It
adds with ``grad = g if grad is None else grad + g``, never in place, so a
closure may return its upstream array, a view or a read-only broadcast: a
non-leaf ``.grad`` may share memory and must be treated as read-only.  A
leaf that requires a gradient takes ``g + 0.0`` as its first one, its own
array with the bits of a sum started from zeros, and reads zeros if no
gradient reaches it.

Every backward takes its sums over rows with :func:`col_sum`, one BLAS
product by a vector of ones, and its products by a transposed weight with
:func:`times_transpose`, which multiplies by a contiguous copy of the
transpose.  The composed ops here (``_unbroadcast``, ``matmul``,
``linear``) and the fused ones built on ``custom_primitive`` (the GIN
layer and the edge scorer's MLP) share these two, so their gradients
agree bit for bit: BLAS does not add in numpy's order, and its product by
a transposed operand does not always give the sums of the product by its
contiguous copy.

A node holds its inputs and its closure, never its own output, so the tape
is acyclic: it is freed by reference counting as soon as the last reference
to its output (typically the loss) goes, without the cyclic collector.
An op whose inputs all have ``requires_grad=False`` records nothing.
Where an untaped forward needs no Tensor at all, it calls an op's array
kernel, which the op itself calls for its forward: ``_sigmoid`` for
``sigmoid``, ``_affine`` (with the shape checks) for ``linear`` and
``_layout_csr`` for the CSR of ``from_layout``.

Graph adjacencies are symmetric operators over an (E, 2) array of
undirected edges.  Their directed entries are sorted once per graph:
:func:`sort_entries` gives the CSR layout of a ``graphs.Graph``'s edges,
which the graph has checked, each entry's int32 column and the edge it
comes from, and :func:`concat_entries` joins the layouts of a batch's
graphs, shifted by their offsets, with no sort.  :func:`from_layout` puts
one weight tensor with a value per undirected edge on a layout, records no
tape node, and returns a :class:`WeightedSparse` whose CSR every layer of
one forward shares.  An op that applies the CSR takes the weight tensor as
its input and returns its gradient per edge through
``WeightedSparse.weight_grad``.  Because the operator is symmetric, the
backward multiplies by the same CSR and no transpose is made.
"""

from __future__ import annotations

import json
import math
import os
from typing import NamedTuple

import numpy as np
import scipy.sparse

__all__ = [
    "DimensionError",
    "Tensor",
    "WeightedSparse",
    "add",
    "col_sum",
    "concat_cols",
    "concat_entries",
    "cross_entropy_mean",
    "custom_primitive",
    "from_layout",
    "gather_rows",
    "linear",
    "load_params",
    "matmul",
    "mul",
    "relu",
    "reshape",
    "save_params",
    "segment_matrix",
    "segment_sum",
    "sigmoid",
    "sort_entries",
    "spmm",
    "sum_all",
    "times_transpose",
]


class DimensionError(ValueError):
    """Operand shapes do not line up."""


class Tensor:
    """A numpy float64 array plus the bookkeeping for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._prev: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _toposort(self) -> list["Tensor"]:
        # Iterative DFS postorder over each node's _prev in order, which makes
        # the order, and so the order in which gradients add up, deterministic.
        # Tensors hash by identity.  A node with no inputs is its own
        # postorder, so it is appended when first seen, never pushed.
        order: list[Tensor] = []
        visited = {self}
        stack = [(self, iter(self._prev))]
        while stack:
            node, children = stack[-1]
            for child in children:
                if child not in visited:
                    visited.add(child)
                    if child._prev:
                        stack.append((child, iter(child._prev)))
                        break
                    order.append(child)
            else:
                order.append(node)
                stack.pop()
        return order

    def backward(self) -> None:
        """Propagate d(self)/d(leaf) to every tensor reachable on the tape.

        Only defined for single-element outputs (losses).  Every node's
        ``.grad`` resets to ``None``, and the tape is walked once in reverse
        postorder, which sets the order in which gradients add up.  A leaf
        that requires a gradient gets its own array when its first gradient
        arrives, ``g + 0.0``, which has the bits of ``zeros + g``; a leaf
        that no gradient reaches reads zeros.  Two calls on the same tape
        therefore give bit-identical results.
        """
        if self.data.size != 1:
            raise DimensionError(
                f"backward() needs a scalar output, got shape {self.data.shape}"
            )
        order = self._toposort()
        leaves = []
        for node in order:
            node.grad = None
            if node._backward is None and node.requires_grad:
                leaves.append(node)
        if self.requires_grad:
            self.grad = np.ones_like(self.data)
            for node in reversed(order):
                vjp = node._backward
                if vjp is None or node.grad is None:
                    continue
                for t, g in zip(node._prev, vjp(node.grad)):
                    if g is None or not t.requires_grad:
                        continue
                    if t.grad is not None:
                        t.grad = t.grad + g
                    elif t._backward is None:
                        # a leaf's own array; + 0.0 turns -0.0 into +0.0, as
                        # a sum started from zeros does
                        t.grad = g + 0.0
                    else:
                        t.grad = g
        for leaf in leaves:
            if leaf.grad is None:
                leaf.grad = np.zeros_like(leaf.data)

    # Operator sugar; the module-level functions are the canonical ops.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(data: np.ndarray, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    """An op output, taped with its vjp only if some input needs a gradient."""
    out = Tensor(data)
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            out._prev = inputs
            out._backward = vjp
            break
    return out


def custom_primitive(data, inputs, vjp) -> Tensor:
    """Record an op with a caller-supplied backward rule.

    ``vjp(grad_out)`` keeps every op's contract: one gradient array, or
    ``None``, per input, in input order, and no write to any tensor.  It
    may return ``grad_out`` itself, since gradients are never added in place.
    """
    return _record(data, tuple([_lift(t) for t in inputs]), vjp)


def col_sum(a: np.ndarray) -> np.ndarray:
    """The sum of ``a`` over its leading axis, as one BLAS product by a vector of ones.

    numpy's ``sum(axis=0)`` runs one short inner loop per row; the product
    is one call.  The two agree to rounding, not bit for bit, so every
    backward sums its rows here.  No rows give zeros.
    """
    n = a.shape[0]
    return (np.ones(n) @ a.reshape(n, math.prod(a.shape[1:]))).reshape(a.shape[1:])


def times_transpose(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w.T``, multiplied by a contiguous copy of the transpose.

    BLAS takes a slower path for a transposed small operand, and its sums
    can differ from the copy's in the last bits, so every backward's
    product by a transposed weight is taken here.
    """
    return a @ np.ascontiguousarray(w.T)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = col_sum(grad)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            if axis == 0:
                grad = col_sum(grad)[np.newaxis]
            else:
                grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.data.shape} and {b.data.shape}") from None

    def _bp(grad):
        return (
            _unbroadcast(grad, a.data.shape) if a.requires_grad else None,
            _unbroadcast(grad, b.data.shape) if b.requires_grad else None,
        )

    return _record(data, (a, b), _bp)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.data.shape} and {b.data.shape}") from None

    def _bp(grad):
        return (
            _unbroadcast(grad * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(grad * a.data, b.data.shape) if b.requires_grad else None,
        )

    return _record(data, (a, b), _bp)


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: shapes {a.data.shape} and {b.data.shape}")
    data = a.data @ b.data

    def _bp(grad):
        return (
            times_transpose(grad, b.data) if a.requires_grad else None,
            a.data.T @ grad if b.requires_grad else None,
        )

    return _record(data, (a, b), _bp)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``linear``'s forward on arrays: x @ w + b, its shapes checked first."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"linear: shapes {x.shape} and {w.shape}")
    if b.shape != (w.shape[1],):
        raise DimensionError(f"linear: bias {b.shape} vs weight {w.shape}")
    # bit-identical to add(matmul(x, w), b), without the second taped op
    out = x @ w
    out += b
    return out


def linear(x, w, b) -> Tensor:
    """x @ w + b with b broadcast over rows."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    data = _affine(x.data, w.data, b.data)

    def _bp(grad):
        return (
            times_transpose(grad, w.data) if x.requires_grad else None,
            x.data.T @ grad if w.requires_grad else None,
            col_sum(grad) if b.requires_grad else None,
        )

    return _record(data, (x, w, b), _bp)


def relu(x) -> Tensor:
    x = _lift(x)
    # maximum lets NaN through; the subgradient at 0 is fixed to 0
    data = np.maximum(x.data, 0.0)
    mask = x.data > 0
    return _record(data, (x,), lambda grad: (grad * mask,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``sigmoid``'s forward on arrays: 1 / (1 + e) where x >= 0, else e / (1 + e).

    e = exp(-|x|) over the whole array, with no boolean gather or scatter.
    The exponent is picked by the same comparison (-x where x >= 0, else x)
    rather than taken as -|x|, so a NaN keeps its sign bit.  The numerator,
    1 or e, is picked before the one division.
    """
    pos = x >= 0
    e = np.where(pos, -x, x)
    np.exp(e, out=e)
    denom = e + 1.0
    out = np.where(pos, 1.0, e)
    out /= denom
    return out


def sigmoid(x) -> Tensor:
    """Overflow-free sigmoid, computed by ``_sigmoid``."""
    x = _lift(x)
    data = _sigmoid(x.data)
    return _record(data, (x,), lambda grad: (grad * data * (1.0 - data),))


def reshape(x, shape) -> Tensor:
    x = _lift(x)
    data = x.data.reshape(shape)
    return _record(data, (x,), lambda grad: (grad.reshape(x.data.shape),))


def concat_cols(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise DimensionError(f"concat_cols: shapes {a.data.shape} and {b.data.shape}")
    data = np.concatenate([a.data, b.data], axis=1)
    split = a.data.shape[1]

    def _bp(grad):
        return (
            grad[:, :split] if a.requires_grad else None,
            grad[:, split:] if b.requires_grad else None,
        )

    return _record(data, (a, b), _bp)


def gather_rows(x, index) -> Tensor:
    x = _lift(x)
    index = np.asarray(index, dtype=np.intp)
    data = x.data[index]

    def _bp(grad):
        gx = np.zeros_like(x.data)
        np.add.at(gx, index, grad)
        return (gx,)

    return _record(data, (x,), _bp)


def segment_sum(x, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of x into num_segments buckets given per-row segment ids.

    One product with a (num_segments, rows) CSR of ones whose row s lists
    the rows of segment s in their original order, so every bucket adds its
    rows in the same order as ``np.add.at`` and the sums are bit-identical.
    """
    x = _lift(x)
    segment_ids = np.asarray(segment_ids, dtype=np.intp)
    if x.data.ndim not in (1, 2) or segment_ids.shape != (x.data.shape[0],):
        raise DimensionError(
            f"segment_sum: ids {segment_ids.shape} vs rows {x.data.shape}"
        )
    if segment_ids.size and (segment_ids.min() < 0 or segment_ids.max() >= num_segments):
        bad = segment_ids[(segment_ids < 0) | (segment_ids >= num_segments)][0]
        raise DimensionError(
            f"segment_sum: segment id {bad} outside 0..{num_segments - 1}"
            f" for num_segments={num_segments}"
        )
    data = segment_matrix(segment_ids, num_segments) @ x.data
    return _record(data, (x,), lambda grad: (grad[segment_ids],))


def segment_matrix(segment_ids: np.ndarray, num_segments: int) -> scipy.sparse.csr_matrix:
    """The (num_segments, rows) CSR of ones whose row s lists, in order, the rows with id s.

    A product by it sums each segment's rows in their order, bit for bit as
    ``np.add.at`` into zeros does.  The ids must lie in 0..num_segments - 1.
    Its index arrays are built as the int32 that scipy keeps for fewer than
    2**31 rows, and ``_csr`` puts them in a CSR without scipy's checks.
    """
    rows = segment_ids.size
    index = np.int32 if rows < 2**31 else np.int64
    indptr = np.empty(num_segments + 1, dtype=index)
    indptr[0] = 0
    np.cumsum(np.bincount(segment_ids, minlength=num_segments), out=indptr[1:])
    order = np.argsort(segment_ids, kind="stable").astype(index)
    return _csr(np.ones(rows), order, indptr, (num_segments, rows))


# what scipy's CSR constructor sets besides the three arrays and the shape
_CSR_ATTRIBUTES = {
    name: value
    for name, value in vars(scipy.sparse.csr_matrix((0, 0))).items()
    if name not in ("_shape", "data", "indices", "indptr")
}


def _csr(data, indices, indptr, shape) -> scipy.sparse.csr_matrix:
    """The scipy CSR of three arrays that this package builds valid, with no scipy checks.

    ``data`` is float64, ``indices`` and ``indptr`` share the integer dtype
    that scipy picks for them (int32 below 2**31 indices) and each row's
    columns ascend with no repeat.  scipy's constructor keeps such arrays
    as they are, but first re-derives their dtype and checks the format,
    on every call: in a training step that took several times as long as
    the product by the CSR.  This sets the attributes that the constructor
    sets, to the values it would set; ``tests/test_autodiff.py`` compares
    the two for every kind of CSR the package builds.
    """
    csr = scipy.sparse.csr_matrix.__new__(scipy.sparse.csr_matrix)
    vars(csr).update(
        _CSR_ATTRIBUTES,
        _shape=(int(shape[0]), int(shape[1])),
        data=data,
        indices=indices,
        indptr=indptr,
    )
    return csr


def sum_all(x) -> Tensor:
    x = _lift(x)
    data = np.asarray(x.data.sum())
    return _record(data, (x,), lambda grad: (np.broadcast_to(grad, x.data.shape),))


class WeightedSparse(NamedTuple):
    """The symmetric n x n adjacency of undirected edges, weighted per edge.

    Edge k = (i, j) of the (E, 2) intp ``edges``, i != j, stands for the two
    directed entries (i, j) and (j, i) of ``csr``, both weighted
    ``weights[k]``; n is ``csr.shape[0]``.  Built by ``from_layout``; the CSR
    holds the weights as they were at assembly.
    """

    edges: np.ndarray
    weights: Tensor
    csr: scipy.sparse.csr_matrix

    def weight_grad(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        """d<g, A x>/d w_k = g_i . x_j + g_j . x_i for each edge k = (i, j)."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        gi = g.take(i, axis=0)
        gi *= x.take(j, axis=0)
        gj = g.take(j, axis=0)
        gj *= x.take(i, axis=0)
        # numpy's row sums, not BLAS dots: the tests' directed-entry oracle adds this way
        return gi.sum(axis=1) + gj.sum(axis=1)


def sort_entries(n: int, edges) -> np.ndarray:
    """The CSR layout of the n x n symmetric adjacency of the (E, 2) undirected ``edges``.

    One int32 array of 4E values: the columns of the 2E directed entries in
    row-major order, then the edge each entry comes from.  The row pointers
    are the running sum of the node degrees and need no sort, so
    ``from_layout`` counts them.  The columns are exactly the first half of
    the array, so scipy keeps a view of them instead of a copy.  ``edges``
    are a ``Graph``'s, which ``Graph`` has checked: in range, with no
    self-loop and no pair given twice.  An n of 2**31 or more, which int32
    indices cannot hold, is rejected before anything n-sized is allocated.
    """
    if n >= 2**31:
        raise DimensionError(
            f"sort_entries: {n} nodes do not fit the int32 CSR indices (n < 2**31)"
        )
    edges = np.asarray(edges, dtype=np.intp)
    # entry 2k is (i, j) and 2k + 1 is (j, i); the flat indices i * n + j
    # are distinct, so any sort of them gives the row-major order
    rows, cols = edges.reshape(-1), edges[:, ::-1].reshape(-1)
    perm = np.argsort(rows * n + cols)
    return np.concatenate((cols[perm], perm >> 1), dtype=np.int32)


def concat_entries(layouts, node_offsets: np.ndarray, edge_offsets: np.ndarray) -> np.ndarray:
    """The layout of the block-diagonal adjacency of graphs with these ``sort_entries`` layouts.

    Graph g's nodes start at ``node_offsets[g]`` and its edges at
    ``edge_offsets[g]``; both arrays end with the totals.  Its columns and
    edge numbers move by those offsets.  The blocks are disjoint, so every
    row keeps its columns in order and the result equals ``sort_entries`` of
    the shifted edges.  A total node or entry count of 2**31 or more, which
    int32 cannot hold, is rejected, naming both, before ``layouts``, any
    iterable, is read.
    """
    n, m = int(node_offsets[-1]), 2 * int(edge_offsets[-1])
    if n >= 2**31 or m >= 2**31:
        raise DimensionError(
            f"concat_entries: {n} nodes and {m} directed entries do not fit the"
            f" int32 CSR indices (both must be < 2**31)"
        )
    layout = np.empty(2 * m, dtype=np.int32)
    cols, edge_ids = [], []
    for a in layouts:
        half = len(a) // 2
        cols.append(a[:half])
        edge_ids.append(a[half:])
    if cols:
        np.concatenate(cols + edge_ids, out=layout)
    counts = 2 * np.diff(edge_offsets)
    layout[:m] += np.repeat(node_offsets[:-1].astype(np.int32), counts)
    layout[m:] += np.repeat(edge_offsets[:-1].astype(np.int32), counts)
    return layout


def from_layout(n: int, edges, weights, layout: np.ndarray) -> WeightedSparse:
    """The adjacency of the (E, 2) ``edges`` on their ``sort_entries`` ``layout``.

    Each directed entry takes its edge's weight from ``weights``, one per
    edge, or 1 when ``weights`` is None: unit weights, held as one float64
    broadcast to E entries.  The row pointers are the running sum of the
    degrees; nothing is sorted or checked, and the CSR's columns are a view
    of the layout, not a copy.
    """
    if weights is None:
        weights = Tensor(np.broadcast_to(1.0, (len(edges),)))
        return WeightedSparse(edges, weights, _layout_csr(n, edges, None, layout))
    weights = _lift(weights)
    return WeightedSparse(edges, weights, _layout_csr(n, edges, weights.data, layout))


def _layout_csr(n: int, edges, values, layout: np.ndarray) -> scipy.sparse.csr_matrix:
    """``from_layout``'s CSR alone: ``values`` is an array of edge weights or None.

    Builds no Tensor; an untaped forward, which reads no weight tensor,
    multiplies by it directly.
    """
    half = len(layout) // 2
    if values is None:
        data = np.ones(half)
    else:
        if values.shape != (len(edges),):
            raise DimensionError(f"edge weights {values.shape} vs {len(edges)} edges")
        data = values[layout[half:]]
    indptr = np.empty(n + 1, dtype=np.int32)
    indptr[0] = 0
    np.cumsum(np.bincount(edges.reshape(-1), minlength=n), out=indptr[1:])
    return _csr(data, layout[:half], indptr, (n, n))


def spmm(adj: WeightedSparse, x) -> Tensor:
    """A @ x; differentiable in both the edge weights and x.

    A is symmetric, so the x-gradient A.T @ g is A @ g: backward multiplies
    by the forward CSR, whose rows add their entries in the same order as
    the columns of its transpose.
    """
    x = _lift(x)
    weights, n = adj.weights, adj.csr.shape[0]
    if x.data.ndim != 2 or x.data.shape[0] != n:
        raise DimensionError(f"spmm: operand {x.data.shape} vs {n}x{n}")
    data = adj.csr @ x.data

    def _bp(grad):
        return (
            adj.weight_grad(grad, x.data) if weights.requires_grad else None,
            adj.csr @ grad if x.requires_grad else None,
        )

    return _record(data, (weights, x), _bp)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_mean(logits, targets) -> Tensor:
    """Mean -log softmax(logits)[target] over a batch of logit rows.

    A batch of no rows has no mean and raises a ValueError.
    """
    logits = _lift(logits)
    targets = np.asarray(targets, dtype=np.intp)
    if logits.data.ndim != 2 or targets.shape != (logits.data.shape[0],):
        raise DimensionError(
            f"cross_entropy_mean: logits {logits.data.shape} vs targets {targets.shape}"
        )
    if not targets.size:
        raise ValueError("cross_entropy_mean: empty batch, no logit rows to average")
    if targets.min() < 0 or targets.max() >= logits.data.shape[1]:
        raise ValueError("target class out of range")
    log_probs = _log_softmax(logits.data)
    rows = np.arange(targets.size)
    data = np.asarray(-log_probs[rows, targets].mean())

    def _bp(grad):
        g = np.exp(log_probs)
        g[rows, targets] -= 1.0
        return (g * (grad / targets.size),)

    return _record(data, (logits,), _bp)


def save_params(params: dict[str, Tensor], path: str | os.PathLike) -> None:
    """Write a flat name -> {shape, values} JSON checkpoint (atomic).

    Refuses a parameter with a non-finite value, naming it, and then writes
    nothing: JSON has no NaN or infinity.
    """
    for name, t in params.items():
        if not np.isfinite(t.data).all():
            raise ValueError(f"{path}: parameter '{name}' has a non-finite value")
    doc = {
        name: {"shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
        for name, t in params.items()
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def load_params(path: str | os.PathLike) -> dict[str, Tensor]:
    """Read a ``save_params`` checkpoint into trainable tensors.

    Unreadable JSON, an entry without ``shape`` or ``values``, a value count
    that does not fit the shape and a non-finite value each raise a
    ValueError that names the file and, where there is one, the parameter.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValueError(f"{path}: unreadable checkpoint JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected an object of parameters, got {type(doc).__name__}")
    out = {}
    for name, entry in doc.items():
        where = f"{path}: parameter '{name}'"
        if not isinstance(entry, dict) or not {"shape", "values"} <= entry.keys():
            raise ValueError(f"{where} needs both 'shape' and 'values'")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"{where} has shape {shape!r}, expected a list of sizes")
        try:
            values = np.array(entry["values"], dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError(f"{where} has non-numeric values") from None
        if values.ndim != 1 or values.size != math.prod(shape):
            raise ValueError(f"{where} has {values.size} values for shape {tuple(shape)}")
        if not np.isfinite(values).all():
            k = np.flatnonzero(~np.isfinite(values))[0]
            raise ValueError(f"{where} has the non-finite value {values[k]} at index {k}")
        out[name] = Tensor(values.reshape(shape), requires_grad=True)
    return out

"""Dense float64 tensors with reverse-mode differentiation.

The recorded operation graph doubles as the tape: every op returns a new
Tensor that references its inputs and carries a vector-Jacobian closure.
Every op, built in or registered through :func:`custom_primitive`, keeps
one contract: the closure takes the output gradient and returns one
gradient per input, in input order, or ``None`` for an input that needs
none, and writes to no tensor.  ``backward()`` is the only place that
allocates and adds up gradients.  It resets leaves that require a gradient
to zeros and every other node to ``None``, then walks the tape once in
reverse topological order, skipping nodes that nothing reached.  It adds
with ``grad = g if grad is None else grad + g``, never in place, so a
closure may return its upstream array, a view or a read-only broadcast: a
non-leaf ``.grad`` may share memory and must be treated as read-only.

A node holds its inputs and its closure, never its own output, so the tape
is acyclic: it is freed by reference counting as soon as the last reference
to its output (typically the loss) goes, without the cyclic collector.
An op whose inputs all have ``requires_grad=False`` records nothing.

Graph adjacencies are :class:`SparseMatrix` objects: symmetric operators
over an (E, 2) array of undirected edges.  The directed entries exist only
inside them, in the CSR template.  ``assemble`` takes one weight tensor
with a value per undirected edge, records no tape node, and builds the CSR
that every layer shares.  An op that applies it takes that weight tensor as
its input and returns its gradient per edge through
``SparseMatrix.weight_grad``.  Because the operator is symmetric, the
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
    "SparseMatrix",
    "WeightedSparse",
    "add",
    "concat_cols",
    "cross_entropy_mean",
    "custom_primitive",
    "gather_rows",
    "linear",
    "load_params",
    "matmul",
    "mul",
    "relu",
    "reshape",
    "save_params",
    "segment_sum",
    "sigmoid",
    "spmm",
    "sum_all",
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
        # Iterative DFS postorder; _prev tuples make the order deterministic.
        order: list[Tensor] = []
        visited = {id(self)}
        stack: list[tuple[Tensor, iter]] = [(self, iter(self._prev))]
        while stack:
            node, children = stack[-1]
            child = next((c for c in children if id(c) not in visited), None)
            if child is None:
                order.append(node)
                stack.pop()
            else:
                visited.add(id(child))
                stack.append((child, iter(child._prev)))
        return order

    def backward(self) -> None:
        """Propagate d(self)/d(leaf) to every tensor reachable on the tape.

        Only defined for single-element outputs (losses).  Leaves that
        require a gradient reset to zeros, every other node to ``None``;
        two calls on the same tape therefore give bit-identical results.
        """
        if self.data.size != 1:
            raise DimensionError(
                f"backward() needs a scalar output, got shape {self.data.shape}"
            )
        order = self._toposort()
        for node in order:
            leaf = node.requires_grad and node._backward is None
            node.grad = np.zeros_like(node.data) if leaf else None
        if not self.requires_grad:
            return
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            for t, g in zip(node._prev, node._backward(node.grad)):
                if g is not None and t.requires_grad:
                    t.grad = g if t.grad is None else t.grad + g

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
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._prev = inputs
        out._backward = vjp
    return out


def custom_primitive(data, inputs, vjp) -> Tensor:
    """Record an op with a caller-supplied backward rule.

    ``vjp(grad_out)`` keeps every op's contract: one gradient array, or
    ``None``, per input, in input order, and no write to any tensor.  It
    may return ``grad_out`` itself, since gradients are never added in place.
    """
    return _record(np.asarray(data, dtype=np.float64), tuple(_lift(t) for t in inputs), vjp)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
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
            grad @ b.data.T if a.requires_grad else None,
            a.data.T @ grad if b.requires_grad else None,
        )

    return _record(data, (a, b), _bp)


def linear(x, w, b) -> Tensor:
    """x @ w + b with b broadcast over rows."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise DimensionError(f"linear: shapes {x.data.shape} and {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise DimensionError(f"linear: bias {b.data.shape} vs weight {w.data.shape}")
    # bit-identical to add(matmul(x, w), b), without the second taped op
    data = x.data @ w.data
    data += b.data

    def _bp(grad):
        return (
            grad @ w.data.T if x.requires_grad else None,
            x.data.T @ grad if w.requires_grad else None,
            grad.sum(axis=0) if b.requires_grad else None,
        )

    return _record(data, (x, w, b), _bp)


def relu(x) -> Tensor:
    x = _lift(x)
    # maximum lets NaN through; the subgradient at 0 is fixed to 0
    data = np.maximum(x.data, 0.0)
    mask = x.data > 0
    return _record(data, (x,), lambda grad: (grad * mask,))


def sigmoid(x) -> Tensor:
    x = _lift(x)
    data = np.empty_like(x.data)
    pos = x.data >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    data[~pos] = ex / (1.0 + ex)
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
    counts = np.bincount(segment_ids, minlength=num_segments)
    pool = scipy.sparse.csr_matrix(
        (
            np.ones(segment_ids.size),
            np.argsort(segment_ids, kind="stable"),
            np.concatenate(([0], np.cumsum(counts))),
        ),
        shape=(num_segments, segment_ids.size),
    )
    data = pool @ x.data
    return _record(data, (x,), lambda grad: (grad[segment_ids],))


def sum_all(x) -> Tensor:
    x = _lift(x)
    data = np.asarray(x.data.sum())
    return _record(data, (x,), lambda grad: (np.broadcast_to(grad, x.data.shape),))


class SparseMatrix:
    """The symmetric n x n adjacency of undirected edges, weighted per edge.

    Edge k = (i, j) of the (E, 2) ``edges`` array, i != j, stands for the two
    directed entries (i, j) and (j, i); they exist only in the CSR template
    built here, where each entry records the edge it came from.
    ``assemble`` takes one weight per undirected edge and gives both of its
    entries that weight; ``weight_grad`` maps a product's gradient back to
    one value per edge.
    """

    __slots__ = ("n", "edges", "_entry_edge", "_indices", "_indptr")

    def __init__(self, n: int, edges):
        edges = np.asarray(edges, dtype=np.intp)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise DimensionError(f"sparse edges: shape {edges.shape}, expected (E, 2)")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise DimensionError(f"sparse edge endpoint out of range for {n} nodes")
        if (edges[:, 0] == edges[:, 1]).any():
            raise DimensionError("sparse edges: a self-loop has no symmetric pair of entries")
        self.n = n
        self.edges = edges
        # entry 2k is (i, j) and 2k + 1 is (j, i); a stable sort of the flat
        # index puts them in row-major order, as lexsort((cols, rows)) would
        rows, cols = edges.reshape(-1), edges[:, ::-1].reshape(-1)
        perm = np.argsort(rows * n + cols, kind="stable")
        self._entry_edge = perm // 2
        self._indices = cols[perm].astype(np.int32, copy=False)
        counts = np.bincount(rows, minlength=n)
        self._indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def assemble(self, weights) -> "WeightedSparse":
        """The adjacency with these per-edge weights, as one CSR.

        Records no tape node: the ops that apply the CSR take ``weights``
        as their input and return its gradient through ``weight_grad``.
        """
        weights = _lift(weights)
        if weights.data.shape != (self.num_edges,):
            raise DimensionError(
                f"assemble: weights {weights.data.shape} vs {self.num_edges} edges"
            )
        csr = scipy.sparse.csr_matrix(
            (weights.data[self._entry_edge], self._indices, self._indptr),
            shape=(self.n, self.n),
        )
        return WeightedSparse(self, weights, csr)

    def weight_grad(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        """d<g, A x>/d w_k = g_i . x_j + g_j . x_i for each edge k = (i, j)."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        return (g[i] * x[j]).sum(axis=1) + (g[j] * x[i]).sum(axis=1)


class WeightedSparse(NamedTuple):
    """An adjacency, its per-edge weights and their CSR, from ``assemble``.

    Assemble once per forward and hand the result to every ``spmm`` that
    applies it.  The CSR holds the weights as they were at assembly.
    """

    pattern: SparseMatrix
    weights: Tensor
    csr: scipy.sparse.csr_matrix


def spmm(adj: WeightedSparse, x) -> Tensor:
    """A @ x; differentiable in both the edge weights and x.

    A is symmetric, so the x-gradient A.T @ g is A @ g: backward multiplies
    by the forward CSR, whose rows add their entries in the same order as
    the columns of its transpose.
    """
    x = _lift(x)
    pattern, weights = adj.pattern, adj.weights
    if x.data.ndim != 2 or x.data.shape[0] != pattern.n:
        raise DimensionError(f"spmm: operand {x.data.shape} vs {pattern.n}x{pattern.n}")
    data = adj.csr @ x.data

    def _bp(grad):
        return (
            pattern.weight_grad(grad, x.data) if weights.requires_grad else None,
            adj.csr @ grad if x.requires_grad else None,
        )

    return _record(data, (weights, x), _bp)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_mean(logits, targets) -> Tensor:
    """Mean -log softmax(logits)[target] over a batch of logit rows."""
    logits = _lift(logits)
    targets = np.asarray(targets, dtype=np.intp)
    if logits.data.ndim != 2 or targets.shape != (logits.data.shape[0],):
        raise DimensionError(
            f"cross_entropy_mean: logits {logits.data.shape} vs targets {targets.shape}"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= logits.data.shape[1]):
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

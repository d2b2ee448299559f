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
over undirected edges that own their directed entries.  ``assemble`` takes
one weight per undirected edge and builds the CSR that every layer's
``spmm`` shares; because the operator is symmetric, ``spmm``'s backward
multiplies by that same CSR and no transpose is made.
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
    "grad_check",
    "linear",
    "load_params",
    "matmul",
    "mul",
    "relu",
    "reshape",
    "save_params",
    "segment_sum",
    "sigmoid",
    "softmax_cross_entropy",
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

    Edge k = (i, j) of the (E, 2) ``edges`` array, i != j, is stored as the
    two directed entries (i, j) and (j, i) at positions 2k and 2k + 1.  The
    entries and their CSR template are built once here; ``assemble`` takes
    one weight per undirected edge and gives both entries that weight.
    """

    __slots__ = ("n", "num_edges", "rows", "cols", "_dir_to_edge", "_perm", "_indices", "_indptr")

    def __init__(self, n: int, edges):
        edges = np.asarray(edges, dtype=np.intp)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise DimensionError(f"sparse edges: shape {edges.shape}, expected (E, 2)")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise DimensionError(f"sparse edge endpoint out of range for {n} nodes")
        if (edges[:, 0] == edges[:, 1]).any():
            raise DimensionError("sparse edges: a self-loop has no symmetric pair of entries")
        self.n = n
        self.num_edges = len(edges)
        self.rows = edges.reshape(-1)
        self.cols = edges[:, ::-1].reshape(-1)
        self._dir_to_edge = np.repeat(np.arange(len(edges), dtype=np.intp), 2)
        # row-major order of the entries; a stable sort of the flat index
        # gives the same permutation as lexsort((cols, rows)) in one pass
        self._perm = np.argsort(self.rows * n + self.cols, kind="stable")
        self._indices = self.cols[self._perm].astype(np.int32, copy=False)
        counts = np.bincount(self.rows, minlength=n)
        self._indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)

    def assemble(self, weights) -> "WeightedSparse":
        """The adjacency with these per-edge weights, as one CSR.

        The weights reach the directed entries through one taped
        ``gather_rows``, so a mask gradient sums each edge's two entries
        after every layer's contribution has been added to them.
        """
        weights = _lift(weights)
        if weights.data.shape != (self.num_edges,):
            raise DimensionError(
                f"assemble: weights {weights.data.shape} vs {self.num_edges} edges"
            )
        directed = gather_rows(weights, self._dir_to_edge)
        csr = scipy.sparse.csr_matrix(
            (directed.data[self._perm], self._indices, self._indptr),
            shape=(self.n, self.n),
        )
        return WeightedSparse(self, directed, csr)


class WeightedSparse(NamedTuple):
    """An adjacency, its directed entry weights and their CSR, from ``assemble``.

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
            (grad[pattern.rows] * x.data[pattern.cols]).sum(axis=1)
            if weights.requires_grad
            else None,
            adj.csr @ grad if x.requires_grad else None,
        )

    return _record(data, (weights, x), _bp)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_cross_entropy(logits, target: int) -> Tensor:
    """-log softmax(logits)[target] for a single logit vector."""
    logits = _lift(logits)
    if logits.data.ndim != 1 or logits.data.shape[0] < 2:
        raise DimensionError(f"softmax_cross_entropy: logits {logits.data.shape}")
    target = int(target)
    if not 0 <= target < logits.data.shape[0]:
        raise ValueError(f"target {target} out of range for {logits.data.shape[0]} classes")
    log_probs = _log_softmax(logits.data)
    data = np.asarray(-log_probs[target])

    def _bp(grad):
        g = np.exp(log_probs)
        g[target] -= 1.0
        return (g * grad,)

    return _record(data, (logits,), _bp)


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


def grad_check(f, params, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f()`` must rebuild a scalar Tensor from the given parameter tensors on
    every call.  Error per coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    if not 1e-6 <= h <= 1e-4:
        raise ValueError(f"step size {h} outside [1e-6, 1e-4]")
    if isinstance(params, dict):
        params = list(params.values())
    out = f()
    out.backward()
    if not np.isfinite(out.data).all():
        raise FloatingPointError("non-finite value in forward pass")
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f().data)
            flat[i] = orig - h
            f_minus = float(f().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            if not np.isfinite(numeric):
                raise FloatingPointError("non-finite value in finite-difference probe")
            a_i = a.reshape(-1)[i]
            worst = max(worst, abs(a_i - numeric) / max(1.0, abs(a_i)))
    return worst


def save_params(params: dict[str, Tensor], path: str | os.PathLike) -> None:
    """Write a flat name -> {shape, values} JSON checkpoint (atomic)."""
    doc = {
        name: {"shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
        for name, t in params.items()
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def load_params(path: str | os.PathLike) -> dict[str, Tensor]:
    with open(path) as fh:
        doc = json.load(fh)
    out = {}
    for name, entry in doc.items():
        values = np.array(entry["values"], dtype=np.float64)
        shape = tuple(entry["shape"])
        if values.ndim != 1 or values.size != math.prod(shape):
            raise ValueError(
                f"{path}: parameter '{name}' has {values.size} values for shape {shape}"
            )
        out[name] = Tensor(values.reshape(shape), requires_grad=True)
    return out

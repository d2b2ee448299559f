"""Dense float64 tensors with reverse-mode differentiation.

The recorded operation graph doubles as the tape: every op returns a new
Tensor that references its inputs and carries a closure that receives the
output gradient and pushes it back to them.  ``backward()`` walks the tape
once in reverse topological order.  Gradients are re-zeroed at the start of
every backward pass, so repeated passes over the same tape are bit-identical.

A closure holds its inputs but never its own output, so the tape is acyclic:
it is freed by reference counting as soon as the last reference to its
output (typically the loss) goes, without waiting for the cyclic collector.
An op whose inputs all have ``requires_grad=False`` records nothing.

Ops that need a non-standard backward rule (e.g. straight-through
binarization) are registered through :func:`custom_primitive` instead of
being hard-coded here.
"""

from __future__ import annotations

import json
import math
import os

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
            advanced = False
            for child in children:
                if id(child) not in visited:
                    visited.add(id(child))
                    stack.append((child, iter(child._prev)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        return order

    def backward(self) -> None:
        """Propagate d(self)/d(leaf) to every tensor reachable on the tape.

        Only defined for single-element outputs (losses).  All gradients on
        the tape are reset first; two calls on the same tape therefore give
        bit-identical results.
        """
        if self.data.size != 1:
            raise DimensionError(
                f"backward() needs a scalar output, got shape {self.data.shape}"
            )
        order = self._toposort()
        for node in order:
            if node.requires_grad:
                node.grad = np.zeros_like(node.data)
        if not self.requires_grad:
            return
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    # Operator sugar; the module-level functions are the canonical ops.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(_lift(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(_lift(other), -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(data: np.ndarray, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """Wrap data as an op output; tape it only if some input needs a gradient.

    ``backward(grad)`` receives the output gradient and accumulates into the
    inputs' ``.grad``.
    """
    out = Tensor(data)
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._prev = inputs
        out._backward = backward
    return out


def custom_primitive(data, inputs, vjp) -> Tensor:
    """Record an op with a caller-supplied backward rule.

    ``vjp(grad_out)`` must return one gradient array (or None) per input,
    in input order.
    """
    inputs = tuple(_lift(t) for t in inputs)

    def _bp(grad):
        for t, g in zip(inputs, vjp(grad)):
            if t.requires_grad and g is not None:
                t.grad += g

    return _record(np.asarray(data, dtype=np.float64), inputs, _bp)


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
        if a.requires_grad:
            a.grad += _unbroadcast(grad, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(grad, b.data.shape)

    return _record(data, (a, b), _bp)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.data.shape} and {b.data.shape}") from None

    def _bp(grad):
        if a.requires_grad:
            a.grad += _unbroadcast(grad * b.data, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(grad * a.data, b.data.shape)

    return _record(data, (a, b), _bp)


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: shapes {a.data.shape} and {b.data.shape}")
    data = a.data @ b.data

    def _bp(grad):
        if a.requires_grad:
            a.grad += grad @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ grad

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
        if x.requires_grad:
            x.grad += grad @ w.data.T
        if w.requires_grad:
            w.grad += x.data.T @ grad
        if b.requires_grad:
            b.grad += grad.sum(axis=0)

    return _record(data, (x, w, b), _bp)


def relu(x) -> Tensor:
    x = _lift(x)
    mask = x.data > 0  # subgradient at 0 fixed to 0
    data = np.where(mask, x.data, 0.0)

    def _bp(grad):
        x.grad += grad * mask

    return _record(data, (x,), _bp)


def sigmoid(x) -> Tensor:
    x = _lift(x)
    data = np.empty_like(x.data)
    pos = x.data >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    data[~pos] = ex / (1.0 + ex)

    def _bp(grad):
        x.grad += grad * data * (1.0 - data)

    return _record(data, (x,), _bp)


def reshape(x, shape) -> Tensor:
    x = _lift(x)
    data = x.data.reshape(shape)

    def _bp(grad):
        x.grad += grad.reshape(x.data.shape)

    return _record(data, (x,), _bp)


def concat_cols(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise DimensionError(f"concat_cols: shapes {a.data.shape} and {b.data.shape}")
    data = np.concatenate([a.data, b.data], axis=1)
    split = a.data.shape[1]

    def _bp(grad):
        if a.requires_grad:
            a.grad += grad[:, :split]
        if b.requires_grad:
            b.grad += grad[:, split:]

    return _record(data, (a, b), _bp)


def gather_rows(x, index) -> Tensor:
    x = _lift(x)
    index = np.asarray(index, dtype=np.intp)
    data = x.data[index]

    def _bp(grad):
        np.add.at(x.grad, index, grad)

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

    def _bp(grad):
        x.grad += grad[segment_ids]

    return _record(data, (x,), _bp)


def sum_all(x) -> Tensor:
    x = _lift(x)
    data = np.asarray(x.data.sum())

    def _bp(grad):
        x.grad += np.broadcast_to(grad, x.data.shape)

    return _record(data, (x,), _bp)


class SparseMatrix:
    """Fixed-pattern sparse operator in coordinate form.

    The pattern (rows, cols) is frozen at construction; per-entry weights are
    supplied at assembly time so masked adjacencies stay differentiable
    with respect to the weights.  A CSR template is precomputed once.
    """

    __slots__ = ("n_rows", "n_cols", "rows", "cols", "_perm", "_indices", "_indptr")

    def __init__(self, n_rows: int, n_cols: int, rows, cols):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise DimensionError(
                f"sparse entries: rows {rows.shape} vs cols {cols.shape}"
            )
        if rows.size and (
            rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols
        ):
            raise DimensionError(f"sparse entry index out of range for {n_rows}x{n_cols}")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.rows = rows
        self.cols = cols
        # row-major order of the entries; a stable sort of the flat index
        # gives the same permutation as lexsort((cols, rows)) in one pass
        self._perm = np.argsort(rows * n_cols + cols, kind="stable")
        self._indices = cols[self._perm].astype(np.int32, copy=False)
        counts = np.bincount(rows, minlength=n_rows)
        self._indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)

    @property
    def nnz(self) -> int:
        return self.rows.size

    def assemble(self, weights) -> "WeightedSparse":
        """The pattern with these per-entry weights, as one CSR."""
        weights = _lift(weights)
        if weights.data.shape != (self.nnz,):
            raise DimensionError(f"assemble: weights {weights.data.shape} vs nnz {self.nnz}")
        csr = scipy.sparse.csr_matrix(
            (weights.data[self._perm], self._indices, self._indptr),
            shape=(self.n_rows, self.n_cols),
        )
        return WeightedSparse(self, weights, csr)


class WeightedSparse:
    """A SparseMatrix pattern, its weights and their CSR, from ``assemble``.

    Assemble once per forward and hand the result to every ``spmm`` that
    applies it.  The CSR holds the weights as they were at assembly; its
    transpose is made on first use and shared by every backward after it.
    """

    __slots__ = ("pattern", "weights", "csr", "_csr_t")

    def __init__(self, pattern: SparseMatrix, weights: Tensor, csr: scipy.sparse.csr_matrix):
        self.pattern = pattern
        self.weights = weights
        self.csr = csr
        self._csr_t = None

    @property
    def csr_t(self):
        if self._csr_t is None:
            self._csr_t = self.csr.T
        return self._csr_t


def spmm(adj: WeightedSparse, x) -> Tensor:
    """Sparse-times-dense product; differentiable in both the weights and x."""
    x = _lift(x)
    pattern, weights = adj.pattern, adj.weights
    if x.data.ndim != 2 or x.data.shape[0] != pattern.n_cols:
        raise DimensionError(
            f"spmm: operand {x.data.shape} vs {pattern.n_rows}x{pattern.n_cols}"
        )
    data = adj.csr @ x.data

    def _bp(grad):
        if weights.requires_grad and pattern.nnz:
            weights.grad += (grad[pattern.rows] * x.data[pattern.cols]).sum(axis=1)
        if x.requires_grad:
            x.grad += adj.csr_t @ grad

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
        logits.grad += g * grad

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
        logits.grad += g * (grad / targets.size)

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

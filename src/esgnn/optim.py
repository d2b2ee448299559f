"""Adam optimizer over flat name -> Tensor parameter maps.

An ``AdamState`` is bound to one map at construction.  The moments of all
its parameters live in two flat arrays, laid out in the map's order;
``AdamState.m[name]`` and ``.v[name]`` are views into them.  One step
concatenates the gradients, checks them once for non-finite values,
updates the moments and computes the whole update in one pass of vector
operations, in place in two buffers of the same layout, then
subtracts from each parameter its view of the update.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

__all__ = ["AdamState", "TrainingError", "step_from_gradients"]

# Adam's moment decay rates and denominator guard (Kingma & Ba defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class TrainingError(RuntimeError):
    """Raised when optimization hits non-finite values."""


class AdamState:
    """The parameter map, its first/second moment estimates and the step counter.

    The state keeps its own copy of the map, so adding or removing a key of
    the caller's dict later changes nothing that it steps.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = dict(params)
        self.step = 0
        sizes = [p.data.size for p in self.params.values()]
        ends = np.cumsum(sizes, dtype=np.intp).tolist()
        self._bounds = [(end - size, end) for size, end in zip(sizes, ends)]
        self._m_flat = np.zeros(sum(sizes))
        self._v_flat = np.zeros(sum(sizes))
        # a step's update is written to the first buffer
        self._buffers = (np.empty(sum(sizes)), np.empty(sum(sizes)))
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._updates = []
        for (name, p), (a, b) in zip(self.params.items(), self._bounds):
            self.m[name] = self._m_flat[a:b].reshape(p.data.shape)
            self.v[name] = self._v_flat[a:b].reshape(p.data.shape)
            self._updates.append(self._buffers[0][a:b].reshape(p.data.shape))


def step_from_gradients(state: AdamState, lr: float) -> None:
    """One bias-corrected Adam step, in place on the state's params, from their ``.grad``."""
    params = state.params
    g = np.concatenate([p.grad for p in params.values()] or [np.zeros(0)], axis=None)
    if g.dtype != np.float64 or g.size != state._m_flat.size:
        for name, p in params.items():
            if p.grad is None:
                raise ValueError(f"parameter '{name}' has no gradient")
            if np.shape(p.grad) != p.data.shape:
                raise ValueError(
                    f"gradient of parameter '{name}' has shape {np.shape(p.grad)},"
                    f" the parameter {p.data.shape}"
                )
        g = g.astype(np.float64)
    if not np.isfinite(g).all():
        for name, (a, b) in zip(params, state._bounds):
            if not np.isfinite(g[a:b]).all():
                raise TrainingError(f"non-finite gradient for parameter '{name}'")
    state.step += 1
    t = state.step
    m, v = state._m_flat, state._v_flat
    # each product, sum and quotient of the textbook expressions, in their
    # order, written in place: lr * m_hat / (sqrt(v_hat) + EPS)
    update, denom = state._buffers
    m *= BETA1
    m += np.multiply(1.0 - BETA1, g, out=update)
    v *= BETA2
    np.multiply(1.0 - BETA2, g, out=update)
    update *= g
    v += update
    np.divide(v, 1.0 - BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS
    np.divide(m, 1.0 - BETA1**t, out=update)
    update *= lr
    update /= denom
    for p, u in zip(params.values(), state._updates):
        p.data -= u

"""Adam optimizer over flat name -> Tensor parameter maps.

An ``AdamState`` is bound to one map at construction.  The moments of all
its parameters live in two flat arrays, laid out in the map's order;
``AdamState.m[name]`` and ``.v[name]`` are views into them.  One step
concatenates the gradients, checks them once for non-finite values,
updates the moments and computes the whole update in one pass of vector
operations, then subtracts each parameter's slice.
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
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        for (name, p), (a, b) in zip(self.params.items(), self._bounds):
            self.m[name] = self._m_flat[a:b].reshape(p.data.shape)
            self.v[name] = self._v_flat[a:b].reshape(p.data.shape)


def step_from_gradients(state: AdamState, lr: float) -> None:
    """One bias-corrected Adam step, in place on the state's params, from their ``.grad``."""
    params = state.params
    g = np.concatenate([np.ravel(p.grad) for p in params.values()] or [np.zeros(0)])
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
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    update = lr * m_hat / (np.sqrt(v_hat) + EPS)
    for p, (a, b) in zip(params.values(), state._bounds):
        p.data -= update[a:b].reshape(p.data.shape)

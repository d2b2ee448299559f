"""Adam optimizer over flat name -> Tensor parameter maps.

The moments of all parameters live in two flat arrays, laid out in the
order of the map's first step; ``AdamState.m[name]`` and ``.v[name]`` are
views into them.  One step concatenates the gradients, checks them once for
non-finite values, updates the moments and computes the whole update in
one pass of vector operations, then subtracts each parameter's slice.
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
    """First/second moment estimates plus the shared step counter.

    The first step fixes the parameter names, their order and their shapes;
    a later map that differs is rejected, naming the parameter.
    """

    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._layout: tuple[tuple[str, tuple[int, ...]], ...] | None = None
        self._bounds: list[tuple[int, int]] = []
        self._m_flat = np.zeros(0)
        self._v_flat = np.zeros(0)

    def _check_layout(self, params: dict[str, Tensor]) -> None:
        layout = tuple((name, p.data.shape) for name, p in params.items())
        if self._layout is None:
            self._layout = layout
            sizes = [int(np.prod(shape)) for _, shape in layout]
            ends = np.cumsum(sizes, dtype=np.intp).tolist()
            self._bounds = [(end - size, end) for size, end in zip(sizes, ends)]
            self._m_flat = np.zeros(sum(sizes))
            self._v_flat = np.zeros(sum(sizes))
            for (name, shape), (a, b) in zip(layout, self._bounds):
                self.m[name] = self._m_flat[a:b].reshape(shape)
                self.v[name] = self._v_flat[a:b].reshape(shape)
        elif layout != self._layout:
            raise ValueError(_layout_mismatch(self._layout, layout))


def _layout_mismatch(first, now) -> str:
    """Name the first parameter whose name, position or shape moved."""
    for k, ((name0, shape0), (name, shape)) in enumerate(zip(first, now)):
        if name != name0:
            return f"parameter '{name}' at position {k} was '{name0}' at the first Adam step"
        if shape != shape0:
            return f"parameter '{name}' has shape {shape}, its Adam moments have {shape0}"
    if len(now) > len(first):
        return f"parameter '{now[len(first)][0]}' was not in the map of the first Adam step"
    return f"parameter '{first[len(now)][0]}' of the first Adam step is missing"


def step_from_gradients(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam step, in place on params, from their ``.grad``."""
    state._check_layout(params)
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

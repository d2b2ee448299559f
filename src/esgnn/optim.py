"""Adam optimizer over flat name -> Tensor parameter maps."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

__all__ = ["AdamState", "TrainingError", "adam_update", "step_from_gradients"]


class TrainingError(RuntimeError):
    """Raised when optimization hits non-finite values."""


class AdamState:
    """First/second moment estimates plus the shared step counter."""

    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_update(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """One bias-corrected Adam step, in place on params."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter '{name}'")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return state


def step_from_gradients(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """Adam step using the .grad fields produced by a backward pass."""
    adam_update(params, {k: p.grad for k, p in params.items()}, state, lr)

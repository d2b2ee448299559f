"""Adam optimizer over flat name -> Tensor parameter maps."""

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
    """First/second moment estimates plus the shared step counter."""

    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def step_from_gradients(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam step, in place on params, from their ``.grad``."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = np.asarray(p.grad, dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter '{name}'")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + EPS)

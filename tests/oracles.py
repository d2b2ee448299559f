"""Reference oracles for the tests; no program code calls them.

``grad_check`` compares an op's analytic gradients with central
differences, and ``softmax_cross_entropy`` is the one-row loss that
``cross_entropy_mean`` must agree with.
"""

import numpy as np

from esgnn.autodiff import DimensionError, Tensor, _log_softmax, custom_primitive


def softmax_cross_entropy(logits, target: int) -> Tensor:
    """-log softmax(logits)[target] for a single logit vector."""
    logits = logits if isinstance(logits, Tensor) else Tensor(logits)
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

    return custom_primitive(data, (logits,), _bp)


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

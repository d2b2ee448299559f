import numpy as np
import pytest

from esgnn.autodiff import Tensor
from esgnn.optim import BETA1, BETA2, EPS, AdamState, TrainingError, step_from_gradients


def step(name, p, grad, state, lr):
    p.grad = np.asarray(grad, dtype=np.float64)
    step_from_gradients({name: p}, state, lr)


def test_zero_gradient_leaves_params_and_moments_untouched():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = AdamState()
    step("p", p, np.zeros(2), state, lr=0.1)
    assert np.array_equal(p.data, [1.0, -2.0])
    assert np.array_equal(state.m["p"], [0.0, 0.0])
    assert np.array_equal(state.v["p"], [0.0, 0.0])


def test_first_step_is_signed_learning_rate():
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    step("p", p, [0.3, -1.7], AdamState(), lr=0.01)
    # bias-corrected first step: delta = -lr * g / (|g| + eps) ~ -lr * sign(g)
    assert np.allclose(p.data, [-0.01, 0.01], atol=1e-6)


def test_second_identical_step_not_larger_than_first():
    p = Tensor(np.array([5.0]), requires_grad=True)
    state = AdamState()
    step("p", p, [2.0], state, lr=0.05)
    first = abs(5.0 - p.data[0])
    before = p.data[0]
    step("p", p, [2.0], state, lr=0.05)
    second = abs(before - p.data[0])
    assert second <= first + 1e-9


def test_non_finite_gradient_names_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(TrainingError, match="'w/hidden'"):
        step("w/hidden", p, [np.nan], AdamState(), lr=0.1)


def test_matches_reference_recurrence():
    # direct evaluation of the published update rule for a short trajectory
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    assert (BETA1, BETA2, EPS) == (b1, b2, eps)
    p = Tensor(np.array([0.5]), requires_grad=True)
    state = AdamState()
    x, m, v = 0.5, 0.0, 0.0
    for t in range(1, 6):
        g = 2.0 * x  # gradient of x^2
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        step("p", p, [2.0 * p.data[0]], state, lr)
        assert p.data[0] == pytest.approx(x, abs=1e-15)

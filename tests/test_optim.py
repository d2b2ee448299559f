import numpy as np
import pytest

from esgnn.autodiff import Tensor
from esgnn.optim import BETA1, BETA2, EPS, AdamState, TrainingError, step_from_gradients


def step(state, grad, lr):
    (p,) = state.params.values()
    p.grad = np.asarray(grad, dtype=np.float64)
    step_from_gradients(state, lr)


def test_zero_gradient_leaves_params_and_moments_untouched():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = AdamState({"p": p})
    step(state, np.zeros(2), lr=0.1)
    assert np.array_equal(p.data, [1.0, -2.0])
    assert np.array_equal(state.m["p"], [0.0, 0.0])
    assert np.array_equal(state.v["p"], [0.0, 0.0])


def test_first_step_is_signed_learning_rate():
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    step(AdamState({"p": p}), [0.3, -1.7], lr=0.01)
    # bias-corrected first step: delta = -lr * g / (|g| + eps) ~ -lr * sign(g)
    assert np.allclose(p.data, [-0.01, 0.01], atol=1e-6)


def test_second_identical_step_not_larger_than_first():
    p = Tensor(np.array([5.0]), requires_grad=True)
    state = AdamState({"p": p})
    step(state, [2.0], lr=0.05)
    first = abs(5.0 - p.data[0])
    before = p.data[0]
    step(state, [2.0], lr=0.05)
    second = abs(before - p.data[0])
    assert second <= first + 1e-9


def test_non_finite_gradient_names_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(TrainingError, match="'w/hidden'"):
        step(AdamState({"w/hidden": p}), [np.nan], lr=0.1)


def test_matches_reference_recurrence():
    # direct evaluation of the published update rule for a short trajectory
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    assert (BETA1, BETA2, EPS) == (b1, b2, eps)
    p = Tensor(np.array([0.5]), requires_grad=True)
    state = AdamState({"p": p})
    x, m, v = 0.5, 0.0, 0.0
    for t in range(1, 6):
        g = 2.0 * x  # gradient of x^2
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        step(state, [2.0 * p.data[0]], lr)
        assert p.data[0] == pytest.approx(x, abs=1e-15)


def named(**shapes):
    return {
        name: Tensor(np.zeros(shape), requires_grad=True) for name, shape in shapes.items()
    }


def with_grads(params, value=0.5):
    for p in params.values():
        p.grad = np.full(p.data.shape, value)
    return params


def test_moments_are_views_into_one_flat_pair_of_arrays():
    params = with_grads(named(w=(2, 3), b=(3,), eps=()))
    state = AdamState(params)
    step_from_gradients(state, lr=0.1)
    assert [state.m[k].shape for k in params] == [(2, 3), (3,), ()]
    bases = {id(state.m[k].base) for k in params} | {id(state.v[k].base) for k in params}
    assert len(bases) == 2
    assert np.allclose(state.m["w"], 0.05) and np.allclose(state.v["eps"], 0.00025)


def test_construction_lays_out_the_moments_in_the_maps_order_before_any_step():
    state = AdamState(named(w=(2, 3), b=(3,), eps=()))
    assert state.step == 0 and list(state.m) == list(state.v) == ["w", "b", "eps"]
    for moments in (state.m, state.v):
        flat = moments["w"].base
        assert flat.shape == (10,) and not flat.any()
        assert all(moments[k].base is flat for k in moments)
        flat[:] = np.arange(10.0)
        assert np.array_equal(moments["w"], [[0, 1, 2], [3, 4, 5]])
        assert np.array_equal(moments["b"], [6, 7, 8]) and moments["eps"] == 9
    assert state.m["w"].base is not state.v["w"].base


def test_editing_the_callers_dict_after_construction_changes_nothing_the_state_steps():
    params = with_grads(named(w=(2, 3), b=(3,)))
    state = AdamState(params)
    b = params.pop("b")
    params["c"] = Tensor(np.zeros(4), requires_grad=True)  # no gradient: stepping it would raise
    step_from_gradients(state, lr=0.1)
    assert list(state.params) == list(state.m) == ["w", "b"]
    assert state.params["b"] is b and np.allclose(b.data, -0.1)
    assert np.array_equal(params["c"].data, np.zeros(4))


def test_matches_a_per_parameter_update_bit_for_bit():
    rng = np.random.default_rng(0)
    params = named(w=(4, 3), b=(3,), eps=())
    state, t = AdamState(params), 0
    reference = {k: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for k, p in params.items()}
    for _ in range(4):
        t += 1
        for k, p in params.items():
            p.grad = rng.standard_normal(p.data.shape)
            x, m, v = reference[k]
            m *= BETA1
            m += (1.0 - BETA1) * p.grad
            v *= BETA2
            v += (1.0 - BETA2) * p.grad * p.grad
            x -= 0.01 * (m / (1.0 - BETA1**t)) / (np.sqrt(v / (1.0 - BETA2**t)) + EPS)
        step_from_gradients(state, lr=0.01)
        for k, p in params.items():
            assert p.data.tobytes() == reference[k][0].tobytes()


def test_a_missing_or_misshapen_gradient_names_the_parameter():
    params = with_grads(named(w=(2, 3), b=(3,)))
    params["b"].grad = None
    with pytest.raises(ValueError, match="parameter 'b' has no gradient"):
        step_from_gradients(AdamState(params), lr=0.1)
    params["b"].grad = np.zeros(2)
    with pytest.raises(ValueError, match="gradient of parameter 'b' has shape \\(2,\\)"):
        step_from_gradients(AdamState(params), lr=0.1)


def test_a_non_finite_gradient_changes_no_parameter_and_no_moment():
    params = with_grads(named(w=(2, 3), b=(3,)))
    state = AdamState(params)
    step_from_gradients(state, lr=0.1)
    before = {k: p.data.copy() for k, p in params.items()}
    params["b"].grad[1] = np.inf
    with pytest.raises(TrainingError, match="'b'"):
        step_from_gradients(state, lr=0.1)
    assert state.step == 1
    assert all(np.array_equal(p.data, before[k]) for k, p in params.items())
    assert np.allclose(state.m["w"], 0.05)

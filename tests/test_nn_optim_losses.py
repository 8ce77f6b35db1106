"""Optimizer and loss tests: convergence and metric correctness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Adam, Tensor, mse_loss, rmse


def _quadratic_descent(optimizer_cls, **kwargs):
    """Minimize ||x - target||^2; returns final parameter."""
    target = np.array([3.0, -2.0])
    param = Tensor(np.zeros(2), requires_grad=True)
    opt = optimizer_cls([param], **kwargs)
    for _ in range(300):
        loss = ((param - Tensor(target)) ** 2).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
    return param.data


class TestOptimizers:
    def test_adam_converges(self):
        final = _quadratic_descent(Adam, lr=0.1)
        np.testing.assert_allclose(final, [3.0, -2.0], atol=1e-3)

    def test_adam_grad_clip_limits_step(self):
        param = Tensor(np.zeros(1), requires_grad=True)
        opt = Adam([param], lr=1.0, grad_clip=0.001)
        loss = (param - 1e6) ** 2
        loss.sum().backward()
        opt.step()
        assert abs(param.data[0]) < 2.0  # clipped, not a huge jump

    def test_skips_params_without_grad(self):
        param = Tensor(np.ones(2), requires_grad=True)
        Adam([param], lr=0.1).step()  # no backward called
        np.testing.assert_allclose(param.data, 1.0)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)


class TestLosses:
    def test_mse_value(self):
        pred = Tensor(np.array([1.0, 2.0]))
        target = Tensor(np.array([0.0, 4.0]))
        assert mse_loss(pred, target).item() == pytest.approx((1 + 4) / 2)

    def test_rmse_metric_shape_check(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
    def test_rmse_nonnegative_and_zero_iff_equal(self, values):
        arr = np.array(values)
        assert rmse(arr, arr) == 0.0
        assert rmse(arr, arr + 1.0) == pytest.approx(1.0)

"""Scaler invariants (property-based) and trainer behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import Linear, MinMaxScaler, Module, Trainer


finite_matrix = arrays(
    np.float64,
    st.tuples(st.integers(2, 20), st.integers(1, 5)),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


class TestMinMaxScaler:
    @settings(max_examples=50, deadline=None)
    @given(finite_matrix)
    def test_roundtrip(self, x):
        scaler = MinMaxScaler().fit(x)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(x)), x, atol=1e-6, rtol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(finite_matrix)
    def test_range_is_unit_interval(self, x):
        out = MinMaxScaler().fit(x).transform(x)
        assert out.min() >= -1e-12
        assert out.max() <= 1.0 + 1e-12

    def test_constant_column_maps_to_zero(self):
        x = np.full((5, 2), 7.0)
        out = MinMaxScaler().fit(x).transform(x)
        np.testing.assert_allclose(out, 0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.zeros((2, 2)))

    def test_3d_input(self):
        x = np.random.default_rng(0).normal(size=(4, 3, 2))
        scaler = MinMaxScaler().fit(x)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(x)), x, atol=1e-9)


class _TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.layer = Linear(2, 1, rng=np.random.default_rng(0))

    def forward(self, x):
        return self.layer(x)


class TestTrainer:
    def _data(self, n=200):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, 2))
        y = (x @ np.array([[1.5], [-2.0]])) + 0.3
        return x, y

    def test_fits_linear_regression(self):
        x, y = self._data()
        trainer = Trainer(_TinyNet(), lr=0.05, max_epochs=100, patience=100, batch_size=32)
        history = trainer.fit(x, y)
        assert history.train_loss[-1] < 1e-3

    def test_early_stopping_triggers(self):
        x, y = self._data(60)
        trainer = Trainer(_TinyNet(), lr=0.05, max_epochs=500, patience=5)
        history = trainer.fit(x[:40], y[:40], x[40:], y[40:])
        assert history.epochs_run < 500

    def test_best_state_restored(self):
        x, y = self._data(100)
        trainer = Trainer(_TinyNet(), lr=0.05, max_epochs=60, patience=60)
        history = trainer.fit(x[:70], y[:70], x[70:], y[70:])
        pred = trainer.predict(x[70:])
        restored_loss = float(np.mean((pred - y[70:]) ** 2))
        assert restored_loss == pytest.approx(history.best_val_loss, rel=0.2)

    def test_predict_batching_consistent(self):
        x, y = self._data(50)
        trainer = Trainer(_TinyNet(), lr=0.05, max_epochs=5, patience=5)
        trainer.fit(x, y)
        np.testing.assert_allclose(trainer.predict(x, batch_size=7), trainer.predict(x, batch_size=50))

    def test_length_mismatch_raises(self):
        trainer = Trainer(_TinyNet())
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((3, 2)), np.zeros((4, 1)))

    def test_deterministic_given_seed(self):
        x, y = self._data(80)
        runs = []
        for _ in range(2):
            trainer = Trainer(_TinyNet(), lr=0.05, max_epochs=10, patience=10, seed=3)
            trainer.fit(x, y)
            runs.append(trainer.predict(x[:5]))
        np.testing.assert_allclose(runs[0], runs[1])

"""Statistical forecaster tests (Prophet substitute, harmonic mean)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.forecast import StructuralProphet, harmonic_mean


class TestStructuralProphet:
    def test_extrapolates_linear_trend(self):
        y = 2.0 * np.arange(50) + 5.0
        model = StructuralProphet(n_changepoints=0, alpha=1e-6).fit(y)
        pred = model.predict(5)
        np.testing.assert_allclose(pred, 2.0 * np.arange(50, 55) + 5.0, rtol=0.05)

    def test_captures_seasonality(self):
        t = np.arange(120)
        y = 10 + 3 * np.sin(2 * np.pi * t / 12)
        model = StructuralProphet(n_changepoints=0, season_period=12, fourier_order=2, alpha=1e-4)
        pred = model.fit(y).predict(12)
        expected = 10 + 3 * np.sin(2 * np.pi * np.arange(120, 132) / 12)
        assert np.abs(pred - expected).mean() < 0.5

    def test_changepoints_track_kinks(self):
        y = np.concatenate([np.full(40, 10.0), np.linspace(10, 40, 40)])
        model = StructuralProphet(n_changepoints=8, alpha=1e-4).fit(y)
        pred = model.predict(5)
        assert pred[0] > 30  # continues rising after the kink

    def test_too_short_history_raises(self):
        with pytest.raises(ValueError):
            StructuralProphet().fit(np.array([1.0, 2.0]))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StructuralProphet().predict(3)

    def test_invalid_horizon(self):
        model = StructuralProphet().fit(np.arange(10.0))
        with pytest.raises(ValueError):
            model.predict(0)


class TestHarmonicMean:
    def test_known_value(self):
        assert harmonic_mean(np.array([1.0, 2.0, 4.0])) == pytest.approx(12 / 7)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            harmonic_mean(np.array([]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.1, 1e4), min_size=1, max_size=30))
    def test_harmonic_le_arithmetic(self, values):
        """AM-HM inequality: harmonic mean never exceeds arithmetic mean."""
        arr = np.array(values)
        assert harmonic_mean(arr) <= arr.mean() + 1e-9

    def test_dominated_by_small_values(self):
        """A single slow sample should drag the estimate down strongly."""
        fast = harmonic_mean(np.array([100.0] * 5))
        with_outlier = harmonic_mean(np.array([100.0] * 4 + [1.0]))
        assert with_outlier < 0.1 * fast + 10

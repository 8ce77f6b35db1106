"""Predictor API tests on a small shared dataset (all seven baselines)."""

import numpy as np
import pytest

from repro.core import (
    DeepConfig,
    GBDTPredictor,
    LSTMPredictor,
    Lumos5GPredictor,
    Prism5GPredictor,
    ProphetPredictor,
    RFPredictor,
    TCNPredictor,
)
from repro.data import SubDatasetSpec, build_subdataset, random_split
from repro.pipeline import improvement_over_best_baseline

FAST = DeepConfig(hidden=12, max_epochs=8, patience=8, lr=0.01)


@pytest.fixture(scope="module")
def dataset():
    spec = SubDatasetSpec("OpZ", "driving", "long")
    return build_subdataset(spec, n_traces=3, samples_per_trace=120, seed=2)


@pytest.fixture(scope="module")
def splits(dataset):
    return random_split(dataset.windows, 0.5, 0.2, 0.3, seed=0)


def _sanity(predictor, splits):
    train, val, test = splits
    predictor.fit(train, val)
    pred = predictor.predict(test)
    assert pred.shape == test.y.shape
    assert np.all(np.isfinite(pred))
    rmse = predictor.evaluate(test)
    assert 0.0 <= rmse < 1.0  # normalized targets; random guessing ~0.5+
    return rmse


class TestEachPredictor:
    def test_prophet(self, splits):
        _sanity(ProphetPredictor(), splits)

    def test_lstm(self, splits):
        _sanity(LSTMPredictor(FAST), splits)

    def test_tcn(self, splits):
        _sanity(TCNPredictor(FAST), splits)

    def test_lumos5g(self, splits):
        _sanity(Lumos5GPredictor(FAST), splits)

    def test_gbdt(self, splits):
        _sanity(GBDTPredictor(n_estimators=15), splits)

    def test_rf(self, splits):
        _sanity(RFPredictor(n_estimators=8, max_depth=6), splits)

    def test_prism5g(self, splits):
        train, val, test = splits
        predictor = Prism5GPredictor(FAST)
        predictor.fit(train, val)
        assert predictor.predict(test).shape == test.y.shape
        per_cc = predictor.predict_per_cc(test)
        assert per_cc.shape == (len(test), test.n_ccs, test.horizon)
        # aggregate equals the sum of per-CC forecasts
        np.testing.assert_allclose(predictor.predict(test), per_cc.sum(axis=1), atol=1e-9)

    def test_prism_ablations_named(self):
        assert Prism5GPredictor(FAST, use_state_trigger=False).name == "Prism5G (no state)"
        assert Prism5GPredictor(FAST, use_fusion=False).name == "Prism5G (no fusion)"

    def test_unfitted_raises(self, splits):
        with pytest.raises(RuntimeError):
            LSTMPredictor(FAST).predict(splits[2])
        with pytest.raises(RuntimeError):
            GBDTPredictor().predict(splits[2])

    def test_deep_models_beat_prophet(self, splits):
        """Paper finding: stats-only Prophet is the weakest baseline."""
        prophet_rmse = _sanity(ProphetPredictor(), splits)
        lstm_rmse = _sanity(LSTMPredictor(FAST), splits)
        assert lstm_rmse < prophet_rmse


class TestEvaluationHarness:
    def test_improvement_metric(self, splits):
        rmse = {"Prophet": _sanity(ProphetPredictor(), splits), "Prism5G": _sanity(Prism5GPredictor(FAST), splits)}
        improv = improvement_over_best_baseline(rmse)
        assert improv == pytest.approx((rmse["Prophet"] - rmse["Prism5G"]) / rmse["Prophet"] * 100.0)
        assert -100.0 < improv < 100.0
        # the best baseline is LSTM's 0.4; Prism5G's variants are not baselines
        rmse = {"Prophet": 0.5, "LSTM": 0.4, "Prism5G": 0.3, "Prism5G (no state)": 0.35}
        assert improvement_over_best_baseline(rmse) == pytest.approx(25.0)
        assert improvement_over_best_baseline({"Prophet": 0.3, "Prism5G": 0.45}) == pytest.approx(-50.0)

    def test_improvement_requires_prism(self):
        # no figure without Prism5G, or without a baseline
        assert improvement_over_best_baseline({"Prophet": 0.5, "LSTM": 0.4}) is None
        assert improvement_over_best_baseline({"Prism5G": 0.3, "Prism5G (no fusion)": 0.3}) is None

"""Predictor-to-application bridge tests."""

import numpy as np
import pytest

from repro.apps import (
    predicted_bandwidth_series,
    predictor_forecaster,
    trace_windows_normalized,
)
from repro.core import DeepConfig, Prism5GPredictor
from repro.data import SubDatasetSpec, build_subdataset, random_split
from repro.ran import TraceSimulator


@pytest.fixture(scope="module")
def trained():
    spec = SubDatasetSpec("OpZ", "driving", "long")
    dataset = build_subdataset(spec, n_traces=3, samples_per_trace=100, seed=5)
    train, val, _ = random_split(dataset.windows, 0.5, 0.2, 0.3, seed=0)
    predictor = Prism5GPredictor(DeepConfig(hidden=10, max_epochs=5, patience=5))
    predictor.fit(train, val)
    return predictor, dataset


@pytest.fixture(scope="module")
def fresh_trace():
    return TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=77).run(80.0)


class TestTraceWindows:
    def test_normalized_windows_match_dataset_layout(self, trained, fresh_trace):
        _, dataset = trained
        windows = trace_windows_normalized(fresh_trace, dataset)
        assert windows is not None
        assert windows.x.shape[1:] == dataset.windows.x.shape[1:]
        assert windows.y_cc is not None

    def test_short_trace_returns_none(self, trained):
        _, dataset = trained
        short = TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=78).run(5.0)
        assert trace_windows_normalized(short, dataset) is None


class TestBandwidthSeries:
    def test_series_aligned_and_finite(self, trained, fresh_trace):
        predictor, dataset = trained
        series = predicted_bandwidth_series(predictor, fresh_trace, dataset)
        assert series.shape == fresh_trace.throughput_series().shape
        assert np.all(np.isfinite(series))
        assert np.all(series >= 0.0)

    def test_fallback_for_short_trace(self, trained):
        predictor, dataset = trained
        short = TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=79).run(8.0)
        series = predicted_bandwidth_series(predictor, short, dataset)
        assert series.shape == (8,)

    def test_estimates_in_plausible_mbps_range(self, trained, fresh_trace):
        predictor, dataset = trained
        series = predicted_bandwidth_series(predictor, fresh_trace, dataset)
        actual = fresh_trace.throughput_series()
        # barely-trained model: just require the right order of magnitude
        assert series[15:].mean() < 10 * actual.mean() + 100


class TestForecaster:
    def test_forecaster_contract(self, trained, fresh_trace):
        predictor, dataset = trained
        forecaster = predictor_forecaster(predictor, fresh_trace, dataset, chunk_s=2.0)
        out = forecaster(np.array([100.0, 200.0]), 3, 2.0)
        assert out.shape == (3,)
        assert np.all(out > 0)

    def test_forecaster_advances_with_history(self, trained, fresh_trace):
        predictor, dataset = trained
        forecaster = predictor_forecaster(predictor, fresh_trace, dataset, chunk_s=2.0)
        early = forecaster(np.array([100.0]), 1, 2.0)
        later = forecaster(np.full(20, 100.0), 1, 2.0)
        # different positions along the trace give (generally) different values
        assert early.shape == later.shape == (1,)

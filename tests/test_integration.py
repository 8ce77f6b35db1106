"""Cross-module integration tests: full pipelines at small scale."""

import numpy as np

from repro.apps import MPCPlayer, ABRConfig, ViVoConfig, ViVoSimulator, harmonic_forecaster
from repro.core import DeepConfig, LSTMPredictor, Prism5GPredictor, ProphetPredictor
from repro.data import SubDatasetSpec, build_subdataset, random_split, window_traces, normalize_windows
from repro.ran import TraceSimulator


class TestTraceToPredictionPipeline:
    def test_simulate_window_train_predict(self):
        """The full §6 pipeline at toy scale."""
        spec = SubDatasetSpec("OpZ", "driving", "long")
        ds = build_subdataset(spec, n_traces=3, samples_per_trace=100, seed=7)
        train, val, test = random_split(ds.windows, 0.5, 0.2, 0.3, seed=0)
        predictor = Prism5GPredictor(DeepConfig(hidden=16, max_epochs=30, patience=30))
        predictor.fit(train, val)
        rmse = predictor.evaluate(test)
        prophet_rmse = ProphetPredictor().fit(train).evaluate(test)
        assert np.isfinite(rmse)
        # even a barely-trained CA-aware model beats the blind extrapolator
        assert rmse < prophet_rmse

    def test_denormalized_predictions_in_mbps(self):
        spec = SubDatasetSpec("OpZ", "driving", "long")
        ds = build_subdataset(spec, n_traces=2, samples_per_trace=80, seed=3)
        train, val, test = random_split(ds.windows, 0.5, 0.2, 0.3, seed=0)
        predictor = LSTMPredictor(DeepConfig(hidden=8, max_epochs=4, patience=4))
        predictor.fit(train, val)
        mbps = ds.denormalize_tput(predictor.predict(test))
        truth = ds.denormalize_tput(test.y)
        assert mbps.shape == test.y.shape
        # denormalized error should be within the plausible Mbps range
        assert 0.0 < np.sqrt(np.mean((mbps - truth) ** 2)) < 2_000.0


class TestTraceToQoEPipeline:
    def test_vivo_over_simulated_ca_trace(self):
        sim = TraceSimulator("OpZ", mobility="walking", dt_s=0.01, seed=17)
        trace = sim.run(8.0)
        tput = trace.throughput_series()
        vivo = ViVoSimulator(ViVoConfig(max_bitrate_mbps=float(np.mean(tput) * 1.05)))
        ideal = vivo.run_ideal(tput, trace.dt_s)
        stock = vivo.run_stock(tput, trace.dt_s)
        assert ideal.n_units == stock.n_units
        assert ideal.stall_time_s <= stock.stall_time_s + 0.5

    def test_abr_over_simulated_ca_trace(self):
        sim = TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=19)
        trace = sim.run(150.0)
        player = MPCPlayer(ABRConfig(lookahead=2))
        result = player.run(trace.throughput_series(), 1.0, harmonic_forecaster)
        assert result.n_units > 10
        assert result.avg_quality > 0


class TestMLDatasetFromArbitraryTraces:
    def test_mixed_operator_windows(self):
        traces = [
            TraceSimulator(op, mobility="driving", dt_s=1.0, seed=s).run(60.0)
            for s, op in enumerate(("OpZ", "OpX"))
        ]
        windows = window_traces(traces, history=10, horizon=10, max_ccs=4)
        ds = normalize_windows(windows)
        assert len(ds.windows) == 2 * (60 - 19)
        assert set(np.unique(ds.windows.trace_ids)) == {0, 1}

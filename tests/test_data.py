"""Windowing, normalization and split tests."""

import numpy as np
import pytest

from repro.data import (
    ALL_SUBDATASETS,
    SubDatasetSpec,
    build_subdataset,
    flatten_for_trees,
    generate_traces,
    normalize_windows,
    random_split,
    trace_level_split,
    window_trace,
    window_traces,
)
from repro.ran import TraceSimulator


@pytest.fixture(scope="module")
def traces():
    return [
        TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=s).run(60.0, route_id=s)
        for s in range(3)
    ]


@pytest.fixture(scope="module")
def windows(traces):
    return window_traces(traces, history=10, horizon=10, max_ccs=4)


class TestWindowing:
    def test_shapes(self, windows):
        n = len(windows)
        assert windows.x.shape == (n, 10, 4, windows.x.shape[3])
        assert windows.mask.shape == (n, 10, 4)
        assert windows.y.shape == (n, 10)
        assert windows.y_hist.shape == (n, 10)
        assert windows.y_cc.shape == (n, 10, 4)

    def test_pair_count(self, traces):
        w = window_trace(traces[0], history=10, horizon=10, max_ccs=4)
        x, *_ = w
        assert len(x) == 60 - 10 - 10 + 1

    def test_stride(self, traces):
        dense = window_trace(traces[0], 10, 10, 4, stride=1)[0]
        sparse = window_trace(traces[0], 10, 10, 4, stride=5)[0]
        assert len(sparse) < len(dense)
        np.testing.assert_allclose(sparse[1], dense[5])

    def test_history_future_alignment(self, traces):
        """y must be the continuation of y_hist in trace order."""
        trace = traces[0]
        x, m, y, y_hist, y_cc = window_trace(trace, 10, 10, 4)
        series = trace.throughput_series()
        np.testing.assert_allclose(y_hist[0], series[:10])
        np.testing.assert_allclose(y[0], series[10:20])
        np.testing.assert_allclose(y_hist[3], series[3:13])

    def test_per_cc_targets_sum_close_to_total(self, windows):
        """Per-CC future tputs sum to the aggregate (up to dropped CCs)."""
        sums = windows.y_cc.sum(axis=2)
        assert np.mean(np.abs(sums - windows.y)) < 1e-6 * max(1.0, np.abs(windows.y).max()) + 1.0

    def test_too_short_trace_returns_none(self):
        trace = TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=0).run(5.0)
        assert window_trace(trace, 10, 10, 4) is None

    def test_invalid_sizes(self, traces):
        with pytest.raises(ValueError):
            window_trace(traces[0], 0, 10, 4)

    def test_flatten_for_trees_width(self, windows):
        flat = flatten_for_trees(windows)
        t, c, f = windows.x.shape[1:]
        assert flat.shape == (len(windows), t * c * f + t * c + t)


class TestNormalization:
    def test_targets_in_unit_interval(self, windows):
        ds = normalize_windows(windows)
        assert ds.windows.y.min() >= -1e-9
        assert ds.windows.y.max() <= 1.0 + 1e-9

    def test_denormalize_roundtrip(self, windows):
        ds = normalize_windows(windows)
        restored = ds.denormalize_tput(ds.windows.y)
        np.testing.assert_allclose(restored, windows.y, atol=1e-9)

    def test_mask_not_scaled(self, windows):
        ds = normalize_windows(windows)
        np.testing.assert_allclose(ds.windows.mask, windows.mask)


class TestSplits:
    def test_random_split_ratios(self, windows):
        train, val, test = random_split(windows, 0.5, 0.2, 0.3, seed=0)
        n = len(windows)
        assert len(train) == int(0.5 * n)
        assert len(val) == int(0.2 * n)
        assert len(train) + len(val) + len(test) == n

    def test_random_split_disjoint(self, windows):
        train, val, test = random_split(windows, 0.5, 0.2, 0.3, seed=0)
        # windows overlap in time, but indices must be disjoint:
        # reconstruct indices via y matching is fragile; instead check counts
        assert len({id(train), id(val), id(test)}) == 3

    def test_split_deterministic(self, windows):
        a = random_split(windows, seed=5)[0]
        b = random_split(windows, seed=5)[0]
        np.testing.assert_allclose(a.y, b.y)

    def test_invalid_ratios(self, windows):
        with pytest.raises(ValueError):
            random_split(windows, 0.5, 0.2, 0.2)

    def test_trace_level_split_no_leakage(self, windows):
        train, val, test = trace_level_split(windows, 0.4, 0.2, 0.4, seed=0)
        assert set(np.unique(train.trace_ids)).isdisjoint(np.unique(test.trace_ids))
        assert len(train) + len(val) + len(test) == len(windows)

    def test_trace_level_split_needs_traces(self, traces):
        single = window_traces(traces[:1], 10, 10, 4)
        with pytest.raises(ValueError):
            trace_level_split(single, 0.9, 0.05, 0.05, seed=0)


class TestSubDatasets:
    def test_spec_timescales(self):
        assert SubDatasetSpec("OpZ", "walking", "short").dt_s == 0.01
        assert SubDatasetSpec("OpZ", "walking", "long").dt_s == 1.0

    def test_all_twelve_specs(self):
        assert len(ALL_SUBDATASETS) == 12
        names = {s.name for s in ALL_SUBDATASETS}
        assert len(names) == 12

    def test_generate_traces_metadata(self):
        spec = SubDatasetSpec("OpX", "walking", "long")
        ts = generate_traces(spec, n_traces=2, samples_per_trace=30, seed=0)
        assert len(ts) == 2
        assert all(t.operator == "OpX" for t in ts)
        assert all(len(t) == 30 for t in ts)

    def test_build_subdataset_end_to_end(self):
        spec = SubDatasetSpec("OpZ", "driving", "long")
        ds = build_subdataset(spec, n_traces=2, samples_per_trace=40, seed=0)
        assert len(ds.windows) == 2 * (40 - 19)
        assert ds.spec == spec

"""Dataset artifact persistence tests."""

import numpy as np
import pytest

from repro.data import load_trace_set, save_trace_set
from repro.ran import TraceSet, TraceSimulator


@pytest.fixture(scope="module")
def small_set():
    traces = [
        TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=s).run(20.0, route_id=s)
        for s in range(2)
    ] + [TraceSimulator("OpX", mobility="walking", dt_s=1.0, seed=9).run(20.0)]
    return TraceSet(traces)


class TestArtifacts:
    def test_save_creates_manifest_and_files(self, small_set, tmp_path):
        out = save_trace_set(small_set, tmp_path / "ds", name="unit")
        assert (out / "manifest.json").exists()
        assert len(list(out.glob("*.jsonl"))) == 3

    def test_roundtrip_preserves_throughput(self, small_set, tmp_path):
        out = save_trace_set(small_set, tmp_path / "ds")
        loaded = load_trace_set(out)
        assert len(loaded) == 3
        np.testing.assert_allclose(
            loaded[0].throughput_series(), small_set[0].throughput_series()
        )

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace_set(tmp_path)

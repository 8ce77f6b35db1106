"""Continuous telemetry: quantile interpolation, ring buffer, sampler."""

import json
import threading

import pytest

from repro import obs, runtime
from repro.obs.metrics import Histogram
from repro.obs.timeseries import (
    RingBuffer,
    SampleClock,
    TimeSeriesSampler,
    bucket_quantiles,
    read_series,
)


@pytest.fixture(autouse=True)
def obs_off_after(monkeypatch):
    monkeypatch.delenv(obs.OBS_ENV, raising=False)
    monkeypatch.delenv(obs.OBS_DIR_ENV, raising=False)
    obs.configure(mode=obs.MODE_OFF)
    obs.reset()
    yield
    runtime.configure(obs_sample_hz=0)
    obs.configure(mode=obs.MODE_OFF)
    obs.reset()


# ---------------------------------------------------------------------------
# bucket-quantile interpolation


class TestBucketQuantiles:
    FIXTURE = {
        "buckets": [10.0, 20.0, 30.0],
        "counts": [10, 10, 10, 0],
        "count": 30,
        "sum": 450.0,
        "min": 0.0,
        "max": 30.0,
    }

    def test_exact_interpolated_values(self):
        qs = bucket_quantiles(self.FIXTURE)
        assert qs == {"p50": 15.0, "p95": 28.5, "p99": 29.7}

    def test_custom_quantile_keys(self):
        qs = bucket_quantiles(self.FIXTURE, qs=(0.1, 0.25))
        assert set(qs) == {"p10", "p25"}
        # rank 3 of 30 sits 30% into the first bucket [min=0, 10]
        assert qs["p10"] == pytest.approx(3.0)

    def test_empty_histogram_is_none(self):
        assert bucket_quantiles(Histogram().snapshot()) is None
        assert bucket_quantiles({"count": 0}) is None

    def test_results_clamped_to_observed_range(self):
        # everything lands in the overflow bucket: edges come from min/max
        hist = Histogram(buckets=(1.0,))
        for v in (5.0, 6.0, 7.0):
            hist.observe(v)
        qs = bucket_quantiles(hist.snapshot())
        for value in qs.values():
            assert 5.0 <= value <= 7.0

    def test_monotone_in_q_on_random_fills(self):
        import numpy as np

        rng = np.random.default_rng(42)
        for _ in range(5):
            hist = Histogram(buckets=(0.5, 1.0, 2.0, 4.0))
            for v in rng.exponential(1.5, size=200):
                hist.observe(float(v))
            snap = hist.snapshot()
            qs = bucket_quantiles(snap)
            assert qs["p50"] <= qs["p95"] <= qs["p99"]
            assert snap["min"] <= qs["p50"]
            assert qs["p99"] <= snap["max"]


# ---------------------------------------------------------------------------
# ring buffer


class TestRingBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            RingBuffer(0)

    def test_wraparound_keeps_newest_oldest_first(self):
        ring = RingBuffer(4)
        overwrites = [ring.append({"i": i}) for i in range(10)]
        assert overwrites == [False] * 4 + [True] * 6
        assert len(ring) == 4
        assert ring.appended == 10
        assert ring.dropped == 6
        assert [row["i"] for row in ring.items()] == [6, 7, 8, 9]

    def test_partial_fill_has_no_drops(self):
        ring = RingBuffer(8)
        for i in range(3):
            ring.append({"i": i})
        assert len(ring) == 3
        assert ring.dropped == 0
        assert [row["i"] for row in ring.items()] == [0, 1, 2]


# ---------------------------------------------------------------------------
# sampler rows under a fixed clock


class _ScriptedClock(SampleClock):
    """Non-blocking clock: scripted tick times, wait() never sleeps."""

    def __init__(self, ticks):
        super().__init__()
        self.ticks = list(ticks)

    def now(self):
        return self.ticks.pop(0) if self.ticks else 999.0

    def wait(self, timeout):
        return not self.ticks  # stop once the script runs out


class TestTimeSeriesSampler:
    def _source(self):
        hist = Histogram(buckets=(10.0, 20.0, 30.0))
        for v in (5.0,) * 10 + (15.0,) * 10 + (30.0,) * 10:
            hist.observe(v)
        return {
            "counters": {"items.done": 7.0},
            "gauges": {"train.loss": 0.5},
            "histograms": {"step.ms": hist.snapshot()},
        }

    def test_rows_are_deterministic_under_fixed_clock(self, tmp_path):
        sampler = TimeSeriesSampler(
            interval_s=0.5, source=self._source, directory=tmp_path, capacity=3
        )
        sampler.push_label("train")
        rows = [sampler.sample_once(t=float(t)) for t in range(1, 6)]
        assert [r["t"] for r in rows] == [1.0, 2.0, 3.0, 4.0, 5.0]
        row = rows[0]
        assert row["window"] == "train"
        assert row["counters"] == {"items.done": 7.0}
        assert row["gauges"] == {"train.loss": 0.5}
        assert row["quantiles"]["step.ms"] == {"p50": 15.0, "p95": 28.5, "p99": 29.7}
        # wraparound: ring keeps newest 3, spill keeps all 5
        assert [r["t"] for r in sampler.ring.items()] == [3.0, 4.0, 5.0]
        assert sampler.ring.dropped == 2
        sampler.flush()
        assert sampler.spilled_rows == 5
        assert [r["t"] for r in read_series(tmp_path)] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_window_labels_nest_and_join(self):
        sampler = TimeSeriesSampler(interval_s=1.0, source=dict)
        sampler.push_label("train")
        sampler.push_label("epoch")
        assert sampler.sample_once(t=0.0)["window"] == "train;epoch"
        sampler.pop_label("epoch")
        assert sampler.sample_once(t=1.0)["window"] == "train"

    def test_scripted_clock_drives_loop_to_completion(self, tmp_path):
        clock = _ScriptedClock([0.1, 0.2, 0.3])
        sampler = TimeSeriesSampler(
            interval_s=0.01, source=self._source, directory=tmp_path, clock=clock
        )
        sampler.start()
        sampler.stop()
        rows = read_series(tmp_path)
        assert len(rows) >= 1  # at least the final stop() row
        assert all(r["pid"] == sampler.pid for r in rows)


# ---------------------------------------------------------------------------
# cross-process series merge


class TestReadSeries:
    def test_merges_pids_sorted_and_skips_corrupt_lines(self, tmp_path):
        (tmp_path / "series-2.jsonl").write_text(
            json.dumps({"t": 1.0, "pid": 2}) + "\n"
            + "{corrupt json\n"
            + json.dumps({"t": 3.0, "pid": 2}) + "\n",
            encoding="utf-8",
        )
        (tmp_path / "series-1.jsonl").write_text(
            json.dumps({"t": 1.0, "pid": 1}) + "\n"
            + json.dumps({"t": 2.0, "pid": 1}) + "\n",
            encoding="utf-8",
        )
        rows = read_series(tmp_path)
        assert [(r["t"], r["pid"]) for r in rows] == [
            (1.0, 1),
            (1.0, 2),
            (2.0, 1),
            (3.0, 2),
        ]

    def test_missing_directory_is_empty(self, tmp_path):
        assert read_series(tmp_path / "nope") == []


# ---------------------------------------------------------------------------
# facade lifecycle: sample_window refcounting


def _sampler_threads():
    return [
        t for t in threading.enumerate() if t.name.startswith("repro-obs-sampler")
    ]


class TestSampleWindowLifecycle:
    def test_disabled_path_starts_no_thread(self):
        obs.configure(mode=obs.MODE_METRICS)  # hz stays 0
        assert not obs.sampling_enabled()
        with obs.sample_window("train"):
            assert obs.current_sampler() is None
            assert not _sampler_threads()

    def test_obs_off_starts_no_thread_even_with_hz(self):
        runtime.configure(obs_sample_hz=50)
        assert not obs.sampling_enabled()
        with obs.sample_window("train"):
            assert obs.current_sampler() is None

    def test_refcounted_windows_share_one_sampler(self, tmp_path):
        runtime.configure(obs_sample_hz=200)
        obs.configure(mode=obs.MODE_METRICS, directory=tmp_path)
        assert obs.sampling_enabled()
        with obs.sample_window("outer"):
            outer = obs.current_sampler()
            assert outer is not None
            assert _sampler_threads()
            with obs.sample_window("inner"):
                assert obs.current_sampler() is outer  # nested: no new thread
                threading.Event().wait(0.05)  # let the 200 Hz thread tick
            assert obs.current_sampler() is outer
        # last window out: thread stopped, final row spilled
        assert obs.current_sampler() is None
        for _ in range(50):
            if not _sampler_threads():
                break
            threading.Event().wait(0.02)
        assert not _sampler_threads()
        rows = obs.read_series(tmp_path)
        assert rows, "stop() must leave at least one spilled row"
        assert any("outer" in r["window"] for r in rows)

    def test_sample_hz_flag_round_trips_through_runtime(self):
        runtime.configure(obs_sample_hz=12.5)
        assert runtime.flag("obs_sample_hz") == "12.5"
        runtime.configure(obs_sample_hz=0)
        assert runtime.flag("obs_sample_hz") == "0"

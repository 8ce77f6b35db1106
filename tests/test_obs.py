"""Tests for repro.obs: metrics registry, span tracing, manifests."""

import json
import os

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_SPAN, chrome_trace, read_spans
from repro.parallel import parallel_map


@pytest.fixture(autouse=True)
def obs_off_after(monkeypatch):
    """Every test starts and ends with observability off and clean."""
    monkeypatch.delenv(obs.OBS_ENV, raising=False)
    monkeypatch.delenv(obs.OBS_DIR_ENV, raising=False)
    obs.configure(mode=obs.MODE_OFF)
    obs.reset()
    yield
    obs.configure(mode=obs.MODE_OFF)
    obs.reset()


# ---------------------------------------------------------------------------
# metrics registry


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("hits")
        reg.counter("hits", 2.5)
        assert reg.snapshot()["counters"]["hits"] == 3.5

    def test_gauge_keeps_last_value(self):
        reg = MetricsRegistry()
        reg.gauge("loss", 0.9)
        reg.gauge("loss", 0.4)
        assert reg.snapshot()["gauges"]["loss"] == 0.4

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        for v in (0.5, 3.0, 3.0, 1e9):
            reg.histogram("ms", v, buckets=(1.0, 5.0))
        hist = reg.snapshot()["histograms"]["ms"]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(1e9 + 6.5)
        assert hist["min"] == 0.5 and hist["max"] == 1e9
        # counts: <=1.0, <=5.0, overflow
        assert hist["counts"] == [1, 2, 1]

    def test_snapshot_is_detached_and_reset_clears(self):
        reg = MetricsRegistry()
        reg.counter("n")
        snap = reg.snapshot()
        reg.counter("n")
        assert snap["counters"]["n"] == 1.0
        reg.reset()
        assert reg.snapshot()["counters"] == {}

    def test_merge_snapshot_sums_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n", 2)
        b.counter("n", 3)
        a.histogram("ms", 1.0, buckets=(2.0,))
        b.histogram("ms", 5.0, buckets=(2.0,))
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["n"] == 5.0
        assert snap["histograms"]["ms"]["count"] == 2
        assert snap["histograms"]["ms"]["min"] == 1.0
        assert snap["histograms"]["ms"]["max"] == 5.0

    def test_bucket_mismatch_counted_not_silent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("ms", 1.0, buckets=(2.0, 4.0))
        b.histogram("ms", 1.0, buckets=(3.0,))
        b.histogram("ok", 1.0, buckets=(2.0,))
        a.histogram("ok", 5.0, buckets=(2.0,))
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        # the incompatible snapshot was refused without touching local data...
        assert snap["histograms"]["ms"]["count"] == 1
        assert snap["histograms"]["ms"]["buckets"] == [2.0, 4.0]
        # ...and the refusal is published instead of silently swallowed
        assert snap["counters"]["obs.merge.bucket_mismatch"] == 1.0
        # compatible histograms in the same snapshot still merged
        assert snap["histograms"]["ok"]["count"] == 2

    def test_histogram_merge_snapshot_returns_false_on_mismatch(self):
        from repro.obs.metrics import Histogram

        h = Histogram(buckets=(1.0, 2.0))
        h.observe(0.5)
        other = Histogram(buckets=(9.0,))
        other.observe(3.0)
        assert h.merge_snapshot(other.snapshot()) is False
        assert h.count == 1 and h.max == 0.5
        twin = Histogram(buckets=(1.0, 2.0))
        twin.observe(1.5)
        assert h.merge_snapshot(twin.snapshot()) is True
        assert h.count == 2 and h.max == 1.5

    def test_worker_gauges_merge_under_pid_suffix(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.gauge("train.loss", 0.1)
        worker.gauge("train.loss", 0.9)
        worker.gauge("obs.rss.peak_mb", 512.0)
        parent.merge_snapshot(worker.snapshot(), gauge_pid=4242)
        gauges = parent.snapshot()["gauges"]
        # local name stays last-write-wins; the worker's value arrives
        # under a .pid suffix instead of colliding or being dropped
        assert gauges["train.loss"] == 0.1
        assert gauges["train.loss.pid4242"] == 0.9
        assert gauges["obs.rss.peak_mb.pid4242"] == 512.0

    def test_gauges_without_pid_stay_local_only(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        worker.gauge("g", 1.0)
        parent.merge_snapshot(worker.snapshot())
        assert parent.snapshot()["gauges"] == {}


# ---------------------------------------------------------------------------
# module facade / disabled path


class TestDisabledPath:
    def test_span_returns_shared_null_singleton(self):
        assert obs.span("anything") is NULL_SPAN
        assert obs.span("other", attr=1) is NULL_SPAN
        with obs.span("x") as sp:
            sp.set(a=1)
        assert sp.duration_s == 0.0

    def test_metrics_are_dropped_when_off(self):
        obs.counter("n")
        obs.gauge("g", 1.0)
        obs.histogram("h", 2.0)
        snap = obs.snapshot()
        assert snap["counters"] == {} and snap["gauges"] == {} and snap["histograms"] == {}

    def test_write_manifest_returns_none_when_off(self, tmp_path):
        assert obs.write_manifest(kind="train", directory=tmp_path) is None
        assert list(tmp_path.iterdir()) == []

    def test_force_span_still_measures(self):
        with obs.span("bench.x", force=True) as sp:
            pass
        assert sp is not NULL_SPAN
        assert sp.duration_s >= 0.0

    def test_mode_parsing_from_env(self, monkeypatch):
        for raw, want in (
            ("", obs.MODE_OFF), ("0", obs.MODE_OFF), ("off", obs.MODE_OFF),
            ("1", obs.MODE_METRICS), ("metrics", obs.MODE_METRICS),
            ("trace", obs.MODE_TRACE), ("2", obs.MODE_TRACE),
        ):
            monkeypatch.setenv(obs.OBS_ENV, raw)
            assert obs.configure() == want
        with pytest.raises(ValueError):
            obs.configure(mode="verbose")


# ---------------------------------------------------------------------------
# span tracing


class TestSpans:
    def test_nesting_depth_and_parent(self, tmp_path):
        obs.configure(mode=obs.MODE_TRACE, directory=tmp_path)
        with obs.span("outer", a=1):
            with obs.span("inner"):
                with obs.span("leaf"):
                    pass
        spans = {s["name"]: s for s in obs.read_spans(tmp_path)}
        assert spans["outer"]["depth"] == 0 and spans["outer"]["parent"] is None
        assert spans["inner"]["depth"] == 1 and spans["inner"]["parent"] == "outer"
        assert spans["leaf"]["depth"] == 2 and spans["leaf"]["parent"] == "inner"
        assert spans["outer"]["attrs"] == {"a": 1}
        assert spans["outer"]["pid"] == os.getpid()

    def test_set_attaches_attrs_mid_span(self, tmp_path):
        obs.configure(mode=obs.MODE_TRACE, directory=tmp_path)
        with obs.span("epoch") as sp:
            sp.set(loss=0.25)
        (span,) = obs.read_spans(tmp_path)
        assert span["attrs"]["loss"] == 0.25
        assert span["dur"] >= 0.0

    def test_read_spans_skips_corrupt_lines(self, tmp_path):
        obs.configure(mode=obs.MODE_TRACE, directory=tmp_path)
        with obs.span("good"):
            pass
        spill = tmp_path / f"spans-{os.getpid()}.jsonl"
        with spill.open("a") as fh:
            fh.write("{truncated\n")
        assert [s["name"] for s in read_spans(tmp_path)] == ["good"]

    def test_chrome_trace_schema(self, tmp_path):
        obs.configure(mode=obs.MODE_TRACE, directory=tmp_path)
        with obs.span("train.fit"):
            with obs.span("train.epoch", epoch=0):
                pass
        doc = obs.chrome_trace(tmp_path)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "cat", "ts", "dur", "pid", "tid", "args"}
            assert event["cat"] == "train"
            assert event["ts"] >= 0.0  # rebased to the earliest span
        out = obs.write_chrome_trace(tmp_path / "trace.json", tmp_path)
        assert json.loads(out.read_text())["traceEvents"]

    def test_chrome_trace_empty(self):
        assert chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}


def _traced_item(n: int) -> int:
    with obs.span("item.work", n=n):
        obs.counter("items.done")
    return n * n


class TestMultiprocessingMerge:
    def test_worker_spans_merge_into_parent_timeline(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.OBS_DIR_ENV, str(tmp_path))  # spawn-safe
        monkeypatch.setenv(obs.OBS_ENV, "trace")
        obs.configure(mode=obs.MODE_TRACE, directory=tmp_path)
        result = parallel_map(_traced_item, list(range(6)), processes=2)
        obs.flush()
        assert result == [n * n for n in range(6)]
        spans = obs.read_spans(tmp_path)
        names = {s["name"] for s in spans}
        assert "parallel.map" in names
        # every item ran inside a parallel.item span regardless of which
        # process executed it, and indices cover the full work list
        indices = sorted(
            s["attrs"]["index"] for s in spans if s["name"] == "parallel.item"
        )
        assert indices == list(range(6))
        merged = obs.merged_snapshot()
        assert merged["counters"].get("items.done") == 6.0

    def test_serial_fallback_still_traces(self, tmp_path):
        obs.configure(mode=obs.MODE_TRACE, directory=tmp_path)
        result = parallel_map(_traced_item, [1, 2, 3], processes=1)
        obs.flush()
        assert result == [1, 4, 9]
        spans = obs.read_spans(tmp_path)
        (map_span,) = [s for s in spans if s["name"] == "parallel.map"]
        assert map_span["attrs"]["pool"] == "serial"

    def test_worker_gauges_survive_via_pid_suffix(self, tmp_path):
        obs.configure(mode=obs.MODE_METRICS, directory=tmp_path)
        obs.gauge("train.loss", 0.25)
        # simulate a dead worker's spill (pid encoded in the filename)
        worker = MetricsRegistry()
        worker.gauge("obs.rss.peak_mb", 777.0)
        worker.counter("items.done", 2)
        (tmp_path / "metrics-99999.json").write_text(worker.to_json(), encoding="utf-8")
        merged = obs.merged_snapshot()
        assert merged["counters"]["items.done"] == 2.0
        assert merged["gauges"]["train.loss"] == 0.25  # local, untouched
        assert merged["gauges"]["obs.rss.peak_mb.pid99999"] == 777.0

    def test_metrics_mode_flush_spills_metrics(self, tmp_path):
        obs.configure(mode=obs.MODE_METRICS, directory=tmp_path)
        obs.counter("n", 3)
        obs.flush()
        spill = tmp_path / f"metrics-{os.getpid()}.json"
        assert spill.exists()
        assert json.loads(spill.read_text())["counters"]["n"] == 3.0


# ---------------------------------------------------------------------------
# manifests


class TestManifest:
    def test_write_and_latest_roundtrip(self, tmp_path):
        obs.configure(mode=obs.MODE_METRICS, directory=tmp_path)
        obs.counter("train.epochs", 4)
        path = obs.write_manifest(
            kind="train",
            config={"hidden": 8, "lr": 1e-3},
            seed=7,
            history={"train_loss": [1.0, 0.5]},
            directory=tmp_path,
        )
        assert path is not None and path.exists()
        manifest = obs.latest_manifest(tmp_path)
        assert manifest["kind"] == "train"
        assert manifest["seed"] == 7
        assert manifest["config"]["hidden"] == 8
        assert manifest["metrics"]["counters"]["train.epochs"] == 4.0
        assert manifest["history"]["train_loss"] == [1.0, 0.5]
        assert manifest["kernel_paths"] == {"obs_sample_hz": "0", "sanitize": "0"}
        assert manifest["tuning"]["fold_chunk_rows"] >= 1

    def test_config_hash_stable_and_sensitive(self):
        base = {"a": 1, "b": [1, 2]}
        assert obs.config_hash(base) == obs.config_hash({"b": [1, 2], "a": 1})
        assert obs.config_hash(base) != obs.config_hash({**base, "a": 2})
        assert obs.config_hash(None) is None

    def test_git_sha_resolves_in_this_repo(self):
        sha = obs.git_sha()
        assert sha is None or (len(sha) == 40 and all(c in "0123456789abcdef" for c in sha))

    def test_trainer_fit_writes_manifest(self, tmp_path):
        import numpy as np

        from repro.core import DeepConfig, Prism5GPredictor
        from repro.data import SubDatasetSpec, build_subdataset, random_split

        obs.configure(mode=obs.MODE_METRICS, directory=tmp_path)
        dataset = build_subdataset(
            SubDatasetSpec("OpY", "driving", "long"),
            n_traces=2, samples_per_trace=60, cache=None, processes=1,
        )
        train, val, _ = random_split(dataset.windows, 0.5, 0.2, 0.3, seed=0)
        Prism5GPredictor(DeepConfig(hidden=8, max_epochs=2, patience=2)).fit(train, val)
        manifest = obs.latest_manifest(tmp_path)
        assert manifest["kind"] == "train"
        assert manifest["history"]["epochs_run"] >= 1
        assert np.isfinite(manifest["history"]["best_val_loss"])
        assert manifest["metrics"]["counters"]["train.epochs"] >= 1

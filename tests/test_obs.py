"""Tests for repro.obs: counter registry, worker counters, warnings, run records."""

import json
import logging

import pytest

from repro import obs, runtime
from repro.obs.metrics import MetricsRegistry
from repro.parallel import run_tasks


@pytest.fixture(autouse=True)
def obs_off_after(monkeypatch):
    """Every test starts and ends with observability off and clean."""
    monkeypatch.delenv(obs.OBS_ENV, raising=False)
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
        assert reg.snapshot()["hits"] == 3.5

    def test_snapshot_is_detached_and_reset_clears(self):
        reg = MetricsRegistry()
        reg.counter("n")
        snap = reg.snapshot()
        reg.counter("n")
        assert snap["n"] == 1.0
        reg.reset()
        assert reg.snapshot() == {}


# ---------------------------------------------------------------------------
# module facade / disabled path


class TestDisabledPath:
    def test_metrics_are_dropped_when_off(self):
        obs.counter("n")
        obs.add_counters({"w": 2.0})
        assert obs.snapshot() == {}

    def test_record_has_no_counters_when_off(self, tmp_path):
        obs.counter("sim.steps", 80)
        path = obs.write_record(tmp_path, "experiment", "abc", {}, {}, obs.peak_rss_mb())
        assert path == tmp_path / "run.json"
        assert "counters" not in obs.read_record(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_mode_parsing_from_env(self, monkeypatch):
        for raw, want in (
            ("", obs.MODE_OFF), ("0", obs.MODE_OFF), ("off", obs.MODE_OFF),
            ("1", obs.MODE_METRICS), ("metrics", obs.MODE_METRICS),
            ("trace", obs.MODE_OFF), ("2", obs.MODE_OFF),
        ):
            monkeypatch.setenv(obs.OBS_ENV, raw)
            assert obs.configure() == want
        for bad in ("verbose", "trace"):
            with pytest.raises(ValueError):
                obs.configure(mode=bad)

    def test_warning_logged_with_event_as_first_arg_when_off(self, caplog):
        # the contract perfbench's EventCounter parses: one WARNING on
        # logger repro.obs whose args[0] is the event name, obs off
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            obs.log_warning("cache.corrupt", path="x")
        (record,) = [r for r in caplog.records if r.name == "repro.obs"]
        assert record.levelno == logging.WARNING
        assert record.args[0] == "cache.corrupt"
        assert obs.snapshot() == {}


# ---------------------------------------------------------------------------
# worker counters


def _counted_item(n: int) -> int:
    obs.counter("items.done")
    obs.counter("items.sum", n)
    return n * n


class TestWorkerCounters:
    def test_pool_counters_match_serial_run(self):
        obs.configure(mode=obs.MODE_METRICS)
        serial = run_tasks(_counted_item, list(range(6)), processes=1)
        serial_counters = obs.snapshot()
        obs.reset()
        pooled = run_tasks(_counted_item, list(range(6)), processes=2)
        assert pooled == serial == [n * n for n in range(6)]
        # every item counted exactly once, whichever process ran it
        assert obs.snapshot() == serial_counters == {"items.done": 6.0, "items.sum": 15.0}

    def test_serial_path_keeps_parent_counters(self):
        obs.configure(mode=obs.MODE_METRICS)
        obs.counter("before", 2)
        run_tasks(_counted_item, [1, 2, 3], processes=1)
        assert obs.snapshot() == {"before": 2.0, "items.done": 3.0, "items.sum": 6.0}

    def test_manifest_ignores_files_left_in_a_reused_directory(self, tmp_path):
        obs.configure(mode=obs.MODE_METRICS)
        # what an earlier run in this process counted, and the record it left
        obs.counter("sim.steps", 80)
        obs.counter("cache.hit")
        obs.write_record(tmp_path, "experiment", "abc", {}, {"stale": True}, obs.peak_rss_mb())
        since = obs.snapshot()
        obs.counter("sim.steps", 80)
        run_tasks(_counted_item, [1, 2], processes=2)
        obs.write_record(tmp_path, "experiment", "abc", since, {}, obs.peak_rss_mb())
        # the record counts only what its own run added
        record = obs.read_record(tmp_path)
        assert record["counters"] == {"sim.steps": 80.0, "items.done": 2.0, "items.sum": 3.0}
        assert "stale" not in record


# ---------------------------------------------------------------------------
# run records: run.json, each run's manifest


class TestManifest:
    def test_write_and_read_roundtrip(self, tmp_path):
        obs.configure(mode=obs.MODE_METRICS)
        obs.counter("train.epochs", 4)
        obs.write_record(tmp_path, "campaign", "c0ffee", {}, {"complete": False, "n_ues": 3}, obs.peak_rss_mb())
        record = obs.read_record(tmp_path)
        assert record["schema"] == obs.RUN_SCHEMA
        assert record["kind"] == "campaign"
        assert record["campaign_hash"] == "c0ffee"
        assert record["flags"] == runtime.flags() == {"sanitize": "0"}
        assert record["peak_rss_mb"] > 0
        assert record["counters"] == {"train.epochs": 4.0}
        assert (record["complete"], record["n_ues"]) == (False, 3)
        # one hash, no second spelling of it
        assert sorted(key for key in record if key.endswith("hash")) == ["campaign_hash"]
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_record_stamps_the_peak_at_start(self, tmp_path):
        at_start = obs.peak_rss_mb()
        obs.write_record(tmp_path, "experiment", "abc", {}, {}, at_start)
        record = obs.read_record(tmp_path)
        assert record["peak_rss_mb_at_start"] == at_start <= record["peak_rss_mb"]

    def test_read_record_refuses_what_is_not_a_record(self, tmp_path):
        assert obs.read_record(tmp_path) is None
        (tmp_path / "run.json").write_text("{torn", encoding="utf-8")
        assert obs.read_record(tmp_path) is None
        (tmp_path / "run.json").write_text(json.dumps({"schema": "repro-obs-manifest-v1"}), encoding="utf-8")
        assert obs.read_record(tmp_path) is None

    def test_git_sha_resolves_in_this_repo(self):
        sha = obs.git_sha()
        assert sha is None or (len(sha) == 40 and all(c in "0123456789abcdef" for c in sha))

"""Tests for repro.obs: metrics registry, worker counters, warnings, manifests."""

import logging

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.parallel import run_tasks


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

    def test_snapshot_is_detached_and_reset_clears(self):
        reg = MetricsRegistry()
        reg.counter("n")
        snap = reg.snapshot()
        reg.counter("n")
        assert snap["counters"]["n"] == 1.0
        reg.reset()
        assert reg.snapshot()["counters"] == {}


# ---------------------------------------------------------------------------
# module facade / disabled path


class TestDisabledPath:
    def test_metrics_are_dropped_when_off(self):
        obs.counter("n")
        obs.gauge("g", 1.0)
        obs.add_counters({"w": 2.0})
        assert obs.snapshot() == {"counters": {}, "gauges": {}}

    def test_write_manifest_returns_none_when_off(self, tmp_path):
        assert obs.write_manifest(kind="train", directory=tmp_path) is None
        assert list(tmp_path.iterdir()) == []

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
        assert obs.snapshot()["counters"] == {}


# ---------------------------------------------------------------------------
# worker counters


def _counted_item(n: int) -> int:
    obs.counter("items.done")
    obs.counter("items.sum", n)
    return n * n


class TestWorkerCounters:
    def test_pool_counters_match_serial_run(self, tmp_path):
        obs.configure(mode=obs.MODE_METRICS, directory=tmp_path)
        serial = run_tasks(_counted_item, list(range(6)), processes=1)
        serial_counters = obs.snapshot()["counters"]
        obs.reset()
        pooled = run_tasks(_counted_item, list(range(6)), processes=2)
        assert pooled == serial == [n * n for n in range(6)]
        # every item counted exactly once, whichever process ran it
        assert obs.snapshot()["counters"] == serial_counters == {"items.done": 6.0, "items.sum": 15.0}
        assert list(tmp_path.iterdir()) == []

    def test_serial_path_keeps_parent_counters(self, tmp_path):
        obs.configure(mode=obs.MODE_METRICS, directory=tmp_path)
        obs.counter("before", 2)
        obs.gauge("g", 0.5)
        run_tasks(_counted_item, [1, 2, 3], processes=1)
        snap = obs.snapshot()
        assert snap["counters"] == {"before": 2.0, "items.done": 3.0, "items.sum": 6.0}
        assert snap["gauges"] == {"g": 0.5}

    def test_manifest_ignores_files_left_in_a_reused_directory(self, tmp_path):
        obs.configure(mode=obs.MODE_METRICS, directory=tmp_path)
        # what an earlier run's worker left behind in the same obs dir
        (tmp_path / "metrics-99999.json").write_text(
            '{"counters": {"sim.steps": 160.0, "cache.miss": 1.0}, "gauges": {}}',
            encoding="utf-8",
        )
        obs.counter("sim.steps", 80)
        obs.write_manifest(kind="train", directory=tmp_path)
        counters = obs.latest_manifest(tmp_path)["metrics"]["counters"]
        assert counters == {"sim.steps": 80.0}


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
        assert manifest["kernel_paths"] == {"sanitize": "0"}
        assert manifest["peak_rss_mb"] > 0
        assert "tuning" not in manifest
        assert "telemetry" not in (manifest["extra"] or {})
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, "latest.json"])

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

"""Tests for the on-disk trace cache and parallel trace synthesis."""

import json
import logging
import os
from pathlib import Path

import numpy as np
import pytest

from repro.data import (
    SubDatasetSpec,
    TraceCache,
    build_subdataset,
    cache_key,
    generate_traces,
    load_trace_set,
)
from repro.parallel import default_processes, run_tasks
from repro.ran import CityCampaignConfig, run_city_campaign

SPEC = SubDatasetSpec("OpY", "driving", "long")
FAST = dict(n_traces=3, samples_per_trace=60)


# ---------------------------------------------------------------------------
# cache keys


def test_cache_key_is_stable_and_order_independent():
    config = {"kind": "subdataset", "seed": 3, "dt_s": 1.0}
    reordered = {"dt_s": 1.0, "seed": 3, "kind": "subdataset"}
    assert cache_key(config) == cache_key(reordered)
    assert cache_key(config) == cache_key(config)


def test_cache_key_differs_on_any_field_change():
    base = {"kind": "subdataset", "seed": 3, "dt_s": 1.0}
    assert cache_key(base) != cache_key({**base, "seed": 4})
    assert cache_key(base) != cache_key({**base, "dt_s": 0.01})
    assert cache_key(base) != cache_key({**base, "extra": None})


# ---------------------------------------------------------------------------
# hits, misses, byte-identity


def test_cache_hit_reproduces_byte_identical_windows(tmp_path):
    cache = TraceCache(tmp_path)
    fresh = build_subdataset(SPEC, seed=5, cache=None, **FAST)
    cold = build_subdataset(SPEC, seed=5, cache=cache, **FAST)
    assert len(cache.entries()) == 1
    warm = build_subdataset(SPEC, seed=5, cache=cache, **FAST)
    for name in ("x", "mask", "y", "y_hist"):
        want = getattr(fresh.windows, name)
        assert getattr(cold.windows, name).tobytes() == want.tobytes(), name
        assert getattr(warm.windows, name).tobytes() == want.tobytes(), name
    assert warm.windows.trace_ids.tolist() == fresh.windows.trace_ids.tolist()


def test_cache_misses_on_seed_and_config_change(tmp_path):
    cache = TraceCache(tmp_path)
    generate_traces(SPEC, seed=1, cache=cache, **FAST)
    assert len(cache.entries()) == 1
    generate_traces(SPEC, seed=2, cache=cache, **FAST)
    assert len(cache.entries()) == 2  # seed change -> new entry
    generate_traces(SPEC, seed=1, cache=cache, n_traces=3, samples_per_trace=80)
    assert len(cache.entries()) == 3  # config change -> new entry
    generate_traces(SPEC, seed=1, cache=cache, **FAST)
    assert len(cache.entries()) == 3  # repeat -> hit, no new entry


def test_cache_get_returns_none_on_miss(tmp_path):
    cache = TraceCache(tmp_path)
    assert cache.get({"kind": "never-stored"}) is None
    assert not cache.contains({"kind": "never-stored"})


def test_cache_corrupt_entry_is_reported_and_regenerated(tmp_path, caplog):
    """A truncated/corrupt entry acts as a miss: warned, counted, deleted."""
    import logging

    from repro import obs

    cache = TraceCache(tmp_path)
    config = {"kind": "subdataset", "seed": 1}
    cache.put(config, generate_traces(SPEC, seed=1, cache=None, **FAST))
    entry = cache.path_for(config)
    jsonl = sorted(entry.glob("*.jsonl"))[0]
    jsonl.write_text("{not json at all\n")

    obs.configure(mode=obs.MODE_METRICS)
    try:
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            assert cache.get(config) is None
        assert not entry.exists()  # bad entry deleted, next run regenerates
        assert any("cache.corrupt" in rec.message for rec in caplog.records)
        assert obs.snapshot().get("cache.corrupt") == 1.0
    finally:
        obs.configure(mode=obs.MODE_OFF)
        obs.reset()
    # and get_or_create recovers by synthesizing a fresh entry
    fresh = cache.get_or_create(config, lambda: generate_traces(SPEC, seed=1, cache=None, **FAST))
    assert len(fresh.traces) == FAST["n_traces"]
    assert cache.contains(config)


def test_put_returns_its_entry_and_keeps_a_stored_one(tmp_path):
    cache = TraceCache(tmp_path / "traces")  # created by the first put
    config = {"kind": "subdataset", "seed": 1}
    traces = generate_traces(SPEC, seed=1, **FAST)
    entry = cache.put(config, traces)
    assert entry == cache.path_for(config)
    assert [path.name for path in cache.directory.iterdir()] == [entry.name]  # no staging left
    assert json.loads((entry / "config.json").read_text()) == config
    stamp = (entry / "manifest.json").stat().st_mtime_ns
    assert cache.put(config, generate_traces(SPEC, seed=2, **FAST)) == entry
    assert (entry / "manifest.json").stat().st_mtime_ns == stamp
    assert cache.get(config).traces == traces.traces


def test_generate_traces_hit_equals_fresh_synthesis_in_every_field(tmp_path):
    # every record field and the trace metadata, not only the windowed arrays
    cache = TraceCache(tmp_path)
    fresh = generate_traces(SPEC, seed=3, **FAST)
    stored = generate_traces(SPEC, seed=3, cache=cache, **FAST)
    hit = generate_traces(SPEC, seed=3, cache=cache, **FAST)
    assert len(cache.entries()) == 1
    assert fresh.traces == stored.traces == hit.traces


def test_entries_lists_only_finished_entries(tmp_path):
    assert TraceCache(tmp_path / "never-made").entries() == []
    cache = TraceCache(tmp_path)
    config = {"kind": "subdataset", "seed": 4}
    staging = cache.path_for(config).with_name(f"{cache_key(config)}.tmp-1")
    staging.mkdir()  # a writer killed before its rename
    assert cache.entries() == []
    assert not cache.contains(config)
    cache.put(config, generate_traces(SPEC, seed=4, **FAST))
    assert cache.entries() == [cache_key(config)]


# ---------------------------------------------------------------------------
# no process-wide cache: traces live in the directory of the run that made them

SPILLING = CityCampaignConfig(
    operators=("OpZ",), scenarios=("urban", "highway"), rats=("5G",), ues=2, shards=3,
    duration_s=6.0, seed=11, spill_traces=True,
)


def _point_old_cache_locations(monkeypatch, root):
    """Point the retired process-wide cache (``REPRO_CACHE_DIR``, else
    ``~/.cache/repro5g``) at fresh empty directories under ``root``."""
    locations = {"REPRO_CACHE_DIR": root / "cache", "HOME": root / "home"}
    for name, path in locations.items():
        path.mkdir(parents=True)
        monkeypatch.setenv(name, str(path))
    return list(locations.values())


def test_synthesis_and_spill_write_no_process_wide_cache(tmp_path, monkeypatch):
    old_locations = _point_old_cache_locations(monkeypatch, tmp_path / "old")
    with pytest.raises(TypeError):
        TraceCache()
    build_subdataset(SPEC, seed=5, **FAST)
    generate_traces(SPEC, seed=6, **FAST)
    state = tmp_path / "state"
    result = run_city_campaign(SPILLING, state_dir=state)
    assert [sorted(path.iterdir()) for path in old_locations] == [[], []]
    assert TraceCache(state / "traces").entries() == sorted(result.spill_keys)
    from_state = [trace for key in result.spill_keys for trace in load_trace_set(state / "traces" / key)]
    spilled = result.load_spilled_traces()
    assert len(spilled) == result.n_ues
    assert [t.throughput_series().tobytes() for t in spilled] == [
        t.throughput_series().tobytes() for t in from_state
    ]


def test_spilled_campaign_resumes_whatever_the_environment(tmp_path, monkeypatch, caplog):
    _point_old_cache_locations(monkeypatch, tmp_path / "first")
    first = run_city_campaign(SPILLING, state_dir=tmp_path / "state")
    _point_old_cache_locations(monkeypatch, tmp_path / "second")
    with caplog.at_level(logging.WARNING, logger="repro.obs"):
        again = run_city_campaign(SPILLING, state_dir=tmp_path / "state")
    assert not [rec for rec in caplog.records if rec.args and rec.args[0] == "artifact.unreadable"]
    assert again.shards_resumed == SPILLING.shards
    assert again.n_simulated == 0
    assert again.stats == first.stats
    assert len(again.load_spilled_traces()) == again.n_ues


# ---------------------------------------------------------------------------
# parallel synthesis


def _square(n: int) -> int:
    return n * n


def test_run_tasks_preserves_order():
    items = list(range(20))
    assert run_tasks(_square, items, processes=2) == [n * n for n in items]
    assert run_tasks(_square, items, processes=1) == [n * n for n in items]
    assert run_tasks(_square, []) == []


def _simulate_or_fail(job):
    """Record which process ran ``job``; the fourth trace raises."""
    Path(os.environ["SYNTH_RECORD_DIR"], f"{job['route_id']}-{os.getpid()}").touch()
    if job["route_id"] == 3:
        raise ValueError("trace 3 failed")
    return job["route_id"]


def test_failing_synthesis_job_runs_once_in_a_worker(tmp_path, monkeypatch):
    # a failing job must not send every job back through a serial rerun
    # in the parent
    monkeypatch.setenv("SYNTH_RECORD_DIR", str(tmp_path))
    monkeypatch.setattr("repro.data.datasets.simulate_trace", _simulate_or_fail)
    with pytest.raises(RuntimeError, match="task-3 failed after 1 attempt.*trace 3 failed"):
        generate_traces(SPEC, n_traces=4, samples_per_trace=10, cache=None, processes=2)
    runs = sorted(path.name.split("-") for path in tmp_path.iterdir())
    assert [route for route, _ in runs] == ["0", "1", "2", "3"]
    assert str(os.getpid()) not in {pid for _, pid in runs}


def test_parallel_synthesis_matches_serial():
    serial = generate_traces(SPEC, seed=9, cache=None, processes=1, **FAST)
    parallel = generate_traces(SPEC, seed=9, cache=None, processes=2, **FAST)
    assert len(serial.traces) == len(parallel.traces)
    for a, b in zip(serial.traces, parallel.traces):
        assert np.array_equal(a.throughput_series(), b.throughput_series())
        assert a.feature_tensor(4)[0].tobytes() == b.feature_tensor(4)[0].tobytes()


def test_default_processes_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_PROCS", "3")
    assert default_processes(10) == 3
    monkeypatch.delenv("REPRO_PROCS")
    assert default_processes(1) == 1
    assert default_processes(10_000) >= 1

"""SLO budgets over run manifests, the BENCH trend gate, and the obs check-slo CLI."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.slo import (
    SLO_SCHEMA,
    check_bench_file,
    check_bench_trend,
    evaluate_slo,
    load_slo,
)


@pytest.fixture(autouse=True)
def obs_off_after(monkeypatch):
    monkeypatch.delenv(obs.OBS_ENV, raising=False)
    monkeypatch.delenv(obs.OBS_DIR_ENV, raising=False)
    obs.configure(mode=obs.MODE_OFF)
    obs.reset()
    yield
    obs.configure(mode=obs.MODE_OFF)
    obs.reset()


# ---------------------------------------------------------------------------
# SLO budgets


def _slo(budgets):
    return {"schema": SLO_SCHEMA, "budgets": budgets}


def _manifest(counters=None, peak_rss_mb=64.0):
    return {"peak_rss_mb": peak_rss_mb, "metrics": {"counters": counters or {}, "gauges": {}}}


class TestEvaluateSlo:
    def test_counter_max_glob(self):
        manifest = _manifest({"cache.corrupt": 3.0, "cache.hit": 9.0, "parallel.shard.retry": 1.0})
        violations = evaluate_slo(
            _slo({"counter_max": {"cache.corrupt": 0, "parallel.*": 0}}), manifest
        )
        assert {v.subject for v in violations} == {"cache.corrupt", "parallel.shard.retry"}

    def test_peak_rss_checks_the_manifest_field(self):
        (v,) = evaluate_slo(_slo({"peak_rss_mb": 512}), _manifest(peak_rss_mb=900.0))
        assert (v.budget, v.subject, v.actual) == ("peak_rss_mb", "manifest", 900.0)
        assert "exceeds budget 512" in v.message()
        assert evaluate_slo(_slo({"peak_rss_mb": 512}), _manifest(peak_rss_mb=100.0)) == []

    def test_load_slo_rejects_bad_files(self, tmp_path):
        bad_schema = tmp_path / "a.json"
        bad_schema.write_text(json.dumps({"schema": "nope", "budgets": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_slo(bad_schema)
        for retired in ("warp_speed", "stage_wall_s", "counter_min"):
            bad_key = tmp_path / "b.json"
            bad_key.write_text(json.dumps(_slo({retired: 9})))
            with pytest.raises(ValueError, match="unknown budget keys"):
                load_slo(bad_key)

    def test_load_slo_accepts_valid_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(_slo({"counter_max": {"x": 1}})))
        assert load_slo(path)["budgets"]["counter_max"] == {"x": 1}


class TestBenchTrend:
    def _bench(self, baseline, latest):
        return {
            "baseline": {"current_s": {"end_to_end": baseline}},
            "latest": {"current_s": {"end_to_end": latest}},
        }

    def test_regression_over_limit_fails(self):
        v = check_bench_trend(self._bench(10.0, 12.0), limit=1.15)
        assert v is not None and v.actual == 1.2

    def test_within_limit_passes(self):
        assert check_bench_trend(self._bench(10.0, 11.0), limit=1.15) is None

    def test_missing_sections_pass(self):
        assert check_bench_trend({}) is None
        assert check_bench_trend({"baseline": {"current_s": {"end_to_end": 1.0}}}) is None

    def test_missing_file_passes_bad_json_raises(self, tmp_path):
        assert check_bench_file(tmp_path / "nope.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            check_bench_file(bad)


# ---------------------------------------------------------------------------
# CLI gates


FAST_BUDGET = _slo(
    {"peak_rss_mb": 4096, "counter_max": {"cache.corrupt": 0}, "end_to_end_regression": 1.15}
)


def _write_run(directory, counters=None):
    """One run's manifest in ``directory``, as ``--obs metrics`` leaves it."""
    obs.configure(mode=obs.MODE_METRICS, directory=directory)
    for name, value in (counters or {"cache.hit": 2}).items():
        obs.counter(name, value)
    obs.write_manifest(kind="train")
    obs.reset()


def _check(tmp_path, run_dir, budget=FAST_BUDGET, bench=None):
    budget_path = tmp_path / "slo.json"
    budget_path.write_text(json.dumps(budget))
    bench_path = tmp_path / "bench.json"
    if bench is not None:
        bench_path.write_text(json.dumps(bench))
    return main(
        [
            "obs", "check-slo", "--budget", str(budget_path),
            "--dir", str(run_dir), "--bench", str(bench_path),
        ]
    )


class TestObsCli:
    def test_check_slo_passes_within_budget(self, tmp_path, capsys):
        _write_run(tmp_path / "obs")
        assert _check(tmp_path, tmp_path / "obs") == 0
        assert "OK" in capsys.readouterr().out

    def test_check_slo_exits_nonzero_on_injected_violation(self, tmp_path, capsys):
        _write_run(tmp_path / "obs", {"cache.corrupt": 1})
        assert _check(tmp_path, tmp_path / "obs") == 1
        err = capsys.readouterr().err
        assert "cache.corrupt" in err and "FAIL" in err

    def test_check_slo_fails_on_peak_rss_over_limit(self, tmp_path, capsys):
        _write_run(tmp_path / "obs")
        budget = _slo({"peak_rss_mb": 1})
        assert _check(tmp_path, tmp_path / "obs", budget=budget) == 1
        assert "[peak_rss_mb]" in capsys.readouterr().err

    def test_check_slo_fails_on_bench_regression(self, tmp_path, capsys):
        _write_run(tmp_path / "obs")
        bench = {
            "baseline": {"current_s": {"end_to_end": 10.0}},
            "latest": {"current_s": {"end_to_end": 12.0}},
        }
        assert _check(tmp_path, tmp_path / "obs", bench=bench) == 1
        assert "[end_to_end_regression]" in capsys.readouterr().err

    def test_check_slo_without_manifest_exits_1_naming_the_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert _check(tmp_path, empty) == 1
        assert f"no run manifest under {empty}" in capsys.readouterr().err

    def test_check_slo_bad_budget_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        assert main(["obs", "check-slo", "--budget", str(bad)]) == 2
        assert "expected an SLO file" in capsys.readouterr().err

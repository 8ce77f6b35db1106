"""SLO budgets over run records and the obs check-slo CLI."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.slo import SLO_SCHEMA, evaluate_slo, load_slo


@pytest.fixture(autouse=True)
def obs_off_after(monkeypatch):
    monkeypatch.delenv(obs.OBS_ENV, raising=False)
    obs.configure(mode=obs.MODE_OFF)
    obs.reset()
    yield
    obs.configure(mode=obs.MODE_OFF)
    obs.reset()


# ---------------------------------------------------------------------------
# SLO budgets


def _slo(budgets):
    return {"schema": SLO_SCHEMA, "budgets": budgets}


def _record(counters=None, peak_rss_mb=64.0):
    return {"peak_rss_mb": peak_rss_mb, "counters": counters or {}}


class TestEvaluateSlo:
    def test_counter_max_glob(self):
        record = _record({"cache.corrupt": 3.0, "cache.hit": 9.0, "parallel.shard.retry": 1.0})
        violations = evaluate_slo(
            _slo({"counter_max": {"cache.corrupt": 0, "parallel.*": 0}}), record
        )
        assert {v.subject for v in violations} == {"cache.corrupt", "parallel.shard.retry"}

    def test_peak_rss_checks_the_manifest_field(self):
        (v,) = evaluate_slo(_slo({"peak_rss_mb": 512}), _record(peak_rss_mb=900.0))
        assert (v.budget, v.subject, v.actual) == ("peak_rss_mb", "record", 900.0)
        assert "exceeds budget 512" in v.message()
        assert evaluate_slo(_slo({"peak_rss_mb": 512}), _record(peak_rss_mb=100.0)) == []

    def test_load_slo_rejects_bad_files(self, tmp_path):
        bad_schema = tmp_path / "a.json"
        bad_schema.write_text(json.dumps({"schema": "nope", "budgets": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_slo(bad_schema)
        for retired in ("warp_speed", "stage_wall_s", "counter_min", "end_to_end_regression"):
            bad_key = tmp_path / "b.json"
            bad_key.write_text(json.dumps(_slo({retired: 9})))
            with pytest.raises(ValueError, match="unknown budget keys"):
                load_slo(bad_key)
        malformed = [
            ({"peak_rss_mb": "lots"}, "'peak_rss_mb' must be a number"),
            ({"peak_rss_mb": True}, "'peak_rss_mb' must be a number"),
            ({"counter_max": ["x"]}, "'counter_max' must map counter names to numbers"),
            ({"counter_max": {"cache.corrupt": "none"}}, "'counter_max' must map counter names to numbers"),
            ({"counter_max": {"cache.corrupt": False}}, "'counter_max' must map counter names to numbers"),
        ]
        for budgets, message in malformed:
            bad_value = tmp_path / "c.json"
            bad_value.write_text(json.dumps(_slo(budgets)))
            with pytest.raises(ValueError, match=message):
                load_slo(bad_value)

    def test_load_slo_accepts_valid_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(_slo({"counter_max": {"x": 1}})))
        assert load_slo(path)["budgets"]["counter_max"] == {"x": 1}


# ---------------------------------------------------------------------------
# CLI gates


FAST_BUDGET = _slo({"peak_rss_mb": 4096, "counter_max": {"cache.corrupt": 0}})


def _write_run(directory, counters=None, metrics=True):
    """One run's record in ``directory``, as a run under ``--obs metrics`` (or off) leaves it."""
    obs.configure(mode=obs.MODE_METRICS if metrics else obs.MODE_OFF)
    since = obs.snapshot()
    for name, value in (counters or {"cache.hit": 2}).items():
        obs.counter(name, value)
    obs.write_record(directory, "experiment", "abc", since, {}, obs.peak_rss_mb())
    obs.configure(mode=obs.MODE_OFF)


def _check(tmp_path, run_dir, budget=FAST_BUDGET):
    budget_path = tmp_path / "slo.json"
    budget_path.write_text(json.dumps(budget))
    return main(["obs", "check-slo", "--budget", str(budget_path), str(run_dir)])


class TestObsCli:
    def test_check_slo_passes_within_budget(self, tmp_path, capsys):
        _write_run(tmp_path / "run")
        assert _check(tmp_path, tmp_path / "run") == 0
        assert f"OK: {tmp_path / 'run' / 'run.json'} is within budget" in capsys.readouterr().out

    def test_check_slo_exits_nonzero_on_injected_violation(self, tmp_path, capsys):
        _write_run(tmp_path / "run", {"cache.corrupt": 1})
        assert _check(tmp_path, tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert "cache.corrupt" in err and "FAIL" in err

    def test_check_slo_fails_on_peak_rss_over_limit(self, tmp_path, capsys):
        _write_run(tmp_path / "run")
        budget = _slo({"peak_rss_mb": 1})
        assert _check(tmp_path, tmp_path / "run", budget=budget) == 1
        assert "[peak_rss_mb]" in capsys.readouterr().err

    def test_check_slo_fails_when_the_budget_bounds_counters_the_record_lacks(self, tmp_path, capsys):
        _write_run(tmp_path / "run", metrics=False)
        assert _check(tmp_path, tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'run' / 'run.json'} has no counters" in err
        # a budget that bounds no counter reads a record without them
        assert _check(tmp_path, tmp_path / "run", budget=_slo({"peak_rss_mb": 4096})) == 0

    def test_check_slo_gates_a_campaign_state_dir(self, tmp_path, capsys):
        state = tmp_path / "state"
        argv = [
            "campaign", "--operators", "OpZ", "--scenarios", "urban", "--rats", "5G",
            "--ues", "2", "--duration", "5", "--state-dir", str(state), "--obs", "metrics",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert _check(tmp_path, state) == 0
        assert f"OK: {state / 'run.json'} is within budget" in capsys.readouterr().out

    def test_check_slo_without_manifest_exits_1_naming_the_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert _check(tmp_path, empty) == 1
        assert f"no run record (run.json) in {empty}" in capsys.readouterr().err

    def test_check_slo_bad_budget_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        assert main(["obs", "check-slo", "--budget", str(bad), str(tmp_path)]) == 2
        assert "expected an SLO file" in capsys.readouterr().err

    def test_check_slo_malformed_budget_value_exits_2_naming_the_file(self, tmp_path, capsys):
        _write_run(tmp_path / "run")
        assert _check(tmp_path, tmp_path / "run", budget=_slo({"peak_rss_mb": "lots"})) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'slo.json'}:" in err and "'peak_rss_mb' must be a number" in err

"""Tests for repro.parallel.run_tasks: retry, timeout classification, failure."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import obs
from repro.parallel import run_tasks


def _square(x):
    return x * x


def _fail_once(flag_path):
    """Fail on the first call, succeed afterwards (flag file = "already failed")."""
    path = Path(flag_path)
    if not path.exists():
        path.write_text("failed")
        raise RuntimeError("transient crash")
    return "ok"


def _always_fail(x):
    raise ValueError(f"broken-{x}")


@pytest.fixture()
def metrics_obs(tmp_path):
    obs.configure(mode=obs.MODE_METRICS, directory=tmp_path / "obs")
    obs.reset()
    yield
    obs.configure(mode=obs.MODE_OFF)


class TestRunTasks:
    def test_order_preserving(self):
        assert run_tasks(_square, [3, 1, 4, 1, 5], processes=1) == [9, 1, 16, 1, 25]

    def test_empty(self):
        assert run_tasks(_square, [], processes=1) == []

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            run_tasks(_square, [1, 2], labels=["only-one"], processes=1)

    def test_crash_retried_once(self, tmp_path, metrics_obs):
        flag = tmp_path / "crashed.flag"
        out = run_tasks(
            _fail_once, [str(flag)], labels=["shard-0000"], processes=1, retries=1
        )
        assert out == ["ok"]
        counters = obs.snapshot()["counters"]
        assert counters.get("parallel.shard.retry") == 1
        assert "parallel.shard.failed" not in counters

    def test_twice_failing_raises_naming_shard(self, tmp_path, metrics_obs):
        with pytest.raises(RuntimeError, match="shard-0007"):
            run_tasks(
                _always_fail, [7], labels=["shard-0007"], processes=1, retries=1
            )
        counters = obs.snapshot()["counters"]
        assert counters.get("parallel.shard.retry") == 1
        assert counters.get("parallel.shard.failed") == 1

    def test_pool_path_retry(self, tmp_path, metrics_obs):
        """With a pool, a crashing worker is resubmitted and succeeds."""
        flags = [str(tmp_path / "a.flag"), str(tmp_path / "b.flag")]
        out = run_tasks(
            _fail_once,
            flags,
            labels=["shard-0000", "shard-0001"],
            processes=2,
            retries=1,
        )
        assert out == ["ok", "ok"]

    def test_pool_path_order(self):
        out = run_tasks(_square, list(range(6)), processes=2)
        assert out == [x * x for x in range(6)]

"""repro.runtime: the sanitize switch, its process-level presets, and
the hash recipe."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import backends, obs, runtime


@pytest.fixture(autouse=True)
def restore_flags():
    before = runtime.flags()
    yield
    runtime.configure(**before)


class TestFlags:
    def test_defaults(self):
        assert runtime.flags() == {"sanitize": "0"}

    def test_backend_defaults_to_numpy(self):
        assert backends.active_name() == "numpy"
        assert "backend" not in runtime.flags()

    def test_value_flag_coerced_and_restored(self):
        previous = runtime.configure(sanitize="  On  ")
        assert previous == {"sanitize": "0"}
        assert runtime.flags() == {"sanitize": "1"}
        with runtime.use(sanitize=False):
            assert runtime.flags() == {"sanitize": "0"}
        assert runtime.flags() == {"sanitize": "1"}
        with pytest.raises(ValueError, match="sanitize must be one of"):
            runtime.configure(sanitize="   ")

    def test_unknown_flag_rejected(self):
        with pytest.raises(TypeError, match="turbo_mode"):
            runtime.configure(turbo_mode=True)
        with pytest.raises(TypeError, match="turbo_mode"):
            runtime.use(turbo_mode=True)
        assert runtime.flags() == {"sanitize": "0"}

    def test_configure_ignores_none(self):
        runtime.configure(sanitize=None)
        assert runtime.flags() == {"sanitize": "0"}

    def test_configure_returns_previous_snapshot(self):
        previous = runtime.configure(sanitize="yes")
        assert previous["sanitize"] == "0"
        assert runtime.configure(**previous) == {"sanitize": "1"}
        assert runtime.flags() == {"sanitize": "0"}

    def test_use_restores_on_exit(self):
        with runtime.use(sanitize="on"):
            assert runtime.flags() == {"sanitize": "1"}
        assert runtime.flags() == {"sanitize": "0"}

    def test_use_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with runtime.use(sanitize="1"):
                raise RuntimeError("boom")
        assert runtime.flags() == {"sanitize": "0"}


def _fresh_interpreter(code, sanitize):
    """Run ``code`` in a new interpreter with ``REPRO_SANITIZE`` preset."""
    env = {**os.environ, "REPRO_SANITIZE": sanitize, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)


class TestEnvPreset:
    def test_env_preset_arms_a_fresh_interpreter(self):
        proc = _fresh_interpreter(
            "from repro import backends, runtime\n"
            "assert runtime.flags() == {'sanitize': '1'}, runtime.flags()\n"
            "assert backends.sanitize_active()\n",
            sanitize="on",
        )
        assert proc.returncode == 0, proc.stderr

    def test_bad_env_preset_fails_the_import(self):
        proc = _fresh_interpreter("import repro\n", sanitize="bogus")
        assert proc.returncode != 0
        assert "ValueError" in proc.stderr and "'bogus'" in proc.stderr


class TestCanonicalHash:
    def test_stable_across_key_order(self):
        a = runtime.canonical_hash({"x": 1, "y": 2})
        b = runtime.canonical_hash({"y": 2, "x": 1})
        assert a == b

    def test_schema_changes_hash(self):
        plain = runtime.canonical_hash({"x": 1})
        assert runtime.canonical_hash({"x": 1}, schema="v1") != plain
        assert runtime.canonical_hash({"x": 1}, schema="v2") != runtime.canonical_hash(
            {"x": 1}, schema="v1"
        )

    def test_value_changes_hash(self):
        assert runtime.canonical_hash({"x": 1}) != runtime.canonical_hash({"x": 2})

    def test_length_parameter(self):
        assert len(runtime.canonical_hash({"x": 1})) == 16
        assert len(runtime.canonical_hash({"x": 1}, length=24)) == 24

    def test_exotic_values_stringified(self):
        from pathlib import Path

        # default=str keeps e.g. Paths hashable rather than raising
        assert runtime.canonical_hash({"p": Path("/tmp/x")})

    def test_matches_obs_config_hash(self):
        config = {"operator": "OpZ", "dt_s": 1.0}
        assert obs.config_hash(config) == runtime.canonical_hash(config)


class TestCacheKeyFingerprint:
    def test_nn_only_flags_do_not_change_cache_key(self):
        from repro.data.cache import cache_key

        config = {"kind": "subdataset", "seed": 0}
        with runtime.use(sanitize="0"):
            off = cache_key(config)
        with runtime.use(sanitize="1"):
            on = cache_key(config)
        assert on == off

"""repro.runtime: the value flags, their mirrors, and the hash recipe."""

import pytest

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
        previous = runtime.set_flag("sanitize", "  On  ")
        assert previous == "0"
        assert runtime.flag("sanitize") == "1"
        with runtime.use(sanitize=False):
            assert runtime.flag("sanitize") == "0"
        assert runtime.flag("sanitize") == "1"
        with pytest.raises(ValueError, match="sanitize must be one of"):
            runtime.set_flag("sanitize", "   ")

    def test_set_flag_returns_previous(self):
        assert runtime.set_flag("sanitize", "1") == "0"
        assert runtime.set_flag("sanitize", "0") == "1"

    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError, match="unknown runtime flag"):
            runtime.flag("turbo_mode")
        with pytest.raises(ValueError, match="unknown runtime flag"):
            runtime.set_flag("turbo_mode", True)
        with pytest.raises(ValueError, match="unknown runtime flag"):
            runtime.configure(turbo_mode=True)

    def test_configure_ignores_none(self):
        runtime.configure(sanitize=None)
        assert runtime.flag("sanitize") == "0"

    def test_configure_returns_previous_snapshot(self):
        previous = runtime.configure(sanitize="yes")
        assert previous["sanitize"] == "0"
        runtime.configure(**previous)
        assert runtime.flag("sanitize") == "0"

    def test_use_restores_on_exit(self):
        with runtime.use(sanitize="on"):
            assert runtime.flag("sanitize") == "1"
        assert runtime.flag("sanitize") == "0"

    def test_use_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with runtime.use(sanitize="1"):
                raise RuntimeError("boom")
        assert runtime.flag("sanitize") == "0"


class TestShimEquivalence:
    """The write-through mirrors and runtime must stay one state."""

    def test_mirror_globals_track_runtime(self):
        # hot paths read this module global directly; it must follow
        runtime.set_flag("sanitize", "1")
        assert backends._SANITIZE is True


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

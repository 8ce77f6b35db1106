"""Fixtures every tier-1 test module shares."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def private_trace_cache(tmp_path_factory):
    """Point the default trace cache at an empty directory for the whole test run.

    ``build_subdataset`` and ``generate_traces`` default to
    ``cache="auto"``, which reads and writes ``REPRO_CACHE_DIR`` (or
    ``~/.cache/repro5g``).  Without this, a test's traces would be
    whatever an earlier run of any checkout left under the same key, and
    a simulator change that forgot to bump ``CACHE_SCHEMA_VERSION``
    would pass on stale traces.  A test that sets ``REPRO_CACHE_DIR``
    itself (``monkeypatch.setenv``) gets this directory back afterwards.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("trace-cache")))
        yield

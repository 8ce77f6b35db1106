"""Content-addressed on-disk cache for synthesized trace sets.

Every headline bench re-synthesizes its traces from the RAN simulator,
which is the slowest part of the repo's hot path.  Simulation is fully
deterministic given its configuration (operator, scenario, modem, dt,
seed, ...), so a content hash of that configuration identifies the
output exactly.  This module caches :class:`~repro.ran.traces.TraceSet`
objects on disk under that hash, using the JSONL artifact format from
:mod:`repro.data.artifacts` — JSON float round-tripping is exact, so a
cache hit reproduces byte-identical traces and therefore byte-identical
windowed arrays.

Layout::

    <cache_dir>/<key>/manifest.json     # artifact manifest
    <cache_dir>/<key>/config.json       # the hashed configuration
    <cache_dir>/<key>/*.jsonl           # one file per trace

The default directory is ``~/.cache/repro5g`` (override with the
``REPRO_CACHE_DIR`` environment variable); ``REPRO_NO_CACHE=1``
disables caching globally.  Clear with :meth:`TraceCache.clear` or
simply ``rm -rf`` the directory.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Callable, List, Mapping, Optional, Union

from .. import obs, runtime
from ..ran.traces import TraceSet
from .artifacts import MANIFEST_NAME, load_trace_set, save_trace_set

#: bump when simulator/windowing semantics change so stale entries miss.
#: v4: keys no longer fold in a runtime dispatch fingerprint — the
#: simulator has one radio path.
CACHE_SCHEMA_VERSION = "repro-traces-v4"

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_DISABLE_ENV = "REPRO_NO_CACHE"

CONFIG_NAME = "config.json"


def cache_key(config: Mapping) -> str:
    """Stable content hash of a simulation configuration.

    Delegates to :func:`repro.runtime.canonical_hash` (the repo's one
    hashing recipe, shared with obs manifests and the experiment
    pipeline).  The schema version is folded in so semantic changes to
    the simulator invalidate old entries.
    """
    return runtime.canonical_hash(config, schema=CACHE_SCHEMA_VERSION, length=24)


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro5g"


def caching_disabled() -> bool:
    return bool(os.environ.get(CACHE_DISABLE_ENV))


class TraceCache:
    """Directory of trace sets keyed by configuration hash."""

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()

    # ------------------------------------------------------------------
    def path_for(self, config: Mapping) -> Path:
        return self.directory / cache_key(config)

    def contains(self, config: Mapping) -> bool:
        return (self.path_for(config) / MANIFEST_NAME).exists()

    def _entry_bytes(self, entry: Path) -> int:
        try:
            return sum(p.stat().st_size for p in entry.iterdir() if p.is_file())
        except OSError:
            return 0

    def get(self, config: Mapping) -> Optional[TraceSet]:
        """Load the trace set for ``config`` or return None on a miss.

        A corrupt or truncated entry (e.g. a run killed mid-write, disk
        trouble) is treated as a miss: it is reported as a structured
        ``cache.corrupt`` warning and deleted so the next run
        regenerates it instead of failing forever.
        """
        entry = self.path_for(config)
        if not (entry / MANIFEST_NAME).exists():
            if obs.metrics_enabled():
                obs.counter("cache.miss")
            return None
        try:
            traces = load_trace_set(entry)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            obs.log_warning(
                "cache.corrupt",
                key=entry.name,
                directory=str(self.directory),
                error=f"{type(exc).__name__}: {exc}",
            )
            shutil.rmtree(entry, ignore_errors=True)
            return None
        if obs.metrics_enabled():
            obs.counter("cache.hit")
            obs.counter("cache.bytes_read", self._entry_bytes(entry))
        return traces

    def put(self, config: Mapping, traces: TraceSet) -> Path:
        """Store ``traces`` under the config hash (atomic via rename)."""
        entry = self.path_for(config)
        if (entry / MANIFEST_NAME).exists():
            return entry
        staging = entry.with_name(f"{entry.name}.tmp-{os.getpid()}")
        if staging.exists():
            shutil.rmtree(staging)
        save_trace_set(traces, staging, name=entry.name)
        (staging / CONFIG_NAME).write_text(json.dumps(dict(config), indent=2, default=str))
        try:
            staging.replace(entry)
        except OSError:
            # lost a race with a concurrent writer; their entry is
            # identical by construction
            shutil.rmtree(staging, ignore_errors=True)
        if obs.metrics_enabled():
            obs.counter("cache.store")
            obs.counter("cache.bytes_written", self._entry_bytes(entry))
        return entry

    def get_or_create(self, config: Mapping, factory: Callable[[], TraceSet]) -> TraceSet:
        """Return the cached trace set, synthesizing + storing on a miss."""
        cached = self.get(config)
        if cached is not None:
            return cached
        traces = factory()
        self.put(config, traces)
        return traces

    # ------------------------------------------------------------------
    def entries(self) -> List[str]:
        """Hashes currently present in the cache directory."""
        if not self.directory.exists():
            return []
        return sorted(
            p.name for p in self.directory.iterdir()
            if p.is_dir() and (p / MANIFEST_NAME).exists()
        )

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.directory.exists():
            return removed
        for child in self.directory.iterdir():
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
                removed += 1
        return removed


CacheLike = Union[TraceCache, str, Path, None]


def resolve_cache(cache: Union[CacheLike, str] = "auto") -> Optional[TraceCache]:
    """Normalize a cache argument.

    ``"auto"`` — the default cache unless ``REPRO_NO_CACHE`` is set;
    ``None`` — caching off; a :class:`TraceCache`/path — as given.
    """
    if cache is None:
        return None
    if isinstance(cache, TraceCache):
        return cache
    if cache == "auto":
        return None if caching_disabled() else TraceCache()
    return TraceCache(cache)

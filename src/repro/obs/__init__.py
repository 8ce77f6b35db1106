"""repro.obs — counters, gauges, structured warnings and run manifests.

One in-process observability layer shared by every subsystem
(simulator, cache, parallel map, trainer, evaluation, campaigns):

* **Metrics** — ``obs.counter("cache.hit")`` and ``obs.gauge(...)``
  land in one :class:`~repro.obs.metrics.MetricsRegistry` per process.
  :mod:`repro.parallel` pool workers hand their counters back with each
  result, and the parent adds them to its own registry, so the parent's
  :func:`snapshot` counts every item exactly once.
* **Warnings** — :func:`log_warning` logs ``("%s %s", event, fields)``
  on the ``repro.obs`` logger whatever the mode, and counts the event
  when metrics are on.
* **Run manifests** — ``obs.write_manifest(kind="train", ...)`` records
  the config hash, runtime flags, seed, git SHA, the metrics snapshot,
  peak RSS and per-epoch history at the end of a run; inside a
  :class:`run_context` it also carries the experiment hash.
* **Budgets** — :mod:`repro.obs.slo` checks a manifest against a
  ``repro-slo-v1`` budget file (``repro5g obs check-slo``).

Modes, selected by the ``REPRO_OBS`` env var or :func:`configure`:

``off``
    The default.  Every entry point returns immediately; hot loops
    additionally guard with :func:`metrics_enabled` so the disabled
    path is a near-no-op.  Warnings are still logged.
``metrics``
    Counters, gauges and a run manifest (plus ``latest.json``) in the
    observability directory (``REPRO_OBS_DIR``, default ``.repro-obs``).
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from .manifest import (
    LATEST_NAME,
    MANIFEST_SCHEMA,
    build_manifest,
    config_hash,
    git_sha,
    kernel_paths,
    latest_manifest,
    peak_rss_mb,
    write_manifest_file,
)
from .metrics import MetricsRegistry
from .slo import (
    SLO_SCHEMA,
    Violation,
    check_bench_file,
    check_bench_trend,
    evaluate_slo,
    load_slo,
)

OBS_ENV = "REPRO_OBS"
OBS_DIR_ENV = "REPRO_OBS_DIR"

MODE_OFF = "off"
MODE_METRICS = "metrics"
_MODES = (MODE_OFF, MODE_METRICS)

_LOG = logging.getLogger("repro.obs")

_MODE = MODE_OFF
_DIR: Optional[Path] = None
_REGISTRY = MetricsRegistry()
_RUN_HASH: Optional[str] = None

__all__ = [
    "OBS_ENV",
    "OBS_DIR_ENV",
    "MODE_OFF",
    "MODE_METRICS",
    "LATEST_NAME",
    "MANIFEST_SCHEMA",
    "SLO_SCHEMA",
    "MetricsRegistry",
    "Violation",
    "configure",
    "mode",
    "obs_dir",
    "metrics_enabled",
    "counter",
    "gauge",
    "snapshot",
    "reset",
    "add_counters",
    "log_warning",
    "child_after_fork",
    "load_slo",
    "evaluate_slo",
    "check_bench_file",
    "check_bench_trend",
    "write_manifest",
    "latest_manifest",
    "build_manifest",
    "run_context",
    "config_hash",
    "git_sha",
    "kernel_paths",
    "peak_rss_mb",
]


# ---------------------------------------------------------------------------
# configuration


def _mode_from_env() -> str:
    raw = (os.environ.get(OBS_ENV) or "").strip().lower()
    if raw in ("1", "on", "metrics", "true", "yes"):
        return MODE_METRICS
    return MODE_OFF


def configure(mode: Optional[str] = None, directory: Union[str, Path, None] = None) -> str:
    """Select the observability mode and manifest directory.

    ``mode`` / ``directory`` default to the ``REPRO_OBS`` /
    ``REPRO_OBS_DIR`` environment variables (``off`` and ``.repro-obs``
    when unset).  Returns the resolved mode.  Safe to call repeatedly;
    the registry is kept (use :func:`reset` to clear).
    """
    global _MODE, _DIR
    resolved = (mode or _mode_from_env()).strip().lower()
    if resolved not in _MODES:
        raise ValueError(f"obs mode must be one of {_MODES}, got {resolved!r}")
    if directory is None:
        directory = os.environ.get(OBS_DIR_ENV) or ".repro-obs"
    _MODE = resolved
    _DIR = Path(directory)
    return _MODE


def mode() -> str:
    return _MODE


def obs_dir() -> Path:
    """The observability directory (run manifests and ``latest.json``)."""
    return _DIR if _DIR is not None else Path(os.environ.get(OBS_DIR_ENV) or ".repro-obs")


def metrics_enabled() -> bool:
    """True in ``metrics`` mode: the one on/off predicate."""
    return _MODE != MODE_OFF


# ---------------------------------------------------------------------------
# metrics entry points (early-return when disabled)


def counter(name: str, value: float = 1.0) -> None:
    if _MODE == MODE_OFF:
        return
    _REGISTRY.counter(name, value)


def gauge(name: str, value: float) -> None:
    if _MODE == MODE_OFF:
        return
    _REGISTRY.gauge(name, value)


def snapshot() -> Dict:
    """This process's metrics (counters and gauges)."""
    return _REGISTRY.snapshot()


def reset() -> None:
    """Clear every counter and gauge."""
    _REGISTRY.reset()


def add_counters(counters: Mapping[str, float]) -> None:
    """Sum a pool worker's per-item counters into this process's registry."""
    if _MODE == MODE_OFF:
        return
    for name, value in counters.items():
        _REGISTRY.counter(name, value)


def log_warning(event: str, **fields) -> None:
    """Structured warning: logged via :mod:`logging` and counted.

    Always logs (warnings should never be silently dropped); the
    ``<event>`` counter increments only when metrics are enabled.
    """
    _LOG.warning("%s %s", event, json.dumps(fields, sort_keys=True, default=str))
    if _MODE != MODE_OFF:
        _REGISTRY.counter(event)


def child_after_fork() -> None:
    """Give a freshly forked pool worker its own empty registry.

    Passed as the pool initializer by :mod:`repro.parallel`.  The
    parent's counts copied by ``fork`` must not come back as the
    worker's, and the registry is replaced rather than reset because
    its lock may have been held at the fork instant.
    """
    global _REGISTRY
    _REGISTRY = MetricsRegistry()


# ---------------------------------------------------------------------------
# run manifests


class run_context:
    """Context manager tagging every manifest with one experiment hash.

    The pipeline (:mod:`repro.pipeline`) wraps a whole run in this, so
    manifests written by nested subsystems (``Trainer.fit``, the
    evaluation harness, the campaign driver) all carry the same
    ``experiment_hash`` without those subsystems knowing about
    experiments at all.
    """

    def __init__(self, value: Optional[str]) -> None:
        self.value = value
        self._previous: Optional[str] = None

    def __enter__(self) -> "run_context":
        global _RUN_HASH
        self._previous = _RUN_HASH
        _RUN_HASH = self.value
        return self

    def __exit__(self, *exc) -> None:
        global _RUN_HASH
        _RUN_HASH = self._previous


def write_manifest(
    kind: str,
    config: Optional[Mapping] = None,
    seed: Optional[int] = None,
    history: Optional[Mapping] = None,
    extra: Optional[Mapping] = None,
    directory: Union[str, Path, None] = None,
) -> Optional[Path]:
    """Write a run manifest (and refresh ``latest.json``); returns its path.

    No-op returning ``None`` when observability is off — callers can
    invoke it unconditionally at the end of a run.  The metrics field
    is this process's registry, which already holds every pool
    worker's counters.
    """
    if _MODE == MODE_OFF:
        return None
    manifest = build_manifest(
        kind,
        config=config,
        seed=seed,
        history=history,
        metrics=snapshot(),
        extra=extra,
        mode=_MODE,
        run_hash=_RUN_HASH,
    )
    return write_manifest_file(manifest, Path(directory) if directory is not None else obs_dir())


# pick up REPRO_OBS / REPRO_OBS_DIR at import so plain library use (and
# spawn-started workers) honour the env knob without an explicit call.
configure()

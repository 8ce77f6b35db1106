"""repro.obs — counters, structured warnings and run records.

One in-process observability layer shared by every subsystem
(simulator, cache, parallel map, trainer, pipeline, campaigns):

* **Counters** — ``obs.counter("cache.hit")`` lands in one
  :class:`~repro.obs.metrics.MetricsRegistry` per process.
  :mod:`repro.parallel` pool workers hand their counters back with each
  result, and the parent adds them to its own registry, so the parent's
  :func:`snapshot` counts every item exactly once.
* **Warnings** — :func:`log_warning` logs ``("%s %s", event, fields)``
  on the ``repro.obs`` logger whatever the mode, and counts the event
  when metrics are on.
* **Run records** — :func:`write_record` writes the ``run.json`` an
  experiment leaves in its run directory and a campaign in its state
  directory (see :mod:`repro.obs.record`).  Under ``metrics`` it holds
  the counters that run added: the registry at its end minus the
  registry at its start, so runs in one process never count each other.
* **Budgets** — :mod:`repro.obs.slo` checks a record against a
  ``repro-slo-v1`` budget file (``repro5g obs check-slo``).

Modes, selected by the ``REPRO_OBS`` env var or :func:`configure`:

``off``
    The default.  Every entry point returns immediately; hot loops
    additionally guard with :func:`metrics_enabled` so the disabled
    path is a near-no-op.  Warnings are still logged, and records are
    written without counters.
``metrics``
    Counters, and records that carry them.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from .metrics import MetricsRegistry
from .record import RECORD_NAME, RUN_SCHEMA, git_sha, peak_rss_mb, read_record
from .slo import SLO_SCHEMA, Violation, evaluate_slo, load_slo

OBS_ENV = "REPRO_OBS"

MODE_OFF = "off"
MODE_METRICS = "metrics"
_MODES = (MODE_OFF, MODE_METRICS)

_LOG = logging.getLogger("repro.obs")

_MODE = MODE_OFF
_REGISTRY = MetricsRegistry()

__all__ = [
    "OBS_ENV",
    "MODE_OFF",
    "MODE_METRICS",
    "RECORD_NAME",
    "RUN_SCHEMA",
    "SLO_SCHEMA",
    "MetricsRegistry",
    "Violation",
    "configure",
    "mode",
    "metrics_enabled",
    "counter",
    "snapshot",
    "reset",
    "add_counters",
    "log_warning",
    "child_after_fork",
    "write_record",
    "read_record",
    "load_slo",
    "evaluate_slo",
    "git_sha",
    "peak_rss_mb",
]


# ---------------------------------------------------------------------------
# configuration


def _mode_from_env() -> str:
    raw = (os.environ.get(OBS_ENV) or "").strip().lower()
    if raw in ("1", "on", "metrics", "true", "yes"):
        return MODE_METRICS
    return MODE_OFF


def configure(mode: Optional[str] = None) -> str:
    """Select the observability mode; returns it.

    ``mode`` defaults to the ``REPRO_OBS`` environment variable (``off``
    when unset).  Safe to call repeatedly; the registry is kept (use
    :func:`reset` to clear).
    """
    global _MODE
    resolved = (mode or _mode_from_env()).strip().lower()
    if resolved not in _MODES:
        raise ValueError(f"obs mode must be one of {_MODES}, got {resolved!r}")
    _MODE = resolved
    return _MODE


def mode() -> str:
    return _MODE


def metrics_enabled() -> bool:
    """True in ``metrics`` mode: the one on/off predicate."""
    return _MODE != MODE_OFF


# ---------------------------------------------------------------------------
# metrics entry points (early-return when disabled)


def counter(name: str, value: float = 1.0) -> None:
    if _MODE == MODE_OFF:
        return
    _REGISTRY.counter(name, value)


def snapshot() -> Dict[str, float]:
    """This process's counters."""
    return _REGISTRY.snapshot()


def reset() -> None:
    """Clear every counter."""
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
# run records


def write_record(
    directory: Union[str, Path],
    kind: str,
    run_hash: str,
    since: Mapping[str, float],
    fields: Mapping,
    peak_rss_mb_at_start: float,
) -> Path:
    """Write ``<directory>/run.json`` atomically; returns its path.

    Stamps what every record shares — schema, ``kind``, the run's hash
    under ``<kind>_hash``, git SHA, :func:`repro.runtime.flags`, peak
    RSS — ahead of the run's own ``fields``.  With metrics on,
    ``counters`` holds what the registry gained since ``since``, the
    :func:`snapshot` the run took at its start; with metrics off the
    record has no ``counters`` key.

    ``peak_rss_mb`` is the process's high-water mark, which only rises,
    so it may belong to an earlier, larger run in the same process.
    ``peak_rss_mb_at_start``, the :func:`peak_rss_mb` the run took with
    ``since``, is stamped beside it: equal marks mean the peak was set
    before this run.
    """
    from .. import runtime  # lazy: runtime imports obs

    record = {
        "schema": RUN_SCHEMA,
        "kind": kind,
        f"{kind}_hash": run_hash,
        "git_sha": git_sha(),
        "flags": runtime.flags(),
        "peak_rss_mb": peak_rss_mb(),
        "peak_rss_mb_at_start": peak_rss_mb_at_start,
        **fields,
    }
    if _MODE != MODE_OFF:
        record["counters"] = {
            name: value - since.get(name, 0.0)
            for name, value in _REGISTRY.snapshot().items()
            if value != since.get(name, 0.0)
        }
    text = json.dumps(record, indent=2, sort_keys=True, default=str) + "\n"
    return runtime.write_atomic(Path(directory) / RECORD_NAME, text)


# pick up REPRO_OBS at import so plain library use (and spawn-started
# workers) honour the env knob without an explicit call.
configure()

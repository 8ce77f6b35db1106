"""repro.obs — metrics, span tracing, continuous telemetry, manifests.

One process-local observability layer shared by every subsystem
(simulator, cache, parallel map, trainer, kernels, evaluation):

* **Metrics** — ``obs.counter("cache.hit")``, ``obs.gauge(...)``,
  ``obs.histogram("train.epoch_ms", 12.5)``; snapshot/reset/JSON via
  the :class:`~repro.obs.metrics.MetricsRegistry`.
* **Spans** — ``with obs.span("simulate.run", cells=n):`` produces
  nested wall-time spans (pid/tid tagged) that spill to per-process
  JSONL files and export to Chrome ``chrome://tracing`` format;
  :mod:`repro.parallel` workers merge into the parent timeline.
* **Continuous telemetry** — ``with obs.sample_window("train"):``
  keeps a daemon thread snapshotting counters, gauges,
  histogram-derived p50/p95/p99 quantiles, RSS/CPU/GC, and collapsed
  stacks at ``obs_sample_hz`` (a :mod:`repro.runtime` value flag,
  default 0 = off) into a bounded ring buffer plus per-pid
  ``series-<pid>.jsonl`` / ``flame-<pid>.txt`` spill files.  Windows
  are refcounted: the first one entered starts the thread, the last
  one exited stops and flushes it (DESIGN §6f).
* **Exporters & SLOs** — Prometheus text exposition / JSONL over any
  snapshot (:mod:`repro.obs.export`), declarative perf budgets and the
  BENCH trend gate (:mod:`repro.obs.slo`).
* **Run manifests** — ``obs.write_manifest(kind="train", ...)`` records
  config hash, runtime flags, seed, git SHA, the merged metric
  snapshot, per-epoch history, and the telemetry file inventory at the
  end of a run.

Modes, selected by the ``REPRO_OBS`` env var or :func:`configure`:

``off``
    The default.  Every entry point returns immediately (spans hand
    back one shared null object; nothing is allocated or recorded) —
    hot loops additionally guard with :func:`metrics_enabled` /
    :func:`trace_enabled` so the disabled path is a near-no-op.  No
    sampler thread is ever started.
``metrics``
    Counters/gauges/histograms, run manifests, telemetry sampling
    (when ``obs_sample_hz`` > 0), and per-process metric spills —
    no span spill files.
``trace``
    Everything: metrics plus spans spilled under the observability
    directory (``REPRO_OBS_DIR``, default ``.repro-obs``).
"""

from __future__ import annotations

import json
import logging
import os
import threading
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Union

from .. import runtime as _runtime
from . import export, slo, timeseries
from .export import (
    jsonl_lines,
    parse_prometheus_text,
    prometheus_text,
    snapshots_equal,
    write_jsonl,
    write_prometheus,
)
from .manifest import (
    LATEST_NAME,
    MANIFEST_SCHEMA,
    build_manifest,
    config_hash,
    git_sha,
    kernel_paths,
    latest_manifest,
    write_manifest_file,
)
from .metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from .sampler import (
    FLAME_FILE_PREFIX,
    ResourceSampler,
    StackSampler,
    read_flame as _read_flame_dir,
)
from .slo import (
    SLO_SCHEMA,
    Violation,
    check_bench_file,
    check_bench_trend,
    evaluate_slo,
    load_slo,
)
from .timeseries import (
    DEFAULT_QUANTILES,
    RingBuffer,
    SampleClock,
    SERIES_FILE_PREFIX,
    TimeSeriesSampler,
    bucket_quantiles,
    read_series as _read_series_dir,
)
from .tracing import NULL_SPAN, Span, SpanTracer, chrome_trace as _spans_to_chrome, read_spans as _read_span_dir

OBS_ENV = "REPRO_OBS"
OBS_DIR_ENV = "REPRO_OBS_DIR"

MODE_OFF = "off"
MODE_METRICS = "metrics"
MODE_TRACE = "trace"
_MODES = (MODE_OFF, MODE_METRICS, MODE_TRACE)

_LOG = logging.getLogger("repro.obs")

_MODE = MODE_OFF
_DIR: Optional[Path] = None
_REGISTRY = MetricsRegistry()
_TRACER = SpanTracer()
_RUN_HASH: Optional[str] = None

#: write-through mirror of the ``obs_sample_hz`` runtime value flag
#: (registered at the bottom of this module); hot guards read this
#: float instead of calling back into :mod:`repro.runtime`.
_SAMPLE_HZ = 0.0

_SAMPLER: Optional[TimeSeriesSampler] = None
_SAMPLE_WINDOWS = 0
_SAMPLE_LOCK = threading.Lock()

__all__ = [
    "OBS_ENV",
    "OBS_DIR_ENV",
    "MODE_OFF",
    "MODE_METRICS",
    "MODE_TRACE",
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
    "SERIES_FILE_PREFIX",
    "FLAME_FILE_PREFIX",
    "SLO_SCHEMA",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "NULL_SPAN",
    "TimeSeriesSampler",
    "RingBuffer",
    "SampleClock",
    "ResourceSampler",
    "StackSampler",
    "Violation",
    "MANIFEST_SCHEMA",
    "configure",
    "mode",
    "obs_dir",
    "enabled",
    "metrics_enabled",
    "trace_enabled",
    "sampling_enabled",
    "counter",
    "gauge",
    "histogram",
    "span",
    "sample_window",
    "current_sampler",
    "flush",
    "reset",
    "snapshot",
    "merged_snapshot",
    "log_warning",
    "read_spans",
    "read_series",
    "read_flame",
    "bucket_quantiles",
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "parse_prometheus_text",
    "jsonl_lines",
    "write_jsonl",
    "write_prometheus",
    "snapshots_equal",
    "load_slo",
    "evaluate_slo",
    "check_bench_file",
    "check_bench_trend",
    "write_manifest",
    "latest_manifest",
    "build_manifest",
    "run_context",
    "run_hash",
    "config_hash",
    "git_sha",
    "kernel_paths",
    "child_after_fork",
]


# ---------------------------------------------------------------------------
# configuration


def _mode_from_env() -> str:
    raw = (os.environ.get(OBS_ENV) or "").strip().lower()
    if raw in ("", "0", "off", "false", "no", "none"):
        return MODE_OFF
    if raw in ("1", "on", "metrics", "true", "yes"):
        return MODE_METRICS
    if raw in ("2", "trace", "all", "full"):
        return MODE_TRACE
    return MODE_OFF


def configure(mode: Optional[str] = None, directory: Union[str, Path, None] = None) -> str:
    """Select the observability mode and spill directory.

    ``mode`` / ``directory`` default to the ``REPRO_OBS`` /
    ``REPRO_OBS_DIR`` environment variables (``off`` and ``.repro-obs``
    when unset).  Returns the resolved mode.  Safe to call repeatedly;
    the registry and span buffers are kept (use :func:`reset` to clear).
    """
    global _MODE, _DIR
    resolved = (mode or _mode_from_env()).strip().lower()
    if resolved not in _MODES:
        raise ValueError(f"obs mode must be one of {_MODES}, got {resolved!r}")
    if directory is None:
        directory = os.environ.get(OBS_DIR_ENV) or ".repro-obs"
    _MODE = resolved
    _DIR = Path(directory)
    _TRACER.directory = _DIR if resolved == MODE_TRACE else None
    return _MODE


def mode() -> str:
    return _MODE


def obs_dir() -> Path:
    """The observability directory (spans, worker metrics, manifests)."""
    return _DIR if _DIR is not None else Path(os.environ.get(OBS_DIR_ENV) or ".repro-obs")


def enabled() -> bool:
    """True in ``metrics`` or ``trace`` mode."""
    return _MODE != MODE_OFF


def metrics_enabled() -> bool:
    return _MODE != MODE_OFF


def trace_enabled() -> bool:
    return _MODE == MODE_TRACE


def sampling_enabled() -> bool:
    """True when a :func:`sample_window` would actually sample.

    Requires observability on (``metrics`` or ``trace`` mode) *and* a
    positive ``obs_sample_hz`` runtime flag — with either missing,
    ``sample_window`` is a shared-nothing no-op (no thread, no
    allocation beyond the context object itself).
    """
    return _MODE != MODE_OFF and _SAMPLE_HZ > 0.0


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


def histogram(name: str, value: float, buckets: Optional[Sequence[float]] = None) -> None:
    if _MODE == MODE_OFF:
        return
    _REGISTRY.histogram(name, value, buckets)


def snapshot() -> Dict:
    """This process's metrics (counters/gauges/histograms)."""
    return _REGISTRY.snapshot()


def _spill_pid(filename: str) -> Optional[int]:
    """The pid encoded in a ``metrics-<pid>.json`` spill filename."""
    stem = filename[len("metrics-") : -len(".json")]
    try:
        return int(stem)
    except ValueError:
        return None


def merged_snapshot() -> Dict:
    """Local metrics merged with worker spill files (``metrics-*.json``).

    Counters and histograms sum across processes.  Gauges are
    point-in-time values: local names stay last-write-wins, and each
    worker's gauges merge under a ``<name>.pid<N>`` suffix (pid taken
    from the spill filename) so e.g. a campaign worker's peak-RSS gauge
    survives pool teardown instead of being dropped.
    """
    merged = MetricsRegistry()
    local = _REGISTRY.snapshot()
    merged.merge_snapshot(local)
    directory = obs_dir()
    if directory.exists():
        own = f"metrics-{os.getpid()}.json"
        for path in sorted(directory.glob("metrics-*.json")):
            if path.name == own:
                continue
            try:
                worker = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(worker, dict):
                merged.merge_snapshot(worker, gauge_pid=_spill_pid(path.name))
    snap = merged.snapshot()
    snap["gauges"].update(local["gauges"])
    return snap


def reset() -> None:
    """Clear metrics and buffered spans (spill files are left on disk)."""
    _REGISTRY.reset()
    _TRACER.reset()


def log_warning(event: str, **fields) -> None:
    """Structured warning: logged via :mod:`logging` and counted.

    Always logs (warnings should never be silently dropped); the
    ``<event>`` counter increments only when metrics are enabled.
    """
    _LOG.warning("%s %s", event, json.dumps(fields, sort_keys=True, default=str))
    if _MODE != MODE_OFF:
        _REGISTRY.counter(event)


# ---------------------------------------------------------------------------
# spans


def span(name: str, force: bool = False, **attrs) -> Union[Span, "tracing._NullSpan"]:
    """Context manager timing a named region.

    Disabled path: returns the shared :data:`NULL_SPAN` singleton (no
    allocation, no clock reads).  ``force=True`` returns a real
    stopwatch span even when tracing is off — it measures
    ``duration_s`` but is only recorded to the timeline in ``trace``
    mode (used by the perf bench so wall-clock numbers and the trace
    come from one source).
    """
    if _MODE == MODE_TRACE:
        return _TRACER.span(name, attrs)
    if force:
        return _TRACER.span(name, attrs, record=False)
    return NULL_SPAN


# ---------------------------------------------------------------------------
# continuous telemetry (sample windows)


def _new_sampler() -> TimeSeriesSampler:
    directory: Optional[Path] = obs_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)  # type: ignore[union-attr]
    except OSError:
        log_warning("obs.sample.dir_error", path=str(directory))
        directory = None  # memory-only: ring buffer still fills
    return TimeSeriesSampler(
        interval_s=1.0 / _SAMPLE_HZ,
        source=snapshot,
        resources=ResourceSampler(),
        stacks=StackSampler(),
        directory=directory,
    )


def current_sampler() -> Optional[TimeSeriesSampler]:
    """The live sampler while inside a sample window, else ``None``."""
    return _SAMPLER


class sample_window:
    """Refcounted region during which the telemetry sampler runs.

    ::

        with obs.sample_window("train"):
            trainer.fit(...)

    The first window entered in a process starts the sampling daemon
    thread; nested/overlapping windows just push their label (rows
    carry ``"window": "train;epoch"``-style joined labels); the last
    window exited stops the thread and flushes the spill files.  When
    sampling is disabled (obs off or ``obs_sample_hz`` = 0) entering is
    a no-op: no thread, no lock contention, nothing allocated.
    """

    __slots__ = ("label", "_active")

    def __init__(self, label: str) -> None:
        self.label = label
        self._active = False

    def __enter__(self) -> "sample_window":
        global _SAMPLER, _SAMPLE_WINDOWS
        if not sampling_enabled():
            return self
        with _SAMPLE_LOCK:
            if _SAMPLER is None:
                _SAMPLER = _new_sampler()
                _SAMPLER.start()
            _SAMPLE_WINDOWS += 1
            _SAMPLER.push_label(self.label)
            self._active = True
        return self

    def __exit__(self, *exc: object) -> bool:
        global _SAMPLER, _SAMPLE_WINDOWS
        if not self._active:
            return False
        self._active = False
        stopping: Optional[TimeSeriesSampler] = None
        sampler: Optional[TimeSeriesSampler] = None
        with _SAMPLE_LOCK:
            sampler = _SAMPLER
            _SAMPLE_WINDOWS = max(0, _SAMPLE_WINDOWS - 1)
            if _SAMPLE_WINDOWS == 0:
                stopping, _SAMPLER = _SAMPLER, None
        if stopping is not None:
            # stop before popping: the final row stop() takes still
            # carries this window's label, so even windows shorter than
            # one sample interval leave an attributable row behind
            stopping.stop()  # joins the thread, takes a final row, flushes
            stopping.pop_label(self.label)
        elif sampler is not None:
            sampler.pop_label(self.label)
        return False


def flush() -> None:
    """Spill everything buffered in this process to the obs directory.

    Spans spill in ``trace`` mode; the metrics snapshot
    (``metrics-<pid>.json``) and any pending telemetry rows spill
    whenever observability is on — workers call this after each item so
    their counters *and gauges* survive pool teardown (``Pool.__exit__``
    terminates workers without ``atexit``).
    """
    if _MODE == MODE_OFF:
        return
    if _MODE == MODE_TRACE:
        _TRACER.flush()
    sampler = _SAMPLER
    if sampler is not None:
        sampler.flush()
    directory = obs_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"metrics-{os.getpid()}.json"
        path.write_text(_REGISTRY.to_json(), encoding="utf-8")
    except OSError:  # pragma: no cover - read-only dirs: spans still flushed
        pass


def child_after_fork() -> None:
    """Rebuild obs state in a freshly forked worker.

    Passed as the pool initializer by :func:`repro.parallel.parallel_map`.
    Two jobs: (1) start with an empty span stack/buffer and zeroed
    metrics, so the parent's open spans and counts copied by ``fork``
    are not double-reported through the worker spill files; (2) replace
    — not merely reset — the registry, tracer, and sampler state,
    because the parent's sampler thread does not survive the fork and
    may have been holding their locks at the fork instant (``reset``
    would deadlock on an orphaned lock).
    """
    global _REGISTRY, _TRACER, _SAMPLER, _SAMPLE_WINDOWS, _SAMPLE_LOCK
    _SAMPLE_LOCK = threading.Lock()
    _SAMPLER = None
    _SAMPLE_WINDOWS = 0
    _REGISTRY = MetricsRegistry()
    _TRACER = SpanTracer(_DIR if _MODE == MODE_TRACE else None)


# ---------------------------------------------------------------------------
# exports


def read_spans(directory: Union[str, Path, None] = None) -> list:
    """All spans spilled under ``directory`` (default: the obs dir)."""
    return _read_span_dir(Path(directory) if directory is not None else obs_dir())


def read_series(directory: Union[str, Path, None] = None) -> list:
    """All telemetry rows spilled under ``directory`` (default: obs dir)."""
    return _read_series_dir(Path(directory) if directory is not None else obs_dir())


def read_flame(directory: Union[str, Path, None] = None) -> Dict[str, int]:
    """Merged collapsed stacks spilled under ``directory`` (default: obs dir)."""
    return _read_flame_dir(Path(directory) if directory is not None else obs_dir())


def chrome_trace(directory: Union[str, Path, None] = None) -> Dict:
    """Chrome trace-event dict built from the spilled spans."""
    return _spans_to_chrome(read_spans(directory))


def write_chrome_trace(out_path: Union[str, Path], directory: Union[str, Path, None] = None) -> Path:
    """Convert spilled spans to a Chrome-loadable trace JSON file."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(chrome_trace(directory)) + "\n", encoding="utf-8")
    return out_path


def run_hash() -> Optional[str]:
    """The active experiment's canonical config hash (or ``None``)."""
    return _RUN_HASH


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


def _telemetry_inventory(directory: Path) -> Dict:
    """The manifest's telemetry block: sample rate + spill-file census."""
    info: Dict = {"obs_sample_hz": _SAMPLE_HZ}
    try:
        if directory.exists():
            info["series_files"] = sorted(
                p.name for p in directory.glob(f"{SERIES_FILE_PREFIX}*.jsonl")
            )
            info["flame_files"] = sorted(
                p.name for p in directory.glob(f"{FLAME_FILE_PREFIX}*.txt")
            )
    except OSError:  # pragma: no cover - directory races
        pass
    return info


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
    is the *merged* snapshot (parent + spilled worker metrics), which
    is also exported alongside the manifest as ``metrics.prom``
    (Prometheus text exposition) and ``metrics.jsonl``; the manifest's
    ``extra.telemetry`` block records the sample rate and the telemetry
    spill files present.  Inside a :class:`run_context` the manifest
    additionally carries the experiment hash.
    """
    if _MODE == MODE_OFF:
        return None
    flush()
    out_dir = Path(directory) if directory is not None else obs_dir()
    metrics = merged_snapshot()
    telemetry = _telemetry_inventory(out_dir)
    try:
        telemetry["exports"] = [
            write_prometheus(metrics, out_dir / "metrics.prom").name,
            write_jsonl(metrics, out_dir / "metrics.jsonl").name,
        ]
    except OSError:
        log_warning("obs.export.write_error", path=str(out_dir))
    manifest = build_manifest(
        kind,
        config=config,
        seed=seed,
        history=history,
        metrics=metrics,
        extra={**dict(extra or {}), "telemetry": telemetry},
        mode=_MODE,
        run_hash=_RUN_HASH,
    )
    return write_manifest_file(manifest, out_dir)


# pick up REPRO_OBS / REPRO_OBS_DIR at import so plain library use (and
# spawn-started workers) honour the env knob without an explicit call.
configure()


def _set_sample_hz(value: object) -> None:
    global _SAMPLE_HZ
    _SAMPLE_HZ = float(str(value))


# write-through mirror: runtime.configure(obs_sample_hz=...) updates
# _SAMPLE_HZ immediately; the return value initializes it in sync.
_runtime.register_mirror("obs_sample_hz", _set_sample_hz)

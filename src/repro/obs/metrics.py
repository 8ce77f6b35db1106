"""Process-local metrics: counters and gauges.

The registry is deliberately tiny — plain dicts behind one lock — so a
guarded increment costs well under a microsecond and the disabled path
(see :mod:`repro.obs`) never touches it at all.  Snapshots are plain
JSON-ready dicts.
"""

from __future__ import annotations

import threading
from typing import Dict


class MetricsRegistry:
    """Thread-safe registry of named counters and gauges."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}

    def counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (default 1) to the monotonic counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the point-in-time gauge ``name`` to ``value``."""
        with self._lock:
            self._gauges[name] = float(value)

    def snapshot(self) -> Dict:
        """JSON-ready copy of every metric in this process."""
        with self._lock:
            return {"counters": dict(self._counters), "gauges": dict(self._gauges)}

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()

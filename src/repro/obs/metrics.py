"""Process-local metrics: named counters.

The registry is deliberately tiny — one dict behind one lock — so a
guarded increment costs well under a microsecond and the disabled path
(see :mod:`repro.obs`) never touches it at all.  Snapshots are plain
JSON-ready dicts.
"""

from __future__ import annotations

import threading
from typing import Dict


class MetricsRegistry:
    """Thread-safe registry of named counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}

    def counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (default 1) to the monotonic counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def snapshot(self) -> Dict[str, float]:
        """JSON-ready copy of every counter in this process."""
        with self._lock:
            return dict(self._counters)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()

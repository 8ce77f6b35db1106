"""Declarative perf budgets (SLOs) evaluated against a run manifest.

A budget file (schema ``repro-slo-v1``) states what a healthy run looks
like::

    {
      "schema": "repro-slo-v1",
      "budgets": {
        "peak_rss_mb":   2048,
        "counter_max":   {"cache.corrupt": 0},
        "end_to_end_regression": 1.15
      }
    }

``peak_rss_mb`` bounds the manifest's ``peak_rss_mb`` field;
``counter_max`` keys are :mod:`fnmatch` globs over the manifest's
counter names.  :func:`evaluate_slo` returns :class:`Violation`
records; ``repro5g obs check-slo`` exits non-zero when any are
returned.

``end_to_end_regression`` feeds :func:`check_bench_trend`, the
``BENCH_perf.json`` trend gate: the latest recorded ``end_to_end``
wall time may not exceed the stored baseline by more than the given
ratio (default 1.15, i.e. >15% regression fails).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, List, Mapping, Optional

SLO_SCHEMA = "repro-slo-v1"

#: default end-to-end trend limit: >15% slower than baseline fails.
DEFAULT_REGRESSION_LIMIT = 1.15

_BUDGET_KEYS = frozenset({"peak_rss_mb", "counter_max", "end_to_end_regression"})


@dataclass
class Violation:
    """One budget breach: what was bounded, the limit, what happened."""

    budget: str
    subject: str
    limit: float
    actual: float

    def message(self) -> str:
        return (
            f"SLO violation [{self.budget}] {self.subject}: "
            f"actual {self.actual:g} exceeds budget {self.limit:g}"
        )


def load_slo(path: Path) -> Dict:
    """Load and validate a ``repro-slo-v1`` budget file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("schema") != SLO_SCHEMA:
        raise ValueError(f"{path}: expected an SLO file with schema {SLO_SCHEMA!r}")
    budgets = data.get("budgets")
    if not isinstance(budgets, dict):
        raise ValueError(f"{path}: 'budgets' must be an object")
    unknown = set(budgets) - _BUDGET_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown budget keys {sorted(unknown)}")
    return data


def evaluate_slo(slo: Mapping, manifest: Mapping) -> List[Violation]:
    """Check a run manifest against a budget; returns all breaches.

    ``end_to_end_regression`` is not evaluated here: it reads
    ``BENCH_perf.json`` (see :func:`check_bench_file`), not the run.
    """
    budgets = dict(slo.get("budgets", {}))
    violations: List[Violation] = []

    rss_limit = budgets.get("peak_rss_mb")
    rss = manifest.get("peak_rss_mb")
    if rss_limit is not None and rss is not None and float(rss) > float(rss_limit):
        violations.append(Violation("peak_rss_mb", "manifest", float(rss_limit), float(rss)))

    counters = (manifest.get("metrics") or {}).get("counters") or {}
    for pattern, limit in dict(budgets.get("counter_max", {})).items():
        for name in sorted(counters):
            if fnmatchcase(name, pattern) and float(counters[name]) > float(limit):
                violations.append(
                    Violation("counter_max", name, float(limit), float(counters[name]))
                )
    return violations


# ---------------------------------------------------------------------------
# BENCH_perf.json trend gate


def check_bench_trend(
    bench: Mapping, limit: float = DEFAULT_REGRESSION_LIMIT
) -> Optional[Violation]:
    """End-to-end trend check over a ``BENCH_perf.json`` payload.

    Compares ``latest.current_s.end_to_end`` against
    ``baseline.current_s.end_to_end``; a ratio above ``limit`` (default
    1.15 — >15% slower) returns a :class:`Violation`, otherwise
    ``None``.  Missing baseline or latest sections pass (first run).
    """
    baseline = bench.get("baseline", {}).get("current_s", {}).get("end_to_end")
    latest = bench.get("latest", {}).get("current_s", {}).get("end_to_end")
    if not baseline or not latest:
        return None
    ratio = float(latest) / float(baseline)
    if ratio > float(limit):
        return Violation("end_to_end_regression", "BENCH_perf.json", float(limit), round(ratio, 4))
    return None


def check_bench_file(
    path: Path, limit: float = DEFAULT_REGRESSION_LIMIT
) -> Optional[Violation]:
    """:func:`check_bench_trend` over a file; a missing file passes."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        bench = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    return check_bench_trend(bench, limit)

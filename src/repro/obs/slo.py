"""Declarative perf budgets (SLOs) evaluated against a run record.

A budget file (schema ``repro-slo-v1``) states what a healthy run looks
like::

    {
      "schema": "repro-slo-v1",
      "budgets": {
        "peak_rss_mb":   2048,
        "counter_max":   {"cache.corrupt": 0}
      }
    }

``peak_rss_mb`` bounds the record's ``peak_rss_mb`` field;
``counter_max`` keys are :mod:`fnmatch` globs over the record's
counter names.  :func:`evaluate_slo` returns :class:`Violation`
records; ``repro5g obs check-slo`` exits non-zero when any are
returned, or when the budget bounds counters that a record written
with metrics off does not have.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, List, Mapping

SLO_SCHEMA = "repro-slo-v1"

_BUDGET_KEYS = frozenset({"peak_rss_mb", "counter_max"})


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
    if "peak_rss_mb" in budgets and not _is_number(budgets["peak_rss_mb"]):
        raise ValueError(f"{path}: 'peak_rss_mb' must be a number, got {budgets['peak_rss_mb']!r}")
    counter_max = budgets.get("counter_max", {})
    if not isinstance(counter_max, dict) or not all(map(_is_number, counter_max.values())):
        raise ValueError(f"{path}: 'counter_max' must map counter names to numbers, got {counter_max!r}")
    return data


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def evaluate_slo(slo: Mapping, record: Mapping) -> List[Violation]:
    """Check a run record against a budget; returns all breaches."""
    budgets = dict(slo.get("budgets", {}))
    violations: List[Violation] = []

    rss_limit = budgets.get("peak_rss_mb")
    rss = record.get("peak_rss_mb")
    if rss_limit is not None and rss is not None and float(rss) > float(rss_limit):
        violations.append(Violation("peak_rss_mb", "record", float(rss_limit), float(rss)))

    counters = record.get("counters") or {}
    for pattern, limit in dict(budgets.get("counter_max", {})).items():
        for name in sorted(counters):
            if fnmatchcase(name, pattern) and float(counters[name]) > float(limit):
                violations.append(
                    Violation("counter_max", name, float(limit), float(counters[name]))
                )
    return violations


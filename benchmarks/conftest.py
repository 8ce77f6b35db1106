"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's tables or figures (see
DESIGN.md's experiment index) and:

* prints the rows/series the paper reports (visible with ``-s``), and
* writes them to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md
  can reference them after a run.

``REPRO_SCALE=full`` switches from the fast default configuration to a
paper-scale one (more traces, more epochs, full predictor line-up).

The prediction benches (Tables 4, 13 and 14, Figs 17, 19 and 20) state
their protocol as ``repro.pipeline.ExperimentConfig``s and run them
with ``run_experiment`` in the default run directory,
``runs/<name>-<hash>`` under the working directory.  A rerun reuses
those runs: it trains nothing and reads the same numbers back.  Point
``REPRO_RUNS_DIR`` at an empty directory (``REPRO_RUNS_DIR=$(mktemp -d)``)
to regenerate every result cold.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@dataclass(frozen=True)
class Scale:
    """Knobs that trade fidelity for runtime."""

    full: bool
    n_traces: int
    samples_per_trace: int
    epochs: int
    hidden: int
    seeds: int  #: number of repetition seeds for measurement benches
    duration_s: float  #: per-trace duration for measurement benches


def current_scale() -> Scale:
    if os.environ.get("REPRO_SCALE") == "full":
        return Scale(
            full=True, n_traces=10, samples_per_trace=400, epochs=120,
            hidden=32, seeds=6, duration_s=120.0,
        )
    return Scale(
        full=False, n_traces=4, samples_per_trace=200, epochs=40,
        hidden=24, seeds=3, duration_s=60.0,
    )


@pytest.fixture(scope="session")
def scale() -> Scale:
    return current_scale()


class Reporter:
    """Collects lines, prints them, and persists them per benchmark."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: list[str] = []

    def emit(self, text: str = "") -> None:
        for line in text.splitlines() or [""]:
            self.lines.append(line)
        print(text)

    def close(self) -> None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / f"{self.name}.txt").write_text("\n".join(self.lines) + "\n")


@pytest.fixture
def report(request) -> Reporter:
    reporter = Reporter(request.node.name)
    yield reporter
    reporter.close()


def run_once(benchmark, fn):
    """Run a heavy experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)

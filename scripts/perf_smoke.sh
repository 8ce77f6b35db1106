#!/usr/bin/env bash
# Perf smoke check: run the fused-kernel/no-grad/cache benchmark and
# fail when the current path regresses >2x against the baseline stored
# in BENCH_perf.json (the first run records the baseline and passes),
# or when metrics-mode observability adds >5% overhead to a hot
# sim+train micro-workload (--obs-check).
set -euo pipefail

cd "$(dirname "$0")/.."
PYTHONPATH=src python benchmarks/bench_perf_training.py --check --obs-check "$@"

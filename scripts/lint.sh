#!/usr/bin/env bash
# One-command static-analysis gate (mirrors the CI `static-analysis` job):
#
#   1. repro5g lint        - the repo's own invariant checks (RL001, RL003–RL009),
#                            one per-file pass; this script passes its
#                            arguments through.  A pre-commit hook lints
#                            just the changed files as explicit paths:
#
#                                python -m repro.lintkit <changed files>
#   2. ruff check          - pyflakes/pycodestyle classes from pyproject.toml
#      ruff format --check - formatting drift on the lintkit subtree + tests
#   3. mypy                - strict on repro.runtime/pipeline/nn.serialization/
#                            lintkit, permissive baseline elsewhere
#
# ruff and mypy are optional-dev dependencies (pip install -e ".[dev]");
# when they are not installed locally the corresponding step is skipped
# with a notice so `repro5g lint` still gates offline environments.  CI
# always installs both, so the full gate runs there.
set -uo pipefail

cd "$(dirname "$0")/.."
status=0

echo "== repro5g lint =="
PYTHONPATH=src python -m repro.lintkit "$@" || status=1

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests benchmarks scripts || status=1
    echo "== ruff format --check (lintkit + its tests) =="
    ruff format --check src/repro/lintkit tests/test_lintkit.py || status=1
else
    echo "== ruff not installed; skipping (pip install -e '.[dev]') =="
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy =="
    mypy || status=1
else
    echo "== mypy not installed; skipping (pip install -e '.[dev]') =="
fi

exit $status

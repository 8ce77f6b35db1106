"""Paired perf gate: this tree against a parent tree on perfbench's ``table4``.

Usage, from any directory::

    python3 scripts/perf_gate.py BASE_TREE

``BASE_TREE`` is a checkout of the parent (a ``git worktree`` of the
merge-base, or a ``git archive`` copy).  The gate runs this tree's
``perfbench/run.py --workload table4 --seed 0 --seconds 30`` in
``PAIRS`` pairs, once with ``BASE_TREE`` as working directory and once
with this tree; the side that goes first alternates from pair to pair.
perfbench reads ``src/`` and ``BENCHMARK.json`` from its working
directory, so both sides run the same benchmark code on their own
program.

A perf figure of one run on a shared host means little: the same
commit's ``op_cpu_ms_p90`` has read 1,001-1,345 ms within 20 minutes
on one 2-CPU host.  Within a pair both sides meet the same host, so
the gate reads the per-pair ratio (change / parent) of
``op_cpu_ms_p90`` and fails when the median ratio exceeds ``LIMIT``.
It also fails when any run exits non-zero, reports failed ops or
prints no result line, naming the side and the pair.  Every pair's
five end-to-end metrics are printed.  One run takes about 30 s, so
the gate takes about 5.5 minutes; run nothing else on the host
meanwhile.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

THIS_TREE = Path(__file__).resolve().parent.parent
PAIRS = 5
WORKLOAD = "table4"
SEED = 0
SECONDS = 30
#: the median change / parent ratio of ``op_cpu_ms_p90`` may not exceed this
LIMIT = 1.15
METRIC = "op_cpu_ms_p90"
SIDES = ("parent", "change")


class Run(NamedTuple):
    """One perfbench run: its exit status and the result line it printed, if any."""

    returncode: int
    result: Optional[Dict]
    output: str = ""


def result_line(stdout: str) -> Optional[Dict]:
    """The JSON object perfbench prints as its last line, or None."""
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def run_perfbench(tree: Path) -> Run:
    """This tree's perfbench, run on the program in ``tree``."""
    cmd = [sys.executable, str(THIS_TREE / "perfbench" / "run.py")]
    cmd += ["--workload", WORKLOAD, "--seed", str(SEED), "--seconds", str(SECONDS)]
    proc = subprocess.run(cmd, cwd=tree, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    return Run(proc.returncode, result_line(proc.stdout), proc.stdout + proc.stderr)


def problem(side: str, pair: int, run: Run) -> Optional[str]:
    """What makes ``run`` unusable, naming its side and pair; None for a good run."""
    if run.result is not None and run.result.get("failed"):
        return f"pair {pair}: the {side} run reported {run.result['failed']} failed op(s)"
    if run.returncode != 0:
        return f"pair {pair}: the {side} run exited with status {run.returncode}"
    if run.result is None:
        return f"pair {pair}: the {side} run printed no result line"
    return None


def _metric(run: Run) -> float:
    return run.result["metrics"][METRIC]["value"]


def decide(pairs: Sequence[Dict[str, Run]]) -> Tuple[Optional[float], List[str]]:
    """The median change / parent ratio of ``METRIC`` and every reason to fail.

    The ratio is None when a run is unusable, since a pair without both
    sides has no ratio.
    """
    problems = [problem(side, pair, runs[side]) for pair, runs in enumerate(pairs, 1) for side in SIDES]
    problems = [text for text in problems if text]
    if problems:
        return None, problems
    ratio = statistics.median(_metric(runs["change"]) / _metric(runs["parent"]) for runs in pairs)
    if ratio > LIMIT:
        problems.append(f"median {METRIC} ratio {ratio:.3f} (change / parent) exceeds {LIMIT:.2f}")
    return ratio, problems


def report(pair: int, runs: Dict[str, Run]) -> None:
    """Print one pair's end-to-end metrics side by side, or the output of a run that failed."""
    unusable = [side for side in SIDES if problem(side, pair, runs[side])]
    for side in unusable:
        print(f"pair {pair}: {side} output:\n{runs[side].output[-3000:]}")
    if not unusable:
        print(f"pair {pair}:")
        parent, change = (runs[side].result["metrics"] for side in SIDES)
        for name, metric in parent.items():
            ratio = change[name]["value"] / metric["value"]
            print(f"  {name:<22}{metric['value']:>14.6g}{change[name]['value']:>14.6g}{ratio:>9.3f}")
    sys.stdout.flush()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_tree", help="a checkout of the parent commit")
    base = Path(parser.parse_args(argv).base_tree).resolve()
    if not (base / "src" / "repro" / "__init__.py").is_file():
        parser.error(f"{base} has no src/repro; pass a checkout of the parent")
    trees = {"parent": base, "change": THIS_TREE}
    print(f"perf gate: {WORKLOAD} seed {SEED}, {SECONDS} s per run, {PAIRS} pairs; parent {base}, change {THIS_TREE}")
    print(f"  {'metric':<22}{'parent':>14}{'change':>14}{'ratio':>9}")
    pairs = []
    for pair in range(1, PAIRS + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        pairs.append({side: run_perfbench(trees[side]) for side in order})
        report(pair, pairs[-1])
    ratio, problems = decide(pairs)
    for text in problems:
        print(f"FAIL: {text}")
    if problems:
        return 1
    print(f"OK: median {METRIC} ratio {ratio:.3f} (change / parent), limit {LIMIT:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

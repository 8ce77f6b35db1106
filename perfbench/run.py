"""Repository benchmark: the paper's three uses, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload table4 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload, untraced
    python3 perfbench/run.py --self-test                 # tiny sizes: names, units, RSS
    python3 perfbench/run.py --record-reference          # rewrite perfbench/reference.json

Workloads: ``table4`` (``repro.pipeline.run_experiment``; an op is one
experiment), ``city_campaign`` (``repro.ran.run_city_campaign``; an op is
one shard) and ``online_abr`` (MPC sessions forecasting with Prism5G; an
op is one forecast).  ``perfbench/workloads.json`` records which layers
each stresses and bypasses, and which end-to-end metric each per-layer
metric should move.  Every run starts fresh child processes
(``perfbench/child.py``) with the repo's environment knobs pinned.
``--trace 0`` reports ``setup_s`` (median of the run's set-ups, wall
time), ``op_cpu_ms_p90`` and ``op_cpu_ms_p99`` (latency of one op),
``work_per_cpu_s_p10`` (experiments, UE-steps or chunk decisions per
second, reached by 90% of rounds) and ``peak_rss_mb`` (the measuring
child's own, from ``os.wait4``).  Ops and rounds are timed in the
child's CPU time, which for this single-threaded work that never waits
is its wall time on a core of its own (see ``perfbench/workloads.py``).
``--trace 1`` runs fixed rounds untraced and then traced
(``perfbench/tracer.py``) and reports the per-layer metrics, a layer tree
and ``obs.trace_overhead``.  Metric names and units are those
``BENCHMARK.json`` declares.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any op or check failed and 2
outside a repository checkout.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
SELF_DESCRIPTION = HERE / "workloads.json"
SCRATCH = ROOT / ".perfbench-tmp"
OUT_DIR = ROOT / ".perfbench-out"

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: rounds of the traced run and of its untraced twin
TRACE_ROUNDS = {"table4": 2, "city_campaign": 2, "online_abr": 3}
#: the seed whose outputs ``--record-reference`` records
REFERENCE_SEED = 0
#: rounds ``--record-reference`` runs: enough to meet every input set a workload cycles through
RECORD_ROUNDS = 4
#: a run ends within this many seconds; a child still running then is killed
RUN_LIMIT_S = 170.0
#: the self-test's peak-RSS probe allocates this many MiB
PROBE_MB = 200
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
_CHILD_IDS = itertools.count()


class BenchFailed(RuntimeError):
    """A child crashed or outlived the run's time limit, or a run missed a declared metric."""


def load_spec() -> Dict:
    """``BENCHMARK.json``: workload names, and metric name -> unit per kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "workloads": [workload["name"] for workload in spec["workloads"]],
        "end_to_end": {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        "per_layer": {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }


def child_env(work: Path) -> Dict[str, str]:
    """This environment with every repo knob pinned and any ``REPRO_*`` preset dropped."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env.update(
        REPRO_OBS="off",
        REPRO_OBS_SAMPLE_HZ="0",
        REPRO_SANITIZE="0",
        REPRO_BACKEND="numpy",
        REPRO_PROCS="1",
        REPRO_CACHE_DIR=str(work / "cache"),
        REPRO_RUNS_DIR=str(work / "runs"),
        REPRO_OBS_DIR=str(work / "obs"),
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        PYTHONHASHSEED="0",
    )
    return env


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for ``proc`` with ``os.wait4``, so the resource usage is that child's own."""
    try:
        while time.monotonic() < deadline:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            time.sleep(0.01)
        raise BenchFailed("a child outlived its run's time limit and was killed")
    finally:
        if proc.returncode is None:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)


def run_child(scratch: Path, deadline: float, *args: str) -> Tuple[Dict, float, float]:
    """Run ``child.py`` once; returns its result, its spawn time and its peak RSS in MB."""
    work = scratch / f"child-{next(_CHILD_IDS)}"
    work.mkdir(parents=True)
    out, log_path = work / "result.json", work / "child.log"
    cmd = [sys.executable, str(CHILD), *args, "--work", str(work / "work"), "--out", str(out)]
    with log_path.open("wb") as log:
        spawned_at = time.time()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(work), stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT
        )
        status, usage = _reap(proc, deadline)
    if status != 0 or not out.exists():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
        raise BenchFailed(f"child {' '.join(args)} exited with status {status}:\n{tail}")
    return json.loads(out.read_text(encoding="utf-8")), spawned_at, usage.ru_maxrss / 1024.0


#: ``op_cpu_ms_p99`` is the median of the 99th percentiles of this many blocks of consecutive ops
TAIL_BLOCKS = 5


def quantile(values: List[float], share: float) -> float:
    """The ``share`` quantile of ``values`` (inclusive method), in steps of 1%."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def tail_ms(latencies: List[float]) -> float:
    """The 99th-percentile op latency of each of ``TAIL_BLOCKS`` blocks of consecutive ops, their median.

    Host noise that hits fewer than half the blocks does not set it.
    """
    size = -(-len(latencies) // TAIL_BLOCKS)
    return statistics.median(quantile(latencies[start : start + size], 0.99) for start in range(0, len(latencies), size))


def measure(base: Tuple[str, ...], seconds: float, scratch: Path, deadline: float) -> Dict:
    """The untraced run: set-ups, then one child running rounds for ``seconds``.

    A workload's ops are alike, so every quantile of their latency tracks
    the program.  The host these runs share changes speed by up to 2x for
    seconds to minutes at a time, and how much of a run falls in its slow
    stretches varies; the median then swings from run to run, while the
    90th percentile of ops (and the 10th of round rates) sits on the slow
    stretches every run has.
    """
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        result, spawned_at, _ = run_child(scratch, deadline, *base, "--mode", "setup")
        setups.append(result["ready_at"] - spawned_at)
    result, spawned_at, rss_mb = run_child(scratch, deadline, *base, "--mode", "measure", "--seconds", str(seconds))
    setups.append(result["ready_at"] - spawned_at)
    latencies = result["latencies_ms"]
    rates = [work / seconds for work, seconds in zip(result["round_work"], result["round_s"])]
    result["metrics"] = {
        "setup_s": statistics.median(setups),
        "op_cpu_ms_p90": quantile(latencies, 0.9),
        "op_cpu_ms_p99": tail_ms(latencies) if latencies else 0.0,
        "work_per_cpu_s_p10": quantile(rates, 0.1),
        "peak_rss_mb": rss_mb,
    }
    return result


def trace(base: Tuple[str, ...], rounds: int, spans: Path, scratch: Path, deadline: float) -> Dict:
    """The traced run: the same fixed rounds untraced, then traced; spans go to ``spans``."""
    base = (*base, "--mode", "fixed", "--rounds", str(rounds))
    plain, _, _ = run_child(scratch, deadline, *base)
    traced, _, _ = run_child(scratch, deadline, *base, "--trace", "--spans", str(spans))
    traced["metrics"] = {**traced["layer_metrics"], "obs.trace_overhead": traced["loop_s"] / plain["loop_s"]}
    for key in ("attempted", "failed", "errors"):
        traced[key] = plain[key] + traced[key]
    return traced


def tree_lines(nodes: List[Dict], depth: int = 0) -> Iterator[str]:
    for node in sorted(nodes, key=lambda node: -node["busy_s"]):
        label = "  " * depth + node["name"]
        yield f"    {label:<52} {node['calls']:>8} {node['busy_s']:>11.4f} {node['unattributed_s']:>11.4f}"
        yield from tree_lines(node["children"], depth + 1)


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, units: Dict[str, str], size: str = "full"
) -> Dict:
    """One benchmark run, reported; its metrics come back as ``{name: {"value", "unit"}}``.

    ``units`` names the metrics to report, each with its unit; the run's
    every measured value stays in ``measured``.
    """
    scratch = SCRATCH / f"{workload}-{os.getpid()}"
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ("--workload", workload, "--seed", str(seed), "--size", size, "--reference", str(REFERENCE))
    try:
        if traced:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"{workload}-seed{seed}-{size}-spans.json"
            outcome = trace(base, TRACE_ROUNDS[workload], spans, scratch, deadline)
        else:
            outcome = measure(base, seconds, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    measured = outcome["measured"] = outcome["metrics"]
    missing = sorted(set(units) - set(measured))
    if missing:
        raise BenchFailed(f"{workload}: the run did not measure {missing}")
    outcome["metrics"] = {name: {"value": measured[name], "unit": unit} for name, unit in units.items()}
    env = outcome["env"]
    print(
        f"perfbench {workload} seed={seed} size={size} {'traced' if traced else 'untraced'}: "
        f"host_cpus={env['host_cpus']} python={env['python']} numpy={env['numpy']} "
        f"backend={env['backend_resolved']} flags={json.dumps(env['runtime_flags'], sort_keys=True)}"
    )
    for name, metric in outcome["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    failed, attempted = outcome["failed"], outcome["attempted"]
    checked = "checked against the recorded reference" if outcome["reference_checked"] else "no recorded reference"
    print(
        f"  error_rate {failed / max(attempted, 1):.6g} ({failed} of {attempted} ops failed; {checked}); "
        f"{len(outcome['latencies_ms'])} op latencies over {outcome['rounds']} rounds"
    )
    if traced:
        print(f"    {'layer':<52} {'calls':>8} {'busy_s':>11} {'unattrib_s':>11}")
        for line in tree_lines(outcome["tree"]):
            print(line)
    for error in outcome["errors"]:
        print(f"  FAILED {error}")
    return outcome


def record_reference(spec: Dict) -> int:
    """Run ``RECORD_ROUNDS`` rounds of each workload at ``REFERENCE_SEED`` and record its outputs."""
    scratch = SCRATCH / f"record-{os.getpid()}"
    outputs = {}
    try:
        for workload in spec["workloads"]:
            base = ("--workload", workload, "--seed", str(REFERENCE_SEED), "--mode", "fixed")
            base += ("--rounds", str(RECORD_ROUNDS))
            result, _, _ = run_child(scratch, time.monotonic() + RUN_LIMIT_S, *base)
            if result["failed"]:
                print(f"perfbench: {workload} failed, nothing recorded: {result['errors']}", file=sys.stderr)
                return 1
            if result["output"] is not None:
                outputs[workload] = result["output"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    reference = {"seed": REFERENCE_SEED, "size": "full", "outputs": outputs}
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"perfbench: recorded {sorted(outputs)} at seed {REFERENCE_SEED} in {REFERENCE.name}")
    return 0


def self_test(spec: Dict) -> int:
    """Checks the benchmark itself at tiny sizes; returns the number of problems found."""
    problems: List[str] = []
    scratch = SCRATCH / f"self-test-{os.getpid()}"
    try:
        # peak RSS is each child's own: a block one child allocates shows in
        # its figure and not in the next child's
        deadline = time.monotonic() + RUN_LIMIT_S
        _, _, allocating = run_child(scratch, deadline, "--mode", "alloc", "--mb", str(PROBE_MB))
        _, _, next_one = run_child(scratch, deadline, "--mode", "alloc", "--mb", "0")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"self-test: peak RSS {allocating:.1f} MB after allocating {PROBE_MB} MiB, then {next_one:.1f} MB")
    if not allocating >= PROBE_MB:
        problems.append(f"a child allocating {PROBE_MB} MiB reported a peak RSS of {allocating:.1f} MB")
    if not next_one < PROBE_MB:
        problems.append(f"the next child reported {next_one:.1f} MB: it inherited the earlier peak")

    described = json.loads(SELF_DESCRIPTION.read_text(encoding="utf-8"))
    if sorted(described) != sorted(spec["workloads"]):
        problems.append(f"{SELF_DESCRIPTION.name} describes {sorted(described)}, not {sorted(spec['workloads'])}")
    for workload in spec["workloads"]:
        layer_map = described.get(workload, {}).get("layer_map", {})
        for layer_metric, end_to_end in layer_map.items():
            if layer_metric not in spec["per_layer"] or end_to_end not in spec["end_to_end"]:
                problems.append(f"{workload}: layer_map {layer_metric} -> {end_to_end} names an undeclared metric")
        for kind, traced in (("end_to_end", False), ("per_layer", True)):
            try:
                outcome = run_workload(workload, 1, 0.0, traced, spec[kind], size="tiny")
            except BenchFailed as exc:
                problems.append(str(exc))
                continue
            emitted = {name: metric["unit"] for name, metric in outcome["metrics"].items()}
            if emitted != spec[kind]:
                problems.append(f"{workload}: emitted {kind} metrics {emitted} differ from BENCHMARK.json")
            if outcome["failed"]:
                problems.append(f"{workload}: {outcome['failed']} ops failed: {outcome['errors']}")
            if not traced and set(outcome["measured"]) != set(spec[kind]):
                problems.append(f"{workload}: measured {sorted(outcome['measured'])}, not the declared end_to_end")
            idle = [name for name in layer_map if traced and not outcome["measured"][name] > 0]
            if idle:
                problems.append(f"{workload}: the traced run left {idle} at 0, though workloads.json maps them")
    for problem in problems:
        print(f"self-test FAILED: {problem}")
    print(f"self-test: {len(problems)} problems")
    return len(problems)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload BENCHMARK.json names, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the benchmark itself at tiny sizes")
    parser.add_argument("--record-reference", action="store_true", help=f"rewrite {REFERENCE.name}")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from the repository root", file=sys.stderr)
        return 2
    spec = load_spec()
    # the build: byte-compile the package once, so no child pays for it inside setup_s
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    try:
        if args.self_test:
            return 1 if self_test(spec) else 0
        if args.record_reference:
            return record_reference(spec)
        if args.workload not in (*spec["workloads"], "all"):
            parser.error(f"--workload must be one of {spec['workloads']} or all")
        workloads = spec["workloads"] if args.workload == "all" else [args.workload]
        units = spec["per_layer" if args.trace else "end_to_end"]
        outcomes = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), units) for w in workloads}
    except BenchFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(outcome["attempted"] for outcome in outcomes.values())
    failed = sum(outcome["failed"] for outcome in outcomes.values())
    metrics = (
        {w: o["metrics"] for w, o in outcomes.items()} if args.workload == "all" else outcomes[args.workload]["metrics"]
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark child process: set up a workload, run it, write a JSON result.

``perfbench/run.py`` starts this script with the repo's environment knobs
pinned; it is not meant to be run by hand.  Modes:

``setup``    set up, then stop: one sample of ``setup_s``
``measure``  set up, then run rounds until ``--seconds`` have passed
``fixed``    set up, then run ``--rounds`` rounds; ``--trace`` times every layer
``alloc``    allocate ``--mb`` MiB and stop: the peak-RSS self-test
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Optional

#: repro.obs warning event -> the per-layer counter it feeds
EVENTS = {
    "parallel.shard.retry": "parallel.retries",
    "parallel.shard.failed": "parallel.retries",
    "cache.corrupt": "data.cache_corrupt",
}


class EventCounter(logging.Handler):
    """Counts the warnings ``repro.obs.log_warning`` logs even with obs off."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        # log_warning logs ("%s %s", event, fields)
        event = record.args[0] if isinstance(record.args, tuple) and record.args else None
        if event in EVENTS:
            self.counts[EVENTS[event]] += 1


def recorded_output(path: Optional[str], workload: str, seed: int, size: str) -> Optional[Dict]:
    """The output recorded in ``path`` for these inputs, or None when they were not recorded."""
    if path is None:
        return None
    reference = json.loads(Path(path).read_text(encoding="utf-8"))
    if (seed, size) != (reference["seed"], reference["size"]):
        return None
    return reference["outputs"].get(workload)


def _write(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "fixed", "alloc"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--reference", help="the recorded outputs to check against")
    parser.add_argument("--mb", type=int, default=0)
    parser.add_argument("--work", required=True, help="the child's scratch directory")
    parser.add_argument("--out", required=True, help="where the JSON result goes")
    args = parser.parse_args()
    out = Path(args.out)
    if args.mode == "alloc":
        import numpy as np

        block = np.ones(args.mb * 2**20 // 8)  # np.ones writes, so every page is resident
        _write(out, {"allocated_mb": block.nbytes / 2**20})
        return 0

    import numpy as np
    from repro import backends, runtime

    from tracer import NullTracer, Tracer, install, layer_metrics, layer_tree
    from workloads import WORKLOADS

    events = EventCounter()
    logging.getLogger("repro.obs").addHandler(events)
    tracer = Tracer() if args.trace else NullTracer()
    reference = recorded_output(args.reference, args.workload, args.seed, args.size)
    workload = WORKLOADS[args.workload](args.seed, args.size, Path(args.work), tracer, reference)
    workload.setup()
    result = {
        "ready_at": time.time(),
        "env": {
            "host_cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "backend_resolved": backends.active_name(),
            "runtime_flags": runtime.flags(),
        },
    }
    if args.mode == "setup":
        _write(out, result)
        return 0
    if args.trace:
        install(tracer)
    start = time.perf_counter()
    rounds = 0
    while True:
        tracer.op = rounds
        with tracer.span("bench.round"):
            workload.run_round(rounds)
        rounds += 1
        if args.mode == "fixed" and rounds >= args.rounds:
            break
        if args.mode == "measure" and time.perf_counter() - start >= args.seconds:
            break
    extras = {**workload.extras, **events.counts}
    result.update(
        loop_s=time.perf_counter() - start,
        rounds=rounds,
        latencies_ms=workload.latencies_ms,
        round_s=workload.round_s,
        round_work=workload.round_work,
        attempted=workload.attempted,
        failed=workload.failed,
        errors=workload.errors,
        reference_checked=reference is not None,
        output=workload.outputs or None,
        extras=extras,
    )
    if args.trace:
        result["layer_metrics"] = layer_metrics(tracer, extras)
        result["tree"] = layer_tree(tracer.spans)
        _write(Path(args.spans), {"workload": args.workload, "seed": args.seed, "spans": tracer.spans})
    _write(out, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

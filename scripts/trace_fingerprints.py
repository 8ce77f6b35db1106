"""Print SHA-256 fingerprints of a fixed set of synthesized traces.

Every simulator optimization in this repo must leave traces
bit-identical.  This script synthesizes one trace set per simulator
path, writes each trace as the JSONL the trace cache stores, and prints
the SHA-256 of those bytes, one set per line, after the trace cache's
``CACHE_SCHEMA_VERSION``.  Run it against two trees and diff the
output; ``PYTHONPATH`` picks the tree whose ``repro`` is fingerprinted::

    PYTHONPATH=src python scripts/trace_fingerprints.py > after.txt
    PYTHONPATH=../base/src python scripts/trace_fingerprints.py > before.txt
    diff before.txt after.txt

Equal schemas with different hashes mean a change moved a trace without
bumping the schema.  Both runs must share a machine: numpy's SIMD
transcendentals may round differently on another CPU.  A run takes
about 2 s on one core; everything it writes goes into a temporary
directory.  Pass trace-set names to fingerprint only those.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from repro.data.cache import CACHE_SCHEMA_VERSION
from repro.data.datasets import SubDatasetSpec, generate_traces
from repro.ran.campaign import CityCampaignConfig, run_city_campaign
from repro.ran.simulator import TraceSimulator, simulate_stationary_ideal
from repro.ran.traces import Trace


def _solo(duration_s: float, **kwargs) -> Callable[[Path], List[Trace]]:
    return lambda _: [TraceSimulator(area_m=3_000.0, **kwargs).run(duration_s)]


def _subdataset(spec: SubDatasetSpec, n_traces: int, samples: int) -> Callable[[Path], List[Trace]]:
    return lambda _: list(generate_traces(spec, n_traces=n_traces, samples_per_trace=samples, seed=0, processes=1))


def _campaign(**kwargs) -> Callable[[Path], List[Trace]]:
    def run(scratch: Path) -> List[Trace]:
        config = CityCampaignConfig(spill_traces=True, **kwargs)
        result = run_city_campaign(config, state_dir=scratch / "campaign", processes=1)
        return list(result.load_spilled_traces())

    return run


#: name -> trace set.  Solo runs drive a 3 km deployment so their
#: candidate sets change mid-run; the campaigns cover the cohort (shared
#: deployment) and per-UE (``cells=0``) engines, spilled.
#: ``campaign_city`` is perfbench's ``city_campaign`` grid (every
#: operator's channel plan, every outdoor scenario's load profile) at a
#: small size.
TRACE_SETS: Dict[str, Callable[[Path], List[Trace]]] = {
    "solo_1s": _solo(300.0, operator="OpX", mobility="driving", seed=3),
    "solo_100ms": _solo(60.0, operator="OpZ", mobility="driving", dt_s=0.1, seed=8),
    "solo_10ms": _solo(10.0, operator="OpZ", mobility="driving", dt_s=0.01, seed=9),
    "indoor": _solo(300.0, operator="OpZ", scenario="indoor", mobility="indoor", seed=12),
    "force_los_true": _solo(300.0, operator="OpZ", mobility="driving", force_los=True, seed=11),
    "force_los_false": _solo(300.0, operator="OpY", mobility="walking", force_los=False, seed=10),
    "4g": _solo(300.0, operator="OpZ", mobility="driving", rat="4G", seed=13),
    "band_lock": _solo(300.0, operator="OpZ", mobility="driving", band_lock=("n41",), seed=14),
    "stationary_ideal": lambda _: [simulate_stationary_ideal("OpX", duration_s=120.0, seed=2)],
    "table4_long": _subdataset(SubDatasetSpec("OpZ", "driving", "long"), 4, 200),
    "short": _subdataset(SubDatasetSpec("OpY", "walking", "short"), 3, 400),
    "campaign_cohort": _campaign(
        operators=("OpX", "OpZ"), scenarios=("urban", "highway"), rats=("5G",),
        ues=8, cells=30, shards=2, cohort=4, duration_s=60.0, seed=21,
    ),
    "campaign_city": _campaign(
        operators=("OpX", "OpY", "OpZ"), scenarios=("urban", "suburban", "highway"), rats=("5G",),
        ues=4, cells=40, shards=2, cohort=4, duration_s=30.0, seed=1000,
    ),
    "campaign_cells0": _campaign(
        operators=("OpY",), scenarios=("urban", "suburban"), rats=("5G", "4G"),
        ues=2, cells=0, shards=1, duration_s=60.0, seed=5,
    ),
}


def fingerprint(traces: Iterable[Trace], scratch: Path) -> str:
    """SHA-256 over each trace's JSONL bytes, in order."""
    digest = hashlib.sha256()
    for i, trace in enumerate(traces):
        path = scratch / f"trace-{i}.jsonl"
        trace.to_jsonl(path)
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprints(names: Iterable[str]) -> Iterator[Tuple[str, str]]:
    """``(name, SHA-256)`` per trace set, each synthesized in a fresh temporary directory."""
    for name in names:
        with tempfile.TemporaryDirectory(prefix="trace-fp-") as tmp:
            scratch = Path(tmp)
            yield name, fingerprint(TRACE_SETS[name](scratch), scratch)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help=f"trace sets (default: all of {', '.join(TRACE_SETS)})")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(TRACE_SETS))
    if unknown:
        parser.error(f"unknown trace sets: {', '.join(unknown)}")
    print(f"CACHE_SCHEMA_VERSION {CACHE_SCHEMA_VERSION}")
    for name, value in fingerprints(args.names or TRACE_SETS):
        print(f"{name} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

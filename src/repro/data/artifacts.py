"""Dataset artifacts: persist and reload whole trace sets.

The paper releases its measurement datasets publicly; this module gives
the synthetic equivalents the same shape — a directory of JSONL traces
plus a manifest — so downstream users can regenerate, share, and reload
identical datasets without re-simulating.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from ..ran.traces import Trace, TraceSet

MANIFEST_NAME = "manifest.json"


def save_trace_set(traces: TraceSet, directory: Union[str, Path], name: str = "dataset") -> Path:
    """Write every trace as JSONL plus a manifest; returns the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries: List[Dict] = []
    for index, trace in enumerate(traces):
        filename = (
            f"{name}_{trace.operator}_{trace.rat}_{trace.scenario}_"
            f"{trace.mobility}_{index:04d}.jsonl"
        )
        trace.to_jsonl(directory / filename)
        entries.append(
            {
                "file": filename,
                "operator": trace.operator,
                "rat": trace.rat,
                "scenario": trace.scenario,
                "mobility": trace.mobility,
                "modem": trace.modem,
                "dt_s": trace.dt_s,
                "samples": len(trace),
                "seed": trace.seed,
                "route_id": trace.route_id,
            }
        )
    manifest = {"name": name, "n_traces": len(entries), "traces": entries}
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return directory


def load_trace_set(directory: Union[str, Path]) -> TraceSet:
    """Reload a trace set saved by :func:`save_trace_set`."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    manifest = json.loads(manifest_path.read_text())
    return TraceSet([Trace.from_jsonl(directory / entry["file"]) for entry in manifest["traces"]])

"""Trace data model: the Table 12 feature schema + JSONL persistence.

A :class:`TraceRecord` is one sampling instant (10 ms or 1 s) holding
per-component-carrier PHY features exactly as a UE could collect them
(paper Table 3 / Table 12): band info, ssRSRP, ssRSRQ, SINR, CQI, BLER,
and optionally #RB, #Layers, MCS — plus the RRC CA events and the
per-CC and aggregate throughput.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

#: per-CC feature names in canonical order (ML input layout).
CC_FEATURES: Tuple[str, ...] = (
    "rsrp_dbm",
    "rsrq_db",
    "sinr_db",
    "cqi",
    "bler",
    "n_rb",
    "n_layers",
    "mcs",
    "tput_mbps",
    "is_pcell",
)


@dataclass
class CCSample:
    """Per-component-carrier observation at one instant."""

    channel_key: str
    band_name: str
    pci: int
    is_pcell: bool
    active: bool
    rsrp_dbm: float
    rsrq_db: float
    sinr_db: float
    cqi: int
    bler: float
    n_rb: float
    n_layers: int
    mcs: int
    tput_mbps: float

    def feature_vector(self) -> np.ndarray:
        """Numeric features in :data:`CC_FEATURES` order."""
        return np.array([getattr(self, name) for name in CC_FEATURES], dtype=np.float64)

    @staticmethod
    def inactive(channel_key: str = "", band_name: str = "") -> "CCSample":
        """Placeholder for a configured-but-inactive CC slot."""
        return CCSample(
            channel_key=channel_key,
            band_name=band_name,
            pci=-1,
            is_pcell=False,
            active=False,
            rsrp_dbm=-140.0,
            rsrq_db=-30.0,
            sinr_db=-10.0,
            cqi=0,
            bler=0.0,
            n_rb=0.0,
            n_layers=0,
            mcs=0,
            tput_mbps=0.0,
        )


@dataclass
class TraceRecord:
    """One sampling instant of a measurement trace."""

    t: float
    position: Tuple[float, float]
    ccs: List[CCSample]
    total_tput_mbps: float
    events: List[str] = field(default_factory=list)  #: RRC events this step
    indoor: bool = False
    speed_mps: float = 0.0

    @property
    def n_active_ccs(self) -> int:
        return sum(1 for cc in self.ccs if cc.active)

    @property
    def pcell(self) -> Optional[CCSample]:
        for cc in self.ccs:
            if cc.active and cc.is_pcell:
                return cc
        return None

    @property
    def combo_key(self) -> str:
        """Ordered CA combination, PCell first (e.g. ``n41+n25+n41``)."""
        active = [cc for cc in self.ccs if cc.active]
        active.sort(key=lambda cc: (not cc.is_pcell,))
        return "+".join(cc.band_name for cc in active)

    @property
    def combo_channels(self) -> str:
        """Ordered CA combination at channel granularity."""
        active = [cc for cc in self.ccs if cc.active]
        active.sort(key=lambda cc: (not cc.is_pcell,))
        return "+".join(cc.channel_key for cc in active)


#: the fields :meth:`Trace.to_jsonl` writes for each record and CC
_RECORD_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(TraceRecord))
_CC_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(CCSample))


@dataclass
class Trace:
    """A contiguous measurement run with fixed sampling period."""

    records: List[TraceRecord]
    dt_s: float
    operator: str = ""
    scenario: str = ""
    mobility: str = ""
    modem: str = ""
    rat: str = "5G"
    route_id: int = 0
    seed: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def duration_s(self) -> float:
        return len(self.records) * self.dt_s

    def throughput_series(self) -> np.ndarray:
        """Aggregate throughput (Mbps) over time."""
        return np.array([rec.total_tput_mbps for rec in self.records])

    def cc_count_series(self) -> np.ndarray:
        return np.array([rec.n_active_ccs for rec in self.records])

    def event_steps(self) -> List[int]:
        """Indices at which any RRC CA event occurred."""
        return [i for i, rec in enumerate(self.records) if rec.events]

    # ------------------------------------------------------------------
    # ML feature extraction
    # ------------------------------------------------------------------
    def feature_tensor(self, max_ccs: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(features, mask, total)``.

        features: (T, max_ccs, F) per-CC features, zeros where inactive.
        mask:     (T, max_ccs) binary activity mask (the RRC-derived
                  state vector *I* of the paper's §5.2).
        total:    (T,) aggregate throughput in Mbps.

        Slot assignment is *stable*: each channel keeps its slot for as
        long as it stays configured, so a slot's time series really is
        one carrier's history (the property Prism5G's per-CC RNN relies
        on).  New channels claim a free slot, evicting the
        least-recently-active owner if none is free; channels beyond
        ``max_ccs`` concurrent ones are dropped from the tensor (their
        throughput still counts toward ``total``).
        """
        n = len(self.records)
        features = np.zeros((n, max_ccs, len(CC_FEATURES)))
        mask = np.zeros((n, max_ccs))
        total = np.zeros(n)
        slot_of: Dict[str, int] = {}
        last_active: Dict[str, int] = {}
        for t, rec in enumerate(self.records):
            total[t] = rec.total_tput_mbps
            active = sorted(
                (cc for cc in rec.ccs if cc.active),
                key=lambda cc: (not cc.is_pcell,),
            )
            active_keys = {cc.channel_key for cc in active}
            for cc in active:
                if cc.channel_key not in slot_of:
                    used = set(slot_of.values())
                    free = [s for s in range(max_ccs) if s not in used]
                    if free:
                        slot_of[cc.channel_key] = free[0]
                    else:
                        # evict the least-recently-active inactive owner
                        evictable = [k for k in slot_of if k not in active_keys]
                        if not evictable:
                            continue  # more concurrent CCs than slots
                        victim = min(evictable, key=lambda k: last_active.get(k, -1))
                        slot_of[cc.channel_key] = slot_of.pop(victim)
                slot = slot_of[cc.channel_key]
                last_active[cc.channel_key] = t
                features[t, slot] = cc.feature_vector()
                mask[t, slot] = 1.0
        return features, mask, total

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_jsonl(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON lines (one record per line + header)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "dt_s": self.dt_s,
            "operator": self.operator,
            "scenario": self.scenario,
            "mobility": self.mobility,
            "modem": self.modem,
            "rat": self.rat,
            "route_id": self.route_id,
            "seed": self.seed,
        }
        # each record's dict is built from its fields, in field order, as
        # dataclasses.asdict would (and without its per-value deep copy)
        with path.open("w") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for rec in self.records:
                payload = {name: getattr(rec, name) for name in _RECORD_FIELDS}
                payload["position"] = list(rec.position)
                payload["ccs"] = [{name: getattr(cc, name) for name in _CC_FIELDS} for cc in rec.ccs]
                handle.write(json.dumps(payload) + "\n")

    @staticmethod
    def from_jsonl(path: Union[str, Path]) -> "Trace":
        """Load a trace written by :meth:`to_jsonl`."""
        path = Path(path)
        records: List[TraceRecord] = []
        header: Dict = {}
        with path.open() as handle:
            for line_no, line in enumerate(handle):
                payload = json.loads(line)
                if line_no == 0 and "header" in payload:
                    header = payload["header"]
                    continue
                ccs = [CCSample(**cc) for cc in payload.pop("ccs")]
                payload["position"] = tuple(payload["position"])
                records.append(TraceRecord(ccs=ccs, **payload))
        return Trace(records=records, **header)


class TraceSet:
    """A collection of traces with shared metadata filters."""

    def __init__(self, traces: Sequence[Trace]) -> None:
        self.traces = list(traces)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    def __getitem__(self, index: int) -> Trace:
        return self.traces[index]

    def filter(self, **criteria) -> "TraceSet":
        """Filter by metadata equality, e.g. ``filter(operator="OpZ")``."""
        selected = []
        for trace in self.traces:
            if all(getattr(trace, key) == value for key, value in criteria.items()):
                selected.append(trace)
        return TraceSet(selected)

    def total_duration_s(self) -> float:
        return sum(trace.duration_s for trace in self.traces)

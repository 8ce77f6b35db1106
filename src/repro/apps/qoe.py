"""QoE metric containers shared by the ViVo and ABR use cases."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


@dataclass
class QoEResult:
    """Outcome of one streaming session."""

    avg_quality: float  #: mean quality level (ViVo) or bitrate Mbps (ABR)
    stall_time_s: float
    n_stalls: int
    n_units: int  #: frames (ViVo) or chunks (ABR)
    quality_switches: int = 0


def relative_degradation(result: QoEResult, ideal: QoEResult) -> Dict[str, float]:
    """Percentage QoE loss vs the ideal (future-knowing) run — Fig 8/19.

    quality_drop_pct: how much lower the average quality is than ideal.
    stall_increase_pct: stall-time increase relative to the session
    length proxy (ideal stall + 1 s guard to avoid division blow-ups).
    """
    quality_drop = (ideal.avg_quality - result.avg_quality) / max(ideal.avg_quality, 1e-9) * 100.0
    stall_increase = (result.stall_time_s - ideal.stall_time_s) / max(ideal.stall_time_s, 1.0) * 100.0
    return {"quality_drop_pct": quality_drop, "stall_increase_pct": stall_increase}


def stall_tail_improvements(
    baseline_stalls: Sequence[float],
    improved_stalls: Sequence[float],
    percentiles: Sequence[float] = (99.0, 95.0, 90.0),
) -> Dict[float, float]:
    """Per-percentile stall-time reduction in seconds (paper Fig 21)."""
    baseline = np.asarray(baseline_stalls, dtype=np.float64)
    improved = np.asarray(improved_stalls, dtype=np.float64)
    if baseline.size == 0 or improved.size == 0:
        raise ValueError("need stall samples for both runs")
    return {
        q: float(np.percentile(baseline, q) - np.percentile(improved, q))
        for q in percentiles
    }

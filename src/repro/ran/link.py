"""Link adaptation: CQI feedback, MCS selection, BLER, MIMO rank.

Implements the feedback loop of §4.1: the UE reports CQI/RI derived
from SINR; the gNB picks MCS and the number of MIMO layers.  Under CA
the per-CC transmit power may be reduced (the base station's power
amplifier is shared), which lowers SINR and hence the achievable rank —
the mechanism behind the paper's Fig 14 observation that the same n25
channel drops from 3 layers (no CA) to 1 layer (in a 3CC combo).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .phy import MAX_MCS_INDEX, cqi_from_sinr, mcs_from_cqi, mcs_spectral_efficiency


#: SINR thresholds (dB) above which each additional MIMO layer is usable.
RANK_SINR_THRESHOLDS_DB = (-math.inf, 9.0, 16.0, 22.0)


def select_rank(sinr_db: float, max_layers: int = 4) -> int:
    """Number of spatial layers supportable at this SINR (1..max_layers).

    The thresholds ascend from -inf, so the rank is how many of them the
    SINR reaches: one binary search.  A NaN SINR reaches none and gets
    one layer.
    """
    if max_layers < 1:
        raise ValueError("max_layers must be >= 1")
    rank = bisect.bisect_right(RANK_SINR_THRESHOLDS_DB, sinr_db) if sinr_db >= RANK_SINR_THRESHOLDS_DB[0] else 1
    return max_layers if max_layers < rank else rank


#: SINR (dB) needed for ~10% BLER at each MCS: its efficiency inverted
#: through the Shannon gap used by ``cqi_from_sinr``.
_REQUIRED_SINR_DB = tuple(
    10 * math.log10((2 ** mcs_spectral_efficiency(mcs) - 1.0)) + 3.0 for mcs in range(MAX_MCS_INDEX + 1)
)


def bler_from_sinr(sinr_db: float, mcs_index: int, steepness: float = 1.2) -> float:
    """Block error rate as a sigmoid around the MCS's SINR threshold.

    Link adaptation targets ~10% BLER; when the channel degrades before
    CQI feedback catches up, BLER rises steeply.
    """
    if not 0 <= mcs_index <= MAX_MCS_INDEX:
        raise ValueError(f"MCS index must be in [0, {MAX_MCS_INDEX}]")
    margin = sinr_db - _REQUIRED_SINR_DB[mcs_index]
    bler = 1.0 / (1.0 + math.exp(steepness * margin + 2.2))  # ~10% at margin 0
    # min(max(bler, 0.0), 0.95) without the two builtin calls
    if bler < 0.0:
        bler = 0.0
    return 0.95 if bler > 0.95 else bler


@dataclass
class LinkState:
    """Per-CC link adaptation outputs for one reporting interval."""

    cqi: int
    mcs: int
    rank: int
    bler: float


class LinkAdapter:
    """Stateful link adaptation with delayed/noisy CQI feedback.

    ``report_noise`` adds quantization/measurement noise to the CQI and
    ``feedback_lag`` smooths MCS changes (outer-loop behaviour), so the
    selected MCS trails sudden SINR changes exactly like a real
    scheduler — one of the sources of throughput variability at CC
    transitions the paper highlights.
    """

    def __init__(
        self,
        max_layers: int = 4,
        report_noise: float = 0.5,
        feedback_smoothing: float = 0.5,
    ) -> None:
        if not 0.0 <= feedback_smoothing < 1.0:
            raise ValueError("feedback_smoothing must be in [0, 1)")
        self.max_layers = max_layers
        self.report_noise = report_noise
        self.feedback_smoothing = feedback_smoothing
        self._smoothed_sinr: Optional[float] = None

    def reset(self) -> None:
        self._smoothed_sinr = None

    def step(self, sinr_db: float, rng: np.random.Generator, max_layers: Optional[int] = None) -> LinkState:
        """Advance one reporting interval and return the link decisions."""
        smoothed = self._smoothed_sinr
        if smoothed is None:
            smoothed = sinr_db
        else:
            alpha = 1.0 - self.feedback_smoothing
            smoothed = alpha * sinr_db + self.feedback_smoothing * smoothed
        self._smoothed_sinr = smoothed
        # rng.normal(0.0, report_noise) drawn bare: the same value and
        # stream position (tests/test_ran_draws.py pins the identity)
        reported = smoothed + self.report_noise * rng.standard_normal()
        cqi = cqi_from_sinr(reported)
        mcs = mcs_from_cqi(cqi)
        layers_cap = self.max_layers if max_layers is None else min(max_layers, self.max_layers)
        rank = select_rank(reported, layers_cap)
        bler = bler_from_sinr(sinr_db, mcs)
        return LinkState(cqi, mcs, rank, bler)

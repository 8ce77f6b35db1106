"""Spectral-efficiency analysis (paper §4.1, Figs 9-10).

Computes bits/s/Hz per channel under good channel conditions
(CQI > 12, the paper's filter) and the TBS/MCS/#RE mapping surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..ran.bands import get_band
from ..ran.phy import (
    SYMBOLS_PER_SLOT,
    num_resource_blocks,
    phy_throughput_mbps,
    transport_block_size,
    duplex_dl_duty,
)
from ..ran.traces import Trace


@dataclass
class ChannelEfficiency:
    """Observed spectral efficiency of one channel."""

    channel_key: str
    band_name: str
    bandwidth_mhz: float
    mean_tput_mbps: float
    efficiency_bps_hz: float
    n_samples: int


def spectral_efficiency(
    traces: Sequence[Trace],
    bandwidth_by_key: Dict[str, float],
    min_cqi: int = 12,
) -> List[ChannelEfficiency]:
    """Per-channel bits/s/Hz under good channel conditions (CQI > 12)."""
    samples: Dict[str, List[float]] = {}
    band_of: Dict[str, str] = {}
    for trace in traces:
        for rec in trace.records:
            for cc in rec.ccs:
                if cc.active and cc.cqi > min_cqi and cc.channel_key in bandwidth_by_key:
                    samples.setdefault(cc.channel_key, []).append(cc.tput_mbps)
                    band_of[cc.channel_key] = cc.band_name
    out = []
    for key, values in sorted(samples.items()):
        bandwidth = bandwidth_by_key[key]
        mean_tput = float(np.mean(values))
        out.append(
            ChannelEfficiency(
                channel_key=key,
                band_name=band_of[key],
                bandwidth_mhz=bandwidth,
                mean_tput_mbps=mean_tput,
                efficiency_bps_hz=mean_tput / bandwidth,
                n_samples=len(values),
            )
        )
    return out


def theoretical_efficiency_bps_hz(band_name: str, bandwidth_mhz: float, n_layers: int = 2) -> float:
    """Ideal-condition spectral efficiency (highest MCS, full RBs)."""
    band = get_band(band_name)
    scs = band.default_scs_khz
    n_rb = num_resource_blocks(bandwidth_mhz, scs, band.rat)
    tput = phy_throughput_mbps(
        mcs_index=27,
        n_prb=n_rb,
        n_layers=n_layers,
        scs_khz=scs,
        dl_duty=duplex_dl_duty(band.duplex),
    )
    return tput / bandwidth_mhz


def tbs_surface(
    mcs_indices: Sequence[int],
    n_prbs: Sequence[int],
    n_layers: int = 2,
    n_symbols: int = SYMBOLS_PER_SLOT,
) -> np.ndarray:
    """TBS (bits/slot) over an (MCS, #PRB) grid — paper Fig 9's surface."""
    grid = np.zeros((len(mcs_indices), len(n_prbs)), dtype=np.int64)
    for i, mcs in enumerate(mcs_indices):
        for j, n_prb in enumerate(n_prbs):
            grid[i, j] = transport_block_size(mcs, n_prb, n_layers, n_symbols)
    return grid

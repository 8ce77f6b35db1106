"""Multi-user cell load and resource-block scheduling.

The UE never gets the full carrier: other users share the cell, and the
scheduler grants a time-varying fraction of the resource blocks.  The
paper's Appendix B.2 (Tables 8-10, Figs 31-32) shows that time-of-day
load moves #RB while RSRP/CQI/MCS stay flat — so throughput temporal
dynamics are capturable from the #RB feature.  We model per-cell load
as a mean-reverting process around a time-of-day profile, plus a CA
*throttling* effect: when a UE aggregates many wide CCs, busy cells cut
the marginal SCell's share (the paper's Fig 15 explanation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np


def time_of_day_load(hour: float, scenario: str = "urban") -> float:
    """Mean cell utilization in [0, 1] by local hour.

    Campus-style double peak (midday + evening) for urban, flatter for
    suburban/highway; midnight (the paper's main measurement window)
    is the trough.
    """
    if not 0.0 <= hour < 24.0:
        raise ValueError("hour must be in [0, 24)")
    base = {"urban": 0.45, "suburban": 0.30, "highway": 0.25, "indoor": 0.40}.get(scenario, 0.35)
    midday = math.exp(-((hour - 12.5) ** 2) / 8.0)
    evening = math.exp(-((hour - 18.5) ** 2) / 5.0)
    night_dip = 0.25 * math.exp(-((hour % 24 - 3.0) ** 2) / 10.0)
    return min(max(base * (0.5 + 0.9 * midday + 0.7 * evening) - night_dip * base, 0.02), 0.95)


@dataclass
class CellLoadProcess:
    """Mean-reverting (AR(1)) utilization process for one cell."""

    mean_load: float = 0.2
    volatility: float = 0.04
    reversion_s: float = 5.0
    _load: float = field(default=-1.0, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_load <= 1.0:
            raise ValueError("mean_load must be in [0, 1]")

    def step(self, dt_s: float, rng: np.random.Generator) -> float:
        """Advance and return current utilization in [0, 0.97].

        The clamps are written out as ``min``/``max`` evaluate them, with
        the same result on every input, NaN included.
        """
        load = self._load
        if load < 0:
            load = self.mean_load
        theta = dt_s / self.reversion_s
        if theta > 1.0:
            theta = 1.0
        # rng.normal() drawn bare: the same value and stream position
        noise = self.volatility * math.sqrt(1e-6 if dt_s < 1e-6 else dt_s) * rng.standard_normal()
        load += theta * (self.mean_load - load) + noise
        if load < 0.0:
            load = 0.0
        elif load > 0.97:
            load = 0.97
        self._load = load
        return load


class Scheduler:
    """Grants the probe UE a share of each cell's resource blocks."""

    def __init__(
        self,
        hour: float = 0.5,
        scenario: str = "urban",
        seed: int = 0,
        throttle_bw_mhz: float = 120.0,
        throttle_strength: float = 0.45,
    ) -> None:
        self.hour = hour
        self.scenario = scenario
        self.rng = np.random.default_rng(seed)
        self.throttle_bw_mhz = throttle_bw_mhz
        self.throttle_strength = throttle_strength
        self._processes: Dict[int, CellLoadProcess] = {}

    def _new_process(self, cell_id: int) -> CellLoadProcess:
        """Make the load process of a cell scheduled for the first time."""
        mean = time_of_day_load(self.hour, self.scenario)
        # per-cell heterogeneity: rng.uniform(0.7, 1.3) drawn bare
        mean = min(max(mean * (0.7 + (1.3 - 0.7) * self.rng.random()), 0.02), 0.95)
        process = self._processes[cell_id] = CellLoadProcess(mean_load=mean)
        return process

    def rb_fraction(
        self,
        cell_id: int,
        dt_s: float,
        aggregate_bw_before_mhz: float = 0.0,
        cell_bw_mhz: float = 20.0,
    ) -> float:
        """Fraction of the cell's RBs granted to the probe this interval.

        ``aggregate_bw_before_mhz`` is the bandwidth already aggregated by
        earlier (higher-priority) CCs of this UE; busy cells deprioritize
        marginal wide aggregations (Fig 15's #RB throttling).
        """
        load = (self._processes.get(cell_id) or self._new_process(cell_id)).step(dt_s, self.rng)
        share = 1.0 - load
        if aggregate_bw_before_mhz >= self.throttle_bw_mhz:
            over = (aggregate_bw_before_mhz - self.throttle_bw_mhz) / self.throttle_bw_mhz
            throttle = 1.0 / (1.0 + self.throttle_strength * over * (load / 0.3 + 0.5))
            share *= throttle
        # packet-level granularity jitter: rng.uniform(0.96, 1.0) drawn bare
        share *= 0.96 + (1.0 - 0.96) * self.rng.random()
        if share < 0.02:
            return 0.02
        return 1.0 if share > 1.0 else share

"""NSA (EN-DC) dual connectivity: 4G anchor + 5G NR leg.

The paper (§2.1) frames NSA dual connectivity as a form of "CA at the
PDCP layer": user traffic is split between 4G LTE carriers (which may
themselves aggregate up to 5 CCs) and 5G NR carriers, then merged
above RLC.  This module composes two :class:`TraceSimulator` legs over
one shared UE trajectory and deployment:

* the **LTE anchor** must be connected for the NR leg to exist (the
  defining NSA property — losing LTE drops everything);
* the **NR leg** is added when its best cell's filtered RSRP exceeds a
  B1-style threshold and released below it (with hysteresis), which is
  what makes OpX/OpY phones "fall back to 4G" indoors (paper Fig 27);
* merged throughput pays a small **PDCP split efficiency** cost for
  reordering across legs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .cells import build_deployment
from .mobility import MobilityModel, make_mobility
from .operators import OperatorProfile, get_operator
from .simulator import TraceSimulator
from .traces import Trace, TraceRecord
from .ue import UECapability, get_ue


@dataclass
class NSAConfig:
    """EN-DC control parameters."""

    nr_add_threshold_dbm: float = -110.0  #: B1 threshold to add the NR leg
    nr_release_margin_db: float = 6.0
    time_to_trigger_s: float = 0.32
    pdcp_split_efficiency: float = 0.95  #: merged-throughput efficiency

    def __post_init__(self) -> None:
        if not 0.0 < self.pdcp_split_efficiency <= 1.0:
            raise ValueError("pdcp_split_efficiency must be in (0, 1]")


class DualConnectivitySimulator:
    """Simulate an NSA UE: LTE anchor leg + NR secondary leg."""

    def __init__(
        self,
        operator: Union[str, OperatorProfile] = "OpX",
        scenario: str = "urban",
        mobility: Union[str, MobilityModel] = "driving",
        modem: Union[str, UECapability] = "X70",
        dt_s: float = 1.0,
        seed: int = 0,
        area_m: float = 1_000.0,
        config: Optional[NSAConfig] = None,
        hour: float = 0.5,
    ) -> None:
        self.operator = get_operator(operator) if isinstance(operator, str) else operator
        self.ue = get_ue(modem) if isinstance(modem, str) else modem
        self.config = config or NSAConfig()
        self.dt_s = dt_s
        self.seed = seed
        self.scenario = scenario
        self.mobility_name = mobility if isinstance(mobility, str) else type(mobility).__name__
        self.mobility = make_mobility(mobility) if isinstance(mobility, str) else mobility
        self._rng = np.random.default_rng(seed)

        # one deployment shared by both legs (co-sited 4G/5G, as deployed)
        deployment = build_deployment(
            self.operator.channel_plans(),
            scenario=scenario if scenario != "indoor" else "urban",
            area_m=area_m,
            seed=seed,
            deploy_fraction=self.operator.fraction_for(scenario),
        )
        self.lte = TraceSimulator(
            operator=self.operator, scenario=scenario, mobility=self.mobility,
            modem=self.ue, rat="4G", dt_s=dt_s, seed=seed + 1, deployment=deployment,
            hour=hour,
        )
        self.nr = TraceSimulator(
            operator=self.operator, scenario=scenario, mobility=self.mobility,
            modem=self.ue, rat="5G", dt_s=dt_s, seed=seed + 2, deployment=deployment,
            hour=hour,
        )
        if mobility == "indoor":
            # same in-coverage-but-NLOS anchoring as TraceSimulator
            from .mobility import IndoorWalk

            site = deployment.stations[0].position
            self.mobility = IndoorWalk(start=(site[0] + 200.0, site[1]), area_m=60.0)
        self._nr_attached = False
        self._nr_timer = 0.0

    # ------------------------------------------------------------------
    def _nr_leg_decision(self, nr_record: TraceRecord, lte_connected: bool) -> List[str]:
        """B1-style NR leg add/release; returns EN-DC events."""
        events: List[str] = []
        best_nr = max(
            (cc.rsrp_dbm for cc in nr_record.ccs if cc.active), default=-math.inf
        )
        threshold = self.config.nr_add_threshold_dbm
        if not lte_connected:
            if self._nr_attached:
                events.append("nr_leg_release:anchor_lost")
            self._nr_attached = False
            self._nr_timer = 0.0
            return events
        if self._nr_attached:
            if best_nr < threshold - self.config.nr_release_margin_db:
                self._nr_timer += self.dt_s
                if self._nr_timer >= self.config.time_to_trigger_s:
                    self._nr_attached = False
                    self._nr_timer = 0.0
                    events.append("nr_leg_release:b1_low")
            else:
                self._nr_timer = 0.0
        else:
            if best_nr > threshold:
                self._nr_timer += self.dt_s
                if self._nr_timer >= self.config.time_to_trigger_s:
                    self._nr_attached = True
                    self._nr_timer = 0.0
                    events.append("nr_leg_add:b1_high")
            else:
                self._nr_timer = 0.0
        return events

    # ------------------------------------------------------------------
    def run(self, duration_s: float, route_id: int = 0) -> Trace:
        """Simulate an EN-DC session; returns a merged trace (rat="NSA")."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        n_steps = max(1, int(round(duration_s / self.dt_s)))
        state = self.mobility.reset(self._rng)
        self.lte.reset()
        self.nr.reset()
        self._nr_attached = False
        self._nr_timer = 0.0

        records = self._run_steps(n_steps, state)
        # the legs are driven through step() directly, so their
        # per-step tallies are published here, not by their run()
        self.lte._publish_obs_counts()
        self.nr._publish_obs_counts()
        return Trace(
            records=records,
            dt_s=self.dt_s,
            operator=self.operator.name,
            scenario=self.scenario,
            mobility=self.mobility_name,
            modem=self.ue.modem,
            rat="NSA",
            route_id=route_id,
            seed=self.seed,
        )

    def _run_steps(self, n_steps: int, state) -> List[TraceRecord]:
        records: List[TraceRecord] = []
        for _ in range(n_steps):
            state = self.mobility.step(self.dt_s, self._rng)
            lte_record = self.lte.step(state)
            nr_record = self.nr.step(state)
            lte_connected = lte_record.n_active_ccs > 0
            events = list(lte_record.events)
            events += self._nr_leg_decision(nr_record, lte_connected)

            ccs = [cc for cc in lte_record.ccs if cc.active]
            total = lte_record.total_tput_mbps
            if self._nr_attached and nr_record.n_active_ccs:
                events += nr_record.events
                nr_ccs = [cc for cc in nr_record.ccs if cc.active]
                # NR cells join as secondary-group cells (no second PCell)
                for cc in nr_ccs:
                    cc.is_pcell = False
                ccs = ccs + nr_ccs
                total = (
                    lte_record.total_tput_mbps + nr_record.total_tput_mbps
                ) * self.config.pdcp_split_efficiency

            records.append(
                TraceRecord(
                    t=lte_record.t,
                    position=state.position,
                    ccs=ccs,
                    total_tput_mbps=total,
                    events=events,
                    indoor=state.indoor,
                    speed_mps=state.speed_mps,
                )
            )
        return records

    def nr_attachment_ratio(self, trace: Trace) -> float:
        """Fraction of samples where the NR leg carried traffic."""
        if not trace.records:
            raise ValueError("empty trace")
        with_nr = sum(
            1
            for rec in trace.records
            if any(cc.band_name.startswith("n") for cc in rec.ccs if cc.active)
        )
        return with_nr / len(trace.records)

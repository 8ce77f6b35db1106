"""Carrier-aggregation control: PCell selection, SCell add/release.

Implements the RRC-level behaviour the paper dissects in §3-§4:

* **PCell selection/change** — strongest (L3-filtered) cell wins, with
  a hysteresis so the PCell doesn't ping-pong; low-band FDD naturally
  becomes PCell indoors because of its lower pathloss (Fig 28).
* **SCell management** — A4-style events: a candidate whose filtered
  RSRP stays above ``add_threshold`` for a time-to-trigger is added;
  an SCell whose RSRP stays below ``add_threshold - remove_margin``
  for the TTT is released.  The number of aggregated CCs is capped by
  min(operator policy, UE capability) (Fig 29).
* **CA performance coupling** — when multiple co-sited carriers are
  aggregated, per-CC transmit power drops (shared PA budget) which
  lowers SINR and the achievable MIMO rank on SCells: the mechanism
  behind Fig 14 (n25 falls from 3 layers alone to 1 layer in CA), and
  the sub-additivity of Fig 6.
* **Event log** — every add/release/change is emitted as an RRC event
  string; these are exactly the signaling inputs Prism5G consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .cells import Cell, Deployment
from .ue import UECapability


@dataclass
class CAState:
    """CA configuration after one control step."""

    pcell_id: Optional[int]
    scell_ids: List[int] = field(default_factory=list)
    events: List[str] = field(default_factory=list)

    @property
    def active_ids(self) -> List[int]:
        return ([self.pcell_id] if self.pcell_id is not None else []) + self.scell_ids

    @property
    def n_ccs(self) -> int:
        return len(self.active_ids)


class CAManager:
    """Stateful carrier-aggregation controller for a single UE."""

    def __init__(
        self,
        deployment: Deployment,
        ue: UECapability,
        rat: str = "5G",
        max_ccs_policy: int = 4,
        max_ccs_policy_fr2: Optional[int] = None,
        serve_threshold_dbm: float = -114.0,
        add_threshold_dbm: float = -108.0,
        remove_margin_db: float = 6.0,
        pcell_hysteresis_db: float = 4.0,
        time_to_trigger_s: float = 0.64,
        l3_filter_alpha: float = 0.5,
        power_split_db_per_cc: float = 1.8,
        max_power_split_db: float = 6.0,
        scell_layer_cap: int = 2,
        ca_enabled: bool = True,
    ) -> None:
        if rat not in ("4G", "5G"):
            raise ValueError(f"unknown RAT {rat!r}")
        self.deployment = deployment
        self.ue = ue
        self.rat = rat
        self.max_ccs_policy = max_ccs_policy
        self.max_ccs_policy_fr2 = max_ccs_policy if max_ccs_policy_fr2 is None else max_ccs_policy_fr2
        self.max_power_split_db = max_power_split_db
        self.serve_threshold = serve_threshold_dbm
        self.add_threshold = add_threshold_dbm
        self.remove_threshold = add_threshold_dbm - remove_margin_db
        self.pcell_hysteresis = pcell_hysteresis_db
        self.ttt_s = time_to_trigger_s
        self.l3_alpha = l3_filter_alpha
        self.power_split_db_per_cc = power_split_db_per_cc
        self.scell_layer_cap = scell_layer_cap
        self.ca_enabled = ca_enabled

        self._filtered: Dict[int, float] = {}
        self._add_timers: Dict[int, float] = {}
        self._remove_timers: Dict[int, float] = {}
        self._state = CAState(pcell_id=None)

    # ------------------------------------------------------------------
    @property
    def state(self) -> CAState:
        return self._state

    def _max_ccs(self, cells: Dict[int, Cell]) -> int:
        """Effective CC cap: operator policy x UE capability (per FR)."""
        if self._state.pcell_id is not None and self._state.pcell_id in cells:
            fr = cells[self._state.pcell_id].band.frequency_range
        else:
            fr = "FR1"
        policy = self.max_ccs_policy_fr2 if fr == "FR2" else self.max_ccs_policy
        return max(1, min(policy, self.ue.cap_ccs(fr, self.rat)))

    def _filter_rsrp(self, raw: Dict[int, float]) -> Dict[int, float]:
        """3GPP L3 exponential filtering of raw RSRP measurements."""
        out = {}
        for cell_id, value in raw.items():
            previous = self._filtered.get(cell_id)
            if previous is None:
                out[cell_id] = value
            else:
                out[cell_id] = self.l3_alpha * value + (1 - self.l3_alpha) * previous
        self._filtered = dict(out)
        return out

    @staticmethod
    def _pcell_preference(cell: Cell, rsrp: float) -> float:
        """Scalar preference score for PCell candidates (higher wins).

        Operators prioritize capacity layers when their signal is good
        enough: mmWave above -90 dBm, then wide mid-band above -100 dBm,
        with low-band as the coverage fallback (this is what makes n71
        the indoor PCell in Fig 28).  Tier steps (200) dominate RSRP, so
        the dB hysteresis only matters within a tier.
        """
        if cell.band.band_class == "high":
            tier = 3 if rsrp > -90.0 else 0
        elif cell.band.band_class == "mid":
            tier = 2 if rsrp > -97.0 else 0
        else:
            tier = 1
        bandwidth_bonus = 0.25 * cell.bandwidth_mhz if tier >= 2 else 0.0
        return tier * 200.0 + bandwidth_bonus + rsrp

    # ------------------------------------------------------------------
    def step(self, dt_s: float, cell_rsrp: Dict[int, float], cells: Dict[int, Cell]) -> CAState:
        """Advance one control interval.

        Parameters
        ----------
        dt_s:
            Interval duration (controls TTT accumulation).
        cell_rsrp:
            Raw RSRP of every *candidate* cell (already filtered for
            band locks / RAT by the caller).
        cells:
            Cell objects keyed by id for every candidate.
        """
        events: List[str] = []
        filtered = self._filter_rsrp(cell_rsrp)

        # drop cells that vanished from coverage
        for stale in list(self._add_timers):
            if stale not in filtered:
                del self._add_timers[stale]
        for stale in list(self._remove_timers):
            if stale not in filtered:
                del self._remove_timers[stale]

        # ---------------- PCell ------------------------------------------
        pcell_id = self._state.pcell_id
        servable = {cid: r for cid, r in filtered.items() if r > self.serve_threshold}
        if pcell_id is not None and pcell_id not in servable:
            events.append(f"pcell_loss:{cells.get(pcell_id).channel_key if pcell_id in cells else pcell_id}")
            pcell_id = None
        if servable:
            best_id = max(
                servable,
                key=lambda cid: self._pcell_preference(cells[cid], servable[cid]),
            )
            if pcell_id is None:
                pcell_id = best_id
                events.append(f"pcell_change:{cells[pcell_id].channel_key}")
            elif best_id != pcell_id:
                current_pref = self._pcell_preference(cells[pcell_id], servable.get(pcell_id, -999.0))
                best_pref = self._pcell_preference(cells[best_id], servable[best_id])
                if best_pref > current_pref + self.pcell_hysteresis:
                    pcell_id = best_id
                    events.append(f"pcell_change:{cells[pcell_id].channel_key}")
        else:
            pcell_id = None

        # ---------------- SCells -----------------------------------------
        scells = [s for s in self._state.scell_ids if s in filtered and s != pcell_id]
        released_on_pcell_change = pcell_id != self._state.pcell_id and self._state.pcell_id is not None
        if released_on_pcell_change:
            for scell in scells:
                events.append(f"scell_release:{cells[scell].channel_key}")
            scells = []
            self._add_timers.clear()
            self._remove_timers.clear()

        if pcell_id is None or not self.ca_enabled:
            for scell in scells:
                events.append(f"scell_release:{cells[scell].channel_key}")
            scells = []
        else:
            max_ccs = self._max_ccs(cells)
            pcell_fr = cells[pcell_id].band.frequency_range
            pcell_site = self.deployment.site_of(cells[pcell_id])

            # release weak SCells after TTT
            kept: List[int] = []
            for scell in scells:
                if filtered[scell] < self.remove_threshold:
                    self._remove_timers[scell] = self._remove_timers.get(scell, 0.0) + dt_s
                    if self._remove_timers[scell] >= self.ttt_s:
                        events.append(f"scell_release:{cells[scell].channel_key}")
                        self._remove_timers.pop(scell, None)
                        continue
                else:
                    self._remove_timers.pop(scell, None)
                kept.append(scell)
            scells = kept

            # add strong candidates after TTT (same frequency range,
            # co-sited with the PCell — the common deployment constraint)
            candidates = [
                cid
                for cid, rsrp in filtered.items()
                if cid != pcell_id
                and cid not in scells
                and rsrp > self.add_threshold
                and cells[cid].band.frequency_range == pcell_fr
                and self.deployment.site_of(cells[cid]) == pcell_site
            ]
            for cid in list(self._add_timers):
                if cid not in candidates:
                    del self._add_timers[cid]
            candidates.sort(key=lambda cid: filtered[cid], reverse=True)
            for cid in candidates:
                self._add_timers[cid] = self._add_timers.get(cid, 0.0) + dt_s
                if len(scells) + 1 >= max_ccs:
                    continue
                if self._add_timers[cid] >= self.ttt_s:
                    scells.append(cid)
                    events.append(f"scell_add:{cells[cid].channel_key}")
                    del self._add_timers[cid]

            # enforce the cap (capability may shrink after a PCell move)
            while len(scells) + 1 > max_ccs:
                dropped = min(scells, key=lambda cid: filtered[cid])
                scells.remove(dropped)
                events.append(f"scell_release:{cells[dropped].channel_key}")

        self._state = CAState(pcell_id=pcell_id, scell_ids=scells, events=events)
        return self._state

    # ------------------------------------------------------------------
    # CA performance coupling (power split, layer caps)
    # ------------------------------------------------------------------
    def sinr_penalty_db(self, cell_id: int) -> float:
        """Per-CC SINR penalty from sharing the site PA across CCs.

        Zero when only one CC is active; grows with the number of
        co-sited active CCs up to ``max_power_split_db``.  The PCell is
        partially protected (it carries control signalling).
        """
        active = self._state.active_ids
        if cell_id not in active or len(active) <= 1:
            return 0.0
        penalty = min(self.power_split_db_per_cc * (len(active) - 1), self.max_power_split_db)
        if cell_id == self._state.pcell_id:
            penalty *= 0.4
        return penalty

    def layer_cap(self, cell: Cell, default_cap: int = 4) -> int:
        """Maximum MIMO layers for a CC under the current CA state.

        The PCell keeps its full rank.  Narrow FDD SCells lose layers
        first when power is split — with >= 3 CCs they fall to a single
        layer, reproducing Fig 14 (n25: 3 layers alone -> 1 in CA).
        Wide TDD mid-band SCells retain ``scell_layer_cap`` + 1.
        """
        cap = min(default_cap, self.ue.max_mimo_layers)
        if cell.cell_id == self._state.pcell_id or len(self._state.active_ids) <= 1:
            return cap
        cc_count = len(self._state.active_ids)
        if cell.band.duplex == "FDD":
            cell_cap = self.scell_layer_cap if cc_count < 3 else 1
        else:
            cell_cap = self.scell_layer_cap + 1 if cc_count < 3 else self.scell_layer_cap
        return max(1, min(cap, cell_cap))

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

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

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


class _CellFacts(NamedTuple):
    """What :meth:`CAManager.step` reads of a cell; fixed for its lifetime."""

    #: PCell preference: the score at filtered RSRP ``r`` is
    #: ``(above if r > threshold else below) + r``
    threshold: float
    above: float
    below: float
    #: (frequency range, site): an SCell must share the PCell's
    colocation: Tuple[str, int]


def _preference_terms(cell: Cell) -> Tuple[float, float, float]:
    """PCell preference of ``cell`` as ``(threshold, above, below)``.

    Operators prioritize capacity layers when their signal is good
    enough: mmWave above -90 dBm, then wide mid-band above -97 dBm,
    with low-band as the coverage fallback (this is what makes n71
    the indoor PCell in Fig 28).  The score is ``tier * 200 + bandwidth
    bonus + rsrp``; tier steps (200) dominate RSRP, so the dB hysteresis
    only matters within a tier.  ``above`` and ``below`` are the
    ``tier * 200 + bonus`` sums either side of the tier's RSRP threshold.
    """
    band_class = cell.band.band_class
    if band_class == "high":
        threshold, tier = -90.0, 3
    elif band_class == "mid":
        threshold, tier = -97.0, 2
    else:
        return -math.inf, 200.0, 200.0
    # below the threshold the tier is 0 and there is no bonus: 0 * 200.0 + 0.0
    return threshold, tier * 200.0 + 0.25 * cell.bandwidth_mhz, 0.0


class CAManager:
    """Stateful carrier-aggregation controller for a single UE.

    Every cell a step sees must belong to ``deployment``.  What the
    controller reads of a cell (its PCell-preference terms, frequency
    range and site) is looked up once per cell, the first time the cell
    is servable or an SCell candidate, and kept for the manager's
    lifetime.
    """

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
        #: the state's active set, computed once per step
        self._active: List[int] = []
        self._facts: Dict[int, _CellFacts] = {}

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

    def _learn(self, cell: Cell) -> _CellFacts:
        """Look up and keep what a step reads of ``cell``."""
        facts = self._facts[cell.cell_id] = _CellFacts(
            *_preference_terms(cell), (cell.band.frequency_range, self.deployment.site_of(cell))
        )
        return facts

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
        facts = self._facts
        old_pcell = self._state.pcell_id

        # 3GPP L3 exponential filtering of the raw measurements, and in
        # the same pass the PCell ranking of the servable cells: the
        # first best score wins, as max() picks it (a servable score is
        # above -inf), and the current PCell's score is kept
        alpha = self.l3_alpha
        keep = 1 - alpha
        serve = self.serve_threshold
        previous = self._filtered
        filtered: Dict[int, float] = {}
        best_id: Optional[int] = None
        best_pref = current_pref = -math.inf
        pcell_servable = False
        for cell_id, value in cell_rsrp.items():
            last = previous.get(cell_id)
            if last is not None:
                value = alpha * value + keep * last
            filtered[cell_id] = value
            if value > serve:
                threshold, above, below, _ = facts.get(cell_id) or self._learn(cells[cell_id])
                pref = (above if value > threshold else below) + value
                if pref > best_pref:
                    best_id, best_pref = cell_id, pref
                if cell_id == old_pcell:
                    pcell_servable, current_pref = True, pref
        self._filtered = filtered

        # drop cells that vanished from coverage
        for stale in list(self._add_timers):
            if stale not in filtered:
                del self._add_timers[stale]
        for stale in list(self._remove_timers):
            if stale not in filtered:
                del self._remove_timers[stale]

        # ---------------- PCell ------------------------------------------
        pcell_id = old_pcell
        if pcell_id is not None and not pcell_servable:
            events.append(f"pcell_loss:{cells.get(pcell_id).channel_key if pcell_id in cells else pcell_id}")
            pcell_id = None
        if best_id is not None:
            if pcell_id is None:
                pcell_id = best_id
                events.append(f"pcell_change:{cells[pcell_id].channel_key}")
            elif best_id != pcell_id and best_pref > current_pref + self.pcell_hysteresis:
                pcell_id = best_id
                events.append(f"pcell_change:{cells[pcell_id].channel_key}")
        else:
            pcell_id = None

        # ---------------- SCells -----------------------------------------
        scells = [s for s in self._state.scell_ids if s in filtered and s != pcell_id]
        released_on_pcell_change = pcell_id != old_pcell and old_pcell is not None
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
            pcell_colocation = facts[pcell_id].colocation

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
            add = self.add_threshold
            candidates = [
                cid
                for cid, rsrp in filtered.items()
                if rsrp > add
                and cid != pcell_id
                and cid not in scells
                and (facts.get(cid) or self._learn(cells[cid])).colocation == pcell_colocation
            ]
            for cid in list(self._add_timers):
                if cid not in candidates:
                    del self._add_timers[cid]
            candidates.sort(key=filtered.__getitem__, reverse=True)
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
                dropped = min(scells, key=filtered.__getitem__)
                scells.remove(dropped)
                events.append(f"scell_release:{cells[dropped].channel_key}")

        self._state = CAState(pcell_id, scells, events)
        self._active = self._state.active_ids
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
        active = self._active
        if len(active) <= 1 or cell_id not in active:
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
        cc_count = len(self._active)
        if cell.cell_id == self._state.pcell_id or cc_count <= 1:
            return cap
        if cell.band.duplex == "FDD":
            cell_cap = self.scell_layer_cap if cc_count < 3 else 1
        else:
            cell_cap = self.scell_layer_cap + 1 if cc_count < 3 else self.scell_layer_cap
        return max(1, min(cap, cell_cap))

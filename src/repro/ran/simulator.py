"""End-to-end synthesis of 4G/5G CA measurement traces.

Drives the whole substrate — deployment, propagation, link adaptation,
scheduling, and the CA manager — along a mobility pattern, producing
:class:`~repro.ran.traces.Trace` objects with the paper's Table 12
feature schema at a 10 ms or 1 s sampling period.  This is the
substitute for the authors' XCAL drive-test campaign (see DESIGN.md).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import backends, obs
from .ca import CAManager
from .cells import Cell, Deployment, build_deployment
from .link import LinkAdapter
from .mobility import MobilityModel, Stationary, make_mobility
from .operators import OperatorProfile, get_operator
from .phy import duplex_dl_duty, phy_throughput_mbps
from .propagation import FastFadingProcess
from .scheduler import Scheduler
from .traces import CCSample, Trace, TraceRecord
from .ue import UECapability, get_ue


#: shadowing variance split: site-common / band-common / cell-own.
_SHADOW_WEIGHTS = (0.40, 0.45, 0.15)
_SHADOW_MIX = tuple(math.sqrt(w) for w in _SHADOW_WEIGHTS)
_SHADOW_SIGMA_DB = 6.0
_FADING_SIGMA_DB = 1.5
_SHADOW_DECORR_M = 50.0
_LOS_BLEND_M = 150.0

#: co-channel activity factor: planned reuse + partial load.
_CO_CHANNEL_ACTIVITY = 0.3

class TraceSimulator:
    """Synthesizes measurement traces for one operator/scenario/UE.

    Parameters mirror the paper's experiment axes: ``operator`` in
    {OpX, OpY, OpZ}, ``scenario`` in {urban, suburban, highway, indoor},
    ``mobility`` in {stationary, walking, driving, indoor}, ``modem``
    per Table 5, ``rat`` 4G/5G, ``dt_s`` 0.01 or 1.0, ``hour`` for the
    time-of-day load (the paper measures mostly at midnight), and
    ``band_lock`` to reproduce the band-locking runs ([C1], Fig 6).
    """

    def __init__(
        self,
        operator: Union[str, OperatorProfile] = "OpZ",
        scenario: str = "urban",
        mobility: Union[str, MobilityModel] = "driving",
        modem: Union[str, UECapability] = "X70",
        rat: str = "5G",
        dt_s: float = 1.0,
        hour: float = 0.5,
        area_m: float = 1_000.0,
        seed: int = 0,
        band_lock: Optional[Sequence[str]] = None,
        ca_enabled: bool = True,
        force_los: Optional[bool] = None,
        max_ccs_override: Optional[int] = None,
        deployment: Optional[Deployment] = None,
        candidate_refresh_s: float = 0.5,
    ) -> None:
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        self.operator = get_operator(operator) if isinstance(operator, str) else operator
        self.scenario = scenario
        self.mobility_name = mobility if isinstance(mobility, str) else type(mobility).__name__
        self.mobility = make_mobility(mobility) if isinstance(mobility, str) else mobility
        self._anchor_indoor = mobility == "indoor"
        self.ue = get_ue(modem) if isinstance(modem, str) else modem
        self.rat = rat
        self.dt_s = dt_s
        self.hour = hour
        self.seed = seed
        self.band_lock = set(band_lock) if band_lock else None
        self.ca_enabled = ca_enabled
        self.force_los = force_los
        self.candidate_refresh_s = max(candidate_refresh_s, dt_s)

        self.deployment = deployment or build_deployment(
            self.operator.channel_plans(),
            scenario=scenario if scenario != "indoor" else "urban",
            area_m=area_m,
            seed=seed,
            deploy_fraction=self.operator.fraction_for(scenario),
        )
        if rat == "5G":
            policy_fr1 = self.operator.max_ca_5g_fr1
            policy_fr2 = self.operator.max_ca_5g_fr2
        else:
            policy_fr1 = policy_fr2 = self.operator.max_ca_4g
        if max_ccs_override is not None:
            policy_fr1 = policy_fr2 = max_ccs_override
        self.ca = CAManager(
            self.deployment,
            self.ue,
            rat=rat,
            max_ccs_policy=policy_fr1,
            max_ccs_policy_fr2=policy_fr2,
            ca_enabled=ca_enabled,
        )
        self.scheduler = Scheduler(hour=hour, scenario=scenario, seed=seed + 7)
        if self._anchor_indoor:
            # place the building in the coverage hole between sites
            # (cell edge + wall loss), the Fig 27/28 indoor setting
            from .mobility import IndoorWalk

            stations = self.deployment.stations
            home = stations[0].position
            neighbours = sorted(
                (bs.position for bs in stations[1:]),
                key=lambda p: math.dist(p, home),
            )[:3]
            cluster = [home, *neighbours]
            hole = (
                sum(p[0] for p in cluster) / len(cluster),
                sum(p[1] for p in cluster) / len(cluster),
            )
            # ~60% of the way from the serving site toward the coverage
            # hole: indoors at the cell edge, but still home-site served
            anchor = (
                home[0] + 0.62 * (hole[0] - home[0]),
                home[1] + 0.62 * (hole[1] - home[1]),
            )
            self.mobility = IndoorWalk(start=anchor, area_m=50.0)

        self._rng = np.random.default_rng(seed)
        self._eligible_mask = np.array([self._eligible(c) for c in self.deployment.cells], dtype=bool)
        # AR(1) radio state.  The site and (site, band) shadowing
        # components, keyed by cell-table index, live for the whole run;
        # the per-cell own-shadowing and fading components (the columns
        # of ``_own_fading``, NaN until drawn) and the link adapters
        # live only while the cell is a candidate.
        self._site_shadow: Dict[int, float] = {}
        self._band_shadow: Dict[int, float] = {}
        self._own_fading = np.full((len(self.deployment.cells), 2), np.nan)
        self._links: Dict[int, LinkAdapter] = {}
        #: bumped whenever the candidate set changes (cohort pack cache key)
        self._cand_version = 0
        self._set_candidates(np.empty(0, dtype=np.intp))
        self._since_refresh = math.inf

    # ------------------------------------------------------------------
    def _eligible(self, cell: Cell) -> bool:
        if cell.band.rat != self.rat:
            return False
        if self.band_lock is not None:
            return cell.band.name in self.band_lock or cell.channel_key in self.band_lock
        return True

    def _refresh_candidates(self, position: Tuple[float, float]) -> None:
        index = np.flatnonzero(self.deployment.coverage_mask(position) & self._eligible_mask)
        if not np.array_equal(index, self._cand_idx):
            self._set_candidates(index)

    def _set_candidates(self, index: np.ndarray) -> None:
        """Adopt a new candidate set: deployment rows ``index``, in order.

        Per-candidate constants are gathered from the deployment's cell
        table, so the per-step radio update touches plain arrays only.
        A cell that left the set loses its own-shadowing/fading state and
        link adapter; if it returns, it starts from a fresh draw.
        """
        table = self.deployment.table
        cells = [self.deployment.cells[i] for i in index]
        self._cand_idx = index
        self._candidates = cells
        self._cand_ids = [c.cell_id for c in cells]
        self._cell_by_id = dict(zip(self._cand_ids, cells))
        gone = np.ones(len(self._own_fading), dtype=bool)
        gone[index] = False
        self._own_fading[gone] = np.nan
        links = {}
        for cell_id in self._cand_ids:
            link = self._links.get(cell_id)
            links[cell_id] = LinkAdapter(max_layers=self.ue.max_mimo_layers) if link is None else link
        self._links = links
        site = table.site[index]
        channel = table.channel[index]
        self._shadow_keys = list(zip(site.tolist(), table.site_band[index].tolist()))
        self._cand_pos = table.position[index]
        self._cand_freq = table.freq_mhz[index]
        self._cand_freq_list = self._cand_freq.tolist()
        self._cand_nrb = table.n_rb[index]
        self._cand_nrb_by_id = dict(zip(self._cand_ids, map(int, self._cand_nrb.tolist())))
        self._cand_nrb_db = table.n_rb_db[index]
        self._cand_per_re_tx = table.per_re_tx_dbm[index]
        self._cand_noise_mw = table.noise_mw[index]
        self._cand_indoor_pen = table.indoor_pen_db[index]
        # interference adjacency: same channel, different site (summed as
        # a masked matvec so no cancellation-prone group subtraction)
        self._interf_mask = (
            (channel[:, None] == channel[None, :]) & (site[:, None] != site[None, :])
        ).astype(np.float64)
        self._cand_version += 1

    # ------------------------------------------------------------------
    def _advance_radio_processes(self, state, rho: float) -> Tuple[np.ndarray, np.ndarray]:
        """Advance shadowing and fading for every candidate, in candidate order.

        Each candidate draws four normals — site, band, own, fading — as
        one ``standard_normal(4 * C)`` call, the same values as 4·C
        scalar draws.  The site and band components are shared AR(1)
        chains advanced once per *candidate*, so a site with k
        candidates advances k times per step; that sequential chain is
        a short Python loop.  The own and fading components are per-cell
        and advance as one array update, which rounds exactly like the
        scalar one.  The fading rho stays on ``math.exp``: ``np.exp``
        can differ from it in the last ulp.  ``tests/oracles.py`` keeps the
        per-candidate loop this must match bit for bit.
        """
        n = len(self._cand_idx)
        draws = self._rng.standard_normal(4 * n).reshape(n, 4)
        innovation = math.sqrt(max(1.0 - rho * rho, 0.0))
        sites, bands = self._site_shadow, self._band_shadow
        mix_site, mix_band, mix_own = _SHADOW_MIX
        shared = []
        for (site, band), (z_site, z_band) in zip(self._shadow_keys, draws[:, :2].tolist()):
            site_value = sites.get(site)
            site_value = z_site if site_value is None else rho * site_value + innovation * z_site
            sites[site] = site_value
            band_value = bands.get(band)
            band_value = z_band if band_value is None else rho * band_value + innovation * z_band
            bands[band] = band_value
            shared.append(mix_site * site_value + mix_band * band_value)
        coherence = FastFadingProcess.coherence_time_s
        rhos = np.empty((n, 2))
        rhos[:, 0] = rho
        rhos[:, 1] = [math.exp(-self.dt_s / coherence(state.speed_mps, f)) for f in self._cand_freq_list]
        previous = self._own_fading[self._cand_idx]
        fresh = np.isnan(previous)
        innovations = draws[:, 2:]
        own_fading = rhos * previous + np.sqrt(np.maximum(1.0 - rhos * rhos, 0.0)) * innovations
        own_fading[fresh] = innovations[fresh]
        self._own_fading[self._cand_idx] = own_fading
        shadows = _SHADOW_SIGMA_DB * (np.array(shared) + mix_own * own_fading[:, 0])
        if self.force_los is True:
            shadows *= 0.5  # LOS shadowing variance is much smaller
        return shadows, _FADING_SIGMA_DB * own_fading[:, 1]

    def _radio_update(self, state, rho: float) -> Tuple[Dict[int, float], Dict[int, float], Dict[int, float]]:
        """Array radio update over all candidates (one step, no per-cell math).

        Pathloss, RSRP/RSRQ/SINR, and the O(C^2) co-channel interference
        reduce to a handful of numpy expressions over the cached
        candidate arrays.  Matches the scalar per-cell update in
        ``tests/oracles.py`` per field to ~1e-9 dB (numpy's SIMD
        transcendentals round differently from ``math.*`` in the last
        ulp).
        """
        if not self._candidates:
            return {}, {}, {}
        shadows, fadings = self._advance_radio_processes(state, rho)
        position = np.asarray(state.position, dtype=np.float64)
        rsrp, sinr, rsrq = backends.active().radio_step(
            position,
            bool(state.indoor),
            self.force_los,
            shadows,
            fadings,
            self._cand_pos,
            self._cand_freq,
            self._cand_per_re_tx,
            self._cand_noise_mw,
            self._cand_nrb,
            self._cand_nrb_db,
            self._cand_indoor_pen,
            self._interf_mask,
            _LOS_BLEND_M,
            _CO_CHANNEL_ACTIVITY,
        )
        ids = self._cand_ids
        return dict(zip(ids, rsrp.tolist())), dict(zip(ids, sinr.tolist())), dict(zip(ids, rsrq.tolist()))

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear per-run radio/CA state (called by :meth:`run`)."""
        self._since_refresh = math.inf
        self._step_index = 0
        self._obs_counts: Dict[str, int] = {}

    def _publish_obs_counts(self) -> None:
        """Bulk-publish the per-step tallies accumulated by :meth:`step`.

        Per-step ``obs.counter`` calls would take the registry lock
        hundreds of times per trace and show up in the bench's
        obs-overhead gate; :meth:`step` instead tallies into a plain
        dict and :meth:`run` (or the NSA driver) publishes once.
        """
        counts = getattr(self, "_obs_counts", None)
        if counts:
            for name, value in counts.items():
                obs.counter(name, value)
            counts.clear()

    def _begin_step(self, state) -> Tuple[int, float]:
        """Phase 1 of a step: advance time, refresh candidates, compute rho.

        Split out of :meth:`step` so the multi-UE driver
        (:mod:`repro.ran.multi_ue`) can run phase 1 for every lane, batch
        the radio update across lanes, then finish each lane with
        :meth:`_finish_step`.  ``step()`` composes the same three phases,
        so single-UE behavior is unchanged.
        """
        step = getattr(self, "_step_index", 0)
        self._step_index = step + 1
        moved = state.speed_mps * self.dt_s
        self._since_refresh += self.dt_s
        if self._since_refresh >= self.candidate_refresh_s:
            self._refresh_candidates(state.position)
            self._since_refresh = 0.0
        rho = math.exp(-max(moved, 1e-3) / _SHADOW_DECORR_M)
        return step, rho

    def step(self, state) -> TraceRecord:
        """Advance one sampling interval at the given UE kinematic state.

        Exposed separately from :meth:`run` so that multi-leg setups
        (NSA dual connectivity) can drive several simulators with one
        shared UE trajectory.
        """
        step, rho = self._begin_step(state)
        return self._finish_step(step, state, *self._radio_update(state, rho))

    def _finish_step(
        self,
        step: int,
        state,
        rsrp_map: Dict[int, float],
        sinr_map: Dict[int, float],
        rsrq_map: Dict[int, float],
    ) -> TraceRecord:
        """Phase 3 of a step: CA decision, link adaptation, the record."""
        cell_by_id = self._cell_by_id
        ca_state = self.ca.step(self.dt_s, rsrp_map, cell_by_id)

        if obs.metrics_enabled():
            counts = getattr(self, "_obs_counts", None)
            if counts is None:  # step() before any reset()/run()
                counts = self._obs_counts = {}
            counts["sim.steps"] = counts.get("sim.steps", 0) + 1
            for event in ca_state.events:
                # events look like "scell_add:n78@3500"; bucket by kind
                kind = f"sim.event.{event.split(':', 1)[0]}"
                counts[kind] = counts.get(kind, 0) + 1

        cc_samples: List[CCSample] = []
        aggregate_bw_so_far = 0.0
        total_tput = 0.0
        for cc_id in ca_state.active_ids:
            cell = cell_by_id[cc_id]
            penalty = self.ca.sinr_penalty_db(cc_id)
            effective_sinr = sinr_map[cc_id] - penalty
            base_layers = 4 if cell.band.frequency_range == "FR1" else 2
            if cell.band.rat == "4G":
                base_layers = 2
            layer_cap = self.ca.layer_cap(cell, default_cap=base_layers)
            link = self._links[cc_id].step(effective_sinr, self._rng, max_layers=layer_cap)
            n_rb_cfg = self._cand_nrb_by_id[cc_id]
            rb_fraction = self.scheduler.rb_fraction(
                cc_id,
                self.dt_s,
                aggregate_bw_before_mhz=aggregate_bw_so_far,
                cell_bw_mhz=cell.bandwidth_mhz,
            )
            n_rb = max(1, int(round(rb_fraction * n_rb_cfg)))
            tput = phy_throughput_mbps(
                link.mcs,
                n_rb,
                link.rank,
                cell.scs_khz,
                bler=link.bler,
                dl_duty=duplex_dl_duty(cell.band.duplex),
            )
            aggregate_bw_so_far += cell.bandwidth_mhz
            total_tput += tput
            cc_samples.append(
                CCSample(
                    channel_key=cell.channel_key,
                    band_name=cell.band.name,
                    pci=cell.pci,
                    is_pcell=(cc_id == ca_state.pcell_id),
                    active=True,
                    rsrp_dbm=rsrp_map[cc_id],
                    rsrq_db=rsrq_map[cc_id],
                    sinr_db=effective_sinr,
                    cqi=link.cqi,
                    bler=link.bler,
                    n_rb=float(n_rb),
                    n_layers=link.rank,
                    mcs=link.mcs,
                    tput_mbps=tput,
                )
            )

        return TraceRecord(
            t=step * self.dt_s,
            position=state.position,
            ccs=cc_samples,
            total_tput_mbps=total_tput,
            events=list(ca_state.events),
            indoor=state.indoor,
            speed_mps=state.speed_mps,
        )

    def run(self, duration_s: float, route_id: int = 0) -> Trace:
        """Simulate ``duration_s`` seconds and return the trace."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        n_steps = max(1, int(round(duration_s / self.dt_s)))
        state = self.mobility.reset(self._rng)
        self.reset()
        records: List[TraceRecord] = []
        for _ in range(n_steps):
            state = self.mobility.step(self.dt_s, self._rng)
            records.append(self.step(state))
        self._publish_obs_counts()
        return Trace(
            records=records,
            dt_s=self.dt_s,
            operator=self.operator.name,
            scenario=self.scenario,
            mobility=self.mobility_name,
            modem=self.ue.modem,
            rat=self.rat,
            route_id=route_id,
            seed=self.seed,
        )


def simulate_trace(job: Dict) -> Trace:
    """Run ``TraceSimulator(**job["sim"])`` for one trace-synthesis job.

    ``job`` holds ``sim`` (the simulator's keyword arguments),
    ``duration_s`` and ``route_id``.  A top-level function, so
    :func:`~repro.parallel.run_tasks` workers can pickle it by name.
    """
    sim = TraceSimulator(**job["sim"])
    return sim.run(job["duration_s"], route_id=job["route_id"])


def simulate_stationary_ideal(
    operator: str = "OpZ",
    rat: str = "5G",
    duration_s: float = 60.0,
    dt_s: float = 1.0,
    modem: str = "X70",
    seed: int = 0,
    band_lock: Optional[Sequence[str]] = None,
    ca_enabled: bool = True,
    max_ccs_override: Optional[int] = None,
    distance_m: float = 60.0,
) -> Trace:
    """Ideal-channel-condition run: stationary, line-of-sight, near a site.

    Mirrors the paper's hot-spot baselines (Fig 1/Fig 23): UE parked
    close to a base station with LOS.
    """
    # Sparse bands (e.g. mmWave pockets) may be absent from a particular
    # random deployment; retry with shifted deployment seeds, as a field
    # team would simply drive to a covered block.
    sim = None
    eligible_sites: list = []
    for attempt in range(12):
        sim = TraceSimulator(
            operator=operator,
            scenario="urban",
            mobility=Stationary(position=(0.0, 0.0)),
            modem=modem,
            rat=rat,
            dt_s=dt_s,
            seed=seed + attempt * 7919,
            band_lock=band_lock,
            ca_enabled=ca_enabled,
            force_los=True,
            max_ccs_override=max_ccs_override,
        )
        eligible_sites = [
            bs for bs in sim.deployment.stations if any(sim._eligible(c) for c in bs.cells)
        ]
        if eligible_sites:
            break
    if not eligible_sites:
        raise ValueError("no site hosts an eligible cell for this band lock")
    site = min(eligible_sites, key=lambda bs: math.dist(bs.position, (0.0, 0.0)))
    sim.mobility = Stationary(position=(site.position[0] + distance_m, site.position[1]))
    return sim.run(duration_s)

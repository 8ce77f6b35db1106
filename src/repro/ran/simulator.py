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


def _base_layers(cell: Cell) -> int:
    """MIMO layers a carrier offers before CA caps: 4 on 5G FR1, else 2."""
    if cell.band.rat == "4G":
        return 2
    return 4 if cell.band.frequency_range == "FR1" else 2


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
        # components, indexed by the cell table's site and site_band
        # keys, live for the whole run (None until first drawn).  The
        # own-shadowing and fading values, in candidate order (own is None
        # for a fresh candidate, whose fading is not read), and the link
        # adapters, keyed by cell id, live only while the cell is a
        # candidate.
        self._site_shadow: List[Optional[float]] = [None] * len(self.deployment.stations)
        self._band_shadow: List[Optional[float]] = [None] * len(self.deployment.cells)
        self._cand_rows: List[int] = []
        self._own: List[Optional[float]] = []
        self._fading: List[float] = []
        self._links: Dict[int, LinkAdapter] = {}
        #: bumped whenever the candidate set changes (cohort pack cache key)
        self._cand_version = 0
        #: the eligible-and-covered mask of the current set, as bytes
        self._cand_key = bytes(len(self.deployment.cells))
        self._set_candidates(np.empty(0, dtype=np.intp))
        self._since_refresh = math.inf

    # ------------------------------------------------------------------
    def _eligible(self, cell: Cell) -> bool:
        if cell.band.rat != self.rat:
            return False
        if self.band_lock is not None:
            return cell.band.name in self.band_lock or cell.channel_key in self.band_lock
        return True

    def _refresh_candidates(self, covered: np.ndarray) -> None:
        """Adopt the eligible cells of coverage mask ``covered`` if they changed.

        The set is compared by the mask's bytes, so an unchanged set
        costs one ``&`` and one ``tobytes``.
        """
        mask = covered & self._eligible_mask
        key = mask.tobytes()
        if key != self._cand_key:
            self._cand_key = key
            self._set_candidates(np.flatnonzero(mask))

    def _set_candidates(self, index: np.ndarray) -> None:
        """Adopt a new candidate set: deployment rows ``index``, in order.

        Per-candidate constants are gathered from the deployment's cell
        table once here, so a step touches plain lists and arrays only.
        A cell that left the set loses its own-shadowing/fading state and
        link adapter; if it returns, it starts from a fresh draw.
        """
        table = self.deployment.table
        rows = index.tolist()
        cells = [self.deployment.cells[i] for i in rows]
        self._candidates = cells
        self._cand_ids = [c.cell_id for c in cells]
        self._cell_by_id = dict(zip(self._cand_ids, cells))
        fresh = (None, 0.0)
        carried = dict(zip(self._cand_rows, zip(self._own, self._fading)))
        pairs = [carried.get(row, fresh) for row in rows]
        self._cand_rows = rows
        self._own = [own for own, _ in pairs]
        self._fading = [fading for _, fading in pairs]
        links = {}
        for cell_id in self._cand_ids:
            link = self._links.get(cell_id)
            links[cell_id] = LinkAdapter(max_layers=self.ue.max_mimo_layers) if link is None else link
        self._links = links
        site = table.site[index]
        channel = table.channel[index]
        self._cand_pos = table.position[index]
        self._cand_freq = table.freq_mhz[index]
        self._cand_nrb = table.n_rb[index]
        self._cand_nrb_db = table.n_rb_db[index]
        self._cand_per_re_tx = table.per_re_tx_dbm[index]
        self._cand_noise_mw = table.noise_mw[index]
        self._cand_indoor_pen = table.indoor_pen_db[index]
        # what the AR(1) advance reads per candidate: its site and (site,
        # band) shadowing keys, and the slot of its carrier frequency in
        # the set's distinct frequencies
        slots: Dict[float, int] = {}
        freq_slots = [slots.setdefault(freq, len(slots)) for freq in self._cand_freq.tolist()]
        self._fading_freqs = list(slots)
        self._advance_keys = list(zip(site.tolist(), table.site_band[index].tolist(), freq_slots))
        # what a step reads per active carrier: its candidate index, the
        # cell, its link adapter, base MIMO layers, DL duty and configured RBs
        self._step_consts = {
            cell.cell_id: (i, cell, links[cell.cell_id], _base_layers(cell), duplex_dl_duty(cell.band.duplex), n_rb)
            for i, (cell, n_rb) in enumerate(zip(cells, map(int, self._cand_nrb.tolist())))
        }
        # interference adjacency: same channel, different site (summed as
        # a masked matvec so no cancellation-prone group subtraction)
        self._interf_mask = (
            (channel[:, None] == channel[None, :]) & (site[:, None] != site[None, :])
        ).astype(np.float64)
        self._cand_version += 1

    # ------------------------------------------------------------------
    def _advance_radio_processes(self, state, rho: float) -> Tuple[List[float], List[float]]:
        """Advance shadowing and fading for every candidate, in candidate order.

        Each candidate draws four normals — site, band, own, fading — as
        one ``standard_normal(4 * C)`` call, the same values as 4·C
        scalar draws.  The site and band components are shared AR(1)
        chains advanced once per *candidate*, so a site with k
        candidates advances k times per step.  Everything advances in
        Python floats: at a handful of candidates numpy's per-call cost
        exceeds the arithmetic, and ``+``, ``*`` and ``math.sqrt`` round
        exactly as numpy's element-wise ops do.  The fading rho (on
        ``math.exp``: ``np.exp`` can differ from it in the last ulp) and
        its innovation scale are computed once per distinct frequency,
        into a list the candidates index by slot.
        ``tests/oracles.py`` keeps the per-candidate loop this must match
        bit for bit.
        """
        keys = self._advance_keys
        if not keys:
            return [], []
        draws = self._rng.standard_normal(4 * len(keys)).tolist()
        innovation = math.sqrt(max(1.0 - rho * rho, 0.0))
        dt_s, speed = self.dt_s, state.speed_mps
        fading_ar = []
        for freq in self._fading_freqs:
            f_rho = math.exp(-dt_s / FastFadingProcess.coherence_time_s(speed, freq))
            fading_ar.append((f_rho, math.sqrt(max(1.0 - f_rho * f_rho, 0.0))))
        sites, bands, owns, fading_state = self._site_shadow, self._band_shadow, self._own, self._fading
        mix_site, mix_band, mix_own = _SHADOW_MIX
        halve = self.force_los is True  # LOS shadowing variance is much smaller
        shadows: List[float] = []
        fadings: List[float] = []
        for i, ((site, band, slot), (z_site, z_band, z_own, z_fading)) in enumerate(
            zip(keys, zip(*[iter(draws)] * 4))
        ):
            value = sites[site]
            site_value = z_site if value is None else rho * value + innovation * z_site
            sites[site] = site_value
            value = bands[band]
            band_value = z_band if value is None else rho * value + innovation * z_band
            bands[band] = band_value
            own = owns[i]
            if own is None:
                own, fading = z_own, z_fading
            else:
                f_rho, f_innovation = fading_ar[slot]
                own = rho * own + innovation * z_own
                fading = f_rho * fading_state[i] + f_innovation * z_fading
            owns[i] = own
            fading_state[i] = fading
            shadow = _SHADOW_SIGMA_DB * (mix_site * site_value + mix_band * band_value + mix_own * own)
            if halve:
                shadow *= 0.5
            shadows.append(shadow)
            fadings.append(_FADING_SIGMA_DB * fading)
        return shadows, fadings

    def _radio_update(self, state, rho: float) -> Tuple[List[float], List[float], List[float]]:
        """Array radio update over all candidates (one step, no per-cell math).

        Pathloss, RSRP/RSRQ/SINR, and the O(C^2) co-channel interference
        reduce to a handful of numpy expressions over the cached
        candidate arrays.  Returns each quantity in candidate order.
        Matches the scalar per-cell update in ``tests/oracles.py`` per
        field to ~1e-9 dB (numpy's SIMD transcendentals round
        differently from ``math.*`` in the last ulp).
        """
        if not self._candidates:
            return [], [], []
        shadows, fadings = self._advance_radio_processes(state, rho)
        position = np.asarray(state.position, dtype=np.float64)
        rsrp, sinr, rsrq = backends.active().radio_step(
            position,
            bool(state.indoor),
            self.force_los,
            np.array(shadows, dtype=np.float64),
            np.array(fadings, dtype=np.float64),
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
        return rsrp.tolist(), sinr.tolist(), rsrq.tolist()

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

    def _refresh_due(self) -> bool:
        """Whether the next :meth:`_begin_step` refreshes the candidate set."""
        return self._since_refresh + self.dt_s >= self.candidate_refresh_s

    def _begin_step(self, state, covered: Optional[np.ndarray] = None) -> Tuple[int, float]:
        """Phase 1 of a step: advance time, refresh candidates, compute rho.

        Split out of :meth:`step` so the multi-UE driver
        (:mod:`repro.ran.multi_ue`) can run phase 1 for every lane, batch
        the radio update across lanes, then finish each lane with
        :meth:`_finish_step`.  ``step()`` composes the same three phases,
        so single-UE behavior is unchanged.  ``covered`` is the
        deployment's coverage mask at ``state.position`` when the caller
        has tested it already (the cohort tests all its lanes at once).
        """
        step = getattr(self, "_step_index", 0)
        self._step_index = step + 1
        moved = state.speed_mps * self.dt_s
        due = self._refresh_due()
        self._since_refresh += self.dt_s
        if due:
            if covered is None:
                covered = self.deployment.coverage_mask(state.position)
            self._refresh_candidates(covered)
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
        rsrp: Sequence[float],
        sinr: Sequence[float],
        rsrq: Sequence[float],
    ) -> TraceRecord:
        """Phase 3 of a step: CA decision, link adaptation, the record.

        ``rsrp``, ``sinr`` and ``rsrq`` hold each candidate's value in
        candidate order; entries past the last candidate (a cohort's
        padding) are ignored.
        """
        ca = self.ca
        ca_state = ca.step(self.dt_s, dict(zip(self._cand_ids, rsrp)), self._cell_by_id)

        if obs.metrics_enabled():
            counts = getattr(self, "_obs_counts", None)
            if counts is None:  # step() before any reset()/run()
                counts = self._obs_counts = {}
            counts["sim.steps"] = counts.get("sim.steps", 0) + 1
            for event in ca_state.events:
                # events look like "scell_add:n78@3500"; bucket by kind
                kind = f"sim.event.{event.split(':', 1)[0]}"
                counts[kind] = counts.get(kind, 0) + 1

        rng, dt_s, scheduler, step_consts = self._rng, self.dt_s, self.scheduler, self._step_consts
        pcell_id = ca_state.pcell_id
        cc_samples: List[CCSample] = []
        aggregate_bw_so_far = 0.0
        total_tput = 0.0
        for cc_id in ca_state.active_ids:
            i, cell, link_adapter, base_layers, dl_duty, n_rb_cfg = step_consts[cc_id]
            effective_sinr = sinr[i] - ca.sinr_penalty_db(cc_id)
            link = link_adapter.step(effective_sinr, rng, max_layers=ca.layer_cap(cell, base_layers))
            rb_fraction = scheduler.rb_fraction(cc_id, dt_s, aggregate_bw_so_far, cell.bandwidth_mhz)
            n_rb = max(1, round(rb_fraction * n_rb_cfg))
            tput = phy_throughput_mbps(
                link.mcs,
                n_rb,
                link.rank,
                cell.scs_khz,
                bler=link.bler,
                dl_duty=dl_duty,
            )
            aggregate_bw_so_far += cell.bandwidth_mhz
            total_tput += tput
            # the records are built with positional arguments, in field
            # order: keywords make a dataclass __init__ several times dearer
            cc_samples.append(
                CCSample(
                    cell.channel_key,
                    cell.band.name,
                    cell.pci,
                    cc_id == pcell_id,  # is_pcell
                    True,  # active
                    rsrp[i],
                    rsrq[i],
                    effective_sinr,
                    link.cqi,
                    link.bler,
                    float(n_rb),
                    link.rank,  # n_layers
                    link.mcs,
                    tput,
                )
            )

        return TraceRecord(
            step * self.dt_s,  # t
            state.position,
            cc_samples,
            total_tput,
            list(ca_state.events),
            state.indoor,
            state.speed_mps,
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

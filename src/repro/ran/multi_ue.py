"""Multi-UE cohort simulation: batch the radio update across lanes.

A :class:`MultiUESimulator` drives a *cohort* of single-UE
:class:`~repro.ran.simulator.TraceSimulator` lanes — typically sharing
one city :class:`~repro.ran.cells.Deployment` — through lockstep time.
Each step runs every lane's phase-1 bookkeeping (mobility, candidate
refresh, AR(1) shadowing/fading advance, preserving each lane's private
RNG stream exactly), then packs the per-lane candidate state into
carrier-major structure-of-arrays tensors padded to the cohort's widest
candidate set (repacked only when some lane's candidate set changes)
and dispatches **one** ``radio_step_multi`` backend call
for the whole cohort, then finishes each lane (CA decision, link
adaptation, record) independently.

Because every lane keeps its own RNG, CA manager, and link adapters,
a lane's trace from a cohort run equals the trace the same
``TraceSimulator`` produces solo against the same deployment — exactly
on the per-lane dispatch path, and to ulp-level tolerances on the
batched path (BLAS reduction order differs between the ``(C,C) @ (C,)``
and ``(U,C,C) @ (U,C,1)`` products, the same class of difference as
between the radio step and its scalar per-cell oracle).

Streaming: ``run(..., keep_traces=False, on_record=...)`` hands each
:class:`~repro.ran.traces.TraceRecord` to the callback and retains
nothing, so a shard can aggregate an arbitrarily long cohort in O(1)
memory.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import backends
from .simulator import _CO_CHANNEL_ACTIVITY, _LOS_BLEND_M, TraceSimulator
from .traces import Trace, TraceRecord

#: padding constants for lanes narrower than the cohort's widest
#: candidate set: a pseudo-cell ~1e7 m away with 0 dBm per-RE power and
#: unit noise — every padded output stays finite (~-250 dB RSRP) and is
#: sliced off before any lane sees it.
_PAD_POS_M = 1.0e7
_PAD_FREQ_MHZ = 1_000.0


class MultiUESimulator:
    """Lockstep driver for a cohort of single-UE simulator lanes."""

    def __init__(self, lanes: Sequence[TraceSimulator], batch: bool = True) -> None:
        if not lanes:
            raise ValueError("cohort needs at least one lane")
        dts = {lane.dt_s for lane in lanes}
        if len(dts) != 1:
            raise ValueError(f"cohort lanes must share dt_s, got {sorted(dts)}")
        self.lanes: List[TraceSimulator] = list(lanes)
        self.dt_s = self.lanes[0].dt_s
        force_los = {lane.force_los for lane in lanes}
        #: batched dispatch shares one force_los across the cohort; a
        #: mixed cohort silently degrades to per-lane dispatch instead
        self._shared_force_los: Optional[bool] = force_los.pop() if len(force_los) == 1 else None
        self._mixed_force_los = bool(force_los)
        self.batch = batch
        self._pack_key: Optional[Tuple[int, ...]] = None
        self._pack: Optional[Tuple[np.ndarray, ...]] = None

    # ------------------------------------------------------------------
    def _use_batch(self) -> bool:
        return self.batch and len(self.lanes) > 1 and not self._mixed_force_los

    def _packed_candidates(self) -> Tuple[np.ndarray, ...]:
        """Padded (U, Cmax) candidate tensors, rebuilt only when a set changes.

        A lane bumps its candidate-set version only when a refresh finds
        a different set (:meth:`TraceSimulator._set_candidates`), so the
        pack is cached keyed on the lanes' versions and most steps reuse
        it untouched.
        """
        key = tuple(lane._cand_version for lane in self.lanes)
        if key == self._pack_key and self._pack is not None:
            return self._pack
        u = len(self.lanes)
        cmax = max(len(lane._candidates) for lane in self.lanes)
        cand_pos = np.full((u, cmax, 2), _PAD_POS_M, dtype=np.float64)
        cand_freq = np.full((u, cmax), _PAD_FREQ_MHZ, dtype=np.float64)
        cand_per_re_tx = np.zeros((u, cmax), dtype=np.float64)
        cand_noise_mw = np.ones((u, cmax), dtype=np.float64)
        cand_nrb = np.ones((u, cmax), dtype=np.float64)
        cand_nrb_db = np.zeros((u, cmax), dtype=np.float64)
        cand_indoor_pen = np.zeros((u, cmax), dtype=np.float64)
        interf_mask = np.zeros((u, cmax, cmax), dtype=np.float64)
        for i, lane in enumerate(self.lanes):
            c = len(lane._candidates)
            if not c:
                continue
            cand_pos[i, :c] = lane._cand_pos
            cand_freq[i, :c] = lane._cand_freq
            cand_per_re_tx[i, :c] = lane._cand_per_re_tx
            cand_noise_mw[i, :c] = lane._cand_noise_mw
            cand_nrb[i, :c] = lane._cand_nrb
            cand_nrb_db[i, :c] = lane._cand_nrb_db
            cand_indoor_pen[i, :c] = lane._cand_indoor_pen
            interf_mask[i, :c, :c] = lane._interf_mask
        self._pack_key = key
        self._pack = (
            cand_pos,
            cand_freq,
            cand_per_re_tx,
            cand_noise_mw,
            cand_nrb,
            cand_nrb_db,
            cand_indoor_pen,
            interf_mask,
        )
        return self._pack

    def step_all(self, states: Sequence) -> List[TraceRecord]:
        """Advance every lane one sampling interval (one batched radio call)."""
        lanes = self.lanes
        begun = [lane._begin_step(state) for lane, state in zip(lanes, states)]
        if not self._use_batch():
            records = []
            for lane, state, (step, rho) in zip(lanes, states, begun):
                records.append(lane._finish_step(step, state, *lane._radio_update(state, rho)))
            return records

        # phase 2, batched: advance each lane's AR(1) processes in lane
        # order (identical RNG stream to the solo run), then one SoA
        # radio_step_multi call over the padded cohort tensors
        advances = [
            lane._advance_radio_processes(state, rho)
            for lane, state, (_, rho) in zip(lanes, states, begun)
        ]
        u = len(lanes)
        cmax = max(len(lane._candidates) for lane in lanes)
        if cmax == 0:
            return [
                lane._finish_step(step, state, {}, {}, {})
                for lane, state, (step, _) in zip(lanes, states, begun)
            ]
        positions = np.array([state.position for state in states], dtype=np.float64)
        indoor = np.array([bool(state.indoor) for state in states])
        shadows = np.zeros((u, cmax), dtype=np.float64)
        fadings = np.zeros((u, cmax), dtype=np.float64)
        for i, (lane_shadows, lane_fadings) in enumerate(advances):
            c = lane_shadows.shape[0]
            shadows[i, :c] = lane_shadows
            fadings[i, :c] = lane_fadings
        rsrp, sinr, rsrq = backends.active().radio_step_multi(
            positions,
            indoor,
            self._shared_force_los,
            shadows,
            fadings,
            *self._packed_candidates(),
            _LOS_BLEND_M,
            _CO_CHANNEL_ACTIVITY,
        )
        # zip stops at each lane's own candidate count: padding is dropped
        return [
            lane._finish_step(
                step,
                state,
                dict(zip(lane._cand_ids, rsrp_row)),
                dict(zip(lane._cand_ids, sinr_row)),
                dict(zip(lane._cand_ids, rsrq_row)),
            )
            for lane, state, (step, _), rsrp_row, sinr_row, rsrq_row in zip(
                lanes, states, begun, rsrp.tolist(), sinr.tolist(), rsrq.tolist()
            )
        ]

    # ------------------------------------------------------------------
    def run(
        self,
        duration_s: float,
        route_ids: Optional[Sequence[int]] = None,
        keep_traces: bool = True,
        on_record: Optional[Callable[[int, TraceRecord], None]] = None,
    ) -> Optional[List[Trace]]:
        """Simulate the cohort for ``duration_s`` seconds in lockstep.

        With ``keep_traces=False`` nothing is retained — each record is
        handed to ``on_record(lane_index, record)`` and dropped, the
        streaming mode shard workers use.  Otherwise returns one
        :class:`Trace` per lane (``route_ids`` defaults to lane order).
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not keep_traces and on_record is None:
            raise ValueError("keep_traces=False needs an on_record callback")
        lanes = self.lanes
        ids = list(route_ids) if route_ids is not None else list(range(len(lanes)))
        if len(ids) != len(lanes):
            raise ValueError(f"got {len(ids)} route_ids for {len(lanes)} lanes")
        n_steps = max(1, int(round(duration_s / self.dt_s)))
        states = [lane.mobility.reset(lane._rng) for lane in lanes]
        for lane in lanes:
            lane.reset()
        per_lane: Optional[List[List[TraceRecord]]] = (
            [[] for _ in lanes] if keep_traces else None
        )
        for _ in range(n_steps):
            states = [lane.mobility.step(self.dt_s, lane._rng) for lane in lanes]
            for i, rec in enumerate(self.step_all(states)):
                if per_lane is not None:
                    per_lane[i].append(rec)
                if on_record is not None:
                    on_record(i, rec)
        for lane in lanes:
            lane._publish_obs_counts()
        if per_lane is None:
            return None
        return [
            Trace(
                records=per_lane[i],
                dt_s=lane.dt_s,
                operator=lane.operator.name,
                scenario=lane.scenario,
                mobility=lane.mobility_name,
                modem=lane.ue.modem,
                rat=lane.rat,
                route_id=ids[i],
                seed=lane.seed,
            )
            for i, lane in enumerate(lanes)
        ]

"""Loop oracles for the kernel-equivalence suites.

The shipped code runs one implementation of every hot op: the fused
LSTM/GRU/affine/decoder kernels (:mod:`repro.nn.kernels`), Prism5G's
carrier-folded forward and the simulator's array radio step.  Each
function here is the plain composition those kernels must reproduce:

* :func:`linear`, :func:`lstm_loop`, :func:`gru_loop` — ``x @ W + b``
  and the per-step loops over the op-by-op :class:`~repro.nn.LSTMCell`
  / :class:`~repro.nn.GRUCell`;
* :func:`decode_loop`, :func:`seq2seq_forward` — the step-by-step
  decoder rollouts of Prism5G and the Lumos5G Seq2Seq;
* :func:`per_cc_predictions`, :func:`prism5g_loop_forward` — Prism5G
  as one encoder/head call per carrier;
* :func:`radio_update_loop` (with :func:`pathloss_db` and
  :func:`interference_dbm_per_re`) — the scalar per-cell radio update
  on ``math.*`` transcendentals;
* :func:`advance_loop` — the per-candidate shadowing/fading advance,
  four scalar draws per candidate through dict-keyed AR(1) state and
  :class:`~repro.ran.propagation.FastFadingProcess`;
* :func:`cells_near_loop` — the ``math.dist`` coverage scan;
* :func:`cqi_from_sinr_scan`, :func:`mcs_from_cqi_scan` — the linear
  table scans behind the CQI/MCS lookups;
* :func:`mpc_plan_loop` — MPC's plan search as a scalar loop over
  ``itertools.product``.

The equivalence suites call these directly, or swap them in for a block
with :func:`op_by_op` (every module forward op-by-op, as a whole model),
:func:`scalar_radio` (every simulator step through the per-cell loop)
or :func:`loop_advance` (every AR(1) advance through the per-candidate
loop).
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.apps.abr import MPCPlayer
from repro.core.predictors import _Seq2Seq
from repro.core.prism5g import Prism5G, unpack_inputs
from repro.nn.modules import GRU, LSTM, Linear
from repro.nn.tensor import Tensor, concat, stack
from repro.ran.cells import COVERAGE_RADIUS_M, Cell, Deployment
from repro.ran.phy import (
    CQI_EFFICIENCY_256QAM,
    MAX_CQI,
    MAX_MCS_INDEX,
    mcs_spectral_efficiency,
    num_resource_blocks,
)
from repro.ran.propagation import (
    FastFadingProcess,
    indoor_penetration_loss_db,
    noise_power_dbm,
    rsrp_dbm,
    urban_macro_pathloss_db,
)
from repro.ran.simulator import (
    _CO_CHANNEL_ACTIVITY,
    _FADING_SIGMA_DB,
    _LOS_BLEND_M,
    _SHADOW_SIGMA_DB,
    _SHADOW_WEIGHTS,
    TraceSimulator,
)

# ---------------------------------------------------------------------------
# nn: affine and the recurrent loops


def linear(layer: Linear, x: Tensor) -> Tensor:
    """``x @ W + b`` as two graph nodes (oracle for the fused ``affine``)."""
    return x @ layer.weight + layer.bias


def lstm_loop(net: LSTM, x: Tensor, state: Optional[List[Tuple[Tensor, Tensor]]] = None):
    """Multi-layer LSTM as a per-step loop over the op-by-op cells."""
    batch, time, _ = x.shape
    if state is None:
        dtype = x.data.dtype
        state = [
            (
                Tensor(np.zeros((batch, net.hidden_size), dtype=dtype)),
                Tensor(np.zeros((batch, net.hidden_size), dtype=dtype)),
            )
            for _ in range(net.num_layers)
        ]
    else:
        state = list(state)  # never mutate the caller's list
    outputs: List[Tensor] = []
    for t in range(time):
        inp = x[:, t, :]
        for layer, cell in enumerate(net.cells):
            h, c = cell(inp, state[layer])
            state[layer] = (h, c)
            inp = h
        outputs.append(inp)
    return stack(outputs, axis=1), state


def gru_loop(net: GRU, x: Tensor, state: Optional[List[Tensor]] = None):
    """Multi-layer GRU as a per-step loop over the op-by-op cells."""
    batch, time, _ = x.shape
    if state is None:
        state = [
            Tensor(np.zeros((batch, net.hidden_size), dtype=x.data.dtype))
            for _ in range(net.num_layers)
        ]
    else:
        state = list(state)  # never mutate the caller's list
    outputs: List[Tensor] = []
    for t in range(time):
        inp = x[:, t, :]
        for layer, cell in enumerate(net.cells):
            h = cell(inp, state[layer])
            state[layer] = h
            inp = h
        outputs.append(inp)
    return stack(outputs, axis=1), state


# ---------------------------------------------------------------------------
# decoder rollouts


def decode_loop(model: Prism5G, h_c: Tensor) -> Tensor:
    """Prism5G's decoder rollout, one cell step and head call per step."""
    batch = h_c.shape[0]
    hidden_state = h_c
    dtype = h_c.data.dtype
    cell_state = Tensor(np.zeros((batch, model.hidden), dtype=dtype))
    step_input = Tensor(np.zeros((batch, 1), dtype=dtype))
    outputs: List[Tensor] = []
    for _ in range(model.horizon):
        hidden_state, cell_state = model.decoder_cell(step_input, (hidden_state, cell_state))
        prediction = model.decoder_out(hidden_state)
        outputs.append(prediction)
        step_input = prediction
    return concat(outputs, axis=1)


def seq2seq_forward(model: _Seq2Seq, x: Tensor) -> Tensor:
    """The Lumos5G Seq2Seq forward with its decoder as a step loop."""
    _, state = model.encoder(x)
    h, c = state[0]
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    step_input = Tensor(data[:, -1, -1:])  # last observed throughput
    outputs = []
    for _ in range(model.horizon):
        h, c = model.decoder_cell(step_input, (h, c))
        pred = model.head(h)
        outputs.append(pred)
        step_input = pred
    return concat(outputs, axis=1)


# ---------------------------------------------------------------------------
# Prism5G per carrier


def per_cc_predictions(model: Prism5G, packed) -> List[Tensor]:
    """Per-carrier forecast tensors, each (batch, horizon), one carrier at a time."""
    data = packed.data if isinstance(packed, Tensor) else np.asarray(packed)
    x, mask, y_hist = unpack_inputs(data, model.n_ccs, model.n_features)

    hidden_states: List[Tensor] = []
    for c in range(model.n_ccs):
        features_c = x[:, :, c, :]
        mask_c = mask[:, :, c : c + 1]
        if model.use_state_trigger:
            features_c = features_c * mask_c  # X'_c = X_c (.) I
        inp = Tensor(np.concatenate([features_c, mask_c, y_hist[..., None]], axis=2))
        out, _ = model.encoder(inp)
        hidden_states.append(out[:, -1, :])

    if model.use_fusion:
        combo_index = model._combo_indices(mask)
        embed = model.combo_embedding(combo_index)
        h_fusion = model.fusion(concat(hidden_states + [embed], axis=1))
    else:
        h_fusion = None

    last_mask = mask[:, -1, :]
    preds: List[Tensor] = []
    for c in range(model.n_ccs):
        h_c = hidden_states[c] if h_fusion is None else hidden_states[c] + h_fusion
        pred_c = model.head(h_c) if model.head_kind == "mlp" else model._decode(h_c)
        if model.use_state_trigger:
            pred_c = pred_c * Tensor(last_mask[:, c : c + 1])
        preds.append(pred_c)
    return preds


def prism5g_loop_forward(model: Prism5G, packed) -> Tensor:
    """:meth:`Prism5G.forward` computed by :func:`per_cc_predictions`."""
    per_cc = per_cc_predictions(model, packed)
    total: Optional[Tensor] = None
    for pred_c in per_cc:
        total = pred_c if total is None else total + pred_c
    per_cc_stacked = stack(per_cc, axis=2)  # (B, H, C)
    batch = per_cc_stacked.shape[0]
    return concat([total, per_cc_stacked.reshape(batch, model.horizon * model.n_ccs)], axis=1)


@contextmanager
def op_by_op() -> Iterator[None]:
    """Within the block, every module forward runs its op-by-op composition.

    ``Linear``, ``LSTM``, ``GRU``, Prism5G's decoder and the Seq2Seq
    forward are swapped for the oracles above, so a whole model —
    encoder, fusion MLP, heads — runs without a single fused kernel.
    """
    swaps = [
        (Linear, "forward", lambda self, x: linear(self, x)),
        (LSTM, "forward", lambda self, x, state=None: lstm_loop(self, x, state)),
        (GRU, "forward", lambda self, x, state=None: gru_loop(self, x, state)),
        (Prism5G, "_decode", lambda self, h_c, chunks=1: decode_loop(self, h_c)),
        (_Seq2Seq, "forward", lambda self, x: seq2seq_forward(self, x)),
    ]
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in swaps]
    try:
        for cls, name, oracle in swaps:
            setattr(cls, name, oracle)
        yield
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)


# ---------------------------------------------------------------------------
# simulator: the scalar per-cell radio update


def pathloss_db(
    sim: TraceSimulator,
    cell,
    position: Tuple[float, float],
    indoor: bool,
    serving: bool = True,
) -> float:
    """Pathloss to a cell; ``force_los`` only applies to serving links.

    Interfering sites keep their distance-based LOS probability —
    standing in line of sight of one's own site does not put every
    neighbouring site in line of sight too.
    """
    distance = math.dist(position, cell.position)
    if indoor:
        los_weight = 0.0  # no line of sight through building walls
    elif serving and sim.force_los is True:
        los_weight = 1.0
    elif serving and sim.force_los is False:
        los_weight = 0.0
    else:
        los_weight = math.exp(-distance / _LOS_BLEND_M)
    pl = (
        los_weight * urban_macro_pathloss_db(distance, cell.band.freq_mhz, los=True)
        + (1.0 - los_weight) * urban_macro_pathloss_db(distance, cell.band.freq_mhz, los=False)
    )
    if indoor:
        pl += indoor_penetration_loss_db(cell.band.freq_mhz)
    return pl


def interference_dbm_per_re(
    sim: TraceSimulator, cell, position: Tuple[float, float], indoor: bool
) -> float:
    """Co-channel interference from same-channel cells at other sites."""
    total_mw = 0.0
    my_site = sim.deployment.site_of(cell)
    for other in sim._candidates:
        if other.channel_key != cell.channel_key:
            continue
        if sim.deployment.site_of(other) == my_site:
            continue
        pl = pathloss_db(sim, other, position, indoor, serving=False)
        n_rb = num_resource_blocks(other.bandwidth_mhz, other.scs_khz, other.band.rat)
        received = rsrp_dbm(other.tx_power_dbm, pl, n_rb=n_rb)
        total_mw += _CO_CHANNEL_ACTIVITY * 10 ** (received / 10.0)
    if total_mw <= 0.0:
        return -math.inf
    return 10.0 * math.log10(total_mw)


def radio_update_loop(
    sim: TraceSimulator, state, rho: float
) -> Tuple[Dict[int, float], Dict[int, float], Dict[int, float]]:
    """Scalar per-cell radio update — the array radio step's oracle."""
    rsrp_map: Dict[int, float] = {}
    sinr_map: Dict[int, float] = {}
    rsrq_map: Dict[int, float] = {}
    shadows, fadings = sim._advance_radio_processes(state, rho)
    for idx, cell in enumerate(sim._candidates):
        shadow = shadows[idx]
        fading = fadings[idx]
        pl = pathloss_db(sim, cell, state.position, state.indoor)
        n_rb_cfg = num_resource_blocks(cell.bandwidth_mhz, cell.scs_khz, cell.band.rat)
        rsrp = rsrp_dbm(cell.tx_power_dbm, pl, shadow, fading, n_rb=n_rb_cfg)
        # noise over one RE (one sub-carrier of scs kHz)
        noise_re = noise_power_dbm(cell.scs_khz / 1e3)
        interference = interference_dbm_per_re(sim, cell, state.position, state.indoor)
        signal_mw = 10 ** (rsrp / 10.0)
        noise_mw = 10 ** (noise_re / 10.0)
        interf_mw = 0.0 if interference == -math.inf else 10 ** (interference / 10.0)
        sinr = 10 * math.log10(signal_mw / (noise_mw + interf_mw))
        rssi_mw = (signal_mw + noise_mw + interf_mw) * 12 * n_rb_cfg
        rsrq = 10 * math.log10(n_rb_cfg) + rsrp - 10 * math.log10(rssi_mw)
        rsrp_map[cell.cell_id] = rsrp
        sinr_map[cell.cell_id] = sinr
        rsrq_map[cell.cell_id] = rsrq
    return rsrp_map, sinr_map, rsrq_map


@dataclass
class _LoopRadioState:
    """AR(1) state of :func:`advance_loop`, kept on the simulator."""

    site: Dict[int, float] = field(default_factory=dict)
    band: Dict[Tuple[int, str], float] = field(default_factory=dict)
    own: Dict[int, float] = field(default_factory=dict)
    fading: Dict[int, FastFadingProcess] = field(default_factory=dict)


def advance_loop(sim: TraceSimulator, state, rho: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per-candidate shadowing/fading advance — the array advance's oracle.

    Each candidate draws four scalar normals in candidate order: the
    site component (keyed by ``site_of``), the (site, band) component,
    its own component, then its fading process.  A cell that left the
    candidate set loses its own and fading state, so a returning cell
    starts from a fresh draw.
    """
    store = sim.__dict__.setdefault("_loop_radio", _LoopRadioState())
    alive = {cell.cell_id for cell in sim._candidates}
    for stale in [cell_id for cell_id in store.own if cell_id not in alive]:
        del store.own[stale]
        del store.fading[stale]
    innovation = math.sqrt(max(1.0 - rho * rho, 0.0))

    def advance(values: dict, key) -> float:
        value = values.get(key)
        if value is None:
            value = sim._rng.normal()
        else:
            value = rho * value + innovation * sim._rng.normal()
        values[key] = value
        return value

    w_site, w_band, w_own = _SHADOW_WEIGHTS
    shadows: List[float] = []
    fadings: List[float] = []
    for cell in sim._candidates:
        site = sim.deployment.site_of(cell)
        site_comp = advance(store.site, site)
        band_comp = advance(store.band, (site, cell.band.name))
        own = advance(store.own, cell.cell_id)
        shadow = _SHADOW_SIGMA_DB * (
            math.sqrt(w_site) * site_comp + math.sqrt(w_band) * band_comp + math.sqrt(w_own) * own
        )
        if sim.force_los is True:
            shadow *= 0.5
        shadows.append(shadow)
        fading = store.fading.setdefault(cell.cell_id, FastFadingProcess(sigma_db=_FADING_SIGMA_DB))
        fadings.append(fading.sample(sim.dt_s, state.speed_mps, cell.band.freq_mhz, sim._rng))
    return np.array(shadows), np.array(fadings)


def cells_near_loop(
    deployment: Deployment, position: Tuple[float, float], max_distance_m: Optional[float] = None
) -> List[Cell]:
    """The per-cell ``math.dist`` scan that ``Deployment.cells_near`` must match."""
    out = []
    for cell in deployment.cells:
        radius = COVERAGE_RADIUS_M[cell.band.band_class]
        limit = radius if max_distance_m is None else min(radius, max_distance_m)
        if math.dist(position, cell.position) <= limit:
            out.append(cell)
    return out


def cqi_from_sinr_scan(sinr_db: float) -> int:
    """Linear-scan reference for :func:`cqi_from_sinr` (equivalence tests)."""
    gap = 10 ** (3.0 / 10.0)
    capacity = math.log2(1.0 + 10 ** (sinr_db / 10.0) / gap)
    cqi = 0
    for index in range(1, MAX_CQI + 1):
        if CQI_EFFICIENCY_256QAM[index] <= capacity:
            cqi = index
    return cqi


def mcs_from_cqi_scan(cqi: int) -> int:
    """Linear-scan reference for :func:`mcs_from_cqi` (equivalence tests)."""
    if not 0 <= cqi <= MAX_CQI:
        raise ValueError(f"CQI must be in [0, {MAX_CQI}]")
    target = CQI_EFFICIENCY_256QAM[cqi]
    best = 0
    for index in range(MAX_MCS_INDEX + 1):
        if mcs_spectral_efficiency(index) <= target + 1e-9:
            best = index
    return best


@contextmanager
def _swapped(cls, name: str, replacement) -> Iterator[None]:
    original = cls.__dict__[name]
    setattr(cls, name, replacement)
    try:
        yield
    finally:
        setattr(cls, name, original)


def scalar_radio():
    """Within the block, every simulator step runs :func:`radio_update_loop`."""
    return _swapped(TraceSimulator, "_radio_update", radio_update_loop)


def loop_advance():
    """Within the block, every simulator step advances its AR(1) state with :func:`advance_loop`."""
    return _swapped(TraceSimulator, "_advance_radio_processes", advance_loop)


# ---------------------------------------------------------------------------
# apps: the MPC plan search


def mpc_plan_loop(
    player: MPCPlayer,
    forecast_mbps: np.ndarray,
    buffer_s: float,
    last_level: Optional[int],
) -> int:
    """Exhaustive MPC, one plan at a time — ``MPCPlayer._plan``'s oracle."""
    cfg = player.config
    rates = cfg.bitrates_mbps
    best_score, best_first = -np.inf, 0
    horizon = min(cfg.lookahead, len(forecast_mbps))
    for plan in itertools.product(range(len(rates)), repeat=horizon):
        score = 0.0
        buf = buffer_s
        prev = last_level
        for step, level in enumerate(plan):
            bandwidth = max(forecast_mbps[step], 1e-6)
            download_s = rates[level] * cfg.chunk_s / bandwidth
            rebuffer = max(download_s - buf, 0.0)
            buf = max(buf - download_s, 0.0) + cfg.chunk_s
            buf = min(buf, cfg.buffer_max_s)
            score += rates[level]
            score -= cfg.rebuffer_penalty * rebuffer
            if prev is not None:
                score -= cfg.switch_penalty * abs(rates[level] - rates[prev])
            prev = level
        if score > best_score:
            best_score, best_first = score, plan[0]
    return best_first

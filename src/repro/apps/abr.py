"""MPC-based adaptive-bitrate video streaming simulator (paper §7).

Implements the control-theoretic ABR of Yin et al. [50]: at each chunk
boundary the client picks the bitrate sequence over a lookahead window
that maximizes a QoE objective (bitrate reward − rebuffering penalty −
smoothness penalty), given buffer state and a bandwidth forecast.

The paper emulates 16K video over 5G CA traces with the quality ladder
[1.5, 2.5, 40.71, 152.66, 280, 585] Mbps (360p..16K) and swaps MPC's
stock harmonic-mean forecaster for Prism5G.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..forecast.harmonic import harmonic_mean
from .qoe import QoEResult

#: the paper's 16K ladder in Mbps: [360p, 480p, 2K, 4K, 8K, 16K].
PAPER_BITRATES_MBPS: Tuple[float, ...] = (1.5, 2.5, 40.71, 152.66, 280.0, 585.0)


@dataclass
class ABRConfig:
    """Player and MPC parameters."""

    bitrates_mbps: Sequence[float] = PAPER_BITRATES_MBPS
    chunk_s: float = 2.0
    buffer_max_s: float = 30.0
    startup_buffer_s: float = 4.0
    lookahead: int = 3  #: chunks of MPC lookahead
    rebuffer_penalty: float = 600.0  #: QoE penalty per stalled second (Mbps-equiv, ~max bitrate)
    switch_penalty: float = 1.0

    def __post_init__(self) -> None:
        rates = list(self.bitrates_mbps)
        if rates != sorted(rates):
            raise ValueError("bitrates must be ascending")
        if self.lookahead < 1:
            raise ValueError("lookahead must be >= 1")


#: a forecaster maps (history Mbps, horizon chunks, chunk seconds) -> per-chunk Mbps.
Forecaster = Callable[[np.ndarray, int, float], np.ndarray]


def harmonic_forecaster(history: np.ndarray, horizon: int, chunk_s: float) -> np.ndarray:
    """Stock MPC forecaster: harmonic mean of the last 5 samples."""
    window = np.asarray(history, dtype=np.float64)[-5:]
    if window.size == 0:
        return np.full(horizon, 1.0)
    return np.full(horizon, harmonic_mean(window))


class MPCPlayer:
    """Chunked video session driven by MPC decisions."""

    def __init__(self, config: Optional[ABRConfig] = None) -> None:
        self.config = config or ABRConfig()

    # ------------------------------------------------------------------
    def _plan(
        self,
        forecast_mbps: np.ndarray,
        buffer_s: float,
        last_level: Optional[int],
    ) -> int:
        """Exhaustive MPC over the lookahead; returns the next level.

        Scores all ``n ** horizon`` level plans at once: row ``k`` of
        ``levels`` holds every plan's level at lookahead step ``k``, the
        plans in ``itertools.product`` order.  Each step updates the
        plans' buffers and scores with the per-plan scalar loop's
        operations in its order (``tests/oracles.py::mpc_plan_loop``),
        and elementwise IEEE arithmetic rounds like Python floats, so
        every score is the loop's.  ``argmax`` keeps the first best plan,
        as the loop's strict ``>`` does; a NaN forecast makes every
        score NaN, and both then return level 0.
        """
        cfg = self.config
        rates = np.asarray(cfg.bitrates_mbps, dtype=np.float64)
        horizon = min(cfg.lookahead, len(forecast_mbps))
        levels = np.indices((len(rates),) * horizon).reshape(horizon, -1)
        plan_rates = rates[levels]
        score = np.zeros(levels.shape[1])
        buf = buffer_s
        prev = None if last_level is None else rates[last_level]
        for step in range(horizon):
            bandwidth = max(forecast_mbps[step], 1e-6)
            rate = plan_rates[step]
            download_s = rate * cfg.chunk_s / bandwidth
            rebuffer = np.maximum(download_s - buf, 0.0)
            buf = np.minimum(np.maximum(buf - download_s, 0.0) + cfg.chunk_s, cfg.buffer_max_s)
            score += rate
            score -= cfg.rebuffer_penalty * rebuffer
            if prev is not None:
                score -= cfg.switch_penalty * np.abs(rate - prev)
            prev = rate
        return int(levels[0, np.argmax(score)])

    # ------------------------------------------------------------------
    def run(
        self,
        tput_mbps: np.ndarray,
        dt_s: float,
        forecaster: Forecaster = harmonic_forecaster,
        n_chunks: Optional[int] = None,
    ) -> QoEResult:
        """Stream over a throughput trace; loops the trace if needed."""
        cfg = self.config
        tput = np.asarray(tput_mbps, dtype=np.float64)
        if tput.size < 2:
            raise ValueError("trace too short")
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        total_chunks = n_chunks or max(1, int(len(tput) * dt_s / cfg.chunk_s) - cfg.lookahead)

        clock = 0.0
        buffer_s = cfg.startup_buffer_s
        last_level: Optional[int] = None
        bitrates: List[float] = []
        stall_time = 0.0
        n_stalls = 0
        switches = 0
        observed: List[float] = []

        def bandwidth_at(t: float) -> float:
            index = int(t / dt_s) % len(tput)
            return max(tput[index], 1e-6)

        for _ in range(total_chunks):
            history = np.asarray(observed[-10:]) if observed else tput[:1]
            forecast = np.asarray(forecaster(history, cfg.lookahead, cfg.chunk_s), dtype=np.float64)
            if forecast.shape[0] < cfg.lookahead:
                forecast = np.pad(forecast, (0, cfg.lookahead - len(forecast)), mode="edge")
            level = self._plan(forecast, buffer_s, last_level)
            if last_level is not None and level != last_level:
                switches += 1
            last_level = level
            size_mbit = cfg.bitrates_mbps[level] * cfg.chunk_s
            # download against the actual trace
            downloaded = 0.0
            download_time = 0.0
            while downloaded < size_mbit:
                rate = bandwidth_at(clock + download_time)
                step = min(dt_s, (size_mbit - downloaded) / rate)
                downloaded += rate * step
                download_time += step
            observed.append(size_mbit / download_time if download_time > 0 else cfg.bitrates_mbps[level])
            rebuffer = max(download_time - buffer_s, 0.0)
            if rebuffer > 1e-9:
                stall_time += rebuffer
                n_stalls += 1
            buffer_s = max(buffer_s - download_time, 0.0) + cfg.chunk_s
            buffer_s = min(buffer_s, cfg.buffer_max_s)
            clock += download_time
            bitrates.append(cfg.bitrates_mbps[level])

        return QoEResult(
            avg_quality=float(np.mean(bitrates)),
            stall_time_s=stall_time,
            n_stalls=n_stalls,
            n_units=total_chunks,
            quality_switches=switches,
        )


def chunk_mean_forecaster(series: np.ndarray, steps_per_chunk: int) -> Forecaster:
    """Serve chunk means of a per-step ``series``, advancing one chunk per call.

    The n-th call (from 0) forecasts chunks ``n .. n + horizon - 1``,
    each the mean of its ``steps_per_chunk`` samples (the series wraps
    like the player's trace).  The forecaster counts its own calls —
    :meth:`MPCPlayer.run` hands it only the last 10 observed chunks, so
    the history length cannot say how far the session has got — which
    makes one forecaster good for one session.
    """
    series = np.asarray(series, dtype=np.float64)
    calls = itertools.count()

    def forecast(_history: np.ndarray, horizon: int, _chunk_s: float) -> np.ndarray:
        consumed = next(calls) * steps_per_chunk
        out = np.empty(horizon)
        for k in range(horizon):
            lo = (consumed + k * steps_per_chunk) % len(series)
            out[k] = np.take(series, np.arange(lo, lo + steps_per_chunk), mode="wrap").mean()
        return out

    return forecast


def oracle_forecaster_factory(tput_mbps: np.ndarray, dt_s: float, chunk_s: float) -> Forecaster:
    """Build a clairvoyant forecaster for *this* trace (upper bound).

    It forecasts the true chunk means ahead (see
    :func:`chunk_mean_forecaster`).
    """
    return chunk_mean_forecaster(tput_mbps, max(1, int(round(chunk_s / dt_s))))

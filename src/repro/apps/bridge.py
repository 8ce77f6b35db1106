"""Bridge trained throughput predictors into the QoE applications.

The use cases (§7) replace an application's stock bandwidth estimator
with a trained predictor (e.g. ViVo+Prism5G, MPC+Prism5G).  This module
turns a fitted :class:`~repro.core.predictors.Predictor` plus a trace
into a per-step bandwidth-estimate series (for ViVo) or an MPC
forecaster callable (for ABR).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.predictors import Predictor
from ..core.prism5g import pack_inputs  # noqa: F401  (re-exported convenience)
from ..data.datasets import MLDataset
from ..data.windowing import WindowedDataset, window_trace
from ..ran.traces import Trace
from .abr import Forecaster, chunk_mean_forecaster
from .vivo import past_mean_bandwidth


def trace_windows_normalized(
    trace: Trace,
    dataset: MLDataset,
    history: int = 10,
    horizon: int = 10,
    max_ccs: int = 4,
) -> Optional[WindowedDataset]:
    """Window one trace and normalize it with a training set's scalers."""
    windows = window_trace(trace, history, horizon, max_ccs)
    if windows is None:
        return None
    x, mask, y, y_hist, y_cc = windows
    raw = WindowedDataset(x=x, mask=mask, y=y, y_hist=y_hist, trace_ids=np.zeros(len(x), dtype=int), y_cc=y_cc)
    return dataset.scale(raw)


def predicted_bandwidth_series(
    predictor: Predictor,
    trace: Trace,
    dataset: MLDataset,
    history: int = 10,
    horizon: int = 10,
    max_ccs: int = 4,
) -> np.ndarray:
    """Per-step bandwidth estimates (Mbps) over a whole trace.

    The estimate at step ``t`` is the horizon-mean of the predictor's
    forecast given history ending at ``t``; the first ``history - 1``
    steps (no full history yet) fall back to the past-window mean, as
    stock ViVo would.
    """
    windows = trace_windows_normalized(trace, dataset, history, horizon, max_ccs)
    tput = trace.throughput_series()
    fallback = past_mean_bandwidth(tput, trace.dt_s, history * trace.dt_s)
    if windows is None:
        return fallback
    pred_norm = predictor.predict(windows)
    pred_mbps = dataset.denormalize_tput(pred_norm)
    estimates = fallback.copy()
    horizon_mean = np.maximum(pred_mbps.mean(axis=1), 0.0)
    # window i has history covering [i, i + history); its forecast is
    # available from step i + history - 1 onward.
    for i, value in enumerate(horizon_mean):
        estimates[i + history - 1] = value
    if len(horizon_mean):
        estimates[len(horizon_mean) + history - 1 :] = horizon_mean[-1]
    return estimates


def predictor_forecaster(
    predictor: Predictor,
    trace: Trace,
    dataset: MLDataset,
    chunk_s: float,
    history: int = 10,
    horizon: int = 10,
    max_ccs: int = 4,
) -> Forecaster:
    """Build an MPC forecaster backed by a trained predictor.

    MPC consumes per-chunk bandwidth forecasts; we precompute the
    predictor's per-step series over the trace and serve chunk-mean
    slices of it, one chunk further per call (the same contract as
    :func:`repro.apps.abr.oracle_forecaster_factory`).
    """
    series = predicted_bandwidth_series(predictor, trace, dataset, history, horizon, max_ccs)
    chunk_means = chunk_mean_forecaster(series, max(1, int(round(chunk_s / trace.dt_s))))

    def forecast(history_mbps: np.ndarray, n_ahead: int, chunk_s_: float) -> np.ndarray:
        return np.maximum(chunk_means(history_mbps, n_ahead, chunk_s_), 1e-3)

    return forecast

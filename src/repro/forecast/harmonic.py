"""Harmonic-mean throughput estimator (stock MPC predictor, Yin et al. [50])."""

from __future__ import annotations

import numpy as np


def harmonic_mean(values: np.ndarray, eps: float = 1e-9) -> float:
    """Harmonic mean of positive samples; robust to outlier spikes.

    Non-positive samples are floored at ``eps`` so a single zero sample
    (e.g. a stall) does not collapse the estimate to zero permanently.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ValueError("cannot take harmonic mean of empty data")
    values = np.maximum(values, eps)
    return float(len(values) / np.sum(1.0 / values))

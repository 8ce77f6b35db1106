"""Loss functions and regression metrics.

The paper trains and reports with RMSE on min-max normalized
throughput (Table 4 values are in normalized units): training
minimizes MSE, evaluation reports RMSE.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error (differentiable)."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target
    return (diff * diff).mean()


def rmse(pred: np.ndarray, target: np.ndarray) -> float:
    """RMSE on plain arrays (evaluation metric)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.sqrt(np.mean((pred - target) ** 2)))

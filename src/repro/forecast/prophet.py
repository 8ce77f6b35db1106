"""Structural time-series forecaster standing in for Facebook Prophet.

The paper uses Prophet [44] as its statistics-only baseline, evaluated
with a rolling refit ("cross-validation schema", Appendix C.1): at each
step the model is refit on the history seen so far and extrapolated
over the horizon (``repro.core.predictors.ProphetPredictor`` refits on
each window's history).  Prophet's core is a decomposable model

    y(t) = trend(t) + seasonality(t) + noise

with a piecewise-linear trend (changepoints) and Fourier seasonal
terms, fit by (regularized) least squares.  We implement exactly that
decomposition with a ridge fit, which preserves the property the paper
relies on: a pure extrapolator with no radio features badly misjudges
CA transitions (Fig 35).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class StructuralProphet:
    """Piecewise-linear trend + Fourier seasonality, ridge-fitted.

    Parameters
    ----------
    n_changepoints:
        Number of potential trend changepoints placed uniformly over the
        first 80% of the history (Prophet's default placement rule).
    season_period:
        Seasonality period in samples; ``None`` disables seasonality.
    fourier_order:
        Number of Fourier harmonics for the seasonal component.
    alpha:
        Ridge regularization strength (plays the role of Prophet's
        sparse changepoint prior).
    """

    def __init__(
        self,
        n_changepoints: int = 10,
        season_period: Optional[int] = None,
        fourier_order: int = 3,
        alpha: float = 1.0,
    ) -> None:
        self.n_changepoints = n_changepoints
        self.season_period = season_period
        self.fourier_order = fourier_order
        self.alpha = alpha
        self._coef: Optional[np.ndarray] = None
        self._t_scale: float = 1.0
        self._changepoints: np.ndarray = np.empty(0)

    # ------------------------------------------------------------------
    def _design(self, t: np.ndarray) -> np.ndarray:
        """Build the regression design matrix at (scaled) times ``t``."""
        cols = [np.ones_like(t), t]
        for cp in self._changepoints:
            cols.append(np.maximum(t - cp, 0.0))
        if self.season_period:
            period = self.season_period / self._t_scale
            for k in range(1, self.fourier_order + 1):
                angle = 2.0 * np.pi * k * t / period
                cols.append(np.sin(angle))
                cols.append(np.cos(angle))
        return np.column_stack(cols)

    def fit(self, y: np.ndarray) -> "StructuralProphet":
        """Fit on a 1-D history ``y`` indexed by 0..n-1."""
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        n = len(y)
        if n < 3:
            raise ValueError("need at least 3 samples to fit")
        self._t_scale = float(max(n - 1, 1))
        t = np.arange(n) / self._t_scale
        k = min(self.n_changepoints, max(n // 4, 0))
        self._changepoints = np.linspace(0.0, 0.8, k + 2)[1:-1] if k > 0 else np.empty(0)
        design = self._design(t)
        gram = design.T @ design + self.alpha * np.eye(design.shape[1])
        self._coef = np.linalg.solve(gram, design.T @ y)
        return self

    def predict(self, horizon: int, start: Optional[int] = None) -> np.ndarray:
        """Extrapolate ``horizon`` steps beyond the fitted history.

        ``start`` defaults to the first step after the training window.
        """
        if self._coef is None:
            raise RuntimeError("model has not been fitted")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        n_train = int(round(self._t_scale)) + 1
        start = n_train if start is None else start
        t = (start + np.arange(horizon)) / self._t_scale
        return self._design(t) @ self._coef

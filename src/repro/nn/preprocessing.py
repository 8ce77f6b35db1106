"""Feature scaling utilities.

The paper normalizes all ML datasets with a min-max scaler before
training (Appendix C.1); we provide the same.  It is fit on training
data only and is exactly invertible on the fitted range.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class MinMaxScaler:
    """Scale features to [0, 1] columnwise; constant columns map to 0."""

    def __init__(self) -> None:
        self.data_min: Optional[np.ndarray] = None
        self.data_max: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray) -> "MinMaxScaler":
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(-1, x.shape[-1])
        self.data_min = flat.min(axis=0)
        self.data_max = flat.max(axis=0)
        return self

    @property
    def _range(self) -> np.ndarray:
        span = self.data_max - self.data_min
        # span = max - min is non-negative; <= 0 marks constant features
        return np.where(span <= 0.0, 1.0, span)

    def transform(self, x: np.ndarray) -> np.ndarray:
        self._check_fitted()
        x = np.asarray(x, dtype=np.float64)
        return (x - self.data_min) / self._range

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        self._check_fitted()
        x = np.asarray(x, dtype=np.float64)
        return x * self._range + self.data_min

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def _check_fitted(self) -> None:
        if self.data_min is None:
            raise RuntimeError("scaler has not been fitted")

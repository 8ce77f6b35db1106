"""Gradient-boosted regression trees (least-squares boosting).

Implements the GBDT baseline used by Lumos5G [32]: stage-wise fitting
of shallow CART trees to residuals, with shrinkage and optional
row subsampling (stochastic gradient boosting).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .tree import DecisionTreeRegressor


class GradientBoostingRegressor:
    """Least-squares gradient boosting over CART trees."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self.init_: float = 0.0
        self.trees_: List[DecisionTreeRegressor] = []

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
        early_stopping_rounds: Optional[int] = None,
    ) -> "GradientBoostingRegressor":
        """Fit; optionally early-stop on a validation set."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        rng = np.random.default_rng(self.seed)
        n = len(x)
        self.init_ = float(y.mean())
        self.trees_ = []
        pred = np.full(n, self.init_)
        val_pred = None
        best_val, best_len, stale = np.inf, 0, 0
        if x_val is not None:
            x_val = np.asarray(x_val, dtype=np.float64)
            y_val = np.asarray(y_val, dtype=np.float64).reshape(-1)
            val_pred = np.full(len(x_val), self.init_)
        for _ in range(self.n_estimators):
            residual = y - pred
            if self.subsample < 1.0:
                idx = rng.choice(n, size=max(1, int(self.subsample * n)), replace=False)
            else:
                idx = slice(None)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                rng=np.random.default_rng(rng.integers(0, 2**31)),
            )
            tree.fit(x[idx], residual[idx])
            self.trees_.append(tree)
            pred = pred + self.learning_rate * tree.predict(x)
            if val_pred is not None:
                val_pred = val_pred + self.learning_rate * tree.predict(x_val)
                val_rmse = float(np.sqrt(np.mean((val_pred - y_val) ** 2)))
                if val_rmse < best_val - 1e-12:
                    best_val, best_len, stale = val_rmse, len(self.trees_), 0
                else:
                    stale += 1
                    if early_stopping_rounds is not None and stale >= early_stopping_rounds:
                        break
        if val_pred is not None and best_len:
            self.trees_ = self.trees_[:best_len]
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("model has not been fitted")
        x = np.asarray(x, dtype=np.float64)
        pred = np.full(len(x), self.init_)
        for tree in self.trees_:
            pred += self.learning_rate * tree.predict(x)
        return pred

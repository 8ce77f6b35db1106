"""CART regression tree (variance-reduction splitting).

Substrate for the paper's classical-ML baselines: Lumos5G's GBDT [32]
and the random-forest predictor of Alimpertis et al. [4].  Implemented
from scratch since scikit-learn is unavailable offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class _Node:
    """Binary tree node; leaves have ``value`` set and no children."""

    value: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTreeRegressor:
    """CART regression tree minimizing within-node squared error.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root is depth 0).
    min_samples_split:
        Minimum samples required to attempt a split.
    min_samples_leaf:
        Minimum samples allowed in each child.
    max_features:
        Number of features considered per split (``None`` = all);
        used by random forests for decorrelation.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = max(min_samples_split, 2)
        self.min_samples_leaf = max(min_samples_leaf, 1)
        self.max_features = max_features
        self.rng = rng or np.random.default_rng(0)
        self._root: Optional[_Node] = None
        self.n_features_: int = 0

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if x.ndim != 2:
            raise ValueError("x must be 2-D (samples, features)")
        if len(x) != len(y):
            raise ValueError("x and y must have equal length")
        if len(x) == 0:
            raise ValueError("cannot fit on empty data")
        self.n_features_ = x.shape[1]
        self._root = self._grow(x, y, depth=0)
        return self

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < self.min_samples_split or np.ptp(y) <= 0.0:
            return node
        split = self._best_split(x, y)
        if split is None:
            return node
        feature, threshold = split
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(x[mask], y[mask], depth + 1)
        node.right = self._grow(x[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, x: np.ndarray, y: np.ndarray) -> Optional[tuple]:
        n, d = x.shape
        features = np.arange(d)
        if self.max_features is not None and self.max_features < d:
            features = self.rng.choice(d, size=self.max_features, replace=False)
        best_gain, best = 0.0, None
        total_sum, total_sq = y.sum(), (y * y).sum()
        base_sse = total_sq - total_sum ** 2 / n
        for feature in features:
            order = np.argsort(x[:, feature], kind="stable")
            xs, ys = x[order, feature], y[order]
            csum = np.cumsum(ys)
            csq = np.cumsum(ys * ys)
            # candidate split after position i (1-indexed counts)
            counts = np.arange(1, n)
            left_sse = csq[:-1] - csum[:-1] ** 2 / counts
            right_counts = n - counts
            right_sum = total_sum - csum[:-1]
            right_sq = total_sq - csq[:-1]
            right_sse = right_sq - right_sum ** 2 / right_counts
            gain = base_sse - (left_sse + right_sse)
            # forbid splits between identical feature values and tiny leaves
            valid = (xs[1:] > xs[:-1]) & (counts >= self.min_samples_leaf) & (right_counts >= self.min_samples_leaf)
            gain = np.where(valid, gain, -np.inf)
            idx = int(np.argmax(gain))
            if gain[idx] > best_gain + 1e-12:
                best_gain = gain[idx]
                # the midpoint of adjacent floats can round up to the
                # upper value, which would send every sample left
                threshold = (xs[idx] + xs[idx + 1]) / 2.0
                if not threshold < xs[idx + 1]:
                    threshold = xs[idx]
                best = (int(feature), float(threshold))
        return best

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree has not been fitted")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features_:
            raise ValueError(f"expected shape (n, {self.n_features_})")
        out = np.empty(len(x))
        for i, row in enumerate(x):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def depth(self) -> int:
        """Actual depth of the fitted tree."""

        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            raise RuntimeError("tree has not been fitted")
        return walk(self._root)

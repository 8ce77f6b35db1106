"""Sliding-window construction of (history, horizon) training pairs.

The paper (§6.1) turns each trace into data pairs with a moving window:
input and output sequence lengths are both 10, i.e. a 100 ms horizon on
the 10 ms datasets and a 10 s horizon on the 1 s datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..ran.traces import CC_FEATURES, Trace


@dataclass
class WindowedDataset:
    """Arrays ready for model training.

    Attributes
    ----------
    x:
        Per-CC feature history, shape ``(n, T, C, F)``.
    mask:
        CC activity mask over history, shape ``(n, T, C)`` — the binary
        state vector *I* built from RRC events (paper §5.2).
    y:
        Future aggregate throughput, shape ``(n, H)`` (normalized if a
        scaler was applied).
    y_hist:
        Historical aggregate throughput, shape ``(n, T)``.
    y_cc:
        Future per-CC throughput, shape ``(n, H, C)`` — the per-carrier
        targets that supervise Prism5G's per-CC heads (its aggregate
        prediction is their sum, paper §5.2).
    trace_ids:
        Originating trace index for each pair (enables trace-level
        splits for the generalizability study, Table 14).
    """

    x: np.ndarray
    mask: np.ndarray
    y: np.ndarray
    y_hist: np.ndarray
    trace_ids: np.ndarray
    y_cc: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.x)

    @property
    def n_ccs(self) -> int:
        return self.x.shape[2]

    @property
    def horizon(self) -> int:
        return self.y.shape[1]

    def subset(self, indices: np.ndarray) -> "WindowedDataset":
        return WindowedDataset(
            x=self.x[indices],
            mask=self.mask[indices],
            y=self.y[indices],
            y_hist=self.y_hist[indices],
            trace_ids=self.trace_ids[indices],
            y_cc=None if self.y_cc is None else self.y_cc[indices],
        )


_TPUT_FEATURE_INDEX = CC_FEATURES.index("tput_mbps")


def window_trace(
    trace: Trace,
    history: int,
    horizon: int,
    max_ccs: int,
    stride: int = 1,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Window a single trace; returns (x, mask, y, y_hist, y_cc) or None."""
    if history < 1 or horizon < 1:
        raise ValueError("history and horizon must be >= 1")
    features, mask, total = trace.feature_tensor(max_ccs)
    per_cc_tput = features[:, :, _TPUT_FEATURE_INDEX]  # (T, C)
    n = len(total)
    n_pairs = (n - history - horizon) // stride + 1
    if n_pairs <= 0:
        return None
    xs, ms, ys, hs, cs = [], [], [], [], []
    for i in range(0, n - history - horizon + 1, stride):
        xs.append(features[i : i + history])
        ms.append(mask[i : i + history])
        hs.append(total[i : i + history])
        ys.append(total[i + history : i + history + horizon])
        cs.append(per_cc_tput[i + history : i + history + horizon])
    return np.stack(xs), np.stack(ms), np.stack(ys), np.stack(hs), np.stack(cs)


def window_traces(
    traces: Sequence[Trace],
    history: int = 10,
    horizon: int = 10,
    max_ccs: int = 4,
    stride: int = 1,
) -> WindowedDataset:
    """Window many traces into one dataset, tracking trace provenance."""
    xs, ms, ys, hs, ids, ccs = [], [], [], [], [], []
    for trace_id, trace in enumerate(traces):
        windows = window_trace(trace, history, horizon, max_ccs, stride)
        if windows is None:
            continue
        x, m, y, h, y_cc = windows
        xs.append(x)
        ms.append(m)
        ys.append(y)
        hs.append(h)
        ccs.append(y_cc)
        ids.append(np.full(len(x), trace_id))
    if not xs:
        raise ValueError("no trace long enough for the requested window sizes")
    return WindowedDataset(
        x=np.concatenate(xs),
        mask=np.concatenate(ms),
        y=np.concatenate(ys),
        y_hist=np.concatenate(hs),
        trace_ids=np.concatenate(ids),
        y_cc=np.concatenate(ccs),
    )


def flatten_for_trees(dataset: WindowedDataset) -> np.ndarray:
    """Stack each pair's full history into one flat feature vector.

    This is the paper's classical-ML strategy (Appendix C.1):
    ``R^(T,k) -> R^(T*k, 1)``; we flatten per-CC features, the mask and
    the historical throughput together.
    """
    n = len(dataset)
    per_cc = dataset.x.reshape(n, -1)
    mask = dataset.mask.reshape(n, -1)
    hist = dataset.y_hist.reshape(n, -1)
    return np.concatenate([per_cc, mask, hist], axis=1)

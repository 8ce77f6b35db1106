"""Distribution statistics used throughout the measurement study.

CDFs (Fig 2/24/26), multimodality detection via KDE peak counting
(the paper attributes the multiple "peaks" of the throughput
distribution to CA), violin-plot summaries (Fig 5), and
transition-window variability statistics (Appendix A.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..ran.traces import Trace


def empirical_cdf(samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return sorted values and cumulative probabilities."""
    samples = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
    if samples.size == 0:
        raise ValueError("no samples")
    probs = np.arange(1, samples.size + 1) / samples.size
    return samples, probs


def percentile(samples: np.ndarray, q: float) -> float:
    """Convenience percentile with validation."""
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def kde_density(samples: np.ndarray, grid: np.ndarray, bandwidth: Optional[float] = None) -> np.ndarray:
    """1-D Gaussian kernel density of ``samples``, evaluated on ``grid``.

    The kernel width is ``factor`` times the sample std (ddof=1), with
    Scott's factor ``n ** -0.2`` unless ``bandwidth`` gives the factor,
    as a scalar ``bw_method`` does for ``scipy.stats.gaussian_kde``.
    """
    factor = samples.size ** -0.2 if bandwidth is None else bandwidth
    width = factor * samples.std(ddof=1)
    z = (grid[:, None] - samples[None, :]) / width
    return np.exp(-0.5 * z * z).sum(axis=1) / (samples.size * width * np.sqrt(2.0 * np.pi))


def kde_peaks(
    samples: np.ndarray,
    grid_points: int = 256,
    bandwidth: Optional[float] = None,
    min_prominence_ratio: float = 0.05,
) -> List[float]:
    """Locate modes ("peaks") of a throughput distribution via KDE.

    Returns the peak locations; the paper observes multiple modes in
    CA-enabled traces (Fig 2), one per dominant CC combination.
    """
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    if samples.size < 5:
        raise ValueError("need at least 5 samples for KDE")
    if np.ptp(samples) <= 0.0:  # ptp is non-negative; <= 0 means constant samples
        return [float(samples[0])]
    grid = np.linspace(samples.min(), samples.max(), grid_points)
    density = kde_density(samples, grid, bandwidth)
    threshold = min_prominence_ratio * density.max()
    peaks = []
    for i in range(1, grid_points - 1):
        if density[i] > density[i - 1] and density[i] >= density[i + 1] and density[i] > threshold:
            peaks.append(float(grid[i]))
    return peaks


@dataclass
class ViolinSummary:
    """Numbers a violin plot communicates (paper Fig 5)."""

    label: str
    mean: float
    std: float
    median: float
    p5: float
    p95: float
    peak: float
    n: int

    @staticmethod
    def from_samples(label: str, samples: np.ndarray) -> "ViolinSummary":
        samples = np.asarray(samples, dtype=np.float64).reshape(-1)
        if samples.size == 0:
            raise ValueError("no samples")
        return ViolinSummary(
            label=label,
            mean=float(samples.mean()),
            std=float(samples.std()),
            median=float(np.median(samples)),
            p5=float(np.percentile(samples, 5)),
            p95=float(np.percentile(samples, 95)),
            peak=float(samples.max()),
            n=int(samples.size),
        )


@dataclass
class TransitionStats:
    """CC add/remove dynamics over a trace (paper Appendix A.2)."""

    n_events: int
    mean_interval_s: float
    mean_change_pct: float  #: mean |Tput change| across a 5 s window, in %
    std_with_events_mbps: float
    std_stable_mbps: float


def transition_statistics(trace: Trace, window_s: float = 5.0) -> TransitionStats:
    """Quantify throughput disruption around CC change events.

    Variability is compared *locally*, as the paper does: the std of
    throughput within each ``window_s`` window centred on an event,
    versus the std within same-width windows that contain no event
    (otherwise slow drift across different CA configurations would
    dominate the "stable" figure).
    """
    tput = trace.throughput_series()
    steps = trace.event_steps()
    dt = trace.dt_s
    half = max(1, int(window_s / dt / 2))
    width = 2 * half
    changes = []
    event_mask = np.zeros(len(tput), dtype=bool)
    event_stds = []
    for step in steps:
        lo, hi = max(0, step - half), min(len(tput), step + half)
        event_mask[lo:hi] = True
        window = tput[lo:hi]
        if window.size >= 2:
            event_stds.append(window.std())
        before = tput[max(0, step - half) : step]
        after = tput[step : min(len(tput), step + half)]
        if len(before) and len(after) and before.mean() > 1e-9:
            changes.append(abs(after.mean() - before.mean()) / before.mean() * 100.0)
    stable_stds = []
    for start in range(0, len(tput) - width + 1, width):
        if not event_mask[start : start + width].any():
            stable_stds.append(tput[start : start + width].std())
    intervals = np.diff(steps) * dt if len(steps) > 1 else np.array([])
    return TransitionStats(
        n_events=len(steps),
        mean_interval_s=float(intervals.mean()) if intervals.size else float("inf"),
        mean_change_pct=float(np.mean(changes)) if changes else 0.0,
        std_with_events_mbps=float(np.mean(event_stds)) if event_stds else 0.0,
        std_stable_mbps=float(np.mean(stable_stds)) if stable_stds else 0.0,
    )


def subadditivity_ratio(aggregate: np.ndarray, parts: Sequence[np.ndarray]) -> float:
    """How far below the sum of stand-alone throughputs CA lands.

    Returns ``1 - mean(aggregate) / sum(mean(part_i))`` — the paper's
    Fig 6 observation that n41+n25 can be >= 49% below the theoretical
    sum of n41-alone and n25-alone.
    """
    aggregate = np.asarray(aggregate, dtype=np.float64)
    total = sum(float(np.mean(np.asarray(p, dtype=np.float64))) for p in parts)
    if total <= 0:
        raise ValueError("parts have no throughput")
    return 1.0 - float(aggregate.mean()) / total

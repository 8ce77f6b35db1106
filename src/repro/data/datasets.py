"""The six ML sub-datasets of the paper's Table 11.

Operators {OpX, OpY, OpZ} x mobility {walking, driving}, each at two
granularities (10 ms with a 100 ms horizon; 1 s with a 10 s horizon),
10 traces of 300-600 samples per scenario.  Traces come from the RAN
simulator instead of the authors' XCAL captures (see DESIGN.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import runtime
from ..nn.preprocessing import MinMaxScaler
from ..parallel import run_tasks
from ..ran.simulator import simulate_trace
from ..ran.traces import TraceSet
from .cache import TraceCache
from .windowing import WindowedDataset, window_traces


@dataclass(frozen=True)
class SubDatasetSpec:
    """One row of the paper's Table 11 at one time scale."""

    operator: str
    mobility: str  #: "walking" or "driving"
    timescale: str  #: "short" (10 ms) or "long" (1 s)

    @property
    def dt_s(self) -> float:
        return 0.01 if self.timescale == "short" else 1.0

    @property
    def name(self) -> str:
        return f"{self.operator} ({self.mobility.capitalize()}) [{self.timescale}]"


ALL_SUBDATASETS: Tuple[SubDatasetSpec, ...] = tuple(
    SubDatasetSpec(operator, mobility, timescale)
    for timescale in ("short", "long")
    for operator in ("OpX", "OpY", "OpZ")
    for mobility in ("walking", "driving")
)


#: phones rotated through the campaign, as in the paper's Table 5
#: (9 phones across 4 modem generations with different CA capability).
CAMPAIGN_MODEMS: Tuple[str, ...] = ("X70", "X65", "X60", "X70")

#: measurement hours rotated per run (the paper collects mostly at
#: midnight but includes day-time runs, Appendix B.2).
CAMPAIGN_HOURS: Tuple[float, ...] = (0.5, 12.5, 18.5, 3.0)


def subdataset_cache_config(
    spec: SubDatasetSpec,
    n_traces: int = 10,
    samples_per_trace: int = 400,
    seed: int = 0,
    modem: Optional[str] = None,
) -> Dict:
    """The trace-cache configuration for one sub-dataset synthesis.

    Shared by :func:`generate_traces` and the experiment pipeline's
    synthesize stage, so both derive the same cache key for the same
    work (skip-on-hit checks stay in sync with what gets stored).
    """
    return {
        "kind": "subdataset",
        "operator": spec.operator,
        "mobility": spec.mobility,
        "timescale": spec.timescale,
        "dt_s": spec.dt_s,
        "n_traces": n_traces,
        "samples_per_trace": samples_per_trace,
        "seed": seed,
        "modem": modem,
        "modem_rotation": list(CAMPAIGN_MODEMS),
        "hour_rotation": list(CAMPAIGN_HOURS),
    }


def generate_traces(
    spec: SubDatasetSpec,
    n_traces: int = 10,
    samples_per_trace: int = 400,
    seed: int = 0,
    modem: Optional[str] = None,
    cache: Optional[TraceCache] = None,
    processes: Optional[int] = None,
) -> TraceSet:
    """Generate the raw traces for one sub-dataset.

    Traces rotate scenario, UE modem, and time of day, matching the
    heterogeneity of the paper's campaign (different routes, phones and
    collection times per sub-dataset).  Pass ``modem`` to pin one phone.

    Given a :class:`~repro.data.cache.TraceCache`, the set is read from
    it, or synthesized and stored in it, under a content hash of the full
    configuration.  Synthesis is parallelized across traces with
    ``processes`` workers (default: one per CPU, capped at the trace
    count; ``REPRO_PROCS`` overrides).
    """
    if n_traces < 1:
        raise ValueError("n_traces must be >= 1")
    # Table 11: walking covers outdoor-urban + indoor; driving covers
    # urban + suburban + beltway (highway).
    if spec.mobility == "driving":
        scenarios = ("urban", "suburban", "highway")
    else:
        scenarios = ("urban", "urban", "indoor")
    jobs: List[Dict] = []
    for run in range(n_traces):
        scenario = scenarios[run % len(scenarios)]
        mobility = "indoor" if scenario == "indoor" else spec.mobility
        jobs.append(
            {
                "sim": dict(
                    operator=spec.operator,
                    scenario=scenario,
                    mobility=mobility,
                    modem=modem or CAMPAIGN_MODEMS[run % len(CAMPAIGN_MODEMS)],
                    rat="5G",
                    dt_s=spec.dt_s,
                    hour=CAMPAIGN_HOURS[run % len(CAMPAIGN_HOURS)],
                    seed=seed * 1000 + run,
                ),
                "duration_s": samples_per_trace * spec.dt_s,
                "route_id": run,
            }
        )

    def synthesize() -> TraceSet:
        return TraceSet(run_tasks(simulate_trace, jobs, processes=processes, retries=0))

    if cache is None:
        return synthesize()
    config = subdataset_cache_config(spec, n_traces, samples_per_trace, seed, modem)
    return cache.get_or_create(config, synthesize)


@dataclass
class MLDataset:
    """A windowed, min-max-normalized dataset plus its scalers."""

    windows: WindowedDataset
    feature_scaler: MinMaxScaler
    target_scaler: MinMaxScaler
    spec: Optional[SubDatasetSpec] = None

    def denormalize_tput(self, y: np.ndarray) -> np.ndarray:
        """Map normalized throughput back to Mbps."""
        return self.target_scaler.inverse_transform(np.asarray(y).reshape(-1, 1)).reshape(np.asarray(y).shape)

    def scale(self, windows: WindowedDataset) -> WindowedDataset:
        """Raw windows normalized with this dataset's scalers.

        Per-CC features are scaled columnwise; throughput history and
        target share the target scaler, and per-CC targets are divided
        by its span so their sum stays commensurate with the total (up
        to the shared offset).
        """
        n, t, c, f = windows.x.shape
        target = self.target_scaler
        return WindowedDataset(
            x=self.feature_scaler.transform(windows.x.reshape(-1, f)).reshape(n, t, c, f),
            mask=windows.mask,
            y=target.transform(windows.y.reshape(-1, 1)).reshape(windows.y.shape),
            y_hist=target.transform(windows.y_hist.reshape(-1, 1)).reshape(windows.y_hist.shape),
            trace_ids=windows.trace_ids,
            y_cc=None if windows.y_cc is None else windows.y_cc / target._range[0],
        )


def normalize_windows(windows: WindowedDataset) -> MLDataset:
    """Fit min-max scalers (paper Appendix C.1) and normalize with them.

    Per-CC features are scaled columnwise over all (pair, time, cc)
    samples; throughput (history and target) shares one scaler so the
    two stay commensurate.
    """
    f = windows.x.shape[-1]
    tput = np.concatenate([windows.y.reshape(-1), windows.y_hist.reshape(-1)])
    dataset = MLDataset(
        windows=windows,
        feature_scaler=MinMaxScaler().fit(windows.x.reshape(-1, f)),
        target_scaler=MinMaxScaler().fit(tput.reshape(-1, 1)),
    )
    dataset.windows = dataset.scale(windows)
    return dataset


def build_subdataset(
    spec: SubDatasetSpec,
    n_traces: int = 10,
    samples_per_trace: int = 400,
    history: int = 10,
    horizon: int = 10,
    max_ccs: int = 4,
    stride: int = 1,
    seed: int = 0,
    cache: Optional[TraceCache] = None,
    processes: Optional[int] = None,
) -> MLDataset:
    """Generate, window and normalize one of the Table 11 sub-datasets.

    Trace synthesis is parallelized, and cached in ``cache`` when one is
    given — see :func:`generate_traces`.
    """
    traces = generate_traces(
        spec, n_traces, samples_per_trace, seed, cache=cache, processes=processes
    )
    windows = window_traces(traces.traces, history, horizon, max_ccs, stride)
    dataset = normalize_windows(windows)
    return MLDataset(
        windows=dataset.windows,
        feature_scaler=dataset.feature_scaler,
        target_scaler=dataset.target_scaler,
        spec=spec,
    )


# ---------------------------------------------------------------------------
# Dataset artifacts (the experiment pipeline's build-dataset stage)

#: bump when the on-disk dataset layout changes incompatibly.
DATASET_SCHEMA = "repro-dataset-v1"


def save_dataset(dataset: MLDataset, path) -> None:
    """Persist a windowed, normalized dataset (arrays + scalers) as ``.npz``.

    Float64 arrays round-trip bit-exactly through ``np.savez``, so a
    reloaded dataset produces byte-identical splits and training
    batches — which is what lets the pipeline's later stages resume
    from this artifact instead of re-synthesizing traces.  The file is
    written atomically (:func:`repro.runtime.write_atomic`).
    """
    windows = dataset.windows
    meta = {
        "schema": DATASET_SCHEMA,
        "spec": None
        if dataset.spec is None
        else {
            "operator": dataset.spec.operator,
            "mobility": dataset.spec.mobility,
            "timescale": dataset.spec.timescale,
        },
        "has_y_cc": windows.y_cc is not None,
    }
    arrays = {
        "x": windows.x,
        "mask": windows.mask,
        "y": windows.y,
        "y_hist": windows.y_hist,
        "trace_ids": windows.trace_ids,
        "feature_min": dataset.feature_scaler.data_min,
        "feature_max": dataset.feature_scaler.data_max,
        "target_min": dataset.target_scaler.data_min,
        "target_max": dataset.target_scaler.data_max,
        "__meta__": np.array(json.dumps(meta, sort_keys=True)),
    }
    if windows.y_cc is not None:
        arrays["y_cc"] = windows.y_cc
    runtime.write_atomic(path, lambda handle: np.savez_compressed(handle, **arrays))


def load_dataset(path) -> MLDataset:
    """Load a dataset written by :func:`save_dataset`."""
    with np.load(Path(path)) as archive:
        meta = json.loads(str(archive["__meta__"][()]))
        if meta.get("schema") != DATASET_SCHEMA:
            raise ValueError(
                f"{path}: unsupported dataset schema {meta.get('schema')!r} "
                f"(expected {DATASET_SCHEMA!r})"
            )
        windows = WindowedDataset(
            x=archive["x"],
            mask=archive["mask"],
            y=archive["y"],
            y_hist=archive["y_hist"],
            trace_ids=archive["trace_ids"],
            y_cc=archive["y_cc"] if meta["has_y_cc"] else None,
        )
        feature_scaler = MinMaxScaler()
        feature_scaler.data_min = archive["feature_min"]
        feature_scaler.data_max = archive["feature_max"]
        target_scaler = MinMaxScaler()
        target_scaler.data_min = archive["target_min"]
        target_scaler.data_max = archive["target_max"]
    spec = None if meta["spec"] is None else SubDatasetSpec(**meta["spec"])
    return MLDataset(
        windows=windows,
        feature_scaler=feature_scaler,
        target_scaler=target_scaler,
        spec=spec,
    )

"""Dataset construction: windowing, normalization, splits (Table 11)."""

from .artifacts import load_trace_set, save_trace_set
from .cache import TraceCache, cache_key
from .datasets import (
    ALL_SUBDATASETS,
    DATASET_SCHEMA,
    MLDataset,
    SubDatasetSpec,
    build_subdataset,
    generate_traces,
    load_dataset,
    normalize_windows,
    save_dataset,
    subdataset_cache_config,
)
from .splits import random_split, trace_level_split
from .windowing import WindowedDataset, flatten_for_trees, window_trace, window_traces

__all__ = [
    "ALL_SUBDATASETS",
    "DATASET_SCHEMA",
    "MLDataset",
    "SubDatasetSpec",
    "TraceCache",
    "WindowedDataset",
    "build_subdataset",
    "cache_key",
    "flatten_for_trees",
    "load_dataset",
    "load_trace_set",
    "save_dataset",
    "save_trace_set",
    "generate_traces",
    "normalize_windows",
    "random_split",
    "subdataset_cache_config",
    "trace_level_split",
    "window_trace",
    "window_traces",
]

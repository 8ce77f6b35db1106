"""Evaluation harness: trains predictors on a sub-dataset, reports RMSE.

Single entry point behind Table 4 (main comparison), Table 13
(ablation) and Table 14 (generalizability).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .. import obs
from ..data.datasets import MLDataset
from ..data.splits import random_split, trace_level_split
from ..data.windowing import WindowedDataset
from ..nn.losses import rmse
from .predictors import (
    TABLE4_LINEUP,
    DeepConfig,
    Predictor,
    create_predictor,
    registered_predictors,
)


@dataclass
class EvaluationResult:
    """RMSE per predictor on one dataset, plus the improvement metric."""

    dataset_name: str
    rmse: Dict[str, float] = field(default_factory=dict)
    predictions: Dict[str, np.ndarray] = field(default_factory=dict)

    def improvement_over_best_baseline(self, ours: str = "Prism5G") -> float:
        """Paper's Improv.%: RMSE reduction vs the best non-Prism baseline."""
        baselines = {k: v for k, v in self.rmse.items() if not k.startswith(ours)}
        if ours not in self.rmse or not baselines:
            raise ValueError("need Prism5G and at least one baseline")
        best = min(baselines.values())
        return (best - self.rmse[ours]) / best * 100.0


def make_default_predictors(
    config: Optional[DeepConfig] = None, include: Optional[Sequence[str]] = None
) -> Dict[str, Predictor]:
    """Instantiate the Table 4 predictor line-up from the registry.

    ``include`` selects a subset by name — any registered name works,
    including the Table 13 ablations.  Unknown names raise
    ``ValueError`` listing the registered predictors.
    """
    config = config or DeepConfig()
    names = TABLE4_LINEUP if include is None else tuple(include)
    unknown = sorted(set(names) - set(registered_predictors()))
    if unknown:
        raise ValueError(
            f"unknown predictor(s) {unknown}; registered predictors: {registered_predictors()}"
        )
    return {name: create_predictor(name, config) for name in names}


def evaluate_predictors(
    dataset: MLDataset,
    predictors: Dict[str, Predictor],
    split: str = "random",
    seed: int = 0,
    keep_predictions: bool = False,
    dataset_name: str = "",
) -> EvaluationResult:
    """Split, fit every predictor, and report test RMSE.

    ``split`` is ``"random"`` (Table 4 protocol) or ``"trace"``
    (Table 14 generalizability protocol).
    """
    splitter = random_split if split == "random" else trace_level_split
    train, val, test = splitter(dataset.windows, 0.5, 0.2, 0.3, seed=seed)
    result = EvaluationResult(dataset_name=dataset_name or (dataset.spec.name if dataset.spec else ""))
    for name, predictor in predictors.items():
        predictor.fit(train, val)
        pred = predictor.predict(test)
        result.rmse[name] = rmse(pred, test.y)
        if obs.metrics_enabled():
            obs.counter("evaluate.predictors")
            obs.gauge(f"evaluate.rmse.{name}", result.rmse[name])
        if keep_predictions:
            result.predictions[name] = pred
    obs.write_manifest(
        kind="evaluation",
        config={
            "dataset": result.dataset_name,
            "split": split,
            "predictors": sorted(predictors),
            "n_train": len(train),
            "n_val": len(val),
            "n_test": len(test),
        },
        seed=seed,
        extra={"rmse": result.rmse},
    )
    return result


def evaluate_on_new_traces(
    predictors: Dict[str, Predictor],
    train_dataset: MLDataset,
    new_windows: WindowedDataset,
    seed: int = 0,
) -> Dict[str, float]:
    """Fit on one dataset, test on windows from entirely new routes.

    The new windows must already be normalized with the training
    dataset's scalers (Table 14, row 2).
    """
    train, val, _ = random_split(train_dataset.windows, 0.5, 0.2, 0.3, seed=seed)
    out: Dict[str, float] = {}
    for name, predictor in predictors.items():
        predictor.fit(train, val)
        pred = predictor.predict(new_windows)
        out[name] = rmse(pred, new_windows.y)
    return out

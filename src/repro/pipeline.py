"""repro.pipeline — config-driven, resumable experiment pipeline.

One typed, JSON-serializable :class:`ExperimentConfig` is the single
source of truth for an end-to-end paper run: the Table 11 sub-dataset
spec its traces come from (``seed`` seeds their synthesis), the
windowing parameters, the :class:`~repro.core.predictors.DeepConfig`
(``deep.seed`` seeds the weights, the batch order and the 0.5/0.2/0.3
split), the split protocol, and the predictor line-up (resolved through
the predictor registry).  It is the only route from a config to its
RMSEs: the paper's prediction benches, ``repro5g run`` and the
benchmark's ``table4`` workload all call :func:`run_experiment`.  Its
canonical content hash — computed with
:func:`repro.runtime.canonical_hash`, the same recipe the trace cache
uses — identifies the run everywhere:

* the run directory is ``<out_dir>/<name>-<hash>``;
* its artifacts count only while the directory's ``experiment.json``
  is this config, written under ``EXPERIMENT_SCHEMA``, and
  ``result.json`` embeds the hash;
* the run's record, ``run.json`` (:func:`repro.obs.write_record`),
  carries it beside every stage's status, time and peak RSS, each
  fitted predictor's fit seconds, the RMSEs and, under ``--obs
  metrics``, the counters this run added.

Process-wide switches that never change a result (``--sanitize``; see
:mod:`repro.runtime`) stay out of the config, so arming them neither
moves the run directory nor is undone by it.

The run is composed of four :class:`Stage` objects::

    Synthesize -> BuildDataset -> Train -> Evaluate

Each stage persists a typed artifact (traces via
:mod:`repro.data.cache`, the windowed dataset as ``.npz``, model
checkpoints via :mod:`repro.nn.serialization` with a versioned
metadata header, metrics as JSON), written whole or not at all by
:func:`repro.runtime.write_atomic`, so the artifact is its own
completion record.  A re-run of the same config skips every stage
whose artifact loads; a killed run resumes where it stopped — the
train stage even resumes per predictor, skipping checkpoints that were
already written — and an artifact that exists but does not load is
warned about and recomputed.

CLI entry point::

    repro5g run experiment.json            # end-to-end
    repro5g run experiment.json --force    # ignore completed stages
"""

from __future__ import annotations

import json
import math
import pickle
import re
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union, get_type_hints

from . import obs, runtime
from .core.predictors import (
    DeepConfig,
    Predictor,
    _DeepPredictor,
    create_predictor,
    registered_predictors,
)
from .data.cache import TraceCache
from .data.datasets import (
    MLDataset,
    SubDatasetSpec,
    generate_traces,
    load_dataset,
    normalize_windows,
    save_dataset,
    subdataset_cache_config,
)
from .data.splits import random_split, trace_level_split
from .data.windowing import WindowedDataset, window_traces
from .ran.traces import TraceSet

#: folded into the experiment hash and recorded in every saved config, so
#: semantic changes to the pipeline invalidate old run directories (v2:
#: the split is drawn from ``deep.seed``).
EXPERIMENT_SCHEMA = "repro-experiment-v2"

#: env override for the default run-artifact root.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

_VALID_OPERATORS = ("OpX", "OpY", "OpZ")
_VALID_MOBILITY = ("walking", "driving")
_VALID_TIMESCALES = ("short", "long")
_VALID_SPLITS = ("random", "trace")
#: counts and sizes a config must set to at least 1
_COUNT_FIELDS = ("n_traces", "samples_per_trace", "history", "horizon", "max_ccs", "stride")
_DEEP_COUNT_FIELDS = ("hidden", "batch_size", "max_epochs", "patience")


def default_runs_dir() -> Path:
    import os

    return Path(os.environ.get(RUNS_DIR_ENV) or "runs")


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_").lower() or "x"


#: what a config field of each annotated type accepts, and how an error
#: names it.  ``bool`` is an ``int`` subclass, so numbers refuse it.
_FIELD_TYPES: Dict[object, Tuple[str, Callable[[object], bool]]] = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    Tuple[str, ...]: (
        "a list of strings",
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(item, str) for item in v),
    ),
    DeepConfig: ("an object", lambda v: isinstance(v, (dict, DeepConfig))),
}


def _check_fields(prefix: str, cls: Type[Any], given: Mapping[str, object]) -> None:
    """Check a config mapping against the fields of dataclass ``cls``.

    An unknown key or a value of the wrong type fails at load with a
    ``ValueError`` naming the dotted field (``prefix`` is ``""`` at the
    top level, ``"deep."`` inside ``deep``), what it expects and what
    was given.
    """
    hints = get_type_hints(cls)
    valid = sorted(f.name for f in fields(cls))
    unknown = sorted(set(given) - set(valid))
    if unknown:
        section = prefix.rstrip(".") or "experiment"
        raise ValueError(f"unknown {section} config key(s) {unknown}; valid keys: {valid}")
    for name, value in given.items():
        expected, accepts = _FIELD_TYPES[hints[name]]
        if not accepts(value):
            raise ValueError(f"{prefix}{name} must be {expected}, got {value!r}")


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one end-to-end run.

    JSON round-trips exactly (:meth:`to_dict` / :meth:`from_dict`), and
    :meth:`hash` is a stable canonical content hash — two configs with
    the same values hash identically regardless of construction order.
    :meth:`to_json` (what :meth:`save` writes) also records
    ``EXPERIMENT_SCHEMA`` under ``"schema"``; loading accepts that key
    only when it names the current schema.
    """

    name: str = "experiment"
    operator: str = "OpZ"
    mobility: str = "driving"
    timescale: str = "long"
    n_traces: int = 5
    samples_per_trace: int = 200
    # windowing
    history: int = 10
    horizon: int = 10
    max_ccs: int = 4
    stride: int = 1
    # protocol
    predictors: Tuple[str, ...] = ("Prophet", "LSTM", "Prism5G")
    split: str = "random"
    seed: int = 0
    deep: DeepConfig = field(default_factory=DeepConfig)

    def __post_init__(self) -> None:
        _check_fields("", ExperimentConfig, {f.name: getattr(self, f.name) for f in fields(self)})
        if isinstance(self.deep, dict):
            _check_fields("deep.", DeepConfig, self.deep)
            self.deep = DeepConfig(**self.deep)
        self.predictors = tuple(self.predictors)
        if self.operator not in _VALID_OPERATORS:
            raise ValueError(f"operator must be one of {_VALID_OPERATORS}, got {self.operator!r}")
        if self.mobility not in _VALID_MOBILITY:
            raise ValueError(f"mobility must be one of {_VALID_MOBILITY}, got {self.mobility!r}")
        if self.timescale not in _VALID_TIMESCALES:
            raise ValueError(
                f"timescale must be one of {_VALID_TIMESCALES}, got {self.timescale!r}"
            )
        if self.split not in _VALID_SPLITS:
            raise ValueError(f"split must be one of {_VALID_SPLITS}, got {self.split!r}")
        counts = {name: getattr(self, name) for name in _COUNT_FIELDS}
        counts.update({f"deep.{name}": getattr(self.deep, name) for name in _DEEP_COUNT_FIELDS})
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        # numpy seeds must be non-negative
        for name, value in (("seed", self.seed), ("deep.seed", self.deep.seed)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if not self.deep.lr > 0:
            raise ValueError(f"deep.lr must be > 0, got {self.deep.lr!r}")
        if self.samples_per_trace < self.history + self.horizon:
            # window_trace yields no window from a trace this short
            raise ValueError(
                f"samples_per_trace must be >= history + horizon ({self.history + self.horizon}), "
                f"got {self.samples_per_trace}"
            )
        if not self.predictors:
            raise ValueError("predictors must name at least one registered predictor")
        unknown = sorted(set(self.predictors) - set(registered_predictors()))
        if unknown:
            raise ValueError(
                f"unknown predictor(s) {unknown}; registered predictors: {registered_predictors()}"
            )

    # ------------------------------------------------------------------
    @property
    def spec(self) -> SubDatasetSpec:
        return SubDatasetSpec(self.operator, self.mobility, self.timescale)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        data = asdict(self)
        data["predictors"] = list(self.predictors)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentConfig":
        data = dict(data)
        schema = data.pop("schema", EXPERIMENT_SCHEMA)
        if schema != EXPERIMENT_SCHEMA:
            raise ValueError(f"config was written under schema {schema!r}; this version reads {EXPERIMENT_SCHEMA!r}")
        _check_fields("", cls, data)
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps({"schema": EXPERIMENT_SCHEMA, **self.to_dict()}, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("experiment config must be a JSON object")
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        return runtime.write_atomic(path, self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def hash(self) -> str:
        """Canonical content hash identifying this run everywhere."""
        return runtime.canonical_hash(self.to_dict(), schema=EXPERIMENT_SCHEMA)


# ---------------------------------------------------------------------------
# pipeline context + stages


@dataclass
class StageStatus:
    """Outcome of one stage execution."""

    stage: str
    status: str  #: "completed" or "skipped" (its artifact loaded)
    artifact: Optional[str] = None
    duration_s: float = 0.0
    detail: Optional[Dict] = None  #: what ``run`` reports; None when skipped
    peak_rss_mb: float = 0.0  #: the process's high-water mark at the stage's end


class PipelineContext:
    """Mutable state threaded through the stages of one run.

    ``force`` makes every stage run without looking at its artifact:
    ``--force``, or a run directory that held another config.
    """

    def __init__(self, config: ExperimentConfig, run_dir: Path, force: bool = False) -> None:
        self.config = config
        self.run_dir = Path(run_dir)
        self.force = force
        self.hash = config.hash()
        self.traces: Optional[TraceSet] = None
        self.dataset: Optional[MLDataset] = None
        self.predictors: Dict[str, Predictor] = {}
        self.rmse: Optional[Dict[str, float]] = None
        self._splits: Optional[Tuple[WindowedDataset, ...]] = None

    # ------------------------------------------------------------------
    @property
    def trace_cache(self) -> TraceCache:
        return TraceCache(self.run_dir / "traces")

    @property
    def synth_config(self) -> Dict:
        config = self.config
        return subdataset_cache_config(
            config.spec, config.n_traces, config.samples_per_trace, config.seed
        )

    def splits(self) -> Tuple[WindowedDataset, WindowedDataset, WindowedDataset]:
        """The (train, val, test) split — deterministic in ``deep.seed``.

        The split is drawn with the training seed, not the synthesis
        seed, so one trace set can be split as every paper bench splits
        it.  Cached per context; recomputed identically across processes
        and across resumed runs, which is what lets the train and
        evaluate stages agree on the protocol without persisting index
        arrays.
        """
        if self.dataset is None:
            raise RuntimeError("dataset not built yet")
        if self._splits is None:
            splitter = random_split if self.config.split == "random" else trace_level_split
            self._splits = splitter(self.dataset.windows, 0.5, 0.2, 0.3, seed=self.config.deep.seed)
        return self._splits


class Stage:
    """One resumable pipeline step persisting a typed artifact.

    ``execute`` is template code: skip when ``load`` restores the
    artifact, otherwise run.  Artifacts are written atomically, so one
    that exists is complete, and a run killed mid-stage re-runs that
    stage, and only that stage, on resume.
    """

    name = "stage"

    def artifact(self, ctx: PipelineContext) -> Path:
        raise NotImplementedError

    def outputs(self, ctx: PipelineContext) -> List[Path]:
        """The files ``load`` reads, deleted before this run claims another config's directory."""
        return [self.artifact(ctx)]

    def load(self, ctx: PipelineContext) -> bool:
        """Populate ``ctx`` from the persisted artifact; False when it is absent or does not load."""
        raise NotImplementedError

    def run(self, ctx: PipelineContext) -> Optional[Dict]:
        """Do the work, persist the artifact; returns the status detail."""
        raise NotImplementedError

    def execute(self, ctx: PipelineContext) -> StageStatus:
        start = time.perf_counter()
        skipped = not ctx.force and self.load(ctx)
        detail = None if skipped else self.run(ctx)
        return StageStatus(
            stage=self.name,
            status="skipped" if skipped else "completed",
            artifact=str(self.artifact(ctx)),
            duration_s=time.perf_counter() - start,
            detail=detail,
            peak_rss_mb=obs.peak_rss_mb(),
        )


class SynthesizeStage(Stage):
    """Synthesize the raw trace set into the run's trace cache."""

    name = "synthesize"

    def artifact(self, ctx: PipelineContext) -> Path:
        return ctx.trace_cache.path_for(ctx.synth_config)

    def outputs(self, ctx: PipelineContext) -> List[Path]:
        return []  # content-addressed: never another config's

    def load(self, ctx: PipelineContext) -> bool:
        # the cache warns about and drops a corrupt entry itself; a miss
        # is left for ``run`` to count, once
        if not ctx.trace_cache.contains(ctx.synth_config):
            return False
        ctx.traces = ctx.trace_cache.get(ctx.synth_config)
        return ctx.traces is not None

    def run(self, ctx: PipelineContext) -> Optional[Dict]:
        config = ctx.config
        ctx.traces = generate_traces(
            config.spec,
            n_traces=config.n_traces,
            samples_per_trace=config.samples_per_trace,
            seed=config.seed,
            cache=ctx.trace_cache,
        )
        return {
            "n_traces": len(list(ctx.traces)),
            "cache_key": ctx.trace_cache.path_for(ctx.synth_config).name,
        }


class BuildDatasetStage(Stage):
    """Window + normalize the traces into the training dataset artifact."""

    name = "build_dataset"

    def artifact(self, ctx: PipelineContext) -> Path:
        return ctx.run_dir / "dataset.npz"

    def load(self, ctx: PipelineContext) -> bool:
        ctx.dataset = runtime.read_artifact(self.artifact(ctx), load_dataset, stage=self.name)
        return ctx.dataset is not None

    def run(self, ctx: PipelineContext) -> Optional[Dict]:
        if ctx.traces is None:
            raise RuntimeError("synthesize stage must run before build_dataset")
        config = ctx.config
        windows = window_traces(
            list(ctx.traces), config.history, config.horizon, config.max_ccs, config.stride
        )
        dataset = normalize_windows(windows)
        dataset.spec = config.spec
        ctx.dataset = dataset
        save_dataset(dataset, self.artifact(ctx))
        return {"n_windows": len(windows), "n_ccs": int(windows.n_ccs)}


class TrainStage(Stage):
    """Fit every configured predictor; persist checkpoints as they finish.

    Deep predictors are checkpointed through
    :mod:`repro.nn.serialization` (versioned metadata header); the
    classical/statistical ones are pickled.  Each predictor's artifact
    is written immediately after its fit, so a killed run resumes with
    only the unfitted predictors left to train: ``load`` restores every
    checkpoint that loads, and ``run`` fits the rest.
    """

    name = "train"

    def artifact(self, ctx: PipelineContext) -> Path:
        return ctx.run_dir / "checkpoints"

    def checkpoint_path(self, ctx: PipelineContext, name: str) -> Path:
        predictor = ctx.predictors.get(name) or create_predictor(name, ctx.config.deep)
        suffix = ".npz" if isinstance(predictor, _DeepPredictor) else ".pkl"
        return ctx.run_dir / "checkpoints" / f"{_slug(name)}{suffix}"

    def outputs(self, ctx: PipelineContext) -> List[Path]:
        return [self.checkpoint_path(ctx, name) for name in ctx.config.predictors]

    def _restore(self, ctx: PipelineContext, name: str, path: Path) -> Predictor:
        predictor = create_predictor(name, ctx.config.deep)
        if isinstance(predictor, _DeepPredictor):
            predictor.load_checkpoint(path)
        else:
            with path.open("rb") as handle:
                predictor = pickle.load(handle)
        return predictor

    def load(self, ctx: PipelineContext) -> bool:
        for name in ctx.config.predictors:
            restored = runtime.read_artifact(
                self.checkpoint_path(ctx, name),
                lambda path, name=name: self._restore(ctx, name, path),
                stage=self.name,
            )
            if restored is not None:
                ctx.predictors[name] = restored
        return all(name in ctx.predictors for name in ctx.config.predictors)

    def run(self, ctx: PipelineContext) -> Optional[Dict]:
        if ctx.dataset is None:
            raise RuntimeError("build_dataset stage must run before train")
        train, val, _ = ctx.splits()
        detail: Dict[str, Dict] = {}
        for name in ctx.config.predictors:
            if name in ctx.predictors:
                # resume-after-kill: load restored this predictor
                detail[name] = {"status": "resumed"}
                continue
            path = self.checkpoint_path(ctx, name)
            predictor = create_predictor(name, ctx.config.deep)
            start = time.perf_counter()
            predictor.fit(train, val)
            info: Dict = {"status": "fitted", "fit_s": time.perf_counter() - start}
            if isinstance(predictor, _DeepPredictor):
                predictor.save_checkpoint(path)
                history = predictor.trainer.history if predictor.trainer else None
                if history is not None:
                    info["best_epoch"] = history.best_epoch
                    info["best_val_loss"] = history.best_val_loss
                    info["epochs_run"] = history.epochs_run
            else:
                runtime.write_atomic(path, pickle.dumps(predictor))
            ctx.predictors[name] = predictor
            detail[name] = info
        return detail


class EvaluateStage(Stage):
    """Score every fitted predictor on the held-out test split."""

    name = "evaluate"

    def artifact(self, ctx: PipelineContext) -> Path:
        return ctx.run_dir / "result.json"

    def load(self, ctx: PipelineContext) -> bool:
        ctx.rmse = runtime.read_artifact(
            self.artifact(ctx), lambda path: _read_rmse(path, ctx.config.predictors), stage=self.name
        )
        return ctx.rmse is not None

    def run(self, ctx: PipelineContext) -> Optional[Dict]:
        if ctx.dataset is None or not ctx.predictors:
            raise RuntimeError("train stage must run before evaluate")
        config = ctx.config
        train, val, test = ctx.splits()
        # Predictor.evaluate is the one definition of the paper metric
        # (RMSE over the full horizon, nn.losses.rmse)
        rmse = {name: ctx.predictors[name].evaluate(test) for name in config.predictors}
        broken = [name for name, value in rmse.items() if not math.isfinite(value)]
        if broken:
            raise RuntimeError(f"non-finite test RMSE from {', '.join(broken)}: {rmse}")
        ctx.rmse = rmse
        payload = {
            "experiment": config.name,
            "experiment_hash": ctx.hash,
            "dataset": config.spec.name,
            "split": config.split,
            "seed": config.seed,
            "n_train": len(train),
            "n_val": len(val),
            "n_test": len(test),
            "rmse": rmse,
        }
        improvement = improvement_over_best_baseline(rmse)
        if improvement is not None:
            payload["improvement_pct"] = improvement
        runtime.write_atomic(self.artifact(ctx), _json_text(payload))
        return {"rmse": rmse}


def improvement_over_best_baseline(rmse: Mapping[str, float], ours: str = "Prism5G") -> Optional[float]:
    """The paper's Improv.%: ``ours``'s RMSE reduction vs the best baseline.

    Baselines are the predictors that are not a variant of ``ours``
    (their names do not start with it).  None when ``ours`` or every
    baseline is missing from ``rmse``: a line-up of Prism5G variants
    has no improvement figure.
    """
    baselines = [value for name, value in rmse.items() if not name.startswith(ours)]
    if ours not in rmse or not baselines:
        return None
    best = min(baselines)
    return (best - rmse[ours]) / best * 100.0


def _read_rmse(path: Path, names: Sequence[str]) -> Dict[str, float]:
    """``result.json``'s RMSEs in line-up order (the file sorts its keys)."""
    rmse = json.loads(path.read_text(encoding="utf-8"))["rmse"]
    return {name: rmse[name] for name in names}


def _json_text(payload: Dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


#: the canonical stage order of an end-to-end run.
DEFAULT_STAGES: Tuple[Stage, ...] = (
    SynthesizeStage(),
    BuildDatasetStage(),
    TrainStage(),
    EvaluateStage(),
)


@dataclass
class ExperimentResult:
    """Everything `run_experiment` hands back.

    ``rmse`` and ``predictors`` iterate in ``config.predictors`` order
    however the run was reached: fresh, resumed or skipped.  The
    predictors are the fitted or restored ones ``rmse`` scored on
    ``test``, so a caller scores them on other windows (scaled with
    ``dataset.scale``) without refitting.
    """

    config: ExperimentConfig
    hash: str
    run_dir: Path
    stages: List[StageStatus]
    rmse: Dict[str, float]
    dataset: MLDataset
    predictors: Dict[str, Predictor]
    test: WindowedDataset  #: the held-out split ``rmse`` was scored on

    @property
    def all_skipped(self) -> bool:
        """True when every stage was a cache hit (nothing recomputed)."""
        return all(stage.status == "skipped" for stage in self.stages)


def run_dir_for(config: ExperimentConfig, out_dir: Union[str, Path, None] = None) -> Path:
    """The run directory for a config: ``<out_dir>/<name>-<hash>``."""
    return Path(out_dir) if out_dir is not None else default_runs_dir() / f"{_slug(config.name)}-{config.hash()}"


def _holds(run_dir: Path, experiment_hash: str) -> bool:
    """Whether ``run_dir``'s ``experiment.json`` is the config hashing to ``experiment_hash``.

    The file must record the current ``EXPERIMENT_SCHEMA``: one written
    by an older pipeline (no ``"schema"`` key) does not hold the run,
    because its checkpoints were fit on that pipeline's split.
    """
    try:
        data = json.loads((run_dir / "experiment.json").read_text(encoding="utf-8"))
        return (
            isinstance(data, dict)
            and data.get("schema") == EXPERIMENT_SCHEMA
            and ExperimentConfig.from_dict(data).hash() == experiment_hash
        )
    except (OSError, ValueError):
        return False


def run_experiment(
    config: ExperimentConfig,
    out_dir: Union[str, Path, None] = None,
    force: bool = False,
) -> ExperimentResult:
    """Execute (or resume) an experiment end to end.

    ``force=True`` re-runs every stage even when artifacts exist; so
    does a directory whose ``experiment.json`` is another config or an
    older schema's, whose files this run would read are deleted before
    it claims the directory, so a resume after a kill never mixes the
    two.  The run ends by writing its record, ``<run_dir>/run.json``.
    """
    since, rss_at_start = obs.snapshot(), obs.peak_rss_mb()
    run_dir = run_dir_for(config, out_dir)
    experiment_hash = config.hash()
    held = _holds(run_dir, experiment_hash)
    ctx = PipelineContext(config, run_dir, force=force or not held)
    if not held:
        for stage in DEFAULT_STAGES:
            for path in stage.outputs(ctx):
                path.unlink(missing_ok=True)
    config.save(run_dir / "experiment.json")
    statuses = [stage.execute(ctx) for stage in DEFAULT_STAGES]
    if ctx.dataset is None or ctx.rmse is None:
        raise RuntimeError("the evaluate stage did not run")
    rmse = ctx.rmse
    fields = {
        "experiment": config.name,
        "run_dir": str(run_dir),
        "stages": [asdict(status) for status in statuses],
        "rmse": rmse,
    }
    obs.write_record(run_dir, "experiment", experiment_hash, since, fields, rss_at_start)
    return ExperimentResult(
        config=config,
        hash=experiment_hash,
        run_dir=run_dir,
        stages=statuses,
        rmse=rmse,
        dataset=ctx.dataset,
        # line-up order: a resumed train stage restored some before fitting the rest
        predictors={name: ctx.predictors[name] for name in config.predictors},
        test=ctx.splits()[2],
    )

"""In-memory span tracer that times each layer from outside.

Only the traced run uses this module.  :func:`install` wraps the public
calls into every layer -- class methods, the module-level
``repro.ran.campaign.build_city_deployment``, and each primitive on the
backend object that ``repro.backends.active()`` returns -- so nothing
inside ``src/repro`` is instrumented.  Spans (name, start, end, parent,
op) stay in memory; :func:`layer_tree` folds them into a tree whose every
node reports its busy time and ``unattributed_s`` (its duration minus
what its child spans cover), and :func:`layer_metrics` derives the
per-layer metrics, a superset of those ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

#: per-layer metrics the workload measures itself rather than from spans.
WORKLOAD_MEASURED = (
    "pipeline.synthesize_s",
    "pipeline.build_dataset_s",
    "pipeline.train_s",
    "pipeline.evaluate_s",
    "ran.campaign.state_bytes",
    "apps.chunks",
    "parallel.retries",
    "data.cache_corrupt",
)

_MERGE_SPANS = ("ran.campaign.merge.from_dict", "ran.campaign.merge.merge", "ran.campaign.merge.finalize")


class Tracer:
    """Spans as ``[name, start_ns, end_ns, parent, op]`` rows, plus counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: the round every new span belongs to
        self.op: Optional[int] = None
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs: records nothing."""

    op: Optional[int] = None

    @contextmanager
    def span(self, name: str):
        yield


def dir_bytes(path: Path) -> int:
    """Total size of the files under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _nbytes(value) -> int:
    """Bytes of the arrays in a primitive's arguments or result."""
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(item) for item in value)
    if isinstance(value, dict):
        return sum(_nbytes(item) for item in value.values())
    return 0


def _timed(tracer: Tracer, name: Union[str, Callable], fn: Callable, after: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped in a span; ``after(args, result)`` runs outside it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every traced public call, for the rest of the process."""
    from repro import backends, pipeline
    from repro.apps.abr import MPCPlayer
    from repro.core.predictors import LSTMPredictor, Prism5GPredictor
    from repro.data.cache import TraceCache
    from repro.nn.optim import Adam
    from repro.nn.training import Trainer
    from repro.ran import campaign
    from repro.ran.ca import CAManager
    from repro.ran.multi_ue import MultiUESimulator
    from repro.ran.simulator import TraceSimulator

    counts = tracer.counts

    def count(key: str, amount: Callable) -> Callable:
        def after(args, result) -> None:
            counts[key] += amount(args, result)

        return after

    accumulator = campaign.CAStatisticsAccumulator
    methods = [
        (pipeline.Stage, "execute", lambda args: f"pipeline.{args[0].name}", None),
        (TraceSimulator, "run", "ran.sim_run", count("ran.ue_steps", lambda args, trace: len(trace.records))),
        (MultiUESimulator, "step_all", "ran.multi.step_all", count("ran.ue_steps", lambda args, recs: len(recs))),
        (CAManager, "step", "ran.ca_step", None),
        (campaign.ShardPlan, "build", "ran.campaign.plan", None),
        (accumulator, "update_record", "ran.campaign.accumulate", None),
        (accumulator, "from_dict", _MERGE_SPANS[0], None),
        (accumulator, "merge", _MERGE_SPANS[1], None),
        (accumulator, "finalize", _MERGE_SPANS[2], None),
        (TraceCache, "put", "data.cache_put", count("data.cache_put_bytes", lambda args, entry: dir_bytes(entry))),
        (LSTMPredictor, "fit", "core.lstm.fit", None),
        (LSTMPredictor, "predict", "core.lstm.predict", None),
        (Prism5GPredictor, "fit", "core.prism5g.fit", None),
        (Prism5GPredictor, "predict", "core.prism5g.predict", None),
        (Trainer, "fit", "nn.fit", count("nn.epochs", lambda args, history: history.epochs_run)),
        (Trainer, "predict", "nn.predict", None),
        (Adam, "step", "nn.optimizer", None),
        (MPCPlayer, "run", "apps.mpc.session", None),
    ]
    for cls, attr, name, after in methods:
        own = cls.__dict__.get(attr)
        if isinstance(own, classmethod):
            setattr(cls, attr, classmethod(_timed(tracer, name, own.__func__, after)))
        else:
            setattr(cls, attr, _timed(tracer, name, getattr(cls, attr), after))

    campaign.build_city_deployment = _timed(tracer, "ran.deployment", campaign.build_city_deployment)

    backend = backends.active()
    for primitive in backends.PRIMITIVES:
        moved = count(f"backends.{primitive}.bytes", lambda args, result: _nbytes(args) + _nbytes(result))
        setattr(backend, primitive, _timed(tracer, f"backends.{primitive}", getattr(backend, primitive), moved))


def _duration(row: list) -> int:
    return row[2] - row[1]


def _children(spans: List[list]) -> List[List[int]]:
    children: List[List[int]] = [[] for _ in spans]
    for index, row in enumerate(spans):
        if row[3] >= 0:
            children[row[3]].append(index)
    return children


def layer_tree(spans: List[list]) -> List[Dict]:
    """Spans folded by name path into ``{name, calls, busy_s, unattributed_s, children}``.

    Spans nest strictly (one thread, each closed before its parent), so a
    node's children never cover more than the node and ``unattributed_s``
    is never negative; integer nanoseconds keep that exact.
    """
    children = _children(spans)
    nodes: Dict[tuple, Dict] = {}
    roots: List[Dict] = []
    paths: List[tuple] = []
    for index, row in enumerate(spans):
        parent = row[3]
        path = (paths[parent] if parent >= 0 else ()) + (row[0],)
        paths.append(path)
        node = nodes.get(path)
        if node is None:
            node = nodes[path] = {"name": row[0], "calls": 0, "busy_ns": 0, "self_ns": 0, "children": []}
            (nodes[path[:-1]]["children"] if parent >= 0 else roots).append(node)
        duration = _duration(row)
        node["calls"] += 1
        node["busy_ns"] += duration
        node["self_ns"] += duration - sum(_duration(spans[child]) for child in children[index])

    def finish(node: Dict) -> Dict:
        return {
            "name": node["name"],
            "calls": node["calls"],
            "busy_s": node["busy_ns"] / 1e9,
            "unattributed_s": node["self_ns"] / 1e9,
            "children": [finish(child) for child in node["children"]],
        }

    return [finish(root) for root in roots]


def _busy_ns(spans: List[list]) -> Counter:
    """Busy time per span name, skipping spans nested in one of their own name."""
    busy: Counter = Counter()
    for row in spans:
        parent = row[3]
        while parent >= 0 and spans[parent][0] != row[0]:
            parent = spans[parent][3]
        if parent < 0:
            busy[row[0]] += _duration(row)
    return busy


def _self_s(spans: List[list], children: List[List[int]], names: Iterable[str], excluded: Callable) -> float:
    """Busy time of the spans named ``names`` minus what their excluded descendants cover."""
    wanted = set(names)
    total = 0
    for index, row in enumerate(spans):
        if row[0] not in wanted:
            continue
        covered = 0
        pending = list(children[index])
        while pending:
            child = pending.pop()
            if excluded(spans[child][0]):
                covered += _duration(spans[child])
            elif spans[child][0] not in wanted:
                pending.extend(children[child])
        total += _duration(row) - covered
    return total / 1e9


def layer_metrics(tracer: Tracer, extras: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric except ``obs.trace_overhead``, for every backend primitive.

    ``extras`` carries the :data:`WORKLOAD_MEASURED` values plus
    ``ran.campaign.groups``, the (operator, rat, scenario) groups summed
    over the campaigns run: the fewest deployment builds they need.
    """
    from repro import backends

    spans = tracer.spans
    counts = tracer.counts
    calls = Counter(row[0] for row in spans)
    busy = {name: ns / 1e9 for name, ns in _busy_ns(spans).items()}
    children = _children(spans)
    groups = extras.get("ran.campaign.groups", 0)
    metrics: Dict[str, float] = {name: extras.get(name, 0) for name in WORKLOAD_MEASURED}
    metrics.update(
        {
            "ran.sim_run.calls": calls["ran.sim_run"],
            "ran.sim_run.busy_s": busy.get("ran.sim_run", 0),
            "ran.ue_steps": counts["ran.ue_steps"],
            "ran.multi.step_all_s": busy.get("ran.multi.step_all", 0),
            "ran.multi.self_s": _self_s(
                spans, children, ["ran.multi.step_all"],
                lambda name: name in ("backends.radio_step_multi", "ran.ca_step"),
            ),
            "ran.ca_step.calls": calls["ran.ca_step"],
            "ran.ca_step.busy_s": busy.get("ran.ca_step", 0),
            "ran.campaign.plan_s": busy.get("ran.campaign.plan", 0),
            "ran.deployment.calls": calls["ran.deployment"],
            "ran.deployment.busy_s": busy.get("ran.deployment", 0),
            "ran.deployment.builds_per_group": calls["ran.deployment"] / groups if groups else 0,
            "ran.campaign.accumulate_s": busy.get("ran.campaign.accumulate", 0),
            "ran.campaign.merge_s": sum(busy.get(name, 0) for name in _MERGE_SPANS),
            "data.cache_put_s": busy.get("data.cache_put", 0),
            "data.cache_put_bytes": counts["data.cache_put_bytes"],
            "core.lstm.fit_s": busy.get("core.lstm.fit", 0),
            "core.prism5g.fit_s": busy.get("core.prism5g.fit", 0),
            "core.prism5g.predict_s": busy.get("core.prism5g.predict", 0),
            "core.prism5g.predict_calls": calls["core.prism5g.predict"],
            "nn.epochs": counts["nn.epochs"],
            "nn.optimizer_s": busy.get("nn.optimizer", 0),
            "nn.self_s": _self_s(
                spans, children, ["nn.fit", "nn.predict"],
                lambda name: name == "nn.optimizer" or name.startswith("backends."),
            ),
            "apps.mpc.session_s": busy.get("apps.mpc.session", 0),
            "apps.mpc.self_s": _self_s(spans, children, ["apps.mpc.session"], lambda name: name == "apps.forecast"),
        }
    )
    for primitive in backends.PRIMITIVES:
        span_name = f"backends.{primitive}"
        metrics[f"{span_name}.calls"] = calls[span_name]
        metrics[f"{span_name}.busy_s"] = busy.get(span_name, 0)
        metrics[f"{span_name}.bytes"] = counts[f"{span_name}.bytes"]
    return {name: float(value) for name, value in metrics.items()}

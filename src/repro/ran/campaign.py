"""Measurement-campaign orchestration and CA deployment statistics.

Replays the paper's campaign structure (Table 1): for each operator x
scenario x mobility, generate traces and summarize what a measurement
analyst would report — unique channels, CA combinations (ordered and
as unique sets, the "270/162"-style counts of Table 2), CA prevalence
(Fig 25), CC-count spatial maps (Fig 4), and peak/average throughput.

One engine, :func:`run_city_campaign`, runs every campaign: ``ues``
UEs per (operator, rat, scenario) group, each with its own deployment
(``cells=0``, the paper-scale campaign) or sharing one city deployment
per group (``cells > 0``), partitioned into shards by a
:class:`ShardPlan` (deterministic UE→shard assignment derived from the
campaign's canonical hash).  Shards run in worker processes with
shared-nothing radio state (:func:`repro.parallel.run_tasks` adds
per-shard retry/timeout), stream their records into
:class:`CAStatisticsAccumulator` objects (no shard ever materializes a
per-record list), persist a per-shard result file (written atomically,
so one that loads is a finished shard), and optionally spill their
traces into the trace cache ``<state_dir>/traces``, from which
:meth:`CityCampaignResult.load_spilled_traces` reads them back.  A
killed run resumes from its last finished shard: completed shards are
loaded from their result files and only pending shards are
re-dispatched.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from .. import obs, runtime
from ..parallel import run_tasks
from .bands import bands_for_rat
from .cells import Deployment, build_city_deployment, scenario_spacing_m
from .multi_ue import MultiUESimulator
from .operators import OPERATORS
from .simulator import TraceSimulator
from .traces import Trace, TraceRecord, TraceSet

#: folded into every city-campaign hash so semantic changes to the
#: sharded engine invalidate old shard state directories.
CITY_CAMPAIGN_SCHEMA = "repro-city-campaign-v1"

#: schema stamp of per-shard result files.  v2: the file keeps
#: first-seen order (v1 sorted its keys), and the ordered-combo counter
#: is stored as ``[combo, count]`` pairs.
SHARD_RESULT_SCHEMA = "repro-city-shard-v2"


# ---------------------------------------------------------------------------
# streaming statistics


@dataclass
class CAStatisticsAccumulator:
    """Streaming Table-2 statistics: O(1) memory in the sample count.

    ``update_record`` folds one :class:`~repro.ran.traces.TraceRecord`
    into running counters (channel set, ordered-combo counter, unique
    combo sets, CA/total sample counts, throughput sum/peak), so a
    shard can stream an arbitrarily long campaign without ever holding
    a per-record list.  Accumulators merge associatively
    (:meth:`merge`) and round-trip through JSON (:meth:`to_dict` /
    :meth:`from_dict`) for the per-shard result files.  ``ordered``
    keeps first-seen order, which decides how :meth:`CAStatistics.top_combos`
    breaks ties, so it is stored as a list of pairs that no JSON writer
    reorders.
    """

    channels: set = field(default_factory=set)
    ordered: Counter = field(default_factory=Counter)
    unique_sets: set = field(default_factory=set)
    max_ccs: int = 0
    ca_samples: int = 0
    total_samples: int = 0
    peak_tput_mbps: float = 0.0
    tput_sum_mbps: float = 0.0

    def update_record(self, rec: TraceRecord) -> None:
        self.total_samples += 1
        self.tput_sum_mbps += rec.total_tput_mbps
        if rec.total_tput_mbps > self.peak_tput_mbps:
            self.peak_tput_mbps = rec.total_tput_mbps
        active = [cc for cc in rec.ccs if cc.active]
        if not active:
            return
        for cc in active:
            self.channels.add(cc.channel_key)
        if len(active) > self.max_ccs:
            self.max_ccs = len(active)
        if len(active) >= 2:
            self.ca_samples += 1
            self.ordered[rec.combo_channels] += 1
            self.unique_sets.add(frozenset(cc.channel_key for cc in active))

    def update_trace(self, trace: Trace) -> None:
        for rec in trace.records:
            self.update_record(rec)

    def merge(self, other: "CAStatisticsAccumulator") -> "CAStatisticsAccumulator":
        """Fold ``other`` into this accumulator (in place; returns self)."""
        self.channels |= other.channels
        self.ordered.update(other.ordered)
        self.unique_sets |= other.unique_sets
        self.max_ccs = max(self.max_ccs, other.max_ccs)
        self.ca_samples += other.ca_samples
        self.total_samples += other.total_samples
        self.peak_tput_mbps = max(self.peak_tput_mbps, other.peak_tput_mbps)
        self.tput_sum_mbps += other.tput_sum_mbps
        return self

    def finalize(self, operator: str = "", rat: str = "5G") -> "CAStatistics":
        return CAStatistics(
            operator=operator,
            rat=rat,
            unique_channels=len(self.channels),
            ordered_combos=len(self.ordered),
            unique_combos=len(self.unique_sets),
            max_ccs=self.max_ccs,
            ca_prevalence=self.ca_samples / self.total_samples if self.total_samples else 0.0,
            peak_tput_mbps=self.peak_tput_mbps,
            mean_tput_mbps=self.tput_sum_mbps / self.total_samples if self.total_samples else 0.0,
            combo_counter=Counter(self.ordered),
            accumulator=self,
        )

    # -- JSON round-trip (shard result files) ---------------------------
    def to_dict(self) -> Dict:
        return {
            "channels": sorted(self.channels),
            "ordered": [[combo, count] for combo, count in self.ordered.items()],
            "unique_sets": sorted(sorted(s) for s in self.unique_sets),
            "max_ccs": self.max_ccs,
            "ca_samples": self.ca_samples,
            "total_samples": self.total_samples,
            "peak_tput_mbps": self.peak_tput_mbps,
            "tput_sum_mbps": self.tput_sum_mbps,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CAStatisticsAccumulator":
        return cls(
            channels=set(data["channels"]),
            ordered=Counter({combo: int(count) for combo, count in data["ordered"]}),
            unique_sets={frozenset(s) for s in data["unique_sets"]},
            max_ccs=int(data["max_ccs"]),
            ca_samples=int(data["ca_samples"]),
            total_samples=int(data["total_samples"]),
            peak_tput_mbps=float(data["peak_tput_mbps"]),
            tput_sum_mbps=float(data["tput_sum_mbps"]),
        )


@dataclass
class CAStatistics:
    """Aggregated CA observations over a set of traces."""

    operator: str
    rat: str
    unique_channels: int
    ordered_combos: int
    unique_combos: int
    max_ccs: int
    ca_prevalence: float  #: fraction of samples with >= 2 active CCs
    peak_tput_mbps: float
    mean_tput_mbps: float
    combo_counter: Counter = field(default_factory=Counter)
    #: the underlying streaming state, kept so statistics stay mergeable
    #: (unique-count fields cannot be combined from the summary alone).
    accumulator: Optional[CAStatisticsAccumulator] = field(default=None, repr=False)

    def top_combos(self, k: int = 5) -> List[Tuple[str, int]]:
        return self.combo_counter.most_common(k)

    def merge(self, other: "CAStatistics") -> "CAStatistics":
        """Combine two per-shard statistics into campaign-level ones.

        Requires both sides to carry their accumulators (every
        statistics object produced by this module does); unique-channel
        and unique-combo counts are recomputed from the merged sets, so
        ``a.merge(b)`` equals statistics computed over the concatenated
        traces.
        """
        if self.accumulator is None or other.accumulator is None:
            raise ValueError("CAStatistics.merge needs accumulator-backed statistics")
        merged = CAStatisticsAccumulator()
        merged.merge(self.accumulator)
        merged.merge(other.accumulator)
        return merged.finalize(self.operator, self.rat)


def analyze_traces(traces: Iterable[Trace], operator: str = "", rat: str = "5G") -> CAStatistics:
    """Compute Table-2-style statistics from traces.

    Streams every record through a :class:`CAStatisticsAccumulator`
    (count/sum/peak instead of materialized per-record lists), so
    memory is O(1) in the number of samples — the same code path shard
    workers use for city-scale aggregation.
    """
    acc = CAStatisticsAccumulator()
    for trace in traces:
        acc.update_trace(trace)
    return acc.finalize(operator, rat)


# ---------------------------------------------------------------------------
# city-scale campaign: shard plan


@dataclass(frozen=True)
class UEJob:
    """One UE's simulation assignment inside a city campaign."""

    index: int  #: global UE index in canonical (operator, rat, scenario, ue) order
    operator: str
    rat: str
    scenario: str
    seed: int  #: simulator seed, incremented along the canonical order
    route_id: int  #: per-group UE ordinal (mobility route / trace id)

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.operator, self.rat, self.scenario)


@dataclass
class CityCampaignConfig:
    """Scope of a sharded, city-scale measurement campaign.

    ``ues`` UEs per (operator, rat, scenario) group are partitioned
    into ``shards`` worker units.  With ``cells == 0`` every UE gets
    its own deployment and one :class:`~repro.ran.simulator.TraceSimulator`
    run: the paper-scale campaign, one trace per UE, whose statistics at
    ``shards=1`` equal those of the plain per-job loop bit for bit
    (``tests/oracles.py::campaign_loop``).  With ``cells > 0`` each
    group shares one city deployment sized to roughly that many cells,
    and UEs are stepped in structure-of-arrays cohorts of ``cohort``
    through :class:`~repro.ran.multi_ue.MultiUESimulator`.
    """

    operators: Tuple[str, ...] = ("OpX", "OpY", "OpZ")
    scenarios: Tuple[str, ...] = ("urban", "suburban", "highway")
    rats: Tuple[str, ...] = ("5G",)
    ues: int = 100  #: UEs per (operator, rat, scenario) group
    cells: int = 0  #: >0: shared deployment with ~this many cells per group
    shards: int = 1
    cohort: int = 32  #: UEs batched per SoA step (shared-deployment mode)
    duration_s: float = 60.0
    dt_s: float = 1.0
    modem: str = "X70"
    seed: int = 0
    spill_traces: bool = False  #: spill per-cohort traces into ``<state_dir>/traces``
    shard_timeout_s: Optional[float] = None  #: per-shard wall budget (None = unbounded)

    def __post_init__(self) -> None:
        self.operators = tuple(self.operators)
        self.scenarios = tuple(self.scenarios)
        self.rats = tuple(self.rats)
        # bad values are rejected before any state directory exists;
        # names are checked against the tables the shards read
        unknown = sorted(set(self.operators) - set(OPERATORS))
        if unknown:
            raise ValueError(f"unknown operator(s) {unknown}; choose from {sorted(OPERATORS)}")
        for scenario in self.scenarios:
            scenario_spacing_m(scenario)
        for rat in self.rats:
            bands_for_rat(rat)
        for name in ("ues", "shards", "cohort"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("cells", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("duration_s", "dt_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.shard_timeout_s is not None and not self.shard_timeout_s > 0:
            raise ValueError(f"shard_timeout_s must be > 0 or None, got {self.shard_timeout_s!r}")

    def to_dict(self) -> Dict:
        data = asdict(self)
        for key in ("operators", "scenarios", "rats"):
            data[key] = list(data[key])
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "CityCampaignConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown city campaign key(s) {unknown}; valid keys: {sorted(known)}")
        return cls(**dict(data))

    def hash(self) -> str:
        """Canonical content hash naming the campaign's shard state."""
        return runtime.canonical_hash(self.to_dict(), schema=CITY_CAMPAIGN_SCHEMA)


def city_campaign_jobs(config: CityCampaignConfig) -> List[UEJob]:
    """Every UE job in canonical order: operator > rat > scenario > UE,
    with seeds incremented from ``config.seed`` along that order."""
    jobs: List[UEJob] = []
    seed = config.seed
    index = 0
    for operator in config.operators:
        for rat in config.rats:
            for scenario in config.scenarios:
                for ue in range(config.ues):
                    seed += 1
                    jobs.append(
                        UEJob(
                            index=index,
                            operator=operator,
                            rat=rat,
                            scenario=scenario,
                            seed=seed,
                            route_id=ue,
                        )
                    )
                    index += 1
    return jobs


@dataclass
class ShardPlan:
    """Deterministic UE→shard assignment for one campaign.

    The assignment is a pure function of the campaign's canonical hash
    and each UE's global index: shard ids are derived per UE from
    ``canonical_hash({campaign, ue})``, so re-planning the same config
    always reproduces the same partition (what makes shard result
    files resumable), while different campaigns shuffle differently.
    """

    campaign_hash: str
    n_shards: int
    shards: List[List[UEJob]]

    @staticmethod
    def shard_of(campaign_hash: str, ue_index: int, n_shards: int) -> int:
        digest = runtime.canonical_hash(
            {"campaign": campaign_hash, "ue": ue_index}, schema="repro-shard-assign-v1"
        )
        return int(digest, 16) % n_shards

    @classmethod
    def build(cls, config: CityCampaignConfig) -> "ShardPlan":
        campaign_hash = config.hash()
        shards: List[List[UEJob]] = [[] for _ in range(config.shards)]
        for job in city_campaign_jobs(config):
            shards[cls.shard_of(campaign_hash, job.index, config.shards)].append(job)
        return cls(campaign_hash=campaign_hash, n_shards=config.shards, shards=shards)

    @property
    def n_ues(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def shard_id(self, index: int) -> str:
        return f"shard-{index:04d}"


# ---------------------------------------------------------------------------
# city-scale campaign: shard execution


def _shard_result_path(state_dir: Path, shard_id: str) -> Path:
    return state_dir / f"{shard_id}.json"


def _spill_path(state_dir: Path) -> Path:
    """The trace cache a spilling campaign writes, beside the shard files
    that list its entries."""
    return state_dir / "traces"


def city_shard_cache_config(campaign_hash: str, shard_id: str, cohort_index: int) -> Dict:
    """Content-hash cache key for one cohort's spilled traces."""
    return {
        "kind": "city-shard",
        "campaign_hash": campaign_hash,
        "shard": shard_id,
        "cohort": cohort_index,
    }


def _mobility_for(scenario: str) -> str:
    return {"urban": "driving", "suburban": "driving", "highway": "driving", "indoor": "indoor"}[scenario]


def _area_for(scenario: str) -> float:
    return 1_500.0 if scenario != "urban" else 1_000.0


def _build_group_deployment(config: CityCampaignConfig, operator: str, scenario: str) -> Deployment:
    """The shared city deployment for one (operator, scenario) group.

    Deterministic in the campaign seed, so shared-nothing shard workers
    rebuild byte-identical layouts without any cross-process state.
    """
    from .operators import get_operator

    profile = get_operator(operator)
    return build_city_deployment(
        profile.channel_plans(),
        scenario=scenario if scenario != "indoor" else "urban",
        target_cells=config.cells,
        seed=config.seed + 7919 * (1 + sorted(config.operators).index(operator)),
        deploy_fraction=profile.fraction_for(scenario),
    )


def _run_city_shard(payload: Dict) -> Dict:
    """Top-level shard worker (picklable for :func:`repro.parallel.run_tasks`).

    Streams every simulated record into per-group accumulators — no
    per-record list is ever materialized — optionally spilling each
    cohort's traces into ``<state_dir>/traces``, then atomically writes
    the shard's result file.  The returned dict is exactly what was
    persisted, so the parent can merge without re-reading the file.
    """
    config = CityCampaignConfig.from_dict(payload["config"])
    jobs = [UEJob(**job) for job in payload["jobs"]]
    shard_id: str = payload["shard_id"]
    state_dir = Path(payload["state_dir"])
    campaign_hash: str = payload["campaign_hash"]

    accs: Dict[Tuple[str, str, str], CAStatisticsAccumulator] = {}
    spill_keys: List[str] = []
    cohort_index = 0

    cache = None
    if config.spill_traces:
        from ..data.cache import TraceCache  # local: avoids import cycle

        cache = TraceCache(_spill_path(state_dir))

    def spill(traces: List[Trace]) -> None:
        nonlocal cohort_index
        if cache is None or not traces:
            return
        entry_config = city_shard_cache_config(campaign_hash, shard_id, cohort_index)
        cache.put(entry_config, TraceSet(traces))
        spill_keys.append(cache.path_for(entry_config).name)
        cohort_index += 1

    if config.cells <= 0:
        # per-UE semantics: every UE simulates its own deployment, one
        # TraceSimulator run per job (the paper-scale campaign)
        pending: List[Trace] = []
        for job in jobs:
            sim = TraceSimulator(
                operator=job.operator,
                scenario=job.scenario,
                mobility=_mobility_for(job.scenario),
                modem=config.modem,
                rat=job.rat,
                dt_s=config.dt_s,
                seed=job.seed,
                area_m=_area_for(job.scenario),
            )
            trace = sim.run(config.duration_s, route_id=job.route_id)
            accs.setdefault(job.key, CAStatisticsAccumulator()).update_trace(trace)
            if cache is not None:
                pending.append(trace)
                if len(pending) >= config.cohort:
                    spill(pending)
                    pending = []
        spill(pending)
    else:
        # city semantics: one shared deployment per group, UEs
        # stepped in SoA cohorts through MultiUESimulator
        groups: Dict[Tuple[str, str, str], List[UEJob]] = {}
        for job in jobs:
            groups.setdefault(job.key, []).append(job)
        for key, group_jobs in groups.items():
            operator, rat, scenario = key
            deployment = _build_group_deployment(config, operator, scenario)
            acc = accs.setdefault(key, CAStatisticsAccumulator())
            for start in range(0, len(group_jobs), config.cohort):
                cohort_jobs = group_jobs[start : start + config.cohort]
                lanes = [
                    TraceSimulator(
                        operator=job.operator,
                        scenario=job.scenario,
                        mobility=_mobility_for(job.scenario),
                        modem=config.modem,
                        rat=job.rat,
                        dt_s=config.dt_s,
                        seed=job.seed,
                        deployment=deployment,
                    )
                    for job in cohort_jobs
                ]
                msim = MultiUESimulator(lanes)
                if cache is not None:
                    traces = msim.run(
                        config.duration_s,
                        route_ids=[job.route_id for job in cohort_jobs],
                    )
                    for trace in traces:
                        acc.update_trace(trace)
                    spill(list(traces))
                else:
                    msim.run(
                        config.duration_s,
                        route_ids=[job.route_id for job in cohort_jobs],
                        keep_traces=False,
                        on_record=lambda lane, rec, acc=acc: acc.update_record(rec),
                    )

    result = {
        "schema": SHARD_RESULT_SCHEMA,
        "campaign_hash": campaign_hash,
        "shard": shard_id,
        "n_ues": len(jobs),
        "ue_indices": [job.index for job in jobs],
        "stats": {"|".join(key): acc.to_dict() for key, acc in accs.items()},
        "spill_keys": spill_keys,
    }
    runtime.write_atomic(
        _shard_result_path(state_dir, shard_id), json.dumps(result, indent=2) + "\n"
    )
    return result


def _read_json(path: Path) -> object:
    return json.loads(path.read_text(encoding="utf-8"))


def _load_shard_result(state_dir: Path, shard_id: str, campaign_hash: str) -> Optional[Dict]:
    """The shard's result file, or ``None`` when it is absent, unreadable
    (warned), another campaign's, or lists a spilled cohort whose entry
    in ``<state_dir>/traces`` is gone (warned): such a shard is not done."""
    from ..data.artifacts import MANIFEST_NAME  # local: avoids import cycle

    data = runtime.read_artifact(_shard_result_path(state_dir, shard_id), _read_json, shard=shard_id)
    if not isinstance(data, dict) or data.get("schema") != SHARD_RESULT_SCHEMA:
        return None
    if data.get("campaign_hash") != campaign_hash:
        return None
    for name in data["spill_keys"]:
        entry = _spill_path(state_dir) / name
        if not (entry / MANIFEST_NAME).exists():
            obs.log_warning("artifact.unreadable", shard=shard_id, path=str(entry), error="spilled trace entry is gone")
            return None
    return data


@dataclass
class CityCampaignResult:
    """Merged statistics plus shard bookkeeping for one city campaign."""

    config: CityCampaignConfig
    hash: str
    state_dir: Path
    stats: Dict[Tuple[str, str, str], CAStatistics]
    shards_total: int
    shards_completed: int
    shards_resumed: int
    n_ues: int
    #: UEs this invocation simulated (resumed shards excluded)
    n_simulated: int
    complete: bool
    spill_keys: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    wall_s: float = 0.0

    @property
    def ues_per_sec(self) -> float:
        """UEs simulated per wall second by this invocation."""
        return self.n_simulated / self.wall_s if self.wall_s > 0 else 0.0

    def prevalence_table(self) -> Dict[str, Dict[str, float]]:
        """operator -> scenario -> 5G CA prevalence (paper Fig 25)."""
        table: Dict[str, Dict[str, float]] = {}
        for (operator, rat, scenario), stat in self.stats.items():
            if rat == "5G":
                table.setdefault(operator, {})[scenario] = stat.ca_prevalence
        return table

    def load_spilled_traces(self) -> TraceSet:
        """Every spilled trace, in shard and UE order, read from
        ``<state_dir>/traces``.

        Raises ``ValueError`` when the campaign did not spill, and one
        naming the entry when a listed cohort does not load.
        """
        from ..data.artifacts import load_trace_set  # local: avoids import cycle

        if not self.config.spill_traces:
            raise ValueError("the campaign ran without spill_traces: no traces were spilled")
        traces: List[Trace] = []
        for name in self.spill_keys:
            entry = _spill_path(self.state_dir) / name
            try:
                traces.extend(load_trace_set(entry))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"spilled trace entry {entry} does not load: {type(exc).__name__}: {exc}") from exc
        return TraceSet(traces)


def default_campaign_state_dir(config: CityCampaignConfig) -> Path:
    """``<runs dir>/campaigns/city-<hash>`` — the resumable shard state."""
    from ..pipeline import default_runs_dir  # local: avoids import cycle

    return default_runs_dir() / "campaigns" / f"city-{config.hash()}"


def run_city_campaign(
    config: Optional[CityCampaignConfig] = None,
    state_dir: Union[str, Path, None] = None,
    processes: Optional[int] = None,
    max_shards: Optional[int] = None,
) -> CityCampaignResult:
    """Run (or resume) a sharded city-scale campaign.

    Shards whose result file loads for this exact campaign hash are
    loaded instead of re-simulated (one that exists but does not load is
    warned about, naming the shard and the path); the rest are
    dispatched to worker processes through
    :func:`repro.parallel.run_tasks` (one retry per shard, optional
    per-shard timeout, order-preserving).  ``max_shards`` bounds how
    many *pending* shards this invocation runs — the deterministic
    stand-in for a killed run in tests and CI — leaving the remainder
    for the next call.  Statistics are merged in shard order from the
    streamed accumulators; no per-record list exists anywhere.

    With ``config.spill_traces`` each cohort's traces go into the trace
    cache ``<state_dir>/traces``, so they live and go with the shard
    files that list them; a finished shard whose spilled entries are
    gone is warned about and re-simulated.

    Each invocation ends by writing the campaign's record,
    ``<state_dir>/run.json`` (:func:`repro.obs.write_record`): shard
    and UE totals, whether the campaign is complete, per-group CA
    prevalence and this invocation's wall time.  A resume rewrites it.
    """
    import time

    since, rss_at_start = obs.snapshot(), obs.peak_rss_mb()
    config = config or CityCampaignConfig()
    start = time.perf_counter()
    plan = ShardPlan.build(config)
    campaign_hash = plan.campaign_hash
    root = Path(state_dir) if state_dir is not None else default_campaign_state_dir(config)
    root.mkdir(parents=True, exist_ok=True)

    completed: Dict[str, Dict] = {}
    pending: List[int] = []
    resumed = 0
    for i in range(plan.n_shards):
        shard_id = plan.shard_id(i)
        result = _load_shard_result(root, shard_id, campaign_hash)
        if result is not None:
            completed[shard_id] = result
            resumed += 1
        else:
            pending.append(i)

    to_run = pending if max_shards is None else pending[: max(0, max_shards)]
    payloads = [
        {
            "config": config.to_dict(),
            "campaign_hash": campaign_hash,
            "shard_id": plan.shard_id(i),
            "jobs": [asdict(job) for job in plan.shards[i]],
            "state_dir": str(root),
        }
        for i in to_run
    ]
    results = run_tasks(
        _run_city_shard,
        payloads,
        labels=[plan.shard_id(i) for i in to_run],
        processes=processes,
        retries=1,
        timeout_s=config.shard_timeout_s,
    )
    for i, result in zip(to_run, results):
        completed[plan.shard_id(i)] = result

    simulated = sum(int(result["n_ues"]) for result in results)
    merged: Dict[Tuple[str, str, str], CAStatisticsAccumulator] = {}
    spill_keys: List[str] = []
    ues_done = 0
    for i in range(plan.n_shards):
        shard_id = plan.shard_id(i)
        result = completed.get(shard_id)
        if result is None:
            continue
        ues_done += int(result["n_ues"])
        spill_keys.extend(result["spill_keys"])
        for key_str, acc_data in result["stats"].items():
            key = tuple(key_str.split("|"))
            merged.setdefault(key, CAStatisticsAccumulator()).merge(
                CAStatisticsAccumulator.from_dict(acc_data)
            )
    stats = {key: acc.finalize(key[0], key[1]) for key, acc in merged.items()}
    complete = len(completed) == plan.n_shards

    wall = time.perf_counter() - start
    fields = {
        "config": config.to_dict(),
        "shards_total": plan.n_shards,
        "shards_completed": len(completed),
        "shards_resumed": resumed,
        "n_ues": ues_done,
        "n_simulated": simulated,
        "complete": complete,
        "ca_prevalence": {"/".join(key): s.ca_prevalence for key, s in stats.items()},
        "wall_s": wall,
    }
    obs.write_record(root, "campaign", campaign_hash, since, fields, rss_at_start)
    return CityCampaignResult(
        config=config,
        hash=campaign_hash,
        state_dir=root,
        stats=stats,
        shards_total=plan.n_shards,
        shards_completed=len(completed),
        shards_resumed=resumed,
        n_ues=ues_done,
        n_simulated=simulated,
        complete=complete,
        spill_keys=spill_keys,
        peak_rss_mb=obs.peak_rss_mb(),
        wall_s=wall,
    )


# ---------------------------------------------------------------------------


def cc_spatial_map(trace: Trace, grid_m: float = 50.0) -> Dict[Tuple[int, int], float]:
    """Mean active-CC count per spatial grid cell (paper Fig 4)."""
    buckets: Dict[Tuple[int, int], List[int]] = {}
    for rec in trace.records:
        key = (int(rec.position[0] // grid_m), int(rec.position[1] // grid_m))
        buckets.setdefault(key, []).append(rec.n_active_ccs)
    return {key: float(np.mean(values)) for key, values in buckets.items()}

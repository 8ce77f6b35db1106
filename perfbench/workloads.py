"""The benchmark's three workloads, built from ``--seed`` alone.

A workload runs in *rounds*.  A round is one call into a public entry
point, timed from outside.  Rounds cycle through a fixed few input sets,
all drawn from ``--seed``, so a run's figures vary with the machine and
not with how many rounds it fitted in, while different seeds vary the
inputs from run to run.  A round holds one or more *ops*:

* ``table4`` -- a round is one ``repro.pipeline.run_experiment``, which is
  also its one op; every round has the same inputs.
* ``city_campaign`` -- a round is one ``repro.ran.run_city_campaign`` over
  several shards run serially in-process; each shard is an op.  Rounds
  cycle through ``CityCampaign.CAMPAIGNS`` campaigns.
* ``online_abr`` -- a round is one ``MPCPlayer.run`` session over one of
  a few held-out traces; each of its forecast requests is an op.

An op fails when it raises or when its output is wrong.  ``table4`` and
``city_campaign`` compare each round's output with the first round's on
the same inputs and, at the recorded seed, with
``perfbench/reference.json``; ``online_abr`` compares each batch-1
forecast with a batched one.
"""

from __future__ import annotations

import itertools
import math
import shutil
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from tracer import dir_bytes

#: ops and rounds are timed in this process's CPU time.  Every op is
#: single-threaded computation that neither sleeps nor syncs to disk, so on
#: a core of its own this equals wall time; on a shared host it leaves out
#: the stalls, 5 to 50 ms each, when the host takes the core away.
clock = time.process_time


class Workload:
    """Rounds, op latencies, work done and failures of one workload."""

    name = ""
    #: parameters per size: ``full`` is measured, ``tiny`` runs in the self-test
    SIZES: Dict[str, Dict] = {}

    def __init__(self, seed: int, size: str, scratch: Path, tracer, reference: Optional[Dict] = None) -> None:
        self.seed = seed
        self.params = self.SIZES[size]
        self.scratch = scratch
        self.tracer = tracer
        #: the recorded output per input set, or None off the recorded seed
        self.reference = reference
        #: the first output per input set, which every later round on it must repeat
        self.outputs: Dict[str, Dict] = {}
        self.latencies_ms: List[float] = []
        #: wall time and work (experiments, UE-steps, chunks) of each completed round
        self.round_s: List[float] = []
        self.round_work: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.extras: Counter = Counter()

    def completed(self, seconds: float, work: int) -> None:
        self.round_s.append(seconds)
        self.round_work.append(work)

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(message)

    def wrong_output(self, output: Dict, inputs: int = 0) -> Optional[str]:
        """Why a round's output on input set ``inputs`` is wrong: off the first
        round's on that set or off the recorded reference."""
        key = str(inputs)
        first = self.outputs.setdefault(key, output)
        recorded = None if self.reference is None else self.reference.get(key)
        for label, expected in (("the first round on these inputs", first), ("the recorded reference", recorded)):
            problem = None if expected is None else self.compare(output, expected)
            if problem:
                return f"off {label}: {problem}"
        return None

    def compare(self, output: Dict, expected: Dict) -> Optional[str]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int) -> None:
        raise NotImplementedError


class Table4(Workload):
    """``run_experiment`` on OpZ / driving / long with LSTM and Prism5G."""

    name = "table4"
    SIZES = {
        "full": {"n_traces": 4, "samples_per_trace": 200, "hidden": 24, "epochs": 6},
        "tiny": {"n_traces": 2, "samples_per_trace": 60, "hidden": 8, "epochs": 1},
    }
    #: largest relative RMSE difference accepted: a change of summation
    #: order moves the RMSE far less, a change of what is computed far more
    RMSE_RTOL = 1e-3

    def setup(self) -> None:
        from repro import pipeline
        from repro.core import predictors

        p = self.params
        self.pipeline = pipeline
        self.config = pipeline.ExperimentConfig(
            name="table4",
            operator="OpZ",
            mobility="driving",
            timescale="long",
            n_traces=p["n_traces"],
            samples_per_trace=p["samples_per_trace"],
            predictors=("LSTM", "Prism5G"),
            split="random",
            seed=self.seed,
            # patience = max_epochs: every experiment trains the same number of epochs
            deep=predictors.DeepConfig(
                hidden=p["hidden"], max_epochs=p["epochs"], patience=p["epochs"], seed=self.seed
            ),
        )

    def compare(self, output: Dict, expected: Dict) -> Optional[str]:
        if sorted(output) != sorted(expected):
            return f"predictors {sorted(output)} != {sorted(expected)}"
        off = {
            name: rmse
            for name, rmse in output.items()
            if not abs(rmse - expected[name]) <= self.RMSE_RTOL * abs(expected[name])
        }
        return f"RMSE {off} != {expected}" if off else None

    def run_round(self, index: int) -> None:
        # a fresh run directory: every experiment synthesizes, trains and
        # checkpoints cold, as `repro5g run` does on a new config
        run_dir = self.scratch / f"experiment-{index}"
        self.attempted += 1
        try:
            with self.tracer.span("pipeline.run_experiment"):
                start = clock()
                result = self.pipeline.run_experiment(self.config, out_dir=run_dir)
                elapsed = clock() - start
        except Exception as exc:
            self.fail(1, f"experiment {index}: {type(exc).__name__}: {exc}")
            return
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        self.completed(elapsed, 1)
        self.latencies_ms.append(elapsed * 1e3)
        for stage in result.stages:
            self.extras[f"pipeline.{stage.stage}_s"] += stage.duration_s
        rmse = dict(result.rmse)
        problem = "non-finite" if not all(map(math.isfinite, rmse.values())) else self.wrong_output(rmse)
        if problem:
            self.fail(1, f"experiment {index}: RMSE {rmse} {problem}")


class CityCampaign(Workload):
    """``run_city_campaign`` on shared city deployments, its shards run serially."""

    name = "city_campaign"
    #: all three operators: the OpX/OpY mmWave plans against OpZ's FR1 vary
    #: how many candidate cells each radio step covers
    OPERATORS = ("OpX", "OpY", "OpZ")
    SIZES = {
        "full": {
            "scenarios": ("urban", "suburban", "highway"),
            "ues": 16,
            "cells": 40,
            "shards": 4,
            "cohort": 16,
            "duration_s": 30.0,
        },
        "tiny": {
            "scenarios": ("urban",),
            "ues": 2,
            "cells": 20,
            "shards": 2,
            "cohort": 2,
            "duration_s": 4.0,
        },
    }
    #: most UEs by which the largest shard may exceed the smallest
    SHARD_SPREAD = 4
    #: rounds cycle through this many campaigns.  A campaign's cost moves
    #: with how many cells its nine deployments happen to get (their total
    #: varies by about 5% from campaign seed to campaign seed, the cost by
    #: twice that), and a run that averages several campaigns varies less
    #: from --seed to --seed.
    CAMPAIGNS = 4
    #: largest relative difference accepted in a group's CA sample count or
    #: throughput sum: reordered float sums may flip a rare carrier
    #: decision, a wrong radio or CA model moves far more
    RTOL = 0.01

    def setup(self) -> None:
        from repro.ran import campaign

        self.campaign = campaign
        # Hash scatter leaves shards uneven, and the largest set the upper
        # latency quantiles.  Take the first campaign seeds from --seed's on
        # whose plans the shards are even, so op latencies do not hang on
        # how one seed's hash fell.
        self.configs = []
        seeds = itertools.count(1000 * self.seed)
        while len(self.configs) < self.CAMPAIGNS:
            config = campaign.CityCampaignConfig(
                operators=self.OPERATORS, spill_traces=False, seed=next(seeds), **self.params
            )
            sizes = [len(shard) for shard in campaign.ShardPlan.build(config).shards]
            if max(sizes) - min(sizes) <= self.SHARD_SPREAD:
                self.configs.append(config)
        # time each shard from outside, at the repro.parallel.run_tasks
        # call that run_city_campaign makes through its module namespace
        run_tasks = campaign.run_tasks

        def timed_run_tasks(fn, items, *args, **kwargs):
            return run_tasks(self._timed_shard(fn), items, *args, **kwargs)

        campaign.run_tasks = timed_run_tasks

    def _timed_shard(self, fn):
        def shard(payload):
            with self.tracer.span("ran.campaign.shard"):
                start = clock()
                result = fn(payload)
                self.latencies_ms.append((clock() - start) * 1e3)
            return result

        return shard

    def compare(self, output: Dict, expected: Dict) -> Optional[str]:
        if sorted(output) != sorted(expected):
            return f"groups {sorted(output)} != {sorted(expected)}"
        def close(got: Dict, want: Dict, field: str) -> bool:
            return abs(got[field] - want[field]) <= self.RTOL * abs(want[field])

        off = {
            group: got
            for group, got in output.items()
            if got["total_samples"] != expected[group]["total_samples"]
            or not (close(got, expected[group], "ca_samples") and close(got, expected[group], "tput_sum_mbps"))
        }
        return f"per-group figures {off} != {({group: expected[group] for group in off})}" if off else None

    def run_round(self, index: int) -> None:
        inputs = index % self.CAMPAIGNS
        config = self.configs[inputs]
        state_dir = self.scratch / f"campaign-{index}"
        self.attempted += config.shards
        try:
            with self.tracer.span("ran.campaign.run"):
                start = clock()
                result = self.campaign.run_city_campaign(config, state_dir=state_dir, processes=1)
                elapsed = clock() - start
            self.extras["ran.campaign.state_bytes"] += dir_bytes(state_dir)
        except Exception as exc:
            self.fail(config.shards, f"campaign {index}: {type(exc).__name__}: {exc}")
            return
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
        self.extras["ran.campaign.groups"] += len(result.stats)
        counts = {
            "|".join(key): {
                "total_samples": stat.accumulator.total_samples,
                "ca_samples": stat.accumulator.ca_samples,
                "tput_sum_mbps": stat.accumulator.tput_sum_mbps,
            }
            for key, stat in result.stats.items()
        }
        self.completed(elapsed, sum(group["total_samples"] for group in counts.values()))
        groups = len(config.operators) * len(config.rats) * len(config.scenarios)
        expected = config.ues * max(1, int(round(config.duration_s / config.dt_s)))
        wrong = {key: group["total_samples"] for key, group in counts.items() if group["total_samples"] != expected}
        if not result.complete or len(counts) != groups or wrong:
            problem = f"merged total_samples {wrong or counts} != {expected} in each of {groups} groups"
        else:
            problem = self.wrong_output(counts, inputs)
        if problem:
            # a wrong merge fails every shard that fed it
            self.fail(config.shards, f"campaign {index}: {problem}")


class OnlineABR(Workload):
    """One client streaming MPC sessions that forecast with a trained Prism5G."""

    name = "online_abr"
    SIZES = {
        "full": {
            "traces": 4,
            "samples_per_trace": 200,
            "hidden": 24,
            "epochs": 6,
            "heldout_traces": 3,
            "heldout_samples": 300,
            "chunks": 200,
        },
        "tiny": {
            "traces": 2,
            "samples_per_trace": 60,
            "hidden": 8,
            "epochs": 1,
            "heldout_traces": 1,
            "heldout_samples": 80,
            "chunks": 20,
        },
    }
    #: largest |batch-1 forecast - batched forecast| accepted, in normalized
    #: units; the two may differ only by BLAS summation order
    TOLERANCE = 1e-9

    def setup(self) -> None:
        from repro.apps.abr import ABRConfig, MPCPlayer
        from repro.apps.bridge import trace_windows_normalized
        from repro.core.predictors import DeepConfig, Prism5GPredictor
        from repro.data.datasets import SubDatasetSpec, build_subdataset, generate_traces
        from repro.data.splits import random_split

        p = self.params
        spec = SubDatasetSpec("OpZ", "driving", "long")
        self.dataset = build_subdataset(
            spec, n_traces=p["traces"], samples_per_trace=p["samples_per_trace"], seed=self.seed, cache=None
        )
        train, val, _ = random_split(self.dataset.windows, seed=self.seed)
        self.predictor = Prism5GPredictor(
            DeepConfig(hidden=p["hidden"], max_epochs=p["epochs"], patience=p["epochs"], seed=self.seed)
        )
        self.predictor.fit(train, val)
        self.player = MPCPlayer(ABRConfig())  # the paper's ladder, 2 s chunks
        self.steps_per_chunk = max(1, int(round(self.player.config.chunk_s / spec.dt_s)))
        # another trace seed, so training never saw these traces
        heldout = generate_traces(
            spec, n_traces=p["heldout_traces"], samples_per_trace=p["heldout_samples"], seed=self.seed + 1, cache=None
        )
        self.sessions = []
        for trace in heldout:
            windows = trace_windows_normalized(trace, self.dataset)
            self.sessions.append(
                {
                    "tput": trace.throughput_series(),
                    "dt_s": trace.dt_s,
                    # featurized now, so a request is only the predict call
                    "rows": [windows.subset(np.array([i])) for i in range(len(windows))],
                    # the correctness reference: one batched predict over every window
                    "batched": self.predictor.predict(windows),
                }
            )

    def run_round(self, index: int) -> None:
        session = self.sessions[index % len(self.sessions)]
        rows, batched = session["rows"], session["batched"]
        requests = 0
        forecast_raised = False

        def forecaster(history, horizon, chunk_s):
            # MPCPlayer passes at most the last 10 observations, so the chunk
            # index comes from counting calls.  The session starts once one
            # full history is observed; chunk i sits i chunks later.
            nonlocal requests, forecast_raised
            window = (requests * self.steps_per_chunk) % len(rows)
            requests += 1
            self.attempted += 1
            with self.tracer.span("apps.forecast"):
                start = clock()
                try:
                    forecast = self.predictor.predict(rows[window])[0]
                except Exception as exc:
                    forecast_raised = True
                    self.fail(1, f"session {index} window {window}: {type(exc).__name__}: {exc}")
                    raise
                self.latencies_ms.append((clock() - start) * 1e3)
            error = float(np.max(np.abs(forecast - batched[window])))
            if not error <= self.TOLERANCE:
                self.fail(1, f"session {index} window {window}: batch-1 forecast is {error:.3g} off the batched one")
            mbps = self.dataset.denormalize_tput(forecast)[: horizon * self.steps_per_chunk]
            return np.maximum(mbps.reshape(horizon, self.steps_per_chunk).mean(axis=1), 1e-3)

        start = clock()
        try:
            qoe = self.player.run(session["tput"], session["dt_s"], forecaster, n_chunks=self.params["chunks"])
        except Exception as exc:
            if not forecast_raised:
                # planning or the download failed: the request it served fails with it
                if requests == 0:
                    self.attempted += 1
                self.fail(1, f"session {index}: {type(exc).__name__}: {exc}")
            return
        self.completed(clock() - start, qoe.n_units)
        self.extras["apps.chunks"] += qoe.n_units


WORKLOADS = {workload.name: workload for workload in (Table4, CityCampaign, OnlineABR)}

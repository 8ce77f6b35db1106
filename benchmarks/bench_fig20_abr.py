"""F20 — paper Figs 20-21: MPC video streaming with different forecasters.

Streams the 16K ladder over 5G CA traces with MPC driven by the stock
harmonic-mean forecaster, Prophet, Prism5G and a clairvoyant oracle.
Paper: MPC+Prism5G keeps the average bitrate while cutting stall time
~19% and improving the 99/95/90th-percentile stall tails by 50.8/33.0/
16.0 s.  Prophet and Prism5G come from one ``run_experiment``.
"""

import numpy as np

from repro.analysis import format_table
from repro.apps import (
    ABRConfig,
    MPCPlayer,
    harmonic_forecaster,
    oracle_forecaster_factory,
    predictor_forecaster,
    stall_tail_improvements,
)
from repro.core import DeepConfig
from repro.pipeline import ExperimentConfig, run_experiment
from repro.ran import TraceSimulator

from conftest import run_once


def test_fig20_abr_with_predictors(benchmark, scale, report):
    config = ExperimentConfig(
        name="fig20",
        operator="OpZ",
        mobility="driving",
        timescale="long",
        n_traces=scale.n_traces,
        samples_per_trace=scale.samples_per_trace,
        predictors=("Prophet", "Prism5G"),
        seed=14,
        deep=DeepConfig(hidden=scale.hidden, max_epochs=max(20, scale.epochs // 2), patience=10),
    )

    def experiment():
        result = run_experiment(config)
        dataset = result.dataset
        prophet, prism = result.predictors["Prophet"], result.predictors["Prism5G"]

        abr = ABRConfig(lookahead=3, chunk_s=2.0)
        player = MPCPlayer(abr)
        sessions = {"harmonic": [], "Prophet": [], "Prism5G": [], "oracle": []}
        for seed in range(scale.seeds * 2):
            trace = TraceSimulator(
                "OpZ", scenario="urban", mobility="driving", dt_s=1.0, seed=1300 + seed
            ).run(max(200.0, scale.duration_s * 2))
            tput = trace.throughput_series()
            forecasters = {
                "harmonic": harmonic_forecaster,
                "Prophet": predictor_forecaster(prophet, trace, dataset, abr.chunk_s),
                "Prism5G": predictor_forecaster(prism, trace, dataset, abr.chunk_s),
                "oracle": oracle_forecaster_factory(tput, trace.dt_s, abr.chunk_s),
            }
            for name, forecaster in forecasters.items():
                sessions[name].append(player.run(tput, trace.dt_s, forecaster))
        return sessions

    sessions = run_once(benchmark, experiment)

    report.emit("=== Fig 20: MPC streaming QoE by forecaster ===")
    rows = []
    stats = {}
    for name, runs in sessions.items():
        bitrate = float(np.mean([s.avg_quality for s in runs]))
        stall = float(np.mean([s.stall_time_s for s in runs]))
        stats[name] = (bitrate, stall)
        rows.append([f"MPC+{name}", bitrate, stall, float(np.mean([s.quality_switches for s in runs]))])
    report.emit(
        format_table(["Policy", "Avg bitrate Mbps", "Avg stall s", "Switches"], rows, float_fmt="{:.1f}")
    )

    gains = stall_tail_improvements(
        [s.stall_time_s for s in sessions["harmonic"]],
        [s.stall_time_s for s in sessions["Prism5G"]],
        percentiles=(99.0, 95.0, 90.0),
    )
    report.emit("")
    report.emit("=== Fig 21: stall tail reduction, Prism5G vs harmonic ===")
    paper = {99.0: 50.8, 95.0: 33.0, 90.0: 16.0}
    for pct, gain in gains.items():
        report.emit(f"  p{pct:.0f}: {gain:+.1f} s (paper: {paper[pct]:+.1f} s)")

    report.emit("")
    report.emit(
        "Shape check (paper Figs 20-21): Prism5G cuts stalls vs harmonic"
        " while holding bitrate; the oracle bounds everyone."
    )
    assert stats["Prism5G"][1] <= stats["harmonic"][1] + 1.0, "Prism5G should not stall more"
    assert stats["Prism5G"][0] >= 0.8 * stats["harmonic"][0], "bitrate must be held"

"""F19 — paper Fig 19: ViVo + {Prophet, LSTM, Prism5G} vs ideal ViVo.

Replaces ViVo's stock bandwidth estimator with trained predictors at
the fast (10 ms) time scale and measures QoE against the ideal run.
Paper: ViVo+Prism5G is near-optimal; LSTM improves but is not close;
Prophet trades stalls for quality.  The predictors come from one
``run_experiment``.
"""

import numpy as np

from repro.analysis import format_table
from repro.apps import ViVoConfig, ViVoSimulator, predicted_bandwidth_series, relative_degradation
from repro.core import DeepConfig
from repro.pipeline import ExperimentConfig, run_experiment
from repro.ran import TraceSimulator

from conftest import run_once


def test_fig19_vivo_with_predictors(benchmark, scale, report):
    config = ExperimentConfig(
        name="fig19",
        operator="OpZ",
        mobility="walking",
        timescale="short",
        n_traces=scale.n_traces,
        samples_per_trace=min(scale.samples_per_trace, 250),
        predictors=("Prophet", "LSTM", "Prism5G"),
        seed=12,
        deep=DeepConfig(hidden=scale.hidden, max_epochs=max(20, scale.epochs // 2), patience=10),
    )

    def experiment():
        run = run_experiment(config)
        predictors, dataset = run.predictors, run.dataset

        sim = ViVoSimulator(ViVoConfig(max_bitrate_mbps=750.0))
        degradations = {name: [] for name in predictors}
        degradations["stock"] = []
        for seed in range(scale.seeds):
            trace = TraceSimulator(
                "OpZ", scenario="urban", mobility="walking", dt_s=0.01, seed=1100 + seed,
                max_ccs_override=4,
            ).run(6.0)
            tput = trace.throughput_series()
            ideal = sim.run_ideal(tput, trace.dt_s)
            degradations["stock"].append(relative_degradation(sim.run_stock(tput, trace.dt_s), ideal))
            for name, predictor in predictors.items():
                estimates = predicted_bandwidth_series(predictor, trace, dataset)
                result = sim.run(tput, trace.dt_s, estimates)
                degradations[name].append(relative_degradation(result, ideal))
        return degradations

    degradations = run_once(benchmark, experiment)

    report.emit("=== Fig 19: ViVo QoE loss vs ideal, by bandwidth estimator ===")
    rows = []
    summary = {}
    for name, values in degradations.items():
        quality = float(np.mean([v["quality_drop_pct"] for v in values]))
        stalls = float(np.mean([v["stall_increase_pct"] for v in values]))
        summary[name] = quality + max(stalls, 0.0) / 10.0
        rows.append([name, quality, stalls])
    report.emit(format_table(["Estimator", "Quality drop %", "Stall increase %"], rows, float_fmt="{:+.1f}"))

    report.emit("")
    report.emit(
        "Shape check (paper Fig 19): ViVo+Prism5G is the closest to ideal"
        " (near-optimal); the naive stock estimator is the farthest."
    )
    assert summary["Prism5G"] <= summary["stock"] + 1.0
    assert summary["Prism5G"] <= summary["Prophet"] + 1.0

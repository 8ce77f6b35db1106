"""T4 — paper Table 4: RMSE of all predictors across the sub-datasets.

The paper's headline evaluation: Prophet / LSTM / TCN / Lumos5G vs
Prism5G on {OpX, OpY, OpZ} x {walking, driving} at the 10 ms (short)
and 1 s (long) scales, reporting normalized RMSE and the improvement
over the best baseline.

At default scale this runs a representative subset (OpZ + OpX, both
scales, Prophet/LSTM/Prism5G); ``REPRO_SCALE=full`` runs all six
sub-datasets with the full line-up.  Each sub-dataset is one
``run_experiment`` config.
"""

import numpy as np

from repro.analysis import format_rmse_table
from repro.core import DeepConfig
from repro.pipeline import ExperimentConfig, improvement_over_best_baseline, run_experiment

from conftest import run_once

#: paper Table 4 values for the corresponding cells (long scale).
PAPER_LONG = {
    "OpZ (Driving)": {"Prophet": 0.451, "LSTM": 0.342, "Prism5G": 0.277},
    "OpZ (Walking)": {"Prophet": 0.376, "LSTM": 0.276, "Prism5G": 0.228},
}


def test_table4_main_comparison(benchmark, scale, report):
    if scale.full:
        specs = [
            (op, mob, ts)
            for ts in ("short", "long")
            for op in ("OpX", "OpY", "OpZ")
            for mob in ("walking", "driving")
        ]
        include = ("Prophet", "LSTM", "TCN", "Lumos5G", "Prism5G")
    else:
        specs = [("OpZ", "driving", "long"), ("OpZ", "walking", "short"), ("OpX", "driving", "long")]
        include = ("Prophet", "LSTM", "Prism5G")
    deep = DeepConfig(hidden=scale.hidden, max_epochs=scale.epochs, patience=max(10, scale.epochs // 6))
    configs = [
        ExperimentConfig(
            name=f"table4-{op}-{mob}-{ts}",
            operator=op,
            mobility=mob,
            timescale=ts,
            n_traces=scale.n_traces,
            samples_per_trace=scale.samples_per_trace,
            predictors=include,
            seed=1,
            deep=deep,
        )
        for op, mob, ts in specs
    ]

    def experiment():
        return {config.spec.name: run_experiment(config).rmse for config in configs}

    results = run_once(benchmark, experiment)

    report.emit(format_rmse_table(results, methods=include, title="=== Table 4: RMSE (normalized), lower is better ==="))

    improvements = []
    for name, rmse in results.items():
        improvement = improvement_over_best_baseline(rmse)
        improvements.append(improvement)
        report.emit(f"{name}: Prism5G improvement over best baseline: {improvement:+.1f}%")
    report.emit("")
    report.emit(
        "Shape check (paper): Prophet is the weakest everywhere; Prism5G"
        " improves on the best baseline (paper: 14% average, up to 22%)."
    )
    for name, rmse in results.items():
        assert rmse["Prophet"] == max(rmse.values()), f"Prophet should be worst on {name}"
    assert np.mean(improvements) > 0.0, "Prism5G should beat the baselines on average"

"""T13 — paper Table 13: ablation of Prism5G's two key mechanisms.

Removes (1) the state-trigger mask and (2) the fusion module, and — as
a design-space extension beyond the paper — swaps the RNN block from
LSTM to GRU (the paper notes the block is swappable).  The five
variants are registered predictors, trained by one ``run_experiment``.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import DeepConfig
from repro.pipeline import ExperimentConfig, run_experiment

from conftest import run_once

#: registered predictor -> the variant's label in the table
VARIANTS = {
    "Prism5G": "Prism5G (full)",
    "Prism5G (no state)": "No State",
    "Prism5G (no fusion)": "No Fusion",
    "Prism5G (GRU)": "GRU block",
    "Prism5G (MLP head)": "MLP head (paper-literal)",
}


def test_table13_ablation(benchmark, scale, report):
    config = ExperimentConfig(
        name="table13",
        operator="OpZ",
        mobility="driving",
        timescale="long",
        n_traces=scale.n_traces,
        samples_per_trace=scale.samples_per_trace,
        predictors=tuple(VARIANTS),
        seed=6,
        deep=DeepConfig(hidden=scale.hidden, max_epochs=scale.epochs, patience=max(10, scale.epochs // 6)),
    )

    def experiment():
        return {VARIANTS[name]: value for name, value in run_experiment(config).rmse.items()}

    rmse = run_once(benchmark, experiment)

    report.emit("=== Table 13: Prism5G ablation (RMSE, lower is better) ===")
    rows = [[name, value] for name, value in rmse.items()]
    report.emit(format_table(["Variant", "RMSE"], rows))
    full = rmse["Prism5G (full)"]
    report.emit("")
    for name in ("No State", "No Fusion"):
        delta = (rmse[name] - full) / full * 100.0
        report.emit(f"{name}: {delta:+.1f}% vs full (paper: +5.3% / +6.2% on average)")
    report.emit(f"GRU block: {(rmse['GRU block'] - full) / full * 100.0:+.1f}% vs LSTM block")
    report.emit(
        f"MLP head: {(rmse['MLP head (paper-literal)'] - full) / full * 100.0:+.1f}% vs decoder head"
        " (see DESIGN.md 5b on this substitution)"
    )

    # the full model should be at least as good as the mean ablation
    ablation_mean = np.mean([rmse["No State"], rmse["No Fusion"]])
    assert full <= ablation_mean * 1.05, "removing both mechanisms should not help"

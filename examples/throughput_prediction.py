#!/usr/bin/env python
"""Throughput prediction shoot-out: the paper's Table 4 in miniature.

Trains Prophet, LSTM, TCN, Lumos5G (Seq2Seq) and Prism5G on an OpZ
driving dataset and reports RMSE, then zooms into the CC-transition
zones (the paper's Z1/Z2 analysis, Figs 17-18) to show where
CA-awareness pays off.

The experiment is one ``ExperimentConfig`` run by ``run_experiment``,
the route behind ``repro5g run`` and the paper benches: its traces,
dataset, checkpoints and RMSEs land in ``runs/<name>-<hash>`` (or under
``REPRO_RUNS_DIR``), and a rerun reads them back instead of training.

Run:  python examples/throughput_prediction.py          (fast, small)
      REPRO_SCALE=full python examples/throughput_prediction.py
"""

import os

import numpy as np

from repro.analysis import format_table
from repro.core import DeepConfig
from repro.pipeline import ExperimentConfig, improvement_over_best_baseline, run_experiment


def main() -> None:
    full = os.environ.get("REPRO_SCALE") == "full"
    config = ExperimentConfig(
        name="throughput-prediction",
        operator="OpZ",
        mobility="driving",
        timescale="long",
        n_traces=10 if full else 5,
        samples_per_trace=400 if full else 200,
        predictors=("Prophet", "LSTM", "TCN", "Lumos5G", "Prism5G"),
        seed=1,
        deep=DeepConfig(hidden=32, max_epochs=120 if full else 50, patience=20 if full else 12),
    )
    print(
        f"{config.spec.name}: {config.n_traces} traces x {config.samples_per_trace} samples, "
        f"{len(config.predictors)} predictors (training is the slow part) ..."
    )
    result = run_experiment(config)
    print(f"run directory: {result.run_dir}")

    rows = [[name, rmse] for name, rmse in result.rmse.items()]
    print()
    print(format_table(["Predictor", "RMSE"], rows, title=f"=== {config.spec.name} (paper Table 4) ==="))
    print(f"Prism5G improvement over best baseline: {improvement_over_best_baseline(result.rmse):.1f}%")

    # ------------------------------------------------------------------
    # Transition-zone analysis (paper Figs 17-18): compare errors on
    # test windows whose history contains a CA event (mask change).
    # ------------------------------------------------------------------
    test = result.test
    transition = np.any(np.abs(np.diff(test.mask, axis=1)) > 0, axis=(1, 2))
    print(
        f"\n=== Error at CC transitions ({transition.sum()} of {len(test)} test windows) ==="
    )
    rows = []
    for name, predictor in result.predictors.items():
        err = (predictor.predict(test) - test.y) ** 2
        rmse_stable = float(np.sqrt(err[~transition].mean())) if (~transition).any() else float("nan")
        rmse_trans = float(np.sqrt(err[transition].mean())) if transition.any() else float("nan")
        rows.append([name, rmse_stable, rmse_trans])
    print(format_table(["Predictor", "RMSE (stable)", "RMSE (transition)"], rows))
    print(
        "\nPrism5G's margin is widest on transition windows — the paper's"
        "\ncentral claim for CA-aware prediction (Z1/Z2 zones of Fig 18)."
    )


if __name__ == "__main__":
    main()

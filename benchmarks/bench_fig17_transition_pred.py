"""F17 — paper Figs 17-18 (and 33-36): prediction around CC transitions.

Compares predictors on test windows whose history contains a CA event
(SCell activation/deactivation — the Z1/Z2 zones of Fig 18), and shows
the bias structure: naive extrapolators over-estimate at drops and
under-estimate at boosts, while Prism5G reacts quickly.  Also emits
Prism5G's per-CC predictions (Fig 33-34).  The predictors and their
test split come from one ``run_experiment``.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import DeepConfig
from repro.pipeline import ExperimentConfig, run_experiment

from conftest import run_once


def test_fig17_transition_zone_prediction(benchmark, scale, report):
    config = ExperimentConfig(
        name="fig17",
        operator="OpZ",
        mobility="driving",
        timescale="long",
        n_traces=scale.n_traces,
        samples_per_trace=scale.samples_per_trace,
        predictors=("Prophet", "LSTM", "Prism5G"),
        seed=4,
        deep=DeepConfig(hidden=scale.hidden, max_epochs=scale.epochs, patience=max(10, scale.epochs // 6)),
    )

    def experiment():
        result = run_experiment(config)
        test = result.test
        preds = {name: predictor.predict(test) for name, predictor in result.predictors.items() if name != "Prism5G"}
        # one forward pass for both aggregate and per-CC outputs
        preds["Prism5G"], per_cc = result.predictors["Prism5G"].predict_all(test)
        return test, preds, per_cc

    test, preds, per_cc = run_once(benchmark, experiment)

    # windows whose history mask changes = Z1/Z2-style transition windows
    mask_change = np.abs(np.diff(test.mask, axis=1)).sum(axis=(1, 2))
    transition = mask_change > 0
    deactivation = (np.diff(test.mask, axis=1) < 0).any(axis=(1, 2))
    activation = (np.diff(test.mask, axis=1) > 0).any(axis=(1, 2))

    report.emit("=== Figs 17-18: RMSE and bias at CC-transition windows ===")
    report.emit(
        f"{int(transition.sum())}/{len(test)} transition windows "
        f"({int(deactivation.sum())} deactivations, {int(activation.sum())} activations)"
    )
    rows = []
    for name, pred in preds.items():
        err = (pred - test.y) ** 2
        rmse_all = float(np.sqrt(err.mean()))
        rmse_trans = float(np.sqrt(err[transition].mean())) if transition.any() else float("nan")
        bias_z1 = float((pred - test.y)[deactivation].mean()) if deactivation.any() else float("nan")
        bias_z2 = float((pred - test.y)[activation].mean()) if activation.any() else float("nan")
        rows.append([name, rmse_all, rmse_trans, bias_z1, bias_z2])
    report.emit(
        format_table(
            ["Predictor", "RMSE all", "RMSE transitions", "Bias@Z1 (deact)", "Bias@Z2 (act)"],
            rows,
            float_fmt="{:+.3f}",
        )
    )

    report.emit("")
    report.emit(f"Prism5G per-CC prediction tensor (Fig 33-34): {per_cc.shape}")
    report.emit(
        "Shape check (paper Fig 18/35/36): Prophet over-estimates after"
        " deactivations (positive Z1 bias); Prism5G's transition RMSE"
        " beats the naive extrapolator's."
    )
    by_name = {row[0]: row for row in rows}
    if transition.any():
        assert by_name["Prism5G"][2] < by_name["Prophet"][2]
    if deactivation.any():
        assert by_name["Prophet"][3] > by_name["Prism5G"][3] - 0.05

"""T14 — paper Table 14: generalizability of Prism5G.

(1) trace-level split: test windows come from *runs never seen* in
training (same routes);
(2) new routes: test windows come from traces simulated on different
deployments/routes entirely, normalized with the training scalers.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import DeepConfig, LSTMPredictor, Prism5GPredictor, ProphetPredictor, evaluate_predictors
from repro.core.evaluation import evaluate_on_new_traces
from repro.data import SubDatasetSpec, build_subdataset, generate_traces
from repro.apps import trace_windows_normalized

from conftest import run_once


def test_table14_generalizability(benchmark, scale, report):
    def experiment():
        spec = SubDatasetSpec("OpZ", "walking", "long")
        dataset = build_subdataset(
            spec, n_traces=max(scale.n_traces, 5), samples_per_trace=scale.samples_per_trace, seed=8
        )
        config = DeepConfig(hidden=scale.hidden, max_epochs=scale.epochs, patience=max(10, scale.epochs // 6))

        def lineup():
            return {
                "Prophet": ProphetPredictor(),
                "LSTM": LSTMPredictor(config),
                "Prism5G": Prism5GPredictor(config),
            }

        # (1) same route, different runs: trace-level split
        same_route = evaluate_predictors(dataset, lineup(), split="trace", dataset_name="same-route").rmse

        # (2) entirely new routes: fresh traces, training-set scalers
        new_trace_set = generate_traces(spec, n_traces=3, samples_per_trace=scale.samples_per_trace, seed=99)
        pieces = [trace_windows_normalized(t, dataset) for t in new_trace_set]
        pieces = [p for p in pieces if p is not None]
        new_windows = pieces[0]
        for piece in pieces[1:]:
            new_windows.x = np.concatenate([new_windows.x, piece.x])
            new_windows.mask = np.concatenate([new_windows.mask, piece.mask])
            new_windows.y = np.concatenate([new_windows.y, piece.y])
            new_windows.y_hist = np.concatenate([new_windows.y_hist, piece.y_hist])
            new_windows.trace_ids = np.concatenate([new_windows.trace_ids, piece.trace_ids])
            new_windows.y_cc = np.concatenate([new_windows.y_cc, piece.y_cc])
        new_routes = evaluate_on_new_traces(lineup(), dataset, new_windows)
        return same_route, new_routes

    same_route, new_routes = run_once(benchmark, experiment)

    report.emit("=== Table 14: generalizability (RMSE, lower is better) ===")
    rows = []
    for name in ("Prophet", "LSTM", "Prism5G"):
        rows.append([name, same_route[name], new_routes[name]])
    report.emit(format_table(["Predictor", "(1) unseen runs", "(2) new routes"], rows))

    def improvement(rmse):
        best = min(v for k, v in rmse.items() if k != "Prism5G")
        return (best - rmse["Prism5G"]) / best * 100.0

    report.emit("")
    report.emit(
        f"Prism5G improvement: unseen runs {improvement(same_route):+.1f}% "
        f"(paper: 9.4%), new routes {improvement(new_routes):+.1f}% (paper: 12.5%)"
    )
    assert same_route["Prism5G"] < same_route["Prophet"]
    assert new_routes["Prism5G"] < new_routes["Prophet"]

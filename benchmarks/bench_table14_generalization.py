"""T14 — paper Table 14: generalizability of Prism5G.

(1) trace-level split: test windows come from *runs never seen* in
training (same routes);
(2) new routes: test windows come from traces simulated on different
deployments/routes entirely, normalized with the training scalers.

Each row is one ``run_experiment`` config over the same trace set; row
2's predictors score the new-route windows instead of their own split.
"""

from repro.analysis import format_table
from repro.core import DeepConfig
from repro.data import generate_traces, window_traces
from repro.pipeline import ExperimentConfig, improvement_over_best_baseline, run_experiment

from conftest import run_once


def test_table14_generalizability(benchmark, scale, report):
    protocol = dict(
        operator="OpZ",
        mobility="walking",
        timescale="long",
        n_traces=max(scale.n_traces, 5),
        samples_per_trace=scale.samples_per_trace,
        predictors=("Prophet", "LSTM", "Prism5G"),
        seed=8,
        deep=DeepConfig(hidden=scale.hidden, max_epochs=scale.epochs, patience=max(10, scale.epochs // 6)),
    )
    unseen_runs = ExperimentConfig(name="table14-unseen-runs", split="trace", **protocol)
    new_routes = ExperimentConfig(name="table14-new-routes", split="random", **protocol)

    def experiment():
        # (1) same route, different runs: trace-level split
        same_route = run_experiment(unseen_runs).rmse

        # (2) entirely new routes: fresh traces, training-set scalers
        result = run_experiment(new_routes)
        traces = generate_traces(new_routes.spec, n_traces=3, samples_per_trace=scale.samples_per_trace, seed=99)
        windows = result.dataset.scale(window_traces(list(traces)))
        return same_route, {name: predictor.evaluate(windows) for name, predictor in result.predictors.items()}

    same_route, new_route = run_once(benchmark, experiment)

    report.emit("=== Table 14: generalizability (RMSE, lower is better) ===")
    rows = []
    for name in ("Prophet", "LSTM", "Prism5G"):
        rows.append([name, same_route[name], new_route[name]])
    report.emit(format_table(["Predictor", "(1) unseen runs", "(2) new routes"], rows))

    report.emit("")
    report.emit(
        f"Prism5G improvement: unseen runs {improvement_over_best_baseline(same_route):+.1f}% "
        f"(paper: 9.4%), new routes {improvement_over_best_baseline(new_route):+.1f}% (paper: 12.5%)"
    )
    assert same_route["Prism5G"] < same_route["Prophet"]
    assert new_route["Prism5G"] < new_route["Prophet"]

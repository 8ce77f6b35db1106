"""Command-line interface: simulate traces, run campaigns, train models.

Usage (also installed as the ``repro5g`` console script):

    python -m repro.cli simulate --operator OpZ --scenario urban \
        --mobility driving --duration 120 --out trace.jsonl
    python -m repro.cli campaign --operators OpZ OpX --duration 60
    python -m repro.cli train --operator OpZ --mobility driving \
        --timescale long --epochs 40 --model-out prism.npz
    python -m repro.cli evaluate --operator OpZ --mobility driving \
        --timescale long --predictors Prophet LSTM Prism5G
    python -m repro.cli evaluate --list-predictors
    python -m repro.cli run examples/experiment_small.json
    python -m repro.cli train --obs metrics --obs-dir .repro-obs ...
    python -m repro.cli obs report
    python -m repro.cli obs check-slo --budget budgets/fast_workload.json
    python -m repro.cli lint --format json
    python -m repro.cli lint --list-rules

The ``--obs metrics`` flag (or ``REPRO_OBS=metrics``) turns on the
observability layer: the run records counters and gauges and writes a
run manifest that ``obs report`` prints and ``obs check-slo`` checks
against a perf budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import obs, runtime
from .analysis import format_table
from .lintkit.runner import add_lint_arguments, run_from_args as _run_lint
from .core import DeepConfig, evaluate_predictors, make_default_predictors
from .core.predictors import Prism5GPredictor, registered_predictors
from .data import SubDatasetSpec, build_subdataset, random_split
from .nn.serialization import save_state
from .pipeline import ExperimentConfig, run_experiment
from .ran import CityCampaignConfig, DualConnectivitySimulator, TraceSimulator, run_city_campaign


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs",
        default=None,
        choices=[obs.MODE_OFF, obs.MODE_METRICS],
        help="observability mode (overrides REPRO_OBS)",
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        help="directory for run manifests (overrides REPRO_OBS_DIR)",
    )


def _add_sanitize_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize",
        action="store_const",
        const="1",
        default=None,
        help=(
            "numeric sanitizer: wrap every backend primitive with "
            "NaN/Inf and backward shape/dtype guards, fail fast naming "
            "the offending primitive (overrides REPRO_SANITIZE)"
        ),
    )


def _configure_obs(args: argparse.Namespace) -> None:
    if getattr(args, "obs", None) is not None or getattr(args, "obs_dir", None) is not None:
        obs.configure(mode=args.obs, directory=args.obs_dir)
    if getattr(args, "sanitize", None) is not None:
        runtime.configure(sanitize=args.sanitize)


def _add_common_sim_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--operator", default="OpZ", choices=["OpX", "OpY", "OpZ"])
    parser.add_argument("--scenario", default="urban", choices=["urban", "suburban", "highway", "indoor"])
    parser.add_argument("--mobility", default="driving", choices=["stationary", "walking", "driving", "indoor"])
    parser.add_argument("--modem", default="X70", choices=["X50", "X55", "X60", "X65", "X70"])
    parser.add_argument("--seed", type=int, default=0)


def _cmd_simulate(args: argparse.Namespace) -> int:
    _configure_obs(args)
    if args.nsa:
        sim = DualConnectivitySimulator(
            operator=args.operator, scenario=args.scenario, mobility=args.mobility,
            modem=args.modem, dt_s=args.dt, seed=args.seed,
        )
    else:
        sim = TraceSimulator(
            operator=args.operator, scenario=args.scenario, mobility=args.mobility,
            modem=args.modem, rat=args.rat, dt_s=args.dt, seed=args.seed,
        )
    trace = sim.run(args.duration)
    series = trace.throughput_series()
    print(
        f"{trace.operator} {trace.rat} {args.scenario}/{args.mobility}: "
        f"{len(trace)} samples, mean {series.mean():.1f} Mbps, peak {series.max():.1f} Mbps, "
        f"max CCs {trace.cc_count_series().max()}"
    )
    if args.out:
        trace.to_jsonl(args.out)
        print(f"wrote {args.out}")
    obs.write_manifest(
        kind="simulate",
        config=dict(
            operator=args.operator, scenario=args.scenario, mobility=args.mobility,
            modem=args.modem, rat=getattr(args, "rat", "5G"), nsa=args.nsa,
            dt_s=args.dt, duration_s=args.duration,
        ),
        seed=args.seed,
        extra={"samples": len(trace), "mean_tput_mbps": float(series.mean())},
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    _configure_obs(args)
    config = CityCampaignConfig(
        operators=tuple(args.operators),
        scenarios=tuple(args.scenarios),
        rats=tuple(args.rats),
        ues=args.ues,
        cells=args.cells,
        shards=args.shards,
        cohort=args.cohort,
        duration_s=args.duration,
        dt_s=args.dt,
        seed=args.seed,
        spill_traces=args.spill or args.out_dir is not None,
        shard_timeout_s=args.shard_timeout,
    )
    result = run_city_campaign(config, state_dir=args.state_dir, max_shards=args.max_shards)
    rows = []
    for (operator, rat, scenario), stats in sorted(result.stats.items()):
        rows.append(
            [
                operator, rat, scenario,
                stats.unique_channels,
                f"{stats.ordered_combos}/{stats.unique_combos}",
                stats.max_ccs,
                f"{stats.ca_prevalence * 100:.0f}%",
                f"{stats.peak_tput_mbps:.0f}",
            ]
        )
    print(
        format_table(
            ["Oper.", "RAT", "Scenario", "#Ch", "Combos", "MaxCC", "CA%", "Peak Mbps"],
            rows,
            title=f"Campaign {result.hash}",
        )
    )
    print(
        f"shards {result.shards_completed}/{result.shards_total} "
        f"({result.shards_resumed} resumed), {result.n_ues} UEs "
        f"({result.n_simulated} simulated), {result.ues_per_sec:.1f} UEs/s, "
        f"peak RSS {result.peak_rss_mb:.0f} MB"
    )
    print(f"state: {result.state_dir}")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        traces = result.load_spilled_traces()
        for i, trace in enumerate(traces):
            trace.to_jsonl(out_dir / f"trace_{trace.operator}_{trace.rat}_{trace.scenario}_{i:03d}.jsonl")
        print(f"wrote {len(traces)} traces to {out_dir}")
    if not result.complete:
        print(f"{result.shards_total - result.shards_completed} shard(s) still pending; rerun to resume")
        return 3
    return 0


def _spec_from_args(args: argparse.Namespace) -> SubDatasetSpec:
    return SubDatasetSpec(args.operator, args.mobility, args.timescale)


def _cmd_train(args: argparse.Namespace) -> int:
    _configure_obs(args)
    spec = _spec_from_args(args)
    print(f"building dataset {spec.name} ({args.traces} traces x {args.samples} samples)")
    dataset = build_subdataset(spec, n_traces=args.traces, samples_per_trace=args.samples, seed=args.seed)
    train, val, test = random_split(dataset.windows, 0.5, 0.2, 0.3, seed=args.seed)
    config = DeepConfig(hidden=args.hidden, max_epochs=args.epochs, patience=max(8, args.epochs // 5))
    predictor = Prism5GPredictor(config)
    print(f"training Prism5G ({config.hidden} hidden, <= {config.max_epochs} epochs)")
    predictor.fit(train, val)
    print(f"test RMSE (normalized): {predictor.evaluate(test):.4f}")
    if args.model_out:
        save_state(predictor.model, args.model_out)
        print(f"wrote {args.model_out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    _configure_obs(args)
    if args.list_predictors:
        for name in registered_predictors():
            print(name)
        return 0
    unknown = [p for p in args.predictors if p not in registered_predictors()]
    if unknown:
        print(f"unknown predictors: {unknown}; choose from {registered_predictors()}", file=sys.stderr)
        return 2
    spec = _spec_from_args(args)
    dataset = build_subdataset(spec, n_traces=args.traces, samples_per_trace=args.samples, seed=args.seed)
    config = DeepConfig(hidden=args.hidden, max_epochs=args.epochs, patience=max(8, args.epochs // 5))
    predictors = make_default_predictors(config, include=args.predictors)
    result = evaluate_predictors(dataset, predictors, split=args.split, dataset_name=spec.name)
    rows = [[name, rmse] for name, rmse in result.rmse.items()]
    print(format_table(["Predictor", "RMSE"], rows, title=f"=== {spec.name} ==="))
    if "Prism5G" in result.rmse and len(result.rmse) > 1:
        print(f"Prism5G improvement over best baseline: {result.improvement_over_best_baseline():+.1f}%")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    _configure_obs(args)
    try:
        config = ExperimentConfig.load(args.config)
    except (OSError, ValueError) as exc:
        print(f"{args.config}: {exc}", file=sys.stderr)
        return 2
    print(f"experiment {config.name} [{config.hash()}]")
    result = run_experiment(config, out_dir=args.out_dir, force=args.force)
    rows = [
        [status.stage, status.status, f"{status.duration_s:.2f}s", f"{status.peak_rss_mb:.1f}", status.artifact or "-"]
        for status in result.stages
    ]
    print(format_table(["Stage", "Status", "Time", "Peak MB", "Artifact"], rows, title=f"run dir: {result.run_dir}"))
    if result.rmse:
        rows = [[name, result.rmse[name]] for name in config.predictors]
        print(format_table(["Predictor", "RMSE"], rows, title=f"=== {config.name} ==="))
    if result.all_skipped:
        print("all stages skipped (complete run for this config already on disk; --force re-runs)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    return _run_lint(args)


def _cmd_obs_report(args: argparse.Namespace) -> int:
    directory = Path(args.dir) if args.dir else obs.obs_dir()
    manifest = obs.latest_manifest(directory)
    if manifest is None:
        print(f"no run manifest under {directory} (run with --obs metrics first)", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    print(f"=== {manifest.get('kind', '?')} run @ {manifest.get('created_at', '?')} ===")
    for key in ("mode", "git_sha", "seed", "config_hash", "pid", "peak_rss_mb"):
        print(f"{key:>12}: {manifest.get(key)}")
    kernels = manifest.get("kernel_paths") or {}
    print(f"{'kernels':>12}: " + ", ".join(f"{k}={v}" for k, v in sorted(kernels.items())))
    metrics = manifest.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        rows = [[name, f"{value:g}"] for name, value in sorted(counters.items())]
        print(format_table(["Counter", "Value"], rows, title="counters"))
    gauges = metrics.get("gauges") or {}
    if gauges:
        rows = [[name, f"{value:.4g}"] for name, value in sorted(gauges.items())]
        print(format_table(["Gauge", "Value"], rows, title="gauges"))
    history = manifest.get("history")
    if history:
        print(f"{'history':>12}: {json.dumps(history, default=str)}")
    extra = manifest.get("extra")
    if extra:
        print(f"{'extra':>12}: {json.dumps(extra, default=str)}")
    return 0


def _cmd_obs_check_slo(args: argparse.Namespace) -> int:
    directory = Path(args.dir) if args.dir else obs.obs_dir()
    try:
        budget = obs.load_slo(args.budget)
    except (OSError, ValueError) as exc:
        print(f"{args.budget}: {exc}", file=sys.stderr)
        return 2
    manifest = obs.latest_manifest(directory)
    if manifest is None:
        print(f"no run manifest under {directory} (run with --obs metrics first)", file=sys.stderr)
        return 1
    violations = obs.evaluate_slo(budget, manifest)
    regression_limit = budget.get("budgets", {}).get("end_to_end_regression")
    if regression_limit is not None:
        trend = obs.check_bench_file(args.bench, limit=float(regression_limit))
        if trend is not None:
            violations.append(trend)
    for violation in violations:
        print(violation.message(), file=sys.stderr)
    if violations:
        print(f"FAIL: {len(violations)} SLO violation(s) against {args.budget}", file=sys.stderr)
        return 1
    print(f"OK: the run manifest under {directory} is within budget {args.budget}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro5g", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize one CA trace")
    _add_common_sim_args(sim)
    _add_obs_args(sim)
    _add_sanitize_arg(sim)
    sim.add_argument("--rat", default="5G", choices=["4G", "5G"])
    sim.add_argument("--nsa", action="store_true", help="EN-DC dual connectivity")
    sim.add_argument("--dt", type=float, default=1.0)
    sim.add_argument("--duration", type=float, default=60.0)
    sim.add_argument("--out", default=None, help="JSONL output path")
    sim.set_defaults(func=_cmd_simulate)

    camp = sub.add_parser("campaign", help="run (or resume) a sharded measurement campaign")
    camp.add_argument("--operators", nargs="+", default=["OpX", "OpY", "OpZ"])
    camp.add_argument("--scenarios", nargs="+", default=["urban", "suburban", "highway"])
    camp.add_argument("--rats", nargs="+", default=["4G", "5G"])
    camp.add_argument("--ues", type=int, default=2, help="UEs per (operator, rat, scenario) group")
    camp.add_argument("--duration", type=float, default=60.0)
    camp.add_argument("--dt", type=float, default=1.0)
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument("--out-dir", default=None,
                      help="write the campaign's traces as JSONL here (spills them through the trace cache)")
    camp.add_argument("--cells", type=int, default=0,
                      help="share one ~N-cell deployment per group (0 = per-UE deployments)")
    camp.add_argument("--shards", type=int, default=1, help="worker shards for the UE population")
    camp.add_argument("--cohort", type=int, default=32, help="UEs batched per SoA radio step")
    camp.add_argument("--state-dir", default=None,
                      help="resumable shard state directory (default: runs/campaigns/city-<hash>)")
    camp.add_argument("--max-shards", type=int, default=None,
                      help="run at most N pending shards then stop (exit 3 if shards remain)")
    camp.add_argument("--spill", action="store_true",
                      help="spill per-cohort traces into the content-hash cache")
    camp.add_argument("--shard-timeout", type=float, default=None,
                      help="per-shard wall budget in seconds (expired shards retry once)")
    _add_obs_args(camp)
    _add_sanitize_arg(camp)
    camp.set_defaults(func=_cmd_campaign)

    def _add_ml_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--operator", default="OpZ", choices=["OpX", "OpY", "OpZ"])
        p.add_argument("--mobility", default="driving", choices=["walking", "driving"])
        p.add_argument("--timescale", default="long", choices=["short", "long"])
        p.add_argument("--traces", type=int, default=5)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--hidden", type=int, default=24)
        p.add_argument("--epochs", type=int, default=40)
        p.add_argument("--seed", type=int, default=0)
        _add_obs_args(p)
        _add_sanitize_arg(p)

    train = sub.add_parser("train", help="train Prism5G on a sub-dataset")
    _add_ml_args(train)
    train.add_argument("--model-out", default=None, help=".npz path for the trained weights")
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("evaluate", help="compare predictors (Table 4 style)")
    _add_ml_args(evaluate)
    evaluate.add_argument("--predictors", nargs="+", default=["Prophet", "LSTM", "Prism5G"])
    evaluate.add_argument("--split", default="random", choices=["random", "trace"])
    evaluate.add_argument(
        "--list-predictors", action="store_true",
        help="print the registered predictor names and exit",
    )
    evaluate.set_defaults(func=_cmd_evaluate)

    run = sub.add_parser("run", help="run (or resume) an experiment from a JSON config")
    run.add_argument("config", help="path to an experiment JSON file (see examples/)")
    run.add_argument("--out-dir", default=None, help="run directory (default: runs/<name>-<hash>)")
    run.add_argument("--force", action="store_true", help="re-run every stage even if artifacts exist")
    _add_obs_args(run)
    _add_sanitize_arg(run)
    run.set_defaults(func=_cmd_run)

    lint = sub.add_parser("lint", help="run the repo's AST invariant checks (rules RL001, RL003–RL010)")
    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    obs_cmd = sub.add_parser("obs", help="inspect observability output")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser("report", help="pretty-print the latest run manifest")
    report.add_argument("--dir", default=None, help="obs directory (default: REPRO_OBS_DIR or .repro-obs)")
    report.add_argument("--json", action="store_true", help="raw JSON instead of a table")
    report.set_defaults(func=_cmd_obs_report)
    check = obs_sub.add_parser("check-slo", help="check the latest run manifest against a perf budget")
    check.add_argument("--budget", required=True, help="repro-slo-v1 JSON budget file")
    check.add_argument("--dir", default=None, help="obs directory (default: REPRO_OBS_DIR or .repro-obs)")
    check.add_argument(
        "--bench", default="BENCH_perf.json",
        help="BENCH_perf.json for the end_to_end_regression trend check",
    )
    check.set_defaults(func=_cmd_obs_check_slo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # --sanitize and --obs/--obs-dir switch process-wide state; an
    # in-process caller gets its own switches back
    flags, mode, directory = runtime.flags(), obs.mode(), obs.obs_dir()
    try:
        return args.func(args)
    finally:
        runtime.configure(**flags)
        obs.configure(mode=mode, directory=directory)


if __name__ == "__main__":
    raise SystemExit(main())

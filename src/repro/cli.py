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
    python -m repro.cli train --obs trace --obs-dir .repro-obs ...
    python -m repro.cli train --obs metrics --obs-sample-hz 2 ...
    python -m repro.cli obs report
    python -m repro.cli obs trace --chrome trace.json
    python -m repro.cli obs top --last 20
    python -m repro.cli obs export --prometheus
    python -m repro.cli obs flame --out flame.txt
    python -m repro.cli obs check-slo --budget budgets/fast_workload.json
    python -m repro.cli lint --format json
    python -m repro.cli lint --fix-catalog

The ``--obs`` flag (or the ``REPRO_OBS`` env var) turns on the
observability layer: ``metrics`` records counters/gauges/histograms and
a run manifest, ``trace`` additionally spills a span timeline that
``obs trace --chrome`` converts for ``chrome://tracing``.  With
``--obs-sample-hz`` (or ``REPRO_OBS_SAMPLE_HZ``) > 0, instrumented
regions also stream continuous telemetry — time-series metric rows and
collapsed stacks — that ``obs top`` / ``obs export`` / ``obs flame`` /
``obs check-slo`` consume.
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
from .ran import CampaignConfig, DualConnectivitySimulator, TraceSimulator, run_campaign


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs",
        default=None,
        choices=[obs.MODE_OFF, obs.MODE_METRICS, obs.MODE_TRACE],
        help="observability mode (overrides REPRO_OBS)",
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        help="directory for span/metric/manifest files (overrides REPRO_OBS_DIR)",
    )
    parser.add_argument(
        "--obs-sample-hz",
        default=None,
        help=(
            "continuous-telemetry sample rate in Hz (overrides "
            "REPRO_OBS_SAMPLE_HZ; 0 = off; needs --obs metrics|trace)"
        ),
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
    if getattr(args, "obs_sample_hz", None) is not None:
        runtime.configure(obs_sample_hz=args.obs_sample_hz)


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
    obs.flush()
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    _configure_obs(args)
    if args.ues is not None:
        return _cmd_city_campaign(args)
    config = CampaignConfig(
        operators=tuple(args.operators),
        scenarios=tuple(args.scenarios),
        rats=tuple(args.rats),
        traces_per_cell=args.runs,
        duration_s=args.duration,
        dt_s=args.dt,
        seed=args.seed,
    )
    result = run_campaign(config)
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
            title=f"Campaign: {len(result.traces)} traces, {result.traces.total_duration_s() / 60:.0f} min",
        )
    )
    if args.out_dir:
        out_dir = Path(args.out_dir)
        for i, trace in enumerate(result.traces):
            trace.to_jsonl(out_dir / f"trace_{trace.operator}_{trace.rat}_{trace.scenario}_{i:03d}.jsonl")
        print(f"wrote {len(result.traces)} traces to {out_dir}")
    obs.flush()
    return 0


def _cmd_city_campaign(args: argparse.Namespace) -> int:
    from .ran import CityCampaignConfig, run_city_campaign

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
        spill_traces=args.spill,
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
            title=f"City campaign {result.hash}",
        )
    )
    print(
        f"shards {result.shards_completed}/{result.shards_total} "
        f"({result.shards_resumed} resumed), {result.n_ues} UEs "
        f"({result.n_simulated} simulated), {result.ues_per_sec:.1f} UEs/s, "
        f"peak RSS {result.peak_rss_mb:.0f} MB"
    )
    print(f"state: {result.state_dir}")
    obs.flush()
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
    obs.flush()
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
    obs.flush()
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
        [status.stage, status.status, f"{status.duration_s:.2f}s", status.artifact or "-"]
        for status in result.stages
    ]
    print(format_table(["Stage", "Status", "Time", "Artifact"], rows, title=f"run dir: {result.run_dir}"))
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
        print(f"no run manifest under {directory} (run with --obs metrics|trace first)", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    print(f"=== {manifest.get('kind', '?')} run @ {manifest.get('created_at', '?')} ===")
    for key in ("mode", "git_sha", "seed", "config_hash", "pid"):
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
    for name, hist in sorted((metrics.get("histograms") or {}).items()):
        print(
            f"{name}: n={hist.get('count', 0)} sum={hist.get('sum', 0.0):.3g} "
            f"min={hist.get('min')} max={hist.get('max')}"
        )
    history = manifest.get("history")
    if history:
        print(f"{'history':>12}: {json.dumps(history, default=str)}")
    extra = manifest.get("extra")
    if extra:
        print(f"{'extra':>12}: {json.dumps(extra, default=str)}")
    return 0


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    directory = Path(args.dir) if args.dir else obs.obs_dir()
    spans = obs.read_spans(directory)
    if not spans:
        print(f"no spans under {directory} (run with --obs trace first)", file=sys.stderr)
        return 1
    out = obs.write_chrome_trace(args.chrome, directory)
    pids = {span.get("pid") for span in spans}
    print(f"wrote {out} ({len(spans)} spans from {len(pids)} process(es))")
    return 0


def _format_series_rows(rows: Sequence[dict]) -> str:
    t0 = rows[0].get("t", 0.0) if rows else 0.0
    table = []
    for row in rows:
        quantiles = row.get("quantiles") or {}
        p95s = ", ".join(
            f"{name}={q['p95']:.3g}" for name, q in sorted(quantiles.items()) if q and "p95" in q
        )
        table.append(
            [
                f"{row.get('t', 0.0) - t0:8.2f}",
                row.get("pid", "-"),
                row.get("window") or "-",
                f"{row['rss_mb']:.1f}" if "rss_mb" in row else "-",
                f"{row['cpu_pct']:.0f}" if "cpu_pct" in row else "-",
                len(row.get("counters") or {}),
                p95s or "-",
            ]
        )
    return format_table(
        ["t+s", "pid", "window", "rss MB", "cpu %", "#ctr", "histogram p95s"], table
    )


def _cmd_obs_top(args: argparse.Namespace) -> int:
    directory = Path(args.dir) if args.dir else obs.obs_dir()
    rows = obs.read_series(directory)
    if not rows:
        print(
            f"no telemetry under {directory} "
            "(run with --obs metrics --obs-sample-hz 2 first)",
            file=sys.stderr,
        )
        return 1
    print(_format_series_rows(rows[-args.last :]))
    print(f"{len(rows)} rows from {len({r.get('pid') for r in rows})} process(es)")
    return 0


def _snapshot_from_dir(directory: Path) -> Optional[dict]:
    """A run's metrics: the latest manifest's merged snapshot, else spills."""
    manifest = obs.latest_manifest(directory)
    if manifest is not None and manifest.get("metrics"):
        return manifest["metrics"]
    obs.configure(mode=obs.mode(), directory=directory)
    snap = obs.merged_snapshot()
    if snap.get("counters") or snap.get("gauges") or snap.get("histograms"):
        return snap
    return None


def _cmd_obs_export(args: argparse.Namespace) -> int:
    directory = Path(args.dir) if args.dir else obs.obs_dir()
    snap = _snapshot_from_dir(directory)
    if snap is None:
        print(f"no metrics under {directory} (run with --obs metrics first)", file=sys.stderr)
        return 1
    text = obs.prometheus_text(snap) if args.prometheus else "\n".join(obs.jsonl_lines(snap)) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_obs_flame(args: argparse.Namespace) -> int:
    directory = Path(args.dir) if args.dir else obs.obs_dir()
    stacks = obs.read_flame(directory)
    if not stacks:
        print(
            f"no flamegraph data under {directory} "
            "(run with --obs metrics --obs-sample-hz 2 first)",
            file=sys.stderr,
        )
        return 1
    if args.out:
        lines = [f"{stack} {count}" for stack, count in sorted(stacks.items())]
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {args.out} ({len(stacks)} stacks; feed to flamegraph.pl or speedscope)")
        return 0
    total = sum(stacks.values())
    top = sorted(stacks.items(), key=lambda kv: -kv[1])[: args.top]
    rows = [[count, f"{100.0 * count / total:.1f}%", stack.split(";")[-1]] for stack, count in top]
    print(format_table(["samples", "share", "leaf frame"], rows, title=f"{total} stack samples"))
    return 0


def _cmd_obs_check_slo(args: argparse.Namespace) -> int:
    directory = Path(args.dir) if args.dir else obs.obs_dir()
    try:
        budget = obs.load_slo(args.budget)
    except (OSError, ValueError) as exc:
        print(f"{args.budget}: {exc}", file=sys.stderr)
        return 2
    snap = _snapshot_from_dir(directory) or {}
    violations = obs.evaluate_slo(
        budget,
        snapshot=snap,
        spans=obs.read_spans(directory),
        series=obs.read_series(directory),
    )
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
    print(f"OK: telemetry under {directory} within budget {args.budget}")
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

    camp = sub.add_parser("campaign", help="run a measurement campaign")
    camp.add_argument("--operators", nargs="+", default=["OpX", "OpY", "OpZ"])
    camp.add_argument("--scenarios", nargs="+", default=["urban", "suburban", "highway"])
    camp.add_argument("--rats", nargs="+", default=["4G", "5G"])
    camp.add_argument("--runs", type=int, default=2)
    camp.add_argument("--duration", type=float, default=60.0)
    camp.add_argument("--dt", type=float, default=1.0)
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument("--out-dir", default=None, help="write traces as JSONL here")
    city = camp.add_argument_group("city-scale (sharded engine; enabled by --ues)")
    city.add_argument("--ues", type=int, default=None,
                      help="UEs per (operator, rat, scenario) group; selects the sharded engine")
    city.add_argument("--cells", type=int, default=0,
                      help="share one ~N-cell deployment per group (0 = per-UE deployments)")
    city.add_argument("--shards", type=int, default=1, help="worker shards for the UE population")
    city.add_argument("--cohort", type=int, default=32, help="UEs batched per SoA radio step")
    city.add_argument("--state-dir", default=None,
                      help="resumable shard state directory (default: runs/campaigns/city-<hash>)")
    city.add_argument("--max-shards", type=int, default=None,
                      help="run at most N pending shards then stop (exit 3 if shards remain)")
    city.add_argument("--spill", action="store_true",
                      help="spill per-cohort traces into the content-hash cache")
    city.add_argument("--shard-timeout", type=float, default=None,
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

    lint = sub.add_parser("lint", help="run the repo's AST invariant checks (rules RL001-RL011)")
    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    obs_cmd = sub.add_parser("obs", help="inspect observability output")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser("report", help="pretty-print the latest run manifest")
    report.add_argument("--dir", default=None, help="obs directory (default: REPRO_OBS_DIR or .repro-obs)")
    report.add_argument("--json", action="store_true", help="raw JSON instead of a table")
    report.set_defaults(func=_cmd_obs_report)
    trace_cmd = obs_sub.add_parser("trace", help="convert span JSONL to Chrome trace format")
    trace_cmd.add_argument("--chrome", required=True, help="output path for the chrome://tracing JSON")
    trace_cmd.add_argument("--dir", default=None, help="obs directory (default: REPRO_OBS_DIR or .repro-obs)")
    trace_cmd.set_defaults(func=_cmd_obs_trace)
    top = obs_sub.add_parser("top", help="tail of the continuous-telemetry series")
    top.add_argument("--dir", default=None, help="obs directory (default: REPRO_OBS_DIR or .repro-obs)")
    top.add_argument("--last", type=int, default=20, help="rows to show (default 20)")
    top.set_defaults(func=_cmd_obs_top)
    export_cmd = obs_sub.add_parser("export", help="export the run's metrics snapshot")
    export_cmd.add_argument("--dir", default=None, help="obs directory (default: REPRO_OBS_DIR or .repro-obs)")
    export_cmd.add_argument(
        "--prometheus", action="store_true",
        help="Prometheus text exposition instead of JSONL",
    )
    export_cmd.add_argument("--out", default=None, help="write here instead of stdout")
    export_cmd.set_defaults(func=_cmd_obs_export)
    flame = obs_sub.add_parser("flame", help="merged collapsed-stack flamegraph data")
    flame.add_argument("--dir", default=None, help="obs directory (default: REPRO_OBS_DIR or .repro-obs)")
    flame.add_argument("--out", default=None, help="write collapsed stacks here (flamegraph.pl input)")
    flame.add_argument("--top", type=int, default=15, help="leaf frames to show without --out")
    flame.set_defaults(func=_cmd_obs_flame)
    check = obs_sub.add_parser("check-slo", help="evaluate telemetry against a perf budget")
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
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: simulate traces, run campaigns and experiments.

Usage (also installed as the ``repro5g`` console script):

    python -m repro.cli simulate --operator OpZ --scenario urban \
        --mobility driving --duration 120 --out trace.jsonl
    python -m repro.cli campaign --operators OpZ OpX --duration 60
    python -m repro.cli run examples/experiment_small.json
    python -m repro.cli run examples/experiment_small.json --obs metrics --out-dir run
    python -m repro.cli obs report run
    python -m repro.cli obs check-slo --budget budgets/fast_workload.json run
    python -m repro.cli lint --format json
    python -m repro.cli lint --list-rules

``run`` and ``campaign`` each leave one record, ``run.json``, in the
run or state directory; ``obs report DIR`` prints it and ``obs
check-slo DIR`` checks it against a perf budget.  The ``--obs metrics``
flag (or ``REPRO_OBS=metrics``) adds the counters the run added.
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
from .pipeline import ExperimentConfig, run_experiment
from .ran import CityCampaignConfig, DualConnectivitySimulator, TraceSimulator, run_city_campaign


def _add_obs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs",
        default=None,
        choices=[obs.MODE_OFF, obs.MODE_METRICS],
        help="observability mode: metrics adds counters to the run record (overrides REPRO_OBS)",
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
    if getattr(args, "obs", None) is not None:
        obs.configure(mode=args.obs)
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
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    _configure_obs(args)
    try:
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
    except ValueError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
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
    rows = [[name, rmse] for name, rmse in result.rmse.items()]
    print(format_table(["Predictor", "RMSE"], rows, title=f"=== {config.name} ==="))
    if result.all_skipped:
        print("all stages skipped (complete run for this config already on disk; --force re-runs)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    return _run_lint(args)


def _read_record(directory: str) -> Optional[dict]:
    record = obs.read_record(directory)
    if record is None:
        print(f"no run record ({obs.RECORD_NAME}) in {directory}", file=sys.stderr)
    return record


def _cmd_obs_report(args: argparse.Namespace) -> int:
    record = _read_record(args.dir)
    if record is None:
        return 1
    print(f"=== {record.get('kind')} run: {Path(args.dir) / obs.RECORD_NAME} ===")
    for key, value in sorted(record.items()):
        if key not in ("stages", "counters"):
            text = json.dumps(value, sort_keys=True) if isinstance(value, (dict, list)) else value
            print(f"{key:>16}: {text}")
    # the high-water mark only rises: unchanged, it is an earlier run's
    at_start = record.get("peak_rss_mb_at_start")
    if at_start is not None and at_start >= record.get("peak_rss_mb", 0.0):
        print("peak_rss_mb was set before this run: the process's high-water mark did not rise during it")
    stages = record.get("stages") or []
    if stages:
        rows = [
            [stage["stage"], stage["status"], f"{stage['duration_s']:.2f}s", f"{stage['peak_rss_mb']:.1f}", json.dumps(stage["detail"])]
            for stage in stages
        ]
        print(format_table(["Stage", "Status", "Time", "Peak MB", "Detail"], rows, title="stages"))
    counters = record.get("counters")
    if counters:
        rows = [[name, f"{value:g}"] for name, value in sorted(counters.items())]
        print(format_table(["Counter", "Value"], rows, title="counters"))
    return 0


def _cmd_obs_check_slo(args: argparse.Namespace) -> int:
    try:
        budget = obs.load_slo(args.budget)
    except (OSError, ValueError) as exc:
        print(f"{args.budget}: {exc}", file=sys.stderr)
        return 2
    record = _read_record(args.dir)
    if record is None:
        return 1
    path = Path(args.dir) / obs.RECORD_NAME
    if budget["budgets"].get("counter_max") and "counters" not in record:
        print(f"{path} has no counters (run with --obs metrics) but {args.budget} bounds counters", file=sys.stderr)
        return 1
    violations = obs.evaluate_slo(budget, record)
    for violation in violations:
        print(violation.message(), file=sys.stderr)
    if violations:
        print(f"FAIL: {len(violations)} SLO violation(s) of {path} against {args.budget}", file=sys.stderr)
        return 1
    print(f"OK: {path} is within budget {args.budget}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro5g", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize one CA trace")
    _add_common_sim_args(sim)
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
                      help="write the campaign's traces as JSONL here (spills them into <state-dir>/traces first)")
    camp.add_argument("--cells", type=int, default=0,
                      help="share one ~N-cell deployment per group (0 = per-UE deployments)")
    camp.add_argument("--shards", type=int, default=1, help="worker shards for the UE population")
    camp.add_argument("--cohort", type=int, default=32, help="UEs batched per SoA radio step")
    camp.add_argument("--state-dir", default=None,
                      help="resumable shard state directory (default: runs/campaigns/city-<hash>)")
    camp.add_argument("--max-shards", type=int, default=None,
                      help="run at most N pending shards then stop (exit 3 if shards remain)")
    camp.add_argument("--spill", action="store_true",
                      help="spill per-cohort traces into <state-dir>/traces, beside the shard files")
    camp.add_argument("--shard-timeout", type=float, default=None,
                      help="per-shard wall budget in seconds (expired shards retry once)")
    _add_obs_arg(camp)
    _add_sanitize_arg(camp)
    camp.set_defaults(func=_cmd_campaign)

    run = sub.add_parser("run", help="run (or resume) an experiment from a JSON config")
    run.add_argument("config", help="path to an experiment JSON file (see examples/)")
    run.add_argument("--out-dir", default=None, help="run directory (default: runs/<name>-<hash>)")
    run.add_argument("--force", action="store_true", help="re-run every stage even if artifacts exist")
    _add_obs_arg(run)
    _add_sanitize_arg(run)
    run.set_defaults(func=_cmd_run)

    lint = sub.add_parser("lint", help="run the repo's AST invariant checks (rules RL001, RL003–RL009)")
    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    obs_cmd = sub.add_parser("obs", help="read a run record (run.json)")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser("report", help="print the run record in a run or campaign state directory")
    report.add_argument("dir", help="run directory or campaign state directory")
    report.set_defaults(func=_cmd_obs_report)
    check = obs_sub.add_parser("check-slo", help="check the run record in a directory against a perf budget")
    check.add_argument("--budget", required=True, help="repro-slo-v1 JSON budget file")
    check.add_argument("dir", help="run directory or campaign state directory")
    check.set_defaults(func=_cmd_obs_check_slo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # --sanitize and --obs switch process-wide state; an in-process
    # caller gets its own switches back
    flags, mode = runtime.flags(), obs.mode()
    try:
        return args.func(args)
    finally:
        runtime.configure(**flags)
        obs.configure(mode=mode)


if __name__ == "__main__":
    raise SystemExit(main())

"""PERF — wall-clock benchmark for the batched-path perf PRs.

Times a Table-4-style workload (synthesize one sub-dataset, train +
predict an LSTM and a Prism5G model) on the shipped path: warm on-disk
trace cache, array radio update, fused sequence kernels,
carrier-folded Prism5G, and ``no_grad`` prediction.
``predictions_match`` checks that ``no_grad`` prediction agrees with a
graph-building forward over the same test windows.
``prism_predict_window_ms`` times batch-1 Prism5G prediction, one test
window per call as an online client asks for it: real-time on-device
prediction makes the latency of one forecast the figure of merit, so
the record keeps its median and p90 over the windows, not only the
whole-phase ``prism_predict`` time.  A ``stages_s``
section records micro-timings of one Prism5G forward+backward, one
fused decoder rollout and a 300-step simulator run.

``arena_multitrace`` A/Bs multi-trace stacking: the same seeded
full-batch workload fit once as per-trace kernel calls and once as a
single stacked ``fit_traces`` pass.  Both paths see identical rows in
identical order, so their losses match step for step and the held-out
predictions agree to tolerance — the speedup isolates dispatch
amortization, not a different training trajectory.

A ``campaign_city`` section times the sharded city-campaign engine
(``repro.ran.run_city_campaign``) on a small shared-deployment
workload, once as a single serial shard and once over 4 shards with 4
worker processes, recording UEs/sec, peak RSS and ``host_cpus`` — the
shard speedup is a core-count story, so the >2x target only applies on
hosts with 4+ cores.

Every phase is timed best-of-3 (training is seeded, so repeats do
identical work): single-shot wall clocks on shared hosts are dominated
by scheduler noise — the same code has measured 2-3x apart run to run.
Results (per-phase seconds and the end-to-end total) go to
``BENCH_perf.json`` at the repo root.  The first run records itself as
the regression baseline; later runs update ``latest`` only.

Run as a script (``scripts/perf_smoke.sh`` does this)::

    PYTHONPATH=src python benchmarks/bench_perf_training.py [--check] [--obs-check]

``--check`` exits non-zero when the current end-to-end time regresses
by more than 2x against the recorded baseline.  ``--obs-check`` exits
non-zero when ``metrics``-mode observability slows a micro-workload by
more than 5% over the disabled path.  Under pytest the same workload
runs as a ``slow``-marked benchmark test.

Wall clocks are ``time.perf_counter()`` deltas.  Under
``REPRO_OBS=metrics`` the bench also writes a ``bench`` run manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_perf.json"
RESULT_SCHEMA = "bench-perf-v1"
REGRESSION_FACTOR = 2.0
OBS_OVERHEAD_LIMIT = 1.05


def _workload_params() -> Dict:
    full = os.environ.get("REPRO_SCALE") == "full"
    return {
        "scale": "full" if full else "fast",
        "operator": "OpX",
        "mobility": "walking",
        "timescale": "long",
        "n_traces": 10 if full else 4,
        "samples_per_trace": 400 if full else 200,
        "hidden": 32 if full else 24,
        "lstm_epochs": 12 if full else 6,
        "prism_epochs": 8 if full else 4,
    }


def _grad_mode_predict(predictor, dataset) -> np.ndarray:
    """Predict through graph-building forwards (the ``no_grad`` cross-check)."""
    trainer = predictor.trainer
    x = predictor._packed(dataset)
    outputs = []
    for start in range(0, len(x), trainer.batch_size):
        pred = trainer.forward_fn(trainer.model, x[start : start + trainer.batch_size])
        outputs.append(np.asarray(pred.numpy(), dtype=np.float64))
    return np.concatenate(outputs, axis=0)


def _stage_timings(dataset, params) -> Dict[str, float]:
    """Micro-timings of the folded Prism5G step, the fused decoder
    rollout and a 300-step simulator run."""
    from repro.core.prism5g import Prism5G, pack_inputs
    from repro.nn import Tensor
    from repro.ran.simulator import TraceSimulator

    stages: Dict[str, float] = {}

    def best_of(name, fn, repeat=7) -> float:
        # best-of-N: single-shot timings on shared hosts are dominated
        # by scheduler noise (observed 2-3x spikes on identical code).
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    windows = dataset.windows
    packed = pack_inputs(windows.x, windows.mask, windows.y_hist)
    model = Prism5G(
        n_ccs=windows.n_ccs, n_features=windows.x.shape[3],
        horizon=windows.horizon, hidden=params["hidden"],
    )

    # one training step at the trainer's batch size — the shape
    # prism_train actually runs
    batch = packed[: min(128, len(packed))]

    def fwd_bwd() -> None:
        loss = (model(Tensor(batch)) ** 2).mean()
        model.zero_grad()
        loss.backward()

    stages["prism_fwd_bwd_folded"] = best_of("prism_fwd_bwd_folded", fwd_bwd)

    # decoder rollout over every (sample, carrier) state, as the folded
    # forward ships it — per-carrier lstm_decoder_seq calls so the step
    # arrays stay L2-resident (see _FOLD_CHUNK_ROWS)
    n = len(packed)
    h0_parts = [Tensor(np.zeros((n, params["hidden"]))) for _ in range(windows.n_ccs)]
    stages["decoder_rollout_fused"] = best_of(
        "decoder_rollout_fused", lambda: [model._decode(part) for part in h0_parts]
    )

    def sim_steps() -> None:
        sim = TraceSimulator(operator=params["operator"], seed=11, dt_s=0.1)
        sim.run(30.0)

    stages["sim_300_steps_vec"] = best_of("sim_300_steps_vec", sim_steps, repeat=5)
    return stages


def _predict_window_ms(predictor, dataset) -> Dict[str, object]:
    """Median and p90 milliseconds of ``predictor.predict`` on one window."""
    windows = [dataset.subset(np.array([i])) for i in range(len(dataset))]
    times_ms = []
    for window in windows:
        t0 = time.perf_counter()
        predictor.predict(window)
        times_ms.append((time.perf_counter() - t0) * 1e3)
    return {
        "median": round(float(np.median(times_ms)), 4),
        "p90": round(float(np.percentile(times_ms, 90)), 4),
        "windows": len(times_ms),
    }


def _arena_multitrace_timings(params) -> Dict[str, object]:
    """A/B multi-trace stacking on the training path.

    Both arms run the *same* seeded full-batch workload — identical rows
    in identical order per optimizer step — so the trained models agree
    to tolerance and the timing delta isolates the mechanics:

    * **per_trace_split** — every batch forward runs one kernel call per
      trace (N small ``(B, T, F)`` passes concatenated), the
      pre-``fit_traces`` shape of many-small-traces training;
    * **stacked_arena** — :meth:`Trainer.fit_traces` stacks the traces
      so each fused kernel sweeps one ``(N*B, T, F)`` batch.

    The names are kept for the ``BENCH_perf.json`` keys; no scratch is
    pooled in either arm, every kernel call allocates its own.
    """
    from repro.nn.modules import LSTM, Linear, Module
    from repro.nn.tensor import Tensor, concat
    from repro.nn.training import Trainer

    n_traces, per_trace, time_steps, features = 6, 40, 20, 10
    hidden, epochs = params["hidden"], 8

    class _Head(Module):
        def __init__(self) -> None:
            super().__init__()
            self.rnn = LSTM(features, hidden, rng=np.random.default_rng(1))
            self.out = Linear(hidden, 1, rng=np.random.default_rng(2))

        def forward(self, x):
            out, _ = self.rnn(x)
            return self.out(out[:, -1, :])

    rng = np.random.default_rng(3)
    traces = [
        (rng.standard_normal((per_trace, time_steps, features)),
         rng.standard_normal((per_trace, 1)))
        for _ in range(n_traces)
    ]
    x_all = np.concatenate([x for x, _ in traces])
    y_all = np.concatenate([y for _, y in traces])
    x_test = rng.standard_normal((64, time_steps, features))

    def split_forward(model, xb):
        parts = [model(Tensor(xb[s : s + per_trace])) for s in range(0, len(xb), per_trace)]
        return concat(parts, axis=0)

    def make_trainer(split: bool) -> Trainer:
        return Trainer(
            _Head(), lr=0.01, batch_size=n_traces * per_trace,
            max_epochs=epochs, patience=epochs,
            forward_fn=split_forward if split else None, seed=0,
        )

    def fit_split() -> Trainer:
        trainer = make_trainer(split=True)
        trainer.fit(x_all, y_all)
        return trainer

    def fit_stacked() -> Trainer:
        trainer = make_trainer(split=False)
        trainer.fit_traces(traces)
        return trainer

    def best_of(fn, repeat=3):
        best, result = float("inf"), None
        for _ in range(repeat):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        return best, result

    split_s, split_trainer = best_of(fit_split)
    stacked_s, stacked_trainer = best_of(fit_stacked)
    match = bool(
        np.allclose(
            split_trainer.predict(x_test), stacked_trainer.predict(x_test),
            rtol=1e-9, atol=1e-12,
        )
    )
    return {
        "n_traces": n_traces,
        "windows_per_trace": per_trace,
        "epochs": epochs,
        "per_trace_split_s": round(split_s, 4),
        "stacked_arena_s": round(stacked_s, 4),
        "speedup": round(split_s / stacked_s, 2) if stacked_s > 0 else float("inf"),
        "predictions_match": match,
    }


def _campaign_city_timings(params) -> Dict[str, object]:
    """UEs/sec for the sharded city-campaign engine, 1 vs 4 shards.

    Runs the same small shared-deployment campaign (one operator/scenario
    group, SoA cohort stepping, streaming accumulators) twice: once as a
    single serial shard and once split over 4 shards with 4 worker
    processes requested.  Each row records wall seconds, UEs/sec and the
    peak RSS seen by the parent + reaped children.  ``host_cpus`` is
    recorded alongside because the shard speedup is a core-count story:
    on a single-core runner the 4-shard row measures pure sharding
    overhead (expect ~1x or slightly below), while the >2x target only
    applies where ``host_cpus >= 4``.
    """
    from repro.ran import CityCampaignConfig, run_city_campaign

    full = params["scale"] == "full"
    ues = 1024 if full else 256

    def run_once(shards: int, processes: int) -> Dict[str, object]:
        config = CityCampaignConfig(
            operators=("OpZ",),
            scenarios=("urban",),
            rats=("5G",),
            ues=ues,
            cells=12,
            shards=shards,
            cohort=64,
            duration_s=4.0,
            dt_s=1.0,
            seed=9,
        )
        state = tempfile.mkdtemp(prefix="repro-bench-campaign-")
        try:
            result = run_city_campaign(config, state_dir=state, processes=processes)
        finally:
            shutil.rmtree(state, ignore_errors=True)
        return {
            "shards": shards,
            "processes": processes,
            "wall_s": round(result.wall_s, 4),
            "ues_per_sec": round(result.ues_per_sec, 1),
            "peak_rss_mb": round(result.peak_rss_mb, 1),
        }

    serial = run_once(shards=1, processes=1)
    sharded = run_once(shards=4, processes=4)
    speedup = (
        sharded["ues_per_sec"] / serial["ues_per_sec"]
        if serial["ues_per_sec"] > 0
        else float("inf")
    )
    return {
        "ues": ues,
        "host_cpus": os.cpu_count() or 1,
        "serial": serial,
        "sharded": sharded,
        "speedup": round(speedup, 2),
    }


def _tune_allocator() -> None:
    """Raise glibc's mmap threshold so multi-MB activation buffers are
    recycled from the heap instead of being mmap'd and page-faulted anew
    on every training step.  Linux-only, best effort; results are
    bit-identical either way — this only changes where buffers live.
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(-3, 512 * 1024 * 1024)  # M_MMAP_THRESHOLD
    except (OSError, AttributeError):  # pragma: no cover - non-glibc hosts
        pass


def run_workload(emit=print) -> Dict:
    """Time the shipped path; return the result record."""
    from repro import obs
    from repro.core import DeepConfig, LSTMPredictor, Prism5GPredictor
    from repro.data import SubDatasetSpec, TraceCache, build_subdataset, random_split

    _tune_allocator()

    params = _workload_params()
    spec = SubDatasetSpec(params["operator"], params["mobility"], params["timescale"])
    build_kwargs = dict(
        n_traces=params["n_traces"], samples_per_trace=params["samples_per_trace"]
    )

    def lstm_config() -> DeepConfig:
        return DeepConfig(
            hidden=params["hidden"], max_epochs=params["lstm_epochs"],
            patience=params["lstm_epochs"],
        )

    def prism_config() -> DeepConfig:
        return DeepConfig(
            hidden=params["hidden"], max_epochs=params["prism_epochs"],
            patience=params["prism_epochs"],
        )

    current: Dict[str, float] = {}

    def timed(fn, repeat: int = 3):
        """Best-of-N wall clock (shared hosts show 2-3x scheduler spikes).

        Training is seeded and deterministic, so every repeat does
        identical work and returns an identical result.
        """
        best, result = float("inf"), None
        for _ in range(repeat):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        return best, result

    # --- synthesis: warm on-disk cache ---
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        cache = TraceCache(cache_dir)
        build_subdataset(spec, cache=cache, **build_kwargs)  # prime (cold, parallel)
        current["synthesize"], dataset = timed(
            lambda: build_subdataset(spec, cache=cache, **build_kwargs)
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    train, val, test = random_split(dataset.windows, 0.5, 0.2, 0.3, seed=0)

    def fit_lstm():
        predictor = LSTMPredictor(lstm_config())
        predictor.fit(train, val)
        return predictor

    def fit_prism():
        predictor = Prism5GPredictor(prism_config())
        predictor.fit(train, val)
        return predictor

    # --- models: fused kernels, CC folding, no_grad predict ---
    current["lstm_train"], lstm = timed(fit_lstm)
    current["lstm_predict"], lstm_pred = timed(lambda: lstm.predict(test))
    current["prism_train"], prism = timed(fit_prism)
    current["prism_predict"], prism_pred = timed(lambda: prism.predict(test))

    current["end_to_end"] = sum(current.values())
    predict_window_ms = _predict_window_ms(prism, test)
    predictions_match = bool(
        np.allclose(lstm_pred, _grad_mode_predict(lstm, test), rtol=1e-9, atol=1e-12)
        and np.allclose(
            prism_pred, _grad_mode_predict(prism, test)[:, : test.horizon], rtol=1e-9, atol=1e-12
        )
    )
    stages = _stage_timings(dataset, params)
    arena_multitrace = _arena_multitrace_timings(params)
    campaign_city = _campaign_city_timings(params)

    record = {
        "workload": params,
        "current_s": {k: round(v, 4) for k, v in current.items()},
        "stages_s": {k: round(v, 4) for k, v in stages.items()},
        "prism_predict_window_ms": predict_window_ms,
        "arena_multitrace": arena_multitrace,
        "campaign_city": campaign_city,
        "predictions_match": predictions_match,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }

    emit("=== PERF: wall-clock (seconds) ===")
    for phase in ("synthesize", "lstm_train", "lstm_predict", "prism_train", "prism_predict", "end_to_end"):
        emit(f"{phase:<14}{current[phase]:>10.3f}")
    emit(f"no_grad predictions match graph-mode forward: {predictions_match}")
    emit(
        f"prism_predict per window (batch 1, {predict_window_ms['windows']} windows): "
        f"median {predict_window_ms['median']:.3f} ms, p90 {predict_window_ms['p90']:.3f} ms"
    )
    emit("--- per-stage (seconds) ---")
    for key, value in stages.items():
        emit(f"{key:<24}{value:>10.4f}")
    amt = record["arena_multitrace"]
    emit(
        f"multi-trace: per-trace split {amt['per_trace_split_s']:.4f}s vs "
        f"stacked {amt['stacked_arena_s']:.4f}s ({amt['speedup']:.2f}x), "
        f"predictions match: {amt['predictions_match']}"
    )
    cc = record["campaign_city"]
    emit(
        f"city campaign ({cc['ues']} UEs, {cc['host_cpus']} cpus): "
        f"1 shard {cc['serial']['ues_per_sec']:.0f} UEs/s vs "
        f"4 shards {cc['sharded']['ues_per_sec']:.0f} UEs/s ({cc['speedup']:.2f}x), "
        f"peak RSS {max(cc['serial']['peak_rss_mb'], cc['sharded']['peak_rss_mb']):.0f} MB"
    )
    obs.write_manifest(
        kind="bench",
        config=params,
        seed=0,
        extra={
            "predictions_match": predictions_match,
            "current_s": record["current_s"],
            "stages_s": record["stages_s"],
            "prism_predict_window_ms": record["prism_predict_window_ms"],
            "arena_multitrace": record["arena_multitrace"],
            "campaign_city": record["campaign_city"],
        },
    )
    return record


def check_obs_overhead(emit=print, attempts: int = 3) -> bool:
    """True when ``metrics``-mode observability costs <= 5% on a hot workload.

    Times a micro-workload (one fine-grained simulator run + a short
    Prism5G fit — the paths carrying per-step and per-epoch counters)
    with observability off and in ``metrics`` mode, interleaved
    pairwise.  Guards the "disabled path is a near-no-op, enabled path
    stays cheap" contract from DESIGN.md.

    A failing measurement is retried (``attempts`` total): scheduler
    spikes on shared hosts inflate a single measurement far beyond 5%,
    while a genuine regression fails every attempt.
    """
    for attempt in range(attempts):
        if _measure_obs_overhead(emit):
            return True
        if attempt < attempts - 1:
            emit(f"obs overhead attempt {attempt + 1}/{attempts} failed; re-measuring")
    return False


def _measure_obs_overhead(emit) -> bool:
    from repro import obs
    from repro.core import DeepConfig, Prism5GPredictor
    from repro.data import SubDatasetSpec, build_subdataset, random_split
    from repro.ran.simulator import TraceSimulator

    params = _workload_params()
    spec = SubDatasetSpec(params["operator"], params["mobility"], params["timescale"])
    dataset = build_subdataset(spec, cache=None, processes=1, n_traces=2, samples_per_trace=120)
    train, val, _ = random_split(dataset.windows, 0.5, 0.2, 0.3, seed=0)
    # the workload must be long enough that fixed per-run costs (one
    # manifest write at the end of fit, ~2ms) stay well inside the 5%
    # budget; per-step/per-epoch instrumentation is what's being gated
    config = DeepConfig(hidden=16, max_epochs=4, patience=4)

    def work() -> None:
        sim = TraceSimulator(operator=params["operator"], seed=7, dt_s=0.1)
        sim.run(30.0)  # 300 steps: the per-step instrumented hot loop
        Prism5GPredictor(config).fit(train, val)

    manifest_dir = tempfile.mkdtemp(prefix="repro-obs-check-")
    try:
        obs.configure(mode=obs.MODE_OFF)
        work()  # warmup (allocator, code paths)
        # interleave off/metrics repeats and compare *pairwise*: the
        # workload is ~150ms, and host drift (frequency scaling, cache
        # state, GC pauses) over a block of repeats is larger than the
        # overhead being measured — an adjacent off/on pair sees the
        # same host state, so per-pair ratios isolate the obs cost.
        # gc.collect() before each timed run keeps collection pauses
        # out of the wall clocks.
        import gc

        pairs = []
        for _ in range(9):
            obs.configure(mode=obs.MODE_OFF)
            gc.collect()
            t0 = time.perf_counter()
            work()
            off_t = time.perf_counter() - t0
            obs.configure(mode=obs.MODE_METRICS, directory=manifest_dir)
            gc.collect()
            t0 = time.perf_counter()
            work()
            pairs.append((off_t, time.perf_counter() - t0))
    finally:
        obs.configure()  # back to env-driven mode
        obs.reset()
        shutil.rmtree(manifest_dir, ignore_errors=True)
    ratios = sorted(on_t / off_t for off_t, on_t in pairs if off_t > 0)
    median_ratio = ratios[len(ratios) // 2] if ratios else float("inf")
    off_s = min(off_t for off_t, _ in pairs)
    on_s = min(on_t for _, on_t in pairs)
    min_ratio = on_s / off_s if off_s > 0 else float("inf")
    # noise only inflates each estimator, so take the smaller of the
    # two: a real regression shifts the whole distribution and trips
    # both, while a stray slow window trips at most one
    ratio = min(median_ratio, min_ratio)
    ok = ratio <= OBS_OVERHEAD_LIMIT
    emit(
        f"obs overhead check: off {off_s:.3f}s vs metrics {on_s:.3f}s "
        f"({ratio:.3f}x = min(median-pairwise {median_ratio:.3f}, best-of {min_ratio:.3f}), "
        f"limit {OBS_OVERHEAD_LIMIT:.2f}x) -> {'OK' if ok else 'FAIL'}"
    )
    return ok


def load_results() -> Dict:
    if RESULT_PATH.exists():
        try:
            results = json.loads(RESULT_PATH.read_text())
            if results.get("schema") == RESULT_SCHEMA:
                return results
        except (ValueError, OSError):
            pass
    return {"schema": RESULT_SCHEMA}


def save_results(record: Dict) -> Dict:
    """Merge ``record`` into BENCH_perf.json; first run becomes baseline."""
    results = load_results()
    if "baseline" not in results:
        results["baseline"] = record
    results["latest"] = record
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return results


def check_regression(results: Dict, emit=print) -> bool:
    """True when the latest run is within REGRESSION_FACTOR of baseline."""
    baseline = results.get("baseline")
    latest = results.get("latest")
    if not baseline or not latest:
        emit("no baseline recorded yet; nothing to check")
        return True
    base_total = baseline["current_s"]["end_to_end"]
    latest_total = latest["current_s"]["end_to_end"]
    ratio = latest_total / base_total if base_total > 0 else float("inf")
    ok = ratio <= REGRESSION_FACTOR
    emit(
        f"regression check: latest {latest_total:.3f}s vs baseline {base_total:.3f}s "
        f"({ratio:.2f}x, limit {REGRESSION_FACTOR:.1f}x) -> {'OK' if ok else 'FAIL'}"
    )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help=f"fail when end-to-end time regresses >{REGRESSION_FACTOR}x vs the recorded baseline",
    )
    parser.add_argument(
        "--obs-check", action="store_true",
        help=f"fail when metrics-mode observability overhead exceeds {OBS_OVERHEAD_LIMIT:.2f}x",
    )
    args = parser.parse_args(argv)
    record = run_workload()
    results = save_results(record)
    print(f"wrote {RESULT_PATH}")
    if args.check and not check_regression(results):
        return 1
    if args.obs_check and not check_obs_overhead():
        return 1
    return 0


# ---------------------------------------------------------------------------
# pytest entry point (slow; excluded from the default tier-1 run)
try:
    import pytest

    from conftest import run_once

    @pytest.mark.slow
    def test_perf_training(benchmark, report):
        record = run_once(benchmark, lambda: run_workload(emit=report.emit))
        results = save_results(record)
        assert record["predictions_match"]
        assert record["arena_multitrace"]["predictions_match"]
        assert check_regression(results, emit=report.emit)

except ImportError:  # pragma: no cover - script mode without pytest
    pass


if __name__ == "__main__":
    sys.exit(main())

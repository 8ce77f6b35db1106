"""Gate the cost of ``repro.obs``: ``metrics`` mode may add at most 5%.

Run from the repository root; exits 1 when the gate fails::

    PYTHONPATH=src python scripts/obs_overhead.py

Wall clocks are ``time.perf_counter()`` deltas; a run takes a few
seconds.
"""

from __future__ import annotations

import sys
import time

OBS_OVERHEAD_LIMIT = 1.05
OPERATOR, MOBILITY, TIMESCALE = "OpX", "walking", "long"


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

    spec = SubDatasetSpec(OPERATOR, MOBILITY, TIMESCALE)
    dataset = build_subdataset(spec, cache=None, processes=1, n_traces=2, samples_per_trace=120)
    train, val, _ = random_split(dataset.windows, 0.5, 0.2, 0.3, seed=0)
    # the workload must be long enough that fixed per-run costs stay
    # well inside the 5% budget; per-step/per-epoch instrumentation is
    # what's being gated
    config = DeepConfig(hidden=16, max_epochs=4, patience=4)

    def work() -> None:
        sim = TraceSimulator(operator=OPERATOR, seed=7, dt_s=0.1)
        sim.run(30.0)  # 300 steps: the per-step instrumented hot loop
        Prism5GPredictor(config).fit(train, val)

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
            obs.configure(mode=obs.MODE_METRICS)
            gc.collect()
            t0 = time.perf_counter()
            work()
            pairs.append((off_t, time.perf_counter() - t0))
    finally:
        obs.configure()  # back to env-driven mode
        obs.reset()
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


if __name__ == "__main__":
    sys.exit(0 if check_obs_overhead() else 1)

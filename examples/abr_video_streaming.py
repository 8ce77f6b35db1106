#!/usr/bin/env python
"""UHD (16K) video streaming with MPC over 5G CA traces (paper §7).

Streams the paper's 16K quality ladder [1.5, 2.5, 40.71, 152.66, 280,
585] Mbps through the MPC ABR controller, swapping its bandwidth
forecaster between the stock harmonic mean, a trained Prism5G, and a
clairvoyant oracle — reproducing the shape of Figs 20-21: Prism5G
keeps the bitrate while cutting stalls, especially the tail.

Run:  python examples/abr_video_streaming.py [--quick]

``--quick`` shrinks it to a CI-smoke size (2 training traces of 60
samples, a few epochs, 2 streaming sessions of 60 s) — same code path,
seconds instead of minutes.
"""

import argparse

import numpy as np

from repro.analysis import format_table
from repro.apps import (
    ABRConfig,
    MPCPlayer,
    harmonic_forecaster,
    oracle_forecaster_factory,
    predictor_forecaster,
    stall_tail_improvements,
)
from repro.core import DeepConfig, Prism5GPredictor
from repro.data import SubDatasetSpec, build_subdataset, random_split
from repro.ran import TraceSimulator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="tiny CI-smoke configuration"
    )
    args = parser.parse_args()
    # --- train a 1 s-scale Prism5G (10 s horizon, like the paper) -----
    spec = SubDatasetSpec("OpZ", "driving", "long")
    print("training Prism5G on the 1 s OpZ driving dataset ...")
    dataset = build_subdataset(
        spec,
        n_traces=2 if args.quick else 5,
        samples_per_trace=60 if args.quick else 200,
        seed=2,
    )
    train, val, _ = random_split(dataset.windows, 0.5, 0.2, 0.3, seed=0)
    if args.quick:
        deep = DeepConfig(hidden=16, max_epochs=4, patience=4)
    else:
        deep = DeepConfig(hidden=24, max_epochs=40, patience=12)
    prism = Prism5GPredictor(deep)
    prism.fit(train, val)

    # --- stream over fresh CA traces ----------------------------------
    config = ABRConfig(lookahead=3, chunk_s=2.0)
    player = MPCPlayer(config)
    results = {"harmonic": [], "Prism5G": [], "oracle": []}
    sessions, session_s = (2, 60.0) if args.quick else (6, 240.0)
    for seed in range(60, 60 + sessions):
        trace = TraceSimulator("OpZ", scenario="urban", mobility="driving", dt_s=1.0, seed=seed).run(session_s)
        tput = trace.throughput_series()
        forecasters = {
            "harmonic": harmonic_forecaster,
            "Prism5G": predictor_forecaster(prism, trace, dataset, config.chunk_s),
            "oracle": oracle_forecaster_factory(tput, trace.dt_s, config.chunk_s),
        }
        for name, forecaster in forecasters.items():
            results[name].append(player.run(tput, trace.dt_s, forecaster))

    rows = []
    for name, sessions in results.items():
        rows.append(
            [
                f"MPC+{name}",
                float(np.mean([s.avg_quality for s in sessions])),
                float(np.mean([s.stall_time_s for s in sessions])),
                float(np.mean([s.quality_switches for s in sessions])),
            ]
        )
    print()
    print(
        format_table(
            ["Policy", "Avg bitrate (Mbps)", "Avg stall (s)", "Avg switches"],
            rows,
            float_fmt="{:.1f}",
            title="=== 16K streaming over 5G CA (paper Fig 20) ===",
        )
    )

    # --- stall-time tail (paper Fig 21) --------------------------------
    base = [s.stall_time_s for s in results["harmonic"]]
    ours = [s.stall_time_s for s in results["Prism5G"]]
    gains = stall_tail_improvements(base, ours, percentiles=(99.0, 95.0, 90.0))
    print("\n=== Stall-time tail reduction, MPC+Prism5G vs MPC+harmonic (Fig 21) ===")
    for pct, gain in gains.items():
        print(f"  p{pct:.0f}: {gain:+.1f} s")


if __name__ == "__main__":
    main()

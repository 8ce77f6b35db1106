"""F29 — paper Fig 29: UE (modem) capability gates CA.

The S10 (X50 modem) gets no SA 5G CA; the S21 (X60) aggregates 2 CCs;
the S22 (X65) 3 CCs; the S23 (X70) 4 CCs — with throughput scaling
accordingly on the same network.
"""

import numpy as np

from repro.analysis import format_table
from repro.ran import UE_REGISTRY, simulate_stationary_ideal

from conftest import run_once

MODEMS = ("X50", "X60", "X65", "X70")


def test_fig29_ue_capability(benchmark, scale, report):
    def experiment():
        out = {}
        for modem in MODEMS:
            cc_counts, tputs = [], []
            for seed in range(scale.seeds):
                trace = simulate_stationary_ideal(
                    "OpZ", duration_s=min(scale.duration_s / 2, 30.0), seed=1900 + seed, modem=modem
                )
                cc_counts.append(trace.cc_count_series().max())
                tputs.append(trace.throughput_series().mean())
            out[modem] = (int(np.max(cc_counts)), float(np.mean(tputs)))
        return out

    results = run_once(benchmark, experiment)

    report.emit("=== Fig 29: CA and throughput by UE modem (same network) ===")
    rows = []
    for modem in MODEMS:
        phone = UE_REGISTRY[modem].phone_model
        max_cc, tput = results[modem]
        rows.append([phone, modem, max_cc, tput])
    report.emit(format_table(["Phone", "Modem", "Max CCs", "Mean Mbps"], rows, float_fmt="{:.0f}"))

    report.emit("")
    report.emit(
        "Shape check (paper Fig 29): X50 gets no SA CA (1 CC); newer"
        " modems unlock 2/3/4 CCs with growing throughput."
    )
    assert results["X50"][0] == 1
    assert results["X60"][0] == 2
    assert results["X65"][0] == 3
    assert results["X70"][0] == 4
    assert results["X70"][1] > results["X50"][1]

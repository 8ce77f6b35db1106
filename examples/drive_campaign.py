#!/usr/bin/env python
"""Measurement campaign: map CA deployment across operators & scenarios.

Reproduces the paper's measurement-study workflow (§2-§3) on the
synthetic substrate: drive all three operators through urban, suburban
and highway scenarios, then report the Table 1/2-style statistics —
channels observed, CA combinations (ordered / unique), CA prevalence,
and peak throughput — plus a Fig 4-style spatial CC map.

Run:  python examples/drive_campaign.py [--quick]

``--quick`` shrinks the campaign to a CI-smoke size (one UE per cell,
10 s traces) — same code path, ~seconds instead of minutes.  Shard
state goes to ``runs/campaigns/`` (a rerun resumes from it) and the
traces for the spatial map are spilled into the trace cache.
"""

import argparse

from repro.analysis import format_table
from repro.ran import CityCampaignConfig, cc_spatial_map, run_city_campaign


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--quick", action="store_true", help="tiny CI-smoke configuration"
    )
    args = parser.parse_args()
    config = CityCampaignConfig(
        operators=("OpX", "OpY", "OpZ"),
        scenarios=("urban", "suburban", "highway"),
        rats=("4G", "5G"),
        ues=1 if args.quick else 2,
        duration_s=10.0 if args.quick else 60.0,
        seed=3,
        spill_traces=True,
    )
    print(
        f"running campaign: 3 operators x 3 scenarios x 2 RATs x "
        f"{config.ues} UEs ..."
    )
    result = run_city_campaign(config)
    traces = result.load_spilled_traces()
    print(f"collected {len(traces)} traces, {traces.total_duration_s() / 60:.0f} min total\n")

    # --- Table 2-style per-operator summary --------------------------
    rows = []
    for (operator, rat, scenario), stats in sorted(result.stats.items()):
        rows.append(
            [
                operator,
                rat,
                scenario,
                stats.unique_channels,
                f"{stats.ordered_combos}/{stats.unique_combos}",
                stats.max_ccs,
                f"{stats.ca_prevalence * 100:.0f}%",
                f"{stats.peak_tput_mbps:.0f}",
            ]
        )
    print(
        format_table(
            ["Oper.", "RAT", "Scenario", "#Ch", "Combos (ord/uniq)", "Max CCs", "CA preval.", "Peak Mbps"],
            rows,
            title="=== CA deployment statistics (paper Tables 1-2, Fig 25) ===",
        )
    )

    # --- Fig 25: 5G CA prevalence comparison -------------------------
    table = result.prevalence_table()
    print("\n=== 5G CA prevalence by operator (paper: OpX 24%, OpY 44%, OpZ 86%) ===")
    for operator, by_scenario in sorted(table.items()):
        avg = sum(by_scenario.values()) / len(by_scenario)
        detail = ", ".join(f"{s}: {v * 100:.0f}%" for s, v in sorted(by_scenario.items()))
        print(f"{operator}: avg {avg * 100:.0f}%  ({detail})")

    # --- Fig 4: spatial CC map for one OpZ urban drive ---------------
    opz_urban = traces.filter(operator="OpZ", scenario="urban", rat="5G")
    five_g = [t for t in opz_urban if any(r.n_active_ccs for r in t.records)]
    if five_g:
        grid = cc_spatial_map(five_g[0], grid_m=150.0)
        print("\n=== Spatial mean CC count on a 150 m grid (paper Fig 4) ===")
        for (gx, gy), mean_ccs in sorted(grid.items()):
            print(f"  cell ({gx:+d},{gy:+d}): {mean_ccs:.1f} CCs")

    # --- Top CA combinations ------------------------------------------
    print("\n=== Most frequent 5G CA combinations (paper Table 7) ===")
    for (operator, rat, scenario), stats in sorted(result.stats.items()):
        if rat != "5G" or scenario != "urban":
            continue
        for combo, count in stats.top_combos(3):
            print(f"  {operator}: {combo}  ({count} samples)")


if __name__ == "__main__":
    main()

"""F4 — paper Fig 4 / Fig 25: CA prevalence and the spatial CC map.

Drives each operator through each scenario and reports the fraction of
samples served by >= 2 CCs (Fig 25), plus a Fig 4-style spatial map of
the mean CC count over a grid for one OpZ urban drive.
"""

import numpy as np

from repro.analysis import format_table
from repro.ran import CityCampaignConfig, cc_spatial_map, run_city_campaign

from conftest import run_once


def test_fig4_ca_prevalence_and_spatial_map(benchmark, scale, report, tmp_path):
    def experiment():
        config = CityCampaignConfig(
            operators=("OpX", "OpY", "OpZ"),
            scenarios=("urban", "suburban", "highway"),
            rats=("5G", "4G"),
            ues=scale.seeds,
            duration_s=scale.duration_s,
            seed=23,
            spill_traces=True,
        )
        return run_city_campaign(config, state_dir=tmp_path / "campaign")

    result = run_once(benchmark, experiment)

    report.emit("=== Fig 25: CA prevalence (fraction of samples with >=2 CCs) ===")
    rows = []
    for (operator, rat, scenario), stats in sorted(result.stats.items()):
        rows.append([operator, rat, scenario, f"{stats.ca_prevalence * 100:.0f}%"])
    report.emit(format_table(["Oper.", "RAT", "Scenario", "CA prevalence"], rows))

    table = result.prevalence_table()
    averages = {op: float(np.mean(list(v.values()))) for op, v in table.items()}
    report.emit("")
    report.emit(
        "5G averages: "
        + ", ".join(f"{op} {avg * 100:.0f}%" for op, avg in sorted(averages.items()))
        + "  (paper: OpX 24%, OpY 44%, OpZ 86%)"
    )
    assert averages["OpZ"] > averages["OpY"] >= 0.0
    assert averages["OpZ"] > averages["OpX"]

    # 4G CA should be near-ubiquitous for every operator (paper Fig 25)
    for (operator, rat, scenario), stats in result.stats.items():
        if rat == "4G":
            assert stats.ca_prevalence > 0.5, f"4G CA should be widespread ({operator}/{scenario})"

    report.emit("")
    report.emit("=== Fig 4: spatial mean-CC map, OpZ urban drive (150 m grid) ===")
    opz_urban = result.load_spilled_traces().filter(operator="OpZ", scenario="urban", rat="5G")
    grid = cc_spatial_map(opz_urban[0], grid_m=150.0)
    for (gx, gy), mean_ccs in sorted(grid.items()):
        report.emit(f"  cell ({gx:+d},{gy:+d}): {'#' * int(round(mean_ccs))} {mean_ccs:.1f}")
    assert max(grid.values()) >= 2.0

"""T2 — paper Table 2 / Tables 6-7: channel allocation and CA combos.

Regenerates the per-operator channel/band allocation and the observed
CA combinations with aggregated bandwidths, including the
ordered-vs-unique combination counts ("270/162"-style) the paper
reports.
"""

from repro.analysis import format_table
from repro.ran import CityCampaignConfig, get_operator, run_city_campaign

from conftest import run_once


def test_table2_channel_allocation(benchmark, scale, report, tmp_path):
    def experiment():
        config = CityCampaignConfig(
            operators=("OpX", "OpY", "OpZ"),
            scenarios=("urban",),
            rats=("4G", "5G"),
            ues=scale.seeds,
            duration_s=scale.duration_s,
            seed=11,
        )
        return run_city_campaign(config, state_dir=tmp_path / "campaign")

    result = run_once(benchmark, experiment)

    # --- Table 2(a): band allocation per operator ----------------------
    report.emit("=== Table 2(a): band allocation per operator ===")
    rows = []
    for op_name in ("OpX", "OpY", "OpZ"):
        profile = get_operator(op_name)
        for plan in profile.channel_plans():
            from repro.ran import get_band

            band = get_band(plan.band_name)
            rows.append(
                [op_name, plan.band_name, band.duplex, f"{band.freq_mhz:.0f}", f"{plan.bandwidth_mhz:g}", plan.per_site]
            )
    report.emit(format_table(["Oper.", "Band", "Mode", "Freq MHz", "BW MHz", "#/site"], rows))

    # --- Table 2(b): observed CA combinations -------------------------
    report.emit("")
    report.emit("=== Table 2(b)/Table 7: observed CA combinations ===")
    rows = []
    for (operator, rat, _scenario), stats in sorted(result.stats.items()):
        label = f"{operator} {rat}"
        rows.append(
            [
                label,
                f"up to {stats.max_ccs} CCs",
                f"{stats.ordered_combos}/{stats.unique_combos}",
                f"{stats.peak_tput_mbps:.0f} Mbps peak",
            ]
        )
        for combo, count in stats.top_combos(2):
            rows.append([label, f"  {combo}", str(count), ""])
    report.emit(format_table(["Oper./RAT", "Combination", "Num (ord/uniq)", "Peak"], rows))

    # --- shape assertions mirroring the paper -------------------------
    opz_5g = result.stats[("OpZ", "5G", "urban")]
    opx_5g = result.stats[("OpX", "5G", "urban")]
    assert opz_5g.max_ccs >= 3, "OpZ aggregates 4 FR1 CCs in the paper"
    report.emit("")
    report.emit(
        f"Shape check: OpZ reaches {opz_5g.max_ccs} CCs (paper: 4 in FR1); "
        f"OpX FR1 is capped at 2 ({opx_5g.max_ccs} observed)."
    )

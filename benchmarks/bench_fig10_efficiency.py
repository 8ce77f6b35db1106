"""F10 — paper Fig 10: spectral efficiency differs across channels/bands.

Measures bits/s/Hz per channel under good channel conditions (CQI > 12,
the paper's filter) from ideal-condition runs, plus the theoretical
per-band ceilings.
"""

from repro.analysis import format_table, spectral_efficiency, theoretical_efficiency_bps_hz
from repro.ran import simulate_stationary_ideal

from conftest import run_once

#: channels probed, with their configured bandwidth (OpZ FR1 plan).
CHANNELS = {
    "n71@600": ("n71", 20.0),
    "n25@1900": ("n25", 20.0),
    "n41@2500": ("n41", 100.0),
    "n41@2600": ("n41", 40.0),
}


def test_fig10_spectral_efficiency(benchmark, scale, report):
    def experiment():
        traces = []
        for seed in range(scale.seeds):
            for key in CHANNELS:
                traces.append(
                    simulate_stationary_ideal(
                        "OpZ",
                        duration_s=min(scale.duration_s / 3, 20.0),
                        seed=600 + seed,
                        ca_enabled=False,
                        band_lock=[key],
                    )
                )
        bandwidth_by_key = {key: bw for key, (_band, bw) in CHANNELS.items()}
        return spectral_efficiency(traces, bandwidth_by_key, min_cqi=12)

    efficiencies = run_once(benchmark, experiment)
    assert efficiencies, "no channel reached CQI > 12 under ideal conditions"

    report.emit("=== Fig 10: per-channel spectral efficiency (CQI > 12) ===")
    rows = []
    for eff in efficiencies:
        theory = theoretical_efficiency_bps_hz(eff.band_name, eff.bandwidth_mhz, n_layers=4)
        rows.append(
            [eff.channel_key, f"{eff.bandwidth_mhz:g}", eff.mean_tput_mbps, eff.efficiency_bps_hz, theory]
        )
    report.emit(
        format_table(
            ["Channel", "BW MHz", "Mean Mbps", "Measured bps/Hz", "Ceiling bps/Hz"],
            rows,
            float_fmt="{:.1f}",
        )
    )

    by_key = {e.channel_key: e for e in efficiencies}
    report.emit("")
    report.emit(
        "Shape check (paper Fig 10): FDD channels (n71/n25) achieve higher"
        " bps/Hz than TDD (n41) because TDD spends slots on uplink."
    )
    if "n71@600" in by_key and "n41@2500" in by_key:
        assert by_key["n71@600"].efficiency_bps_hz > by_key["n41@2500"].efficiency_bps_hz * 0.9

"""Theoretical-capacity tests."""

import pytest

from repro.ran import (
    ChannelSpec,
    aggregate_capacity_mbps,
    channel_capacity_mbps,
    simulate_stationary_ideal,
    utilization,
)


class TestCapacity:
    def test_n41_100mhz_capacity_plausible(self):
        """100 MHz TDD mid-band, 4 layers: ~1.3-1.8 Gbps sustained."""
        capacity = channel_capacity_mbps(ChannelSpec("n41", 100))
        assert 1_200 < capacity < 1_900

    def test_fdd_beats_tdd_at_same_bandwidth(self):
        fdd = channel_capacity_mbps(ChannelSpec("n25", 20))
        tdd = channel_capacity_mbps(ChannelSpec("n41", 20))
        assert fdd > tdd

    def test_lte_layer_cap(self):
        """4G capacity uses at most 2 layers even if more are requested."""
        two = channel_capacity_mbps(ChannelSpec("b2", 20, n_layers=2))
        four = channel_capacity_mbps(ChannelSpec("b2", 20, n_layers=4))
        assert two == four

    def test_aggregate_is_sum(self):
        specs = [ChannelSpec("n41", 100), ChannelSpec("n25", 20)]
        total = aggregate_capacity_mbps(specs)
        assert total == pytest.approx(sum(channel_capacity_mbps(s) for s in specs))

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate_capacity_mbps([])

    def test_measured_below_theoretical(self):
        """Fig 6's premise: real aggregates sit below the theoretical sum."""
        trace = simulate_stationary_ideal(
            "OpZ", duration_s=10.0, seed=3, band_lock=["n41@2500", "n25"], max_ccs_override=2
        )
        specs = [ChannelSpec("n41", 100), ChannelSpec("n25", 20)]
        ratio = utilization(trace.throughput_series().mean(), specs)
        assert 0.0 < ratio < 1.0

    def test_utilization_validation(self):
        with pytest.raises(ValueError):
            utilization(-1.0, [ChannelSpec("n41", 100)])

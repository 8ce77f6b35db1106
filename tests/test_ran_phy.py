"""PHY numerics tests: RB tables, MCS/CQI, TBS (TS 38.214), BLER."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ran import (
    MAX_CQI,
    MAX_MCS_INDEX,
    bler_from_sinr,
    cqi_from_sinr,
    duplex_dl_duty,
    mcs_from_cqi,
    mcs_spectral_efficiency,
    mcs_to_modulation_coding,
    num_resource_blocks,
    phy_throughput_mbps,
    resource_elements,
    slot_duration_s,
    transport_block_size,
)


class TestNumerology:
    @pytest.mark.parametrize("scs,expected_ms", [(15, 1.0), (30, 0.5), (60, 0.25), (120, 0.125)])
    def test_slot_duration(self, scs, expected_ms):
        assert slot_duration_s(scs) == pytest.approx(expected_ms * 1e-3)

    def test_unknown_scs_raises(self):
        with pytest.raises(ValueError):
            slot_duration_s(45)


class TestResourceBlocks:
    @pytest.mark.parametrize(
        "bw,scs,expected",
        [(100, 30, 273), (40, 30, 106), (60, 30, 162), (20, 15, 106), (20, 30, 51), (100, 120, 66)],
    )
    def test_3gpp_table_values(self, bw, scs, expected):
        assert num_resource_blocks(bw, scs) == expected

    @pytest.mark.parametrize("bw,expected", [(20, 100), (10, 50), (5, 25)])
    def test_lte_table(self, bw, expected):
        assert num_resource_blocks(bw, 15, rat="4G") == expected

    def test_unknown_lte_bandwidth_raises(self):
        with pytest.raises(ValueError):
            num_resource_blocks(7, 15, rat="4G")

    def test_nrb_monotone_in_bandwidth(self):
        widths = [5, 10, 20, 40, 60, 80, 100]
        rbs = [num_resource_blocks(w, 30) for w in widths]
        assert rbs == sorted(rbs)


class TestMcsCqi:
    def test_mcs_table_monotone_efficiency(self):
        effs = [mcs_spectral_efficiency(i) for i in range(MAX_MCS_INDEX + 1)]
        assert effs == sorted(effs)

    def test_mcs_bounds(self):
        with pytest.raises(ValueError):
            mcs_to_modulation_coding(-1)
        with pytest.raises(ValueError):
            mcs_to_modulation_coding(MAX_MCS_INDEX + 1)

    def test_top_mcs_is_256qam(self):
        qm, rate = mcs_to_modulation_coding(MAX_MCS_INDEX)
        assert qm == 8
        assert rate == pytest.approx(948 / 1024)

    def test_cqi_monotone_in_sinr(self):
        sinrs = np.linspace(-10, 40, 26)
        cqis = [cqi_from_sinr(s) for s in sinrs]
        assert cqis == sorted(cqis)
        assert cqis[0] == 0
        assert cqis[-1] == MAX_CQI

    def test_mcs_from_cqi_monotone(self):
        mcss = [mcs_from_cqi(c) for c in range(MAX_CQI + 1)]
        assert mcss == sorted(mcss)

    def test_mcs_from_cqi_bounds(self):
        with pytest.raises(ValueError):
            mcs_from_cqi(MAX_CQI + 1)


class TestTBS:
    def test_resource_elements_capped_at_156_per_prb(self):
        assert resource_elements(10, n_symbols=14, overhead_re_per_prb=0) == 1560

    def test_resource_elements_validation(self):
        with pytest.raises(ValueError):
            resource_elements(-1)
        with pytest.raises(ValueError):
            resource_elements(10, n_symbols=15)

    def test_zero_prb_gives_zero(self):
        assert transport_block_size(10, 0) == 0

    def test_small_tbs_from_standard_table(self):
        """Tiny allocations must land on TS 38.214 Table 5.1.3.2-1 values."""
        from repro.ran.phy import _TBS_TABLE_SMALL

        tbs = transport_block_size(0, 1)
        assert tbs in _TBS_TABLE_SMALL

    def test_large_tbs_byte_aligned(self):
        tbs = transport_block_size(27, 273, n_layers=4)
        assert (tbs + 24) % 8 == 0
        assert tbs > 1_000_000  # ~1.2 Mbit/slot for 100 MHz, 4 layers

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            transport_block_size(10, 50, n_layers=0)
        with pytest.raises(ValueError):
            transport_block_size(10, 50, n_layers=9)

    @settings(max_examples=40, deadline=None)
    @given(
        mcs=st.integers(0, MAX_MCS_INDEX),
        n_prb=st.integers(1, 273),
        layers=st.integers(1, 4),
    )
    def test_tbs_monotone_in_layers_and_prbs(self, mcs, n_prb, layers):
        """More PRBs or layers can never shrink the transport block."""
        base = transport_block_size(mcs, n_prb, layers)
        assert transport_block_size(mcs, n_prb + 10, layers) >= base
        if layers < 4:
            assert transport_block_size(mcs, n_prb, layers + 1) >= base

    @settings(max_examples=40, deadline=None)
    @given(mcs=st.integers(0, MAX_MCS_INDEX - 1), n_prb=st.integers(4, 273))
    def test_tbs_monotone_in_mcs(self, mcs, n_prb):
        assert transport_block_size(mcs + 1, n_prb, 2) >= transport_block_size(mcs, n_prb, 2)

    def test_memo_matches_the_computation(self):
        # every (MCS, PRBs, layers) key a carrier can ask for returns what
        # the unmemoized computation does
        compute = transport_block_size.__wrapped__
        keys = [
            (mcs, n_prb, layers)
            for mcs in range(MAX_MCS_INDEX + 1)
            for n_prb in range(1, 274)
            for layers in range(1, 5)
        ]
        memoized = [transport_block_size(*key) for key in keys]
        assert memoized == [compute(*key) for key in keys]
        assert memoized == [transport_block_size(*key) for key in keys]  # the cache hits

    def test_tbs_close_to_ninfo(self):
        """Quantization error stays within a few percent for large blocks."""
        from repro.ran.phy import resource_elements as re_fn

        mcs, n_prb, layers = 20, 200, 2
        qm, r = mcs_to_modulation_coding(mcs)
        n_info = re_fn(n_prb) * r * qm * layers
        tbs = transport_block_size(mcs, n_prb, layers)
        assert abs(tbs - n_info) / n_info < 0.05


def _bler_per_call(sinr_db: float, mcs_index: int, steepness: float = 1.2) -> float:
    """BLER with the required SINR worked out on every call, as the
    table in ``repro.ran.link`` replaced."""
    eff = mcs_spectral_efficiency(mcs_index)
    required = 10 * math.log10((2 ** eff - 1.0)) + 3.0
    margin = sinr_db - required
    bler = 1.0 / (1.0 + math.exp(steepness * margin + 2.2))
    return float(min(max(bler, 0.0), 0.95))


class TestBler:
    def test_required_sinr_table_matches_expression(self):
        from repro.ran.link import _REQUIRED_SINR_DB

        assert len(_REQUIRED_SINR_DB) == MAX_MCS_INDEX + 1
        for mcs, required in enumerate(_REQUIRED_SINR_DB):
            eff = mcs_spectral_efficiency(mcs)
            assert required == 10 * math.log10((2 ** eff - 1.0)) + 3.0  # lint: bit-identical

    def test_bler_matches_per_call_expression(self):
        for mcs in range(MAX_MCS_INDEX + 1):
            for sinr in np.linspace(-40.0, 60.0, 401).tolist():
                for steepness in (0.5, 1.2):
                    assert bler_from_sinr(sinr, mcs, steepness) == _bler_per_call(sinr, mcs, steepness)  # lint: bit-identical

    @pytest.mark.parametrize("mcs", [-1, MAX_MCS_INDEX + 1])
    def test_out_of_range_mcs_raises(self, mcs):
        with pytest.raises(ValueError, match="MCS index"):
            bler_from_sinr(10.0, mcs)


class TestThroughput:
    def test_fdd_vs_tdd_duty(self):
        assert duplex_dl_duty("FDD") == 1.0
        assert 0.5 < duplex_dl_duty("TDD") < 1.0
        with pytest.raises(ValueError):
            duplex_dl_duty("XDD")

    def test_peak_100mhz_throughput_plausible(self):
        """100 MHz n41, 4 layers, top MCS ~= 1.6-2.4 Gbps pre-duty."""
        tput = phy_throughput_mbps(27, 273, 4, 30, dl_duty=1.0)
        assert 1_600 < tput < 2_600

    def test_bler_scales_throughput(self):
        clean = phy_throughput_mbps(10, 100, 2, 30)
        lossy = phy_throughput_mbps(10, 100, 2, 30, bler=0.5)
        assert lossy == pytest.approx(0.5 * clean)

    def test_invalid_bler(self):
        with pytest.raises(ValueError):
            phy_throughput_mbps(10, 100, 2, 30, bler=1.0)

    def test_invalid_duty(self):
        with pytest.raises(ValueError):
            phy_throughput_mbps(10, 100, 2, 30, dl_duty=0.0)

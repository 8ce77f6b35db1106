"""Band registry and propagation model tests."""

import numpy as np
import pytest

from repro.ran import (
    BAND_REGISTRY,
    FastFadingProcess,
    bands_for_rat,
    freespace_pathloss_db,
    get_band,
    indoor_penetration_loss_db,
    noise_power_dbm,
    rsrp_dbm,
    rsrq_db,
    sinr_db,
    urban_macro_pathloss_db,
)


class TestBandRegistry:
    def test_paper_table6_bands_present(self):
        for name in ("b2", "b41", "b66", "b71", "n5", "n25", "n41", "n71", "n77", "n260", "n261"):
            assert name in BAND_REGISTRY

    def test_band_classes(self):
        assert get_band("n71").band_class == "low"
        assert get_band("n41").band_class == "mid"
        assert get_band("n260").band_class == "high"

    def test_frequency_ranges(self):
        assert get_band("n77").frequency_range == "FR1"
        assert get_band("n261").frequency_range == "FR2"

    def test_duplex_modes_match_paper(self):
        assert get_band("n41").duplex == "TDD"
        assert get_band("n71").duplex == "FDD"
        assert get_band("b2").duplex == "FDD"

    def test_n41_bandwidths(self):
        assert set(get_band("n41").bandwidths_mhz) == {20, 40, 60, 100}

    def test_default_scs_choices(self):
        assert get_band("n260").default_scs_khz == 120
        assert get_band("n41").default_scs_khz == 30
        assert get_band("n25").default_scs_khz == 15
        assert get_band("b2").default_scs_khz == 15

    def test_unknown_band_raises_with_guidance(self):
        with pytest.raises(KeyError, match="known bands"):
            get_band("n999")

    def test_bands_for_rat(self):
        assert all(b.rat == "4G" for b in bands_for_rat("4G"))
        assert all(b.rat == "5G" for b in bands_for_rat("5G"))
        with pytest.raises(ValueError):
            bands_for_rat("3G")


class TestPathloss:
    def test_monotone_in_distance(self):
        pls = [urban_macro_pathloss_db(d, 2_500) for d in (50, 100, 400, 1_000)]
        assert pls == sorted(pls)

    def test_monotone_in_frequency(self):
        assert urban_macro_pathloss_db(300, 600) < urban_macro_pathloss_db(300, 3_700)
        assert urban_macro_pathloss_db(300, 3_700) < urban_macro_pathloss_db(300, 28_000)

    def test_los_less_than_nlos(self):
        assert urban_macro_pathloss_db(300, 2_500, los=True) < urban_macro_pathloss_db(300, 2_500, los=False)

    def test_freespace_reference(self):
        # classic check: 1 km @ 1 GHz ~ 92.4 dB
        assert freespace_pathloss_db(1_000, 1_000) == pytest.approx(92.4, abs=0.2)

    def test_indoor_loss_grows_with_frequency(self):
        low = indoor_penetration_loss_db(600)
        mid = indoor_penetration_loss_db(3_700)
        mmwave = indoor_penetration_loss_db(28_000)
        assert low < mid < mmwave
        assert mmwave - low > 15.0  # mmWave effectively blocked


class TestFastFading:
    def test_coherence_time_shrinks_with_speed(self):
        slow = FastFadingProcess.coherence_time_s(1.0, 2_500)
        fast = FastFadingProcess.coherence_time_s(20.0, 2_500)
        assert fast < slow

    def test_correlation_structure(self):
        """Consecutive samples at walking speed are highly correlated."""
        rng = np.random.default_rng(3)
        process = FastFadingProcess(sigma_db=2.0)
        samples = [process.sample(0.01, 1.4, 2_500, rng) for _ in range(2_000)]
        arr = np.asarray(samples)
        lag1 = np.corrcoef(arr[:-1], arr[1:])[0, 1]
        # coherence time at 1.4 m/s, 2.5 GHz is ~36 ms -> lag-1 rho ~ 0.76
        assert lag1 > 0.6


class TestLinkBudget:
    def test_noise_floor_reference(self):
        # 20 MHz, NF 7 dB -> about -94 dBm
        assert noise_power_dbm(20.0) == pytest.approx(-94.0, abs=0.5)

    def test_noise_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            noise_power_dbm(0.0)

    def test_rsrp_decreases_with_more_rbs(self):
        wide = rsrp_dbm(46.0, 100.0, n_rb=273)
        narrow = rsrp_dbm(46.0, 100.0, n_rb=51)
        assert wide < narrow  # same total power spread across more REs

    def test_sinr_interference_free(self):
        assert sinr_db(-80.0, -100.0) == pytest.approx(20.0)

    def test_sinr_with_interference(self):
        # equal-power interference at the noise level halves the denominator
        value = sinr_db(-80.0, -100.0, interference_dbm_per_re=-100.0)
        assert value == pytest.approx(20.0 - 3.01, abs=0.1)

    def test_rsrq_bounds(self):
        with pytest.raises(ValueError):
            rsrq_db(-80.0, -50.0, 0)

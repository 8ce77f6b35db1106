"""Analysis package tests: distributions, correlations, efficiency, tables."""

import numpy as np
import pytest

from repro.analysis import (
    ViolinSummary,
    cc_series,
    cross_correlations,
    dominant_pair,
    empirical_cdf,
    format_rmse_table,
    format_table,
    kde_peaks,
    pearson,
    percentile,
    spectral_efficiency,
    subadditivity_ratio,
    tbs_surface,
    theoretical_efficiency_bps_hz,
    transition_statistics,
)
from repro.analysis.stats import kde_density
from repro.ran import TraceSimulator, simulate_stationary_ideal


class TestStats:
    def test_cdf_monotone(self):
        values, probs = empirical_cdf(np.random.default_rng(0).normal(size=100))
        assert np.all(np.diff(values) >= 0)
        assert probs[-1] == pytest.approx(1.0)

    def test_cdf_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_cdf(np.array([]))

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile(np.ones(5), 101)

    def test_kde_finds_two_modes(self):
        rng = np.random.default_rng(1)
        samples = np.concatenate([rng.normal(100, 10, 500), rng.normal(500, 20, 500)])
        peaks = kde_peaks(samples)
        assert len(peaks) >= 2
        assert any(abs(p - 100) < 50 for p in peaks)
        assert any(abs(p - 500) < 80 for p in peaks)

    def test_kde_single_mode(self):
        samples = np.random.default_rng(2).normal(100, 5, 500)
        assert len(kde_peaks(samples)) == 1

    def test_kde_degenerate(self):
        assert kde_peaks(np.full(10, 3.0)) == [3.0]
        with pytest.raises(ValueError):
            kde_peaks(np.ones(3))

    def test_kde_pinned_peaks(self):
        rng = np.random.default_rng(11)
        samples = np.concatenate([rng.normal(200, 40, 150), rng.normal(900, 120, 250), rng.normal(1800, 60, 100)])
        assert kde_peaks(samples) == pytest.approx([200.53660907354018, 910.578078469599, 1799.9229492282989])
        # a given bandwidth is the factor on the sample std: wide merges the modes
        assert kde_peaks(samples, bandwidth=0.6) == pytest.approx([838.8567179245425])

    @pytest.mark.parametrize("bandwidth", [None, 0.05, 0.6])
    def test_kde_density_matches_scipy(self, bandwidth):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(12)
        for n in (5, 37, 600):
            samples = np.concatenate([rng.normal(100, 10, n), rng.normal(400, 30, n)])
            grid = np.linspace(samples.min(), samples.max(), 256)
            expected = scipy_stats.gaussian_kde(samples, bw_method=bandwidth)(grid)
            np.testing.assert_allclose(kde_density(samples, grid, bandwidth), expected, rtol=1e-12, atol=1e-14 * expected.max())

    def test_violin_summary(self):
        summary = ViolinSummary.from_samples("combo", np.arange(1, 101, dtype=float))
        assert summary.mean == pytest.approx(50.5)
        assert summary.peak == 100.0
        assert summary.p5 < summary.median < summary.p95

    def test_subadditivity_ratio(self):
        ratio = subadditivity_ratio(np.full(10, 70.0), [np.full(10, 50.0), np.full(10, 50.0)])
        assert ratio == pytest.approx(0.3)
        with pytest.raises(ValueError):
            subadditivity_ratio(np.ones(3), [np.zeros(3)])

    def test_transition_statistics(self):
        sim = TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=13)
        trace = sim.run(120.0)
        stats = transition_statistics(trace)
        assert stats.n_events >= 1
        assert stats.mean_interval_s > 0
        assert stats.std_with_events_mbps >= 0


class TestCorrelation:
    def test_pearson_perfect(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_pearson_degenerate(self):
        assert pearson(np.ones(5), np.arange(5.0)) == 0.0
        with pytest.raises(ValueError):
            pearson(np.ones(3), np.ones(4))

    def test_own_rsrp_tput_correlation_strong(self):
        """§4.2: a CC's RSRP correlates strongly with its own throughput."""
        trace = simulate_stationary_ideal(
            "OpZ", duration_s=120.0, seed=21, band_lock=["n41@2500", "n25"], max_ccs_override=2
        )
        pair = dominant_pair(trace)
        assert pair is not None
        corr = cross_correlations(trace, *pair)
        # stationary UE: weaker dynamics than driving, but own-channel
        # correlation must exceed the cross-channel one on average
        own = (corr.pcell_rsrp_vs_pcell_tput + corr.scell_rsrp_vs_scell_tput) / 2
        cross = (corr.pcell_rsrp_vs_scell_tput + corr.scell_rsrp_vs_pcell_tput) / 2
        assert own > cross - 0.15

    def test_intra_band_rsrp_more_correlated_than_inter(self):
        """Fig 13: same-band CC RSRPs track each other; cross-band less."""
        intra_vals, inter_vals = [], []
        for seed in range(30, 36):
            sim = TraceSimulator(
                "OpZ", mobility="walking", dt_s=1.0, seed=seed,
                band_lock=["n41@2500", "n41@2600", "n25"], max_ccs_override=3,
            )
            trace = sim.run(150.0)
            intra = _pair_corr(trace, "n41@2500", "n41@2600")
            inter = _pair_corr(trace, "n41@2500", "n25@1900")
            if intra is not None:
                intra_vals.append(intra)
            if inter is not None:
                inter_vals.append(inter)
        assert intra_vals and inter_vals
        assert np.mean(intra_vals) > np.mean(inter_vals)

    def test_cc_series_nan_when_inactive(self):
        sim = TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=3)
        trace = sim.run(30.0)
        series = cc_series(trace, "definitely-absent", "rsrp_dbm")
        assert np.all(np.isnan(series))


def _pair_corr(trace, key_a, key_b):
    a = cc_series(trace, key_a, "rsrp_dbm")
    b = cc_series(trace, key_b, "rsrp_dbm")
    both = ~(np.isnan(a) | np.isnan(b))
    if both.sum() < 20:
        return None
    return pearson(a[both], b[both])


class TestEfficiency:
    def test_theoretical_efficiency_ordering(self):
        """FDD beats TDD per Hz (duty); wider mid-band channels efficient."""
        fdd = theoretical_efficiency_bps_hz("n25", 20, n_layers=2)
        tdd = theoretical_efficiency_bps_hz("n41", 20, n_layers=2)
        assert fdd > tdd

    def test_tbs_surface_monotone(self):
        surface = tbs_surface(range(0, 28, 4), [10, 50, 100])
        assert np.all(np.diff(surface, axis=0) >= 0)
        assert np.all(np.diff(surface, axis=1) >= 0)

    def test_spectral_efficiency_from_traces(self):
        trace = simulate_stationary_ideal("OpZ", duration_s=30.0, seed=3)
        bw = {"n41@2500": 100.0, "n41@2600": 40.0, "n25@1900": 20.0, "n71@600": 20.0}
        effs = spectral_efficiency([trace], bw, min_cqi=10)
        assert effs
        for eff in effs:
            assert 0.0 < eff.efficiency_bps_hz < 60.0


class TestReports:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["x", 1.5], ["yy", 2.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "1.500" in out

    def test_format_table_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_rmse_table(self):
        out = format_rmse_table(
            {"ds1": {"LSTM": 0.2, "Prism5G": 0.15}},
            methods=["LSTM", "Prism5G"],
            title="Table 4",
        )
        assert "Table 4" in out
        assert "0.150" in out

"""ViVo and MPC-ABR use-case tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps import bridge
from repro.apps import (
    ABRConfig,
    MPCPlayer,
    PAPER_BITRATES_MBPS,
    QoEResult,
    ViVoConfig,
    ViVoSimulator,
    future_mean_bandwidth,
    harmonic_forecaster,
    oracle_forecaster_factory,
    past_mean_bandwidth,
    relative_degradation,
    stall_tail_improvements,
)

from . import oracles


def _ca_like_trace(n=6000, dt=0.01, seed=0):
    """Throughput with CC-transition style level shifts, like Fig 7."""
    rng = np.random.default_rng(seed)
    levels = [300.0, 600.0, 900.0, 600.0, 1100.0, 500.0]
    out = np.empty(n)
    seg = n // len(levels)
    for i, level in enumerate(levels):
        lo = i * seg
        hi = n if i == len(levels) - 1 else (i + 1) * seg
        out[lo:hi] = level * rng.uniform(0.85, 1.15, hi - lo)
    return out


class TestBandwidthEstimators:
    def test_future_mean_is_clairvoyant(self):
        tput = np.array([1.0, 2.0, 3.0, 4.0])
        est = future_mean_bandwidth(tput, 1.0, 2.0)
        np.testing.assert_allclose(est, [1.5, 2.5, 3.5, 4.0])

    def test_past_mean_is_causal(self):
        tput = np.array([1.0, 2.0, 3.0, 4.0])
        est = past_mean_bandwidth(tput, 1.0, 2.0)
        np.testing.assert_allclose(est, [1.0, 1.5, 2.5, 3.5])


class TestViVo:
    def test_ideal_beats_stock_on_transition_trace(self):
        tput = _ca_like_trace()
        sim = ViVoSimulator(ViVoConfig(max_bitrate_mbps=750.0))
        ideal = sim.run_ideal(tput, 0.01)
        stock = sim.run_stock(tput, 0.01)
        # ideal never stalls more AND achieves at least the stock quality
        assert ideal.stall_time_s <= stock.stall_time_s + 1e-9
        assert ideal.avg_quality >= stock.avg_quality - 0.3

    def test_ideal_near_zero_stalls(self):
        tput = _ca_like_trace()
        sim = ViVoSimulator(ViVoConfig(max_bitrate_mbps=750.0))
        ideal = sim.run_ideal(tput, 0.01)
        assert ideal.stall_per_unit_ms < 5.0

    def test_higher_bandwidth_higher_quality(self):
        sim = ViVoSimulator(ViVoConfig(max_bitrate_mbps=375.0))
        low = sim.run_ideal(np.full(3000, 100.0), 0.01)
        high = sim.run_ideal(np.full(3000, 400.0), 0.01)
        assert high.avg_quality > low.avg_quality

    def test_quality_bounded_by_ladder(self):
        sim = ViVoSimulator(ViVoConfig(max_bitrate_mbps=375.0))
        result = sim.run_ideal(np.full(3000, 10_000.0), 0.01)
        assert result.avg_quality == len(ViVoConfig().quality_fractions) - 1

    def test_estimate_series_must_align(self):
        sim = ViVoSimulator()
        with pytest.raises(ValueError):
            sim.run(np.ones(100), 0.01, np.ones(50))

    def test_trace_too_short_raises(self):
        with pytest.raises(ValueError):
            ViVoSimulator().run_ideal(np.ones(3), 0.01)


class TestMPC:
    def test_paper_ladder(self):
        assert PAPER_BITRATES_MBPS == (1.5, 2.5, 40.71, 152.66, 280.0, 585.0)

    def test_ladder_must_ascend(self):
        with pytest.raises(ValueError):
            ABRConfig(bitrates_mbps=(10.0, 5.0))

    def test_steady_bandwidth_picks_matching_rate(self):
        player = MPCPlayer(ABRConfig(lookahead=2))
        result = player.run(np.full(240, 200.0), 1.0, harmonic_forecaster)
        # MPC rides its buffer between 152.66 and 280, averaging near the
        # link rate with only marginal rebuffering
        assert 120.0 <= result.avg_quality <= 290.0
        assert result.stall_time_s < 0.1 * result.n_units * player.config.chunk_s

    def test_oracle_no_worse_than_harmonic_on_transitions(self):
        tput = _ca_like_trace(n=300, dt=1.0, seed=3)
        player = MPCPlayer(ABRConfig(lookahead=2))
        harmonic = player.run(tput, 1.0, harmonic_forecaster)
        oracle = player.run(tput, 1.0, oracle_forecaster_factory(tput, 1.0, 2.0))
        qoe_h = harmonic.avg_quality - 2.0 * harmonic.stall_time_s
        qoe_o = oracle.avg_quality - 2.0 * oracle.stall_time_s
        assert qoe_o >= qoe_h - 5.0

    def test_low_bandwidth_forces_low_rate(self):
        player = MPCPlayer(ABRConfig(lookahead=2))
        result = player.run(np.full(240, 3.0), 1.0, harmonic_forecaster)
        assert result.avg_quality < 10.0

    def test_buffer_never_negative_stall_accounting(self):
        tput = _ca_like_trace(n=300, dt=1.0, seed=5) / 10.0
        player = MPCPlayer(ABRConfig(lookahead=2))
        result = player.run(tput, 1.0, harmonic_forecaster)
        assert result.stall_time_s >= 0.0
        assert result.n_stalls <= result.n_units

    def test_trace_too_short_raises(self):
        with pytest.raises(ValueError):
            MPCPlayer().run(np.ones(1), 1.0)


class TestPlannerMatchesLoop:
    """``MPCPlayer._plan`` scores all plans as arrays; the scalar loop over
    ``itertools.product`` (``oracles.mpc_plan_loop``) must pick the same level."""

    LADDERS = {"paper": PAPER_BITRATES_MBPS, "three": (1.0, 5.0, 20.0)}

    @staticmethod
    def _forecasts(rng, ladder, lookahead, count):
        """Log-uniform forecasts over 1e-3..1e4 Mbps, alternating with quantized ones.

        Quantized steps are ladder rates (a chunk then downloads in exactly
        ``chunk_s``), powers of ten and the 1e-3 floor.  With ample bandwidth
        every climb from ``last_level`` earns its rate gain and pays the same
        switch cost, so many plans tie on the best score.  Every third
        forecast is one chunk longer than the lookahead.
        """
        quantized = np.array(list(ladder) + [1e-3, 1e-1, 10.0, 1e3, 1e4])
        for k in range(count):
            size = lookahead + (k % 3 == 2)
            if k % 2:
                yield rng.choice(quantized, size=size)
            else:
                yield 10.0 ** rng.uniform(-3.0, 4.0, size=size)

    @pytest.mark.parametrize("lookahead", [1, 2, 3, 4])
    @pytest.mark.parametrize("ladder", ["paper", "three"])
    def test_same_level_as_loop(self, ladder, lookahead):
        rates = self.LADDERS[ladder]
        player = MPCPlayer(ABRConfig(bitrates_mbps=rates, lookahead=lookahead))
        cfg = player.config
        rng = np.random.default_rng([lookahead, len(rates)])
        # the loop costs ~10 us per plan: fewer draws where plans are many
        count = 3 if len(rates) ** lookahead > 500 else 12
        for buffer_s in (0.0, cfg.startup_buffer_s, cfg.buffer_max_s):
            for last_level in (None, *range(len(rates))):
                for forecast in self._forecasts(rng, rates, lookahead, count):
                    expected = oracles.mpc_plan_loop(player, forecast, buffer_s, last_level)
                    got = player._plan(forecast, buffer_s, last_level)
                    assert got == expected, (forecast.tolist(), buffer_s, last_level)

    #: paper-ladder inputs on which updating the score in another order
    #: (the switch penalty before the rebuffer penalty, the rate and
    #: rebuffer terms summed first, or all three) picks another level;
    #: found by random search
    ORDER_SENSITIVE = [
        (3, [280.0, 152.66, 0.001], 30.0, 2),
        (3, [4165.496092878626, 8784.508451578784, 0.003929139413290584], 30.0, 2),
        (2, [1189.7434704266757, 10.082567828398375], 30.0, None),
        (2, [10000.0, 10.0], 30.0, None),
        (3, [10000.0, 585.0, 10.0], 30.0, 3),
        (2, [970.4123135729975, 21.73385749997258], 4.0, None),
    ]

    @pytest.mark.parametrize("lookahead,forecast,buffer_s,last_level", ORDER_SENSITIVE)
    def test_order_sensitive_inputs(self, lookahead, forecast, buffer_s, last_level):
        player = MPCPlayer(ABRConfig(lookahead=lookahead))
        forecast = np.array(forecast)
        expected = oracles.mpc_plan_loop(player, forecast, buffer_s, last_level)
        assert player._plan(forecast, buffer_s, last_level) == expected

    @pytest.mark.parametrize("nan_step", [0, 1, 2])
    def test_nan_forecast_keeps_level_zero(self, nan_step):
        player = MPCPlayer(ABRConfig(lookahead=3))
        forecast = np.full(3, 300.0)
        forecast[nan_step] = np.nan
        for last_level in (None, 3):
            assert oracles.mpc_plan_loop(player, forecast, 4.0, last_level) == 0
            assert player._plan(forecast, 4.0, last_level) == 0

    @pytest.mark.parametrize("seed,scale", [(0, 1.0), (3, 1.0), (5, 0.1)])
    @pytest.mark.parametrize("lookahead", [2, 3])
    def test_sessions_match_loop(self, seed, scale, lookahead, monkeypatch):
        tput = _ca_like_trace(n=200, dt=1.0, seed=seed) * scale
        player = MPCPlayer(ABRConfig(lookahead=lookahead))

        def sessions():
            oracle = oracle_forecaster_factory(tput, 1.0, 2.0)
            return [player.run(tput, 1.0, harmonic_forecaster), player.run(tput, 1.0, oracle)]

        vectorized = sessions()
        monkeypatch.setattr(MPCPlayer, "_plan", oracles.mpc_plan_loop)
        assert sessions() == vectorized
        assert any(result.quality_switches for result in vectorized)


class TestForecasterPosition:
    """Each chunk decision must see that chunk's window of the series."""

    RAMP = np.arange(1.0, 401.0)  # strictly increasing: every window differs

    def _first_forecasts(self, forecaster):
        seen = []

        def spy(history, horizon, chunk_s):
            out = forecaster(history, horizon, chunk_s)
            seen.append(float(out[0]))
            return out

        result = MPCPlayer(ABRConfig(lookahead=2)).run(self.RAMP, 1.0, spy)
        expected = [self.RAMP[2 * k : 2 * k + 2].mean() for k in range(result.n_units)]
        assert result.n_units > 10
        return seen, expected

    def test_oracle_advances_every_chunk(self):
        seen, expected = self._first_forecasts(oracle_forecaster_factory(self.RAMP, 1.0, 2.0))
        assert seen == pytest.approx(expected)

    def test_predictor_forecaster_advances_every_chunk(self, monkeypatch):
        monkeypatch.setattr(bridge, "predicted_bandwidth_series", lambda *args: self.RAMP)
        forecaster = bridge.predictor_forecaster(None, SimpleNamespace(dt_s=1.0), None, chunk_s=2.0)
        seen, expected = self._first_forecasts(forecaster)
        assert seen == pytest.approx(expected)


class TestQoEMetrics:
    def test_relative_degradation(self):
        ideal = QoEResult(avg_quality=4.0, stall_time_s=1.0, n_stalls=1, n_units=100)
        worse = QoEResult(avg_quality=3.0, stall_time_s=3.0, n_stalls=4, n_units=100)
        deg = relative_degradation(worse, ideal)
        assert deg["quality_drop_pct"] == pytest.approx(25.0)
        assert deg["stall_increase_pct"] == pytest.approx(200.0)

    def test_stall_tail_improvements(self):
        baseline = [10.0] * 90 + [100.0] * 10
        improved = [5.0] * 90 + [40.0] * 10
        gains = stall_tail_improvements(baseline, improved, percentiles=(95.0,))
        assert gains[95.0] > 0

    def test_stall_tail_empty_raises(self):
        with pytest.raises(ValueError):
            stall_tail_improvements([], [1.0])

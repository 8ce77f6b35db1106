"""Trace data model, JSONL I/O, feature tensors; scheduler behaviour."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.ran import (
    CCSample,
    CellLoadProcess,
    Scheduler,
    Trace,
    TraceRecord,
    TraceSet,
    TraceSimulator,
    time_of_day_load,
)
from repro.ran.traces import CC_FEATURES


def _cc(key="n41@2500", band="n41", pcell=True, tput=100.0, active=True):
    return CCSample(
        channel_key=key,
        band_name=band,
        pci=101,
        is_pcell=pcell,
        active=active,
        rsrp_dbm=-85.0,
        rsrq_db=-11.0,
        sinr_db=18.0,
        cqi=11,
        bler=0.05,
        n_rb=150.0,
        n_layers=2,
        mcs=20,
        tput_mbps=tput,
    )


def _record(t, ccs, events=()):
    total = sum(c.tput_mbps for c in ccs if c.active)
    return TraceRecord(t=t, position=(0.0, 0.0), ccs=list(ccs), total_tput_mbps=total, events=list(events))


#: simulator settings that change what a record holds: 4G carriers,
#: indoor flags, no CA, 10 ms sampling
_TRACE_KINDS = {
    "walking": dict(operator="OpZ", mobility="walking", seed=1),
    "4G": dict(operator="OpX", mobility="driving", rat="4G", seed=2),
    "indoor": dict(operator="OpY", mobility="indoor", seed=3),
    "stationary-no-ca": dict(operator="OpZ", mobility="stationary", ca_enabled=False, seed=5),
    "10ms": dict(operator="OpZ", mobility="driving", dt_s=0.01, seed=6),
}


def _simulated(kind: str) -> Trace:
    settings = dict(_TRACE_KINDS[kind])
    duration = 0.5 if settings.get("dt_s") == 0.01 else 30.0
    return TraceSimulator(**settings).run(duration, route_id=len(kind))


class TestTraceModel:
    def test_combo_key_pcell_first(self):
        rec = _record(0.0, [_cc("n25@1900", "n25", pcell=False), _cc("n41@2500", "n41", pcell=True)])
        assert rec.combo_key == "n41+n25"

    def test_n_active_ccs(self):
        rec = _record(0.0, [_cc(), _cc("n25@1900", "n25", pcell=False, active=False)])
        assert rec.n_active_ccs == 1

    def test_event_steps(self):
        trace = Trace(
            records=[
                _record(0.0, [_cc()]),
                _record(1.0, [_cc()], events=["scell_add:n25@1900"]),
                _record(2.0, [_cc()]),
            ],
            dt_s=1.0,
        )
        assert trace.event_steps() == [1]

    def test_jsonl_roundtrip(self, tmp_path):
        trace = Trace(
            records=[_record(float(i), [_cc(tput=50.0 + i)]) for i in range(5)],
            dt_s=1.0,
            operator="OpZ",
            scenario="urban",
            mobility="driving",
            modem="X70",
            route_id=3,
            seed=9,
        )
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        loaded = Trace.from_jsonl(path)
        assert loaded.operator == "OpZ"
        assert loaded.route_id == 3
        assert len(loaded) == 5
        np.testing.assert_allclose(loaded.throughput_series(), trace.throughput_series())
        assert loaded.records[0].ccs[0].channel_key == "n41@2500"

    def test_jsonl_lines_are_the_asdict_rendering(self, tmp_path):
        trace = TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=4).run(60.0, route_id=2)
        assert any(rec.events for rec in trace.records)
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        expected = []
        for rec in trace.records:
            payload = asdict(rec)
            payload["position"] = list(rec.position)
            expected.append(json.dumps(payload))
        assert path.read_text().splitlines()[1:] == expected

    @pytest.mark.parametrize("kind", sorted(_TRACE_KINDS))
    def test_jsonl_rendering_matches_asdict_for_every_trace_kind(self, kind, tmp_path):
        trace = _simulated(kind)
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        header, *lines = path.read_text().splitlines()
        assert json.loads(header)["header"] == {
            name: getattr(trace, name)
            for name in ("dt_s", "operator", "scenario", "mobility", "modem", "rat", "route_id", "seed")
        }
        expected = []
        for rec in trace.records:
            payload = asdict(rec)
            payload["position"] = list(rec.position)
            expected.append(json.dumps(payload))
        assert lines == expected

    @pytest.mark.parametrize("kind", sorted(_TRACE_KINDS))
    def test_jsonl_round_trip_restores_every_record(self, kind, tmp_path):
        trace = _simulated(kind)
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        loaded = Trace.from_jsonl(path)
        assert loaded == trace


class TestFeatureTensor:
    def test_shapes(self):
        trace = Trace(records=[_record(float(i), [_cc()]) for i in range(4)], dt_s=1.0)
        features, mask, total = trace.feature_tensor(max_ccs=3)
        assert features.shape == (4, 3, len(CC_FEATURES))
        assert mask.shape == (4, 3)
        np.testing.assert_allclose(total, 100.0)

    def test_slot_stability_across_reordering(self):
        """A channel keeps its slot even when another CC joins/leaves."""
        pc = _cc("n41@2500", "n41", pcell=True, tput=500.0)
        sc = _cc("n25@1900", "n25", pcell=False, tput=100.0)
        records = [
            _record(0.0, [pc]),
            _record(1.0, [pc, sc]),
            _record(2.0, [sc]),  # PCell dropped; n25 must keep slot 1
            _record(3.0, [pc, sc]),
        ]
        trace = Trace(records=records, dt_s=1.0)
        features, mask, _ = trace.feature_tensor(max_ccs=2)
        tput_idx = CC_FEATURES.index("tput_mbps")
        assert features[0, 0, tput_idx] == 500.0
        assert features[1, 1, tput_idx] == 100.0
        assert features[2, 1, tput_idx] == 100.0  # stayed in slot 1
        assert mask[2, 0] == 0.0
        assert features[3, 0, tput_idx] == 500.0

    def test_slot_eviction_when_full(self):
        """A long-gone channel's slot is reused by a new channel."""
        a = _cc("n41@2500", "n41", True)
        b = _cc("n25@1900", "n25", False)
        c = _cc("n71@600", "n71", False)
        records = [_record(0.0, [a, b]), _record(1.0, [a]), _record(2.0, [a, c])]
        trace = Trace(records=records, dt_s=1.0)
        _, mask, _ = trace.feature_tensor(max_ccs=2)
        assert mask[2].sum() == 2.0  # n71 took n25's slot

    def test_mask_matches_activity(self):
        sim = TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=3)
        trace = sim.run(30.0)
        _, mask, _ = trace.feature_tensor(max_ccs=4)
        counts = np.array([min(r.n_active_ccs, 4) for r in trace.records])
        np.testing.assert_allclose(mask.sum(axis=1), counts)


class TestTraceSet:
    def _set(self):
        t1 = Trace(records=[_record(0.0, [_cc()])], dt_s=1.0, operator="OpZ", mobility="driving")
        t2 = Trace(records=[_record(0.0, [_cc()])], dt_s=1.0, operator="OpX", mobility="driving")
        return TraceSet([t1, t2])

    def test_filter(self):
        assert len(self._set().filter(operator="OpZ")) == 1

    def test_total_duration(self):
        assert self._set().total_duration_s() == 2.0


class TestScheduler:
    def test_load_profile_peaks_midday(self):
        assert time_of_day_load(12.5) > time_of_day_load(3.0)

    def test_load_profile_bounds(self):
        for hour in np.linspace(0, 23.9, 40):
            assert 0.0 < time_of_day_load(float(hour)) < 1.0
        with pytest.raises(ValueError):
            time_of_day_load(24.0)

    def test_rush_hour_cuts_rb_share(self):
        """Tables 9-10: #RB drops at rush hour; channel quality unchanged."""
        shares = {}
        for label, hour in (("night", 0.5), ("rush", 12.5)):
            scheduler = Scheduler(hour=hour, scenario="urban", seed=0)
            values = [scheduler.rb_fraction(1, 1.0) for _ in range(300)]
            shares[label] = np.mean(values)
        assert shares["rush"] < shares["night"]

    def test_throttling_kicks_in_beyond_threshold(self):
        """Fig 15: marginal SCells get fewer RBs once aggregate BW is wide."""
        base_vals, throttled_vals = [], []
        for seed in range(5):
            s1 = Scheduler(hour=0.5, seed=seed)
            base_vals += [s1.rb_fraction(1, 1.0, aggregate_bw_before_mhz=0.0) for _ in range(50)]
            s2 = Scheduler(hour=0.5, seed=seed)
            throttled_vals += [s2.rb_fraction(1, 1.0, aggregate_bw_before_mhz=240.0) for _ in range(50)]
        assert np.mean(throttled_vals) < np.mean(base_vals)

    def test_share_bounds(self):
        scheduler = Scheduler(hour=18.5, scenario="urban", seed=1)
        for _ in range(200):
            share = scheduler.rb_fraction(2, 1.0, aggregate_bw_before_mhz=500.0)
            assert 0.0 < share <= 1.0

    def test_load_process_mean_reverts(self):
        process = CellLoadProcess(mean_load=0.5, volatility=0.05)
        rng = np.random.default_rng(0)
        values = [process.step(1.0, rng) for _ in range(2_000)]
        assert abs(np.mean(values[100:]) - 0.5) < 0.1

    def test_load_process_validation(self):
        with pytest.raises(ValueError):
            CellLoadProcess(mean_load=1.5)

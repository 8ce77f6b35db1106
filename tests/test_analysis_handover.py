"""PCell-change analysis tests."""

import pytest

from repro.analysis import pcell_band_share, pcell_changes, pcell_statistics
from repro.ran import TraceSimulator
from tests.test_ran_traces_scheduler import _cc, _record

from repro.ran import Trace


def _trace_with_switch():
    a = _cc("n41@2500", "n41", pcell=True)
    b = _cc("n71@600", "n71", pcell=True)
    records = [
        _record(0.0, [a]),
        _record(1.0, [a]),
        _record(2.0, [b]),  # PCell switches mid -> low
        _record(3.0, [b]),
    ]
    return Trace(records=records, dt_s=1.0)


class TestPCellChanges:
    def test_detects_switch(self):
        changes = pcell_changes(_trace_with_switch())
        assert len(changes) == 1
        change = changes[0]
        assert change.from_channel == "n41@2500"
        assert change.to_channel == "n71@600"
        assert change.from_band_class == "mid"
        assert change.to_band_class == "low"

    def test_no_switch_no_changes(self):
        trace = Trace(records=[_record(float(i), [_cc()]) for i in range(5)], dt_s=1.0)
        assert pcell_changes(trace) == []

    def test_statistics_fields(self):
        stats = pcell_statistics(_trace_with_switch())
        assert stats.n_changes == 1
        assert stats.band_transition_counts[("mid", "low")] == 1

    def test_band_share(self):
        share = pcell_band_share([_trace_with_switch()])
        assert share["mid"] == pytest.approx(0.5)
        assert share["low"] == pytest.approx(0.5)

    def test_on_simulated_drive(self):
        trace = TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=33).run(120.0)
        stats = pcell_statistics(trace)
        assert stats.n_changes >= 0
        share = pcell_band_share([trace])
        assert abs(sum(share.values()) - 1.0) < 1e-9

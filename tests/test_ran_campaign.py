"""Campaign orchestration and CA deployment statistics tests."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ran import (
    CityCampaignConfig,
    TraceSimulator,
    analyze_traces,
    cc_spatial_map,
    run_city_campaign,
)


@pytest.fixture(scope="module")
def small_campaign(tmp_path_factory):
    config = CityCampaignConfig(
        operators=("OpZ", "OpX"),
        scenarios=("urban", "suburban"),
        rats=("5G",),
        ues=1,
        duration_s=40.0,
        seed=0,
    )
    return run_city_campaign(config, state_dir=tmp_path_factory.mktemp("campaign"))


class TestAnalyzeTraces:
    def test_statistics_fields(self):
        traces = [TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=s).run(40.0) for s in (1, 2)]
        stats = analyze_traces(traces, operator="OpZ", rat="5G")
        assert stats.unique_channels >= 2
        assert stats.max_ccs >= 2
        assert 0.0 <= stats.ca_prevalence <= 1.0
        assert stats.peak_tput_mbps >= stats.mean_tput_mbps

    def test_combo_counts_ordered_ge_unique(self):
        traces = [TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=s).run(60.0) for s in range(3)]
        stats = analyze_traces(traces)
        assert stats.ordered_combos >= stats.unique_combos

    def test_empty_traces(self):
        stats = analyze_traces([])
        assert stats.ca_prevalence == 0.0
        assert stats.unique_channels == 0


class TestCampaign:
    def test_all_cells_present(self, small_campaign):
        assert len(small_campaign.stats) == 2 * 2  # 2 operators x 2 scenarios
        assert small_campaign.n_ues == 4

    def test_opz_more_ca_than_opx(self, small_campaign):
        """Fig 25: OpZ deploys 5G CA far more broadly than OpX."""
        table = small_campaign.prevalence_table()
        opz = np.mean(list(table["OpZ"].values()))
        opx = np.mean(list(table["OpX"].values()))
        assert opz > opx

    def test_spatial_map(self):
        trace = TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=5).run(60.0)
        grid = cc_spatial_map(trace, grid_m=100.0)
        assert grid
        assert all(0 <= v <= 4 for v in grid.values())


class TestStreamingAccumulator:
    """analyze_traces streams through CAStatisticsAccumulator (O(1) memory)."""

    @pytest.fixture(scope="class")
    def traces(self):
        return [
            TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=s).run(30.0, route_id=s)
            for s in range(4)
        ]

    def test_accumulator_matches_analyze(self, traces):
        from repro.ran import CAStatisticsAccumulator

        acc = CAStatisticsAccumulator()
        for trace in traces:
            acc.update_trace(trace)
        stats = acc.finalize("OpZ", "5G")
        ref = analyze_traces(traces, "OpZ", "5G")
        assert stats.unique_channels == ref.unique_channels
        assert stats.combo_counter == ref.combo_counter
        assert stats.ca_prevalence == ref.ca_prevalence
        assert stats.peak_tput_mbps == ref.peak_tput_mbps
        assert stats.mean_tput_mbps == ref.mean_tput_mbps

    def test_json_round_trip(self, traces):
        from repro.ran import CAStatisticsAccumulator
        import json

        acc = CAStatisticsAccumulator()
        for trace in traces:
            acc.update_trace(trace)
        data = json.loads(json.dumps(acc.to_dict()))
        back = CAStatisticsAccumulator.from_dict(data)
        assert back == acc  # dataclass equality covers every field

    def test_json_round_trip_keeps_first_seen_combo_order(self):
        from repro.ran import CAStatisticsAccumulator
        import json

        # first-seen order decides top_combos ties; key-sorting JSON
        # writers must not reorder it
        acc = CAStatisticsAccumulator(ordered=Counter({"n41+n71": 3, "n25+n41": 3, "b2+b66": 1}))
        back = CAStatisticsAccumulator.from_dict(json.loads(json.dumps(acc.to_dict(), sort_keys=True)))
        assert list(back.ordered.items()) == list(acc.ordered.items())
        assert back.finalize().top_combos(1) == [("n41+n71", 3)]

    def test_merge_requires_accumulator(self, traces):
        from repro.ran import CAStatistics

        bare = CAStatistics(
            operator="OpZ", rat="5G", unique_channels=1, ordered_combos=1,
            unique_combos=1, max_ccs=1, ca_prevalence=0.5, peak_tput_mbps=1.0,
            mean_tput_mbps=1.0,
        )
        with pytest.raises(ValueError, match="accumulator"):
            bare.merge(analyze_traces(traces))


class TestMergeProperty:
    """Merging per-shard statistics == statistics over concatenated traces."""

    @pytest.fixture(scope="class")
    def traces(self):
        return [
            TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=40 + s).run(25.0, route_id=s)
            for s in range(5)
        ]

    @given(assignment=st.lists(st.integers(min_value=0, max_value=2), min_size=5, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_merge_equals_concat(self, traces, assignment):
        shards = {}
        for trace, shard in zip(traces, assignment):
            shards.setdefault(shard, []).append(trace)
        per_shard = [analyze_traces(group, "OpZ", "5G") for group in shards.values()]
        merged = per_shard[0]
        for stat in per_shard[1:]:
            merged = merged.merge(stat)
        ref = analyze_traces(traces, "OpZ", "5G")
        assert merged.unique_channels == ref.unique_channels
        assert merged.ordered_combos == ref.ordered_combos
        assert merged.unique_combos == ref.unique_combos
        assert merged.max_ccs == ref.max_ccs
        assert merged.combo_counter == ref.combo_counter
        assert merged.ca_prevalence == pytest.approx(ref.ca_prevalence, abs=0.0)
        assert merged.peak_tput_mbps == ref.peak_tput_mbps
        # float-sum order differs between merge orders: approx, not exact
        assert merged.mean_tput_mbps == pytest.approx(ref.mean_tput_mbps, rel=1e-9)

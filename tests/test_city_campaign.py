"""Tests for the city-scale campaign engine: shard plan, oracle, resume, spill."""

from __future__ import annotations

import json
import logging
import re
import shutil

import pytest

from repro import obs
from repro.ran import (
    CityCampaignConfig,
    MultiUESimulator,
    ShardPlan,
    TraceSimulator,
    analyze_traces,
    city_campaign_jobs,
    run_city_campaign,
)
from repro.ran.campaign import _build_group_deployment, _mobility_for

from . import oracles


def _tiny_config(**overrides) -> CityCampaignConfig:
    base = dict(
        operators=("OpZ",),
        scenarios=("urban", "highway"),
        rats=("5G",),
        ues=3,
        cells=6,
        shards=3,
        cohort=2,
        duration_s=6.0,
        dt_s=1.0,
        seed=11,
    )
    base.update(overrides)
    return CityCampaignConfig(**base)


class TestShardPlan:
    def test_deterministic(self):
        config = _tiny_config()
        plan_a = ShardPlan.build(config)
        plan_b = ShardPlan.build(config)
        assert plan_a == plan_b
        assert plan_a.campaign_hash == config.hash()

    def test_covers_every_ue_exactly_once(self):
        config = _tiny_config(ues=13, shards=4)
        plan = ShardPlan.build(config)
        jobs = city_campaign_jobs(config)
        assert plan.n_ues == len(jobs)
        seen = sorted(job.index for shard in plan.shards for job in shard)
        assert seen == [job.index for job in jobs]

    def test_shard_of_is_pure(self):
        config = _tiny_config()
        h = config.hash()
        assert all(
            ShardPlan.shard_of(h, i, 5) == ShardPlan.shard_of(h, i, 5) for i in range(20)
        )
        assert all(0 <= ShardPlan.shard_of(h, i, 5) < 5 for i in range(20))

    def test_job_seeds_match_legacy_nested_loops(self):
        config = _tiny_config(ues=2)
        jobs = city_campaign_jobs(config)
        # seeds increment from config.seed in operator > rat > scenario >
        # UE order, so a UE's trace does not depend on the shard plan
        assert [job.seed for job in jobs] == [config.seed + 1 + i for i in range(len(jobs))]


def _per_ue_config(**overrides) -> CityCampaignConfig:
    base = dict(
        operators=("OpZ", "OpX"),
        scenarios=("urban", "highway"),
        rats=("5G",),
        ues=2,
        cells=0,
        duration_s=10.0,
        dt_s=1.0,
        seed=5,
    )
    base.update(overrides)
    return CityCampaignConfig(**base)


class TestLegacyOracle:
    """``cells=0`` must equal the plain per-UE loop, ``oracles.campaign_loop``."""

    def test_bit_identical_to_run_campaign(self, tmp_path):
        config = _per_ue_config(shards=1)
        ref = oracles.campaign_loop(config)
        city = run_city_campaign(config, state_dir=tmp_path / "state")
        assert city.complete
        assert list(city.stats) == list(ref)
        for key, want in ref.items():
            got = city.stats[key]
            # first-seen combo order too: it breaks top_combos ties
            assert list(got.combo_counter.items()) == list(want.combo_counter.items())
            assert got.unique_channels == want.unique_channels
            assert got.unique_combos == want.unique_combos
            assert got.max_ccs == want.max_ccs
            # bit-identical, not approximately equal
            assert got.ca_prevalence == want.ca_prevalence
            assert got.peak_tput_mbps == want.peak_tput_mbps
            assert got.mean_tput_mbps == want.mean_tput_mbps

    def test_counts_and_peaks_match_across_shards(self, tmp_path):
        config = _per_ue_config(shards=3)
        ref = oracles.campaign_loop(config)
        city = run_city_campaign(config, state_dir=tmp_path / "state")
        assert city.complete
        assert set(city.stats) == set(ref)
        for key, want in ref.items():
            got = city.stats[key]
            assert got.combo_counter == want.combo_counter
            assert got.unique_channels == want.unique_channels
            assert got.unique_combos == want.unique_combos
            assert got.max_ccs == want.max_ccs
            assert got.accumulator.ca_samples == want.accumulator.ca_samples
            assert got.accumulator.total_samples == want.accumulator.total_samples
            assert got.peak_tput_mbps == want.peak_tput_mbps
            # the float sum runs in shard order: approx, not exact
            assert got.mean_tput_mbps == pytest.approx(want.mean_tput_mbps, rel=1e-9)


class TestCityCampaign:
    def test_resume_skips_completed_shards(self, tmp_path):
        config = _tiny_config()
        state = tmp_path / "state"

        partial = run_city_campaign(config, state_dir=state, max_shards=1)
        assert not partial.complete
        assert partial.shards_completed == 1
        assert partial.shards_total == config.shards

        obs.configure(mode=obs.MODE_METRICS, directory=tmp_path / "obs")
        obs.reset()
        try:
            full = run_city_campaign(config, state_dir=state)
            counters = obs.snapshot()["counters"]
        finally:
            obs.configure(mode=obs.MODE_OFF)
        assert full.complete
        assert full.shards_resumed == 1
        assert full.shards_completed == config.shards
        assert counters.get("campaign.shard.resumed") == 1

        again = run_city_campaign(config, state_dir=state)
        assert again.complete
        assert again.shards_resumed == config.shards
        # merged stats are deterministic across resumed runs
        assert again.stats == full.stats
        assert again.n_ues == len(city_campaign_jobs(config))

    def test_throughput_counts_only_simulated_ues(self, tmp_path):
        config = _tiny_config()
        state = tmp_path / "state"
        partial = run_city_campaign(config, state_dir=state, max_shards=2)
        rest = run_city_campaign(config, state_dir=state)
        again = run_city_campaign(config, state_dir=state)
        assert partial.n_simulated == partial.n_ues < rest.n_ues
        # the rerun simulated only the shard the partial run left pending
        assert rest.n_simulated == rest.n_ues - partial.n_ues
        assert rest.ues_per_sec > 0
        # every shard resumed: nothing simulated, so no throughput
        assert again.shards_resumed == config.shards
        assert again.n_simulated == 0
        assert again.ues_per_sec == 0.0

    def test_truncated_shard_is_warned_and_recomputed(self, tmp_path, caplog):
        config = _tiny_config()
        state = tmp_path / "state"
        full = run_city_campaign(config, state_dir=state)
        assert not (state / "stages").exists()
        torn = state / "shard-0001.json"
        torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            again = run_city_campaign(config, state_dir=state)
        warnings = [
            json.loads(rec.args[1]) for rec in caplog.records if rec.args and rec.args[0] == "artifact.unreadable"
        ]
        assert [(w["shard"], w["path"]) for w in warnings] == [("shard-0001", str(torn))]
        assert again.shards_resumed == config.shards - 1
        assert again.n_simulated == len(ShardPlan.build(config).shards[1])
        assert again.stats == full.stats

    def test_stale_state_not_resumed(self, tmp_path):
        state = tmp_path / "state"
        run_city_campaign(_tiny_config(), state_dir=state)
        # different campaign hash -> same state dir must not be trusted
        other = run_city_campaign(_tiny_config(seed=12), state_dir=state)
        assert other.complete
        assert other.shards_resumed == 0

    def test_spill_round_trip(self, tmp_path):
        config = _tiny_config(spill_traces=True)
        result = run_city_campaign(
            config, state_dir=tmp_path / "state", cache_dir=tmp_path / "cache"
        )
        assert result.complete
        assert result.spill_keys
        traces = result.load_spilled_traces()
        assert len(traces) == result.n_ues
        steps = int(config.duration_s / config.dt_s)
        assert all(len(trace.records) == steps for trace in traces)

    def test_spilled_traces_load_from_the_campaigns_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-cache"))
        config = _tiny_config(spill_traces=True, ues=2, shards=1)
        result = run_city_campaign(config, state_dir=tmp_path / "state", cache_dir=tmp_path / "cache")
        traces = result.load_spilled_traces()
        assert len(traces) == result.n_ues == 4
        assert result.spill_dir == tmp_path / "cache"
        # they are the traces the statistics streamed
        for (operator, rat, scenario), stats in result.stats.items():
            group = traces.filter(operator=operator, rat=rat, scenario=scenario)
            assert analyze_traces(group, operator, rat) == stats
        # a campaign that did not spill has nothing to load, and says so
        plain = run_city_campaign(_tiny_config(ues=2, shards=1), state_dir=tmp_path / "plain")
        with pytest.raises(ValueError, match="spill_traces"):
            plain.load_spilled_traces()

    def test_lost_spill_entry_fails_loading(self, tmp_path):
        config = _tiny_config(spill_traces=True, ues=2, shards=1)
        result = run_city_campaign(config, state_dir=tmp_path / "state", cache_dir=tmp_path / "cache")
        assert len(result.spill_keys) == 2
        lost = tmp_path / "cache" / result.spill_keys[1]
        shutil.rmtree(lost)
        with pytest.raises(ValueError, match=re.escape(str(lost))):
            result.load_spilled_traces()

    def test_shard_with_lost_spill_entry_is_warned_and_resimulated(self, tmp_path, caplog):
        config = _tiny_config(spill_traces=True)
        state, cache = tmp_path / "state", tmp_path / "cache"
        first = run_city_campaign(config, state_dir=state, cache_dir=cache)
        shard_file = next(p for p in sorted(state.glob("shard-*.json")) if json.loads(p.read_text())["spill_keys"])
        lost = cache / json.loads(shard_file.read_text())["spill_keys"][0]
        shutil.rmtree(lost)
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            again = run_city_campaign(config, state_dir=state, cache_dir=cache)
        warnings = [
            json.loads(rec.args[1]) for rec in caplog.records if rec.args and rec.args[0] == "artifact.unreadable"
        ]
        assert [(w["shard"], w["path"]) for w in warnings] == [(shard_file.stem, str(lost))]
        assert again.shards_resumed == config.shards - 1
        shard_index = int(shard_file.stem.split("-")[1])
        assert again.n_simulated == len(ShardPlan.build(config).shards[shard_index])
        assert again.stats == first.stats
        assert len(again.load_spilled_traces()) == again.n_ues

    def test_resume_keeps_first_seen_order(self, tmp_path):
        # Table 2's OpZ 5G urban group: two ordered combos tie at 64 samples
        config = CityCampaignConfig(
            operators=("OpZ",), scenarios=("urban", "highway"), rats=("5G",), ues=3, duration_s=60.0, seed=26
        )
        fresh = run_city_campaign(config, state_dir=tmp_path / "state")
        resumed = run_city_campaign(config, state_dir=tmp_path / "state")
        assert resumed.shards_resumed == config.shards
        (_, first), (_, second) = fresh.stats[("OpZ", "5G", "urban")].top_combos(2)
        assert first == second
        for key, stats in fresh.stats.items():
            assert resumed.stats[key].top_combos() == stats.top_combos()
            assert list(resumed.stats[key].combo_counter.items()) == list(stats.combo_counter.items())
        # and the groups merge in the order a fresh run found them
        assert list(resumed.stats) == list(fresh.stats)


class TestMultiUEOracle:
    """Batched SoA stepping must match per-lane stepping."""

    def _lanes(self, deployment, config, jobs):
        return [
            TraceSimulator(
                operator=job.operator,
                scenario=job.scenario,
                mobility=_mobility_for(job.scenario),
                modem=config.modem,
                rat=job.rat,
                dt_s=config.dt_s,
                seed=job.seed,
                deployment=deployment,
            )
            for job in jobs
        ]

    def test_batched_matches_per_lane(self):
        config = _tiny_config(ues=4, cells=8)
        jobs = [job for job in city_campaign_jobs(config) if job.scenario == "urban"]
        deployment = _build_group_deployment(config, "OpZ", "urban")

        batched = MultiUESimulator(self._lanes(deployment, config, jobs)).run(
            config.duration_s, route_ids=[job.route_id for job in jobs]
        )
        lockstep = MultiUESimulator(
            self._lanes(deployment, config, jobs), batch=False
        ).run(config.duration_s, route_ids=[job.route_id for job in jobs])

        assert len(batched) == len(lockstep) == len(jobs)
        for got, ref in zip(batched, lockstep):
            assert got.records == ref.records

    def test_on_record_streaming_matches_kept_traces(self):
        config = _tiny_config(ues=3, cells=8)
        jobs = [job for job in city_campaign_jobs(config) if job.scenario == "urban"]
        deployment = _build_group_deployment(config, "OpZ", "urban")

        kept = MultiUESimulator(self._lanes(deployment, config, jobs)).run(
            config.duration_s, route_ids=[job.route_id for job in jobs]
        )
        streamed = [[] for _ in jobs]
        out = MultiUESimulator(self._lanes(deployment, config, jobs)).run(
            config.duration_s,
            route_ids=[job.route_id for job in jobs],
            keep_traces=False,
            on_record=lambda lane, rec: streamed[lane].append(rec),
        )
        assert out is None
        for trace, records in zip(kept, streamed):
            assert list(trace.records) == records


@pytest.mark.slow
class TestCityScaleSmoke:
    def test_10k_ues_bounded_memory(self, tmp_path):
        config = CityCampaignConfig(
            operators=("OpZ",),
            scenarios=("urban",),
            rats=("5G",),
            ues=10_000,
            cells=24,
            shards=4,
            cohort=512,
            duration_s=2.0,
            dt_s=1.0,
            seed=1,
        )
        result = run_city_campaign(config, state_dir=tmp_path / "state", processes=1)
        assert result.complete
        assert result.n_ues == 10_000
        # streaming aggregation: no per-record lists, so RSS stays bounded
        assert result.peak_rss_mb < 2048.0
        assert result.ues_per_sec > 0

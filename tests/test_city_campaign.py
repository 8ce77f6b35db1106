"""Tests for the city-scale campaign engine: shard plan, oracle, resume, spill."""

from __future__ import annotations

import json
import logging

import pytest

from repro import obs
from repro.data.cache import TraceCache
from repro.ran import (
    CityCampaignConfig,
    MultiUESimulator,
    ShardPlan,
    TraceSimulator,
    city_campaign_jobs,
    run_campaign,
    run_city_campaign,
)
from repro.ran.campaign import CampaignConfig, _build_group_deployment, _mobility_for


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
        # run_campaign assigns seeds by incrementing from config.seed in
        # operator > rat > scenario > trace order; the city planner must
        # reproduce that exactly (it is what makes the oracle bit-identical)
        assert [job.seed for job in jobs] == [config.seed + 1 + i for i in range(len(jobs))]


class TestLegacyOracle:
    """cells=0, shards=1 must be bit-identical to run_campaign."""

    def test_bit_identical_to_run_campaign(self, tmp_path):
        legacy = run_campaign(
            CampaignConfig(
                operators=("OpZ", "OpX"),
                scenarios=("urban", "highway"),
                rats=("5G",),
                traces_per_cell=1,
                duration_s=10.0,
                dt_s=1.0,
                seed=5,
            ),
            cache=None,
        )
        city = run_city_campaign(
            CityCampaignConfig(
                operators=("OpZ", "OpX"),
                scenarios=("urban", "highway"),
                rats=("5G",),
                ues=1,
                cells=0,
                shards=1,
                duration_s=10.0,
                dt_s=1.0,
                seed=5,
            ),
            state_dir=tmp_path / "state",
        )
        assert city.complete
        assert set(city.stats) == set(legacy.stats)
        for key, ref in legacy.stats.items():
            got = city.stats[key]
            assert got.unique_channels == ref.unique_channels
            assert got.combo_counter == ref.combo_counter
            assert got.max_ccs == ref.max_ccs
            # bit-identical, not approximately equal
            assert got.ca_prevalence == ref.ca_prevalence
            assert got.peak_tput_mbps == ref.peak_tput_mbps
            assert got.mean_tput_mbps == ref.mean_tput_mbps


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
        traces = result.load_spilled_traces(cache=TraceCache(tmp_path / "cache"))
        assert len(traces) == result.n_ues
        steps = int(config.duration_s / config.dt_s)
        assert all(len(trace.records) == steps for trace in traces)


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

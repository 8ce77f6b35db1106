"""Deployment, cell, and mobility model tests."""

import math

import numpy as np
import pytest

from repro.ran import (
    ChannelPlan,
    DrivingRoute,
    IndoorWalk,
    RandomWalk,
    Stationary,
    build_deployment,
    get_operator,
    make_mobility,
)
from repro.ran.cells import COVERAGE_RADIUS_M

from . import oracles


class TestDeployment:
    def test_urban_denser_than_suburban(self):
        plans = [ChannelPlan("n41", 100)]
        urban = build_deployment(plans, "urban", area_m=1_000, seed=0)
        suburban = build_deployment(plans, "suburban", area_m=1_000, seed=0)
        assert len(urban.stations) > len(suburban.stations)

    def test_channel_keys_stable_across_sites(self):
        plans = [ChannelPlan("n41", 100), ChannelPlan("n41", 40)]
        deployment = build_deployment(plans, "urban", area_m=800, seed=1)
        keys_per_site = [
            sorted(c.channel_key for c in bs.cells) for bs in deployment.stations
        ]
        assert all(k == keys_per_site[0] for k in keys_per_site)
        # the two n41 carriers must be distinguishable (n41^a vs n41^b)
        assert len(set(keys_per_site[0])) == 2

    def test_deploy_fraction_thins_band(self):
        plans = [ChannelPlan("n71", 20), ChannelPlan("n41", 100)]
        deployment = build_deployment(
            plans, "urban", area_m=2_000, seed=2, deploy_fraction={"n41": 0.3}
        )
        n71_sites = sum(any(c.band.name == "n71" for c in bs.cells) for bs in deployment.stations)
        n41_sites = sum(any(c.band.name == "n41" for c in bs.cells) for bs in deployment.stations)
        assert n41_sites < n71_sites

    def test_cells_near_respects_band_radius(self):
        plans = [ChannelPlan("n71", 20), ChannelPlan("n260", 100)]
        deployment = build_deployment(plans, "urban", area_m=400, seed=0)
        far_point = (10_000.0, 10_000.0)
        assert deployment.cells_near(far_point) == []
        site = deployment.stations[0].position
        near = deployment.cells_near((site[0] + 50, site[1]))
        assert any(c.band.name == "n260" for c in near)

    def test_mmwave_not_visible_beyond_200m(self):
        plans = [ChannelPlan("n260", 100)]
        deployment = build_deployment(plans, "urban", area_m=400, seed=0)
        site = deployment.stations[0].position
        cells = deployment.cells_near((site[0] + 500, site[1]))
        assert all(math.dist(c.position, (site[0] + 500, site[1])) <= 200 for c in cells)

    def test_empty_deployment_raises(self):
        from repro.ran.cells import Deployment

        with pytest.raises(ValueError):
            Deployment([])

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            build_deployment([ChannelPlan("n41", 100)], "rural")

    def test_operator_profiles_build(self):
        for name in ("OpX", "OpY", "OpZ"):
            profile = get_operator(name)
            deployment = build_deployment(
                profile.channel_plans(), "urban", area_m=700, seed=0,
                deploy_fraction=profile.fraction_for("urban"),
            )
            assert deployment.unique_channels("5G")
            assert deployment.unique_channels("4G")

    def test_unknown_operator_raises(self):
        with pytest.raises(KeyError):
            get_operator("OpQ")


class TestCoverageTest:
    """``cells_near`` is one array test over the cell table; it must
    decide every cell exactly as the ``math.dist`` scan does."""

    @pytest.fixture(scope="class")
    def deployment(self):
        operator = get_operator("OpX")  # three coverage radii, incl. 200 m mmWave
        return build_deployment(
            operator.channel_plans(), "urban", area_m=1_500, seed=3,
            deploy_fraction=operator.fraction_for("urban"),
        )

    def _assert_matches_scan(self, deployment, points):
        for point in points:
            for max_distance_m in (None, 800.0):
                got = deployment.cells_near(point, max_distance_m)
                assert got == oracles.cells_near_loop(deployment, point, max_distance_m), point

    def test_random_points(self, deployment):
        rng = np.random.default_rng(0)
        self._assert_matches_scan(deployment, [tuple(p) for p in rng.uniform(-3_500, 5_000, size=(300, 2))])

    @staticmethod
    def _on_radius_points(deployment):
        points = []
        for cell in deployment.cells[::5]:
            radius = COVERAGE_RADIUS_M[cell.band.band_class]
            x, y = cell.position
            points += [(x + radius, y), (x, y - radius), (x + 0.6 * radius, y + 0.8 * radius)]
        return points

    @staticmethod
    def _disagreeing_points(deployment):
        # on-radius points whose np.hypot distance falls on the other
        # side of the radius from math.dist's: only the tie-break gets
        # these right
        rng = np.random.default_rng(1)
        points = []
        for cell in deployment.cells[:40]:
            radius = COVERAGE_RADIUS_M[cell.band.band_class]
            x, y = cell.position
            for theta in rng.uniform(0.0, 2.0 * math.pi, 500):
                point = (x + radius * math.cos(theta), y + radius * math.sin(theta))
                by_hypot = float(np.hypot(x - point[0], y - point[1])) <= radius
                if by_hypot != (math.dist(point, cell.position) <= radius):
                    points.append(point)
        return points

    def test_points_exactly_on_a_radius(self, deployment):
        self._assert_matches_scan(deployment, self._on_radius_points(deployment))

    def test_points_where_hypot_and_dist_disagree(self, deployment):
        points = self._disagreeing_points(deployment)
        assert len(points) >= 10
        self._assert_matches_scan(deployment, points)

    def test_cohort_rows_match_one_position_tests(self, deployment):
        # a cohort tests all its lanes' positions at once; each row must
        # decide every cell as the one-position test and the scan do,
        # ties included
        rng = np.random.default_rng(2)
        points = [tuple(p) for p in rng.uniform(-3_500, 5_000, size=(64, 2))]
        points += self._on_radius_points(deployment) + self._disagreeing_points(deployment)
        for max_distance_m in (None, 800.0):
            rows = deployment.coverage_masks(np.array(points), max_distance_m)
            assert rows.shape == (len(points), len(deployment.cells))
            for point, row in zip(points, rows):
                assert np.array_equal(row, deployment.coverage_mask(point, max_distance_m)), point
                covered = [deployment.cells[i] for i in np.flatnonzero(row)]
                assert covered == oracles.cells_near_loop(deployment, point, max_distance_m), point


class TestMobility:
    def test_stationary_never_moves(self):
        rng = np.random.default_rng(0)
        model = Stationary(position=(3.0, 4.0))
        model.reset(rng)
        for _ in range(10):
            state = model.step(1.0, rng)
        assert state.position == (3.0, 4.0)
        assert state.speed_mps == 0.0

    def test_walk_speed_is_calibrated(self):
        rng = np.random.default_rng(1)
        model = RandomWalk(speed_mps=1.4)
        start = model.reset(rng).position
        total = 0.0
        prev = start
        for _ in range(100):
            state = model.step(1.0, rng)
            total += math.dist(prev, state.position)
            prev = state.position
        assert total == pytest.approx(140.0, rel=0.05)

    def test_walk_reflects_at_boundary(self):
        rng = np.random.default_rng(2)
        model = RandomWalk(start=(5.0, 5.0), speed_mps=5.0, area_m=50.0)
        model.reset(rng)
        for _ in range(500):
            state = model.step(1.0, rng)
            assert -1e-9 <= state.position[0] <= 50.0 + 1e-9
            assert -1e-9 <= state.position[1] <= 50.0 + 1e-9

    def test_driving_follows_waypoints(self):
        rng = np.random.default_rng(3)
        model = DrivingRoute(
            waypoints=((0.0, 0.0), (100.0, 0.0)),
            speed_mps=10.0,
            stop_probability_per_min=0.0,
            loop=True,
        )
        model.reset(rng)
        state = model.step(1.0, rng)
        assert state.position[1] == pytest.approx(0.0)  # stays on the segment
        assert 0 < state.position[0] <= 12.0

    def test_driving_stops_at_lights(self):
        rng = np.random.default_rng(4)
        model = DrivingRoute(speed_mps=10.0, stop_probability_per_min=10.0, stop_duration_s=5.0)
        model.reset(rng)
        speeds = [model.step(1.0, rng).speed_mps for _ in range(120)]
        assert any(s == 0.0 for s in speeds)
        assert any(s > 0.0 for s in speeds)

    def test_indoor_walk_flagged_and_bounded(self):
        rng = np.random.default_rng(5)
        model = IndoorWalk(start=(100.0, 100.0), area_m=30.0)
        model.reset(rng)
        for _ in range(200):
            state = model.step(1.0, rng)
            assert state.indoor
            assert math.dist(state.position, (100.0, 100.0)) <= 30.0 + 2.0

    def test_factory(self):
        assert isinstance(make_mobility("stationary"), Stationary)
        assert isinstance(make_mobility("indoor"), IndoorWalk)
        with pytest.raises(ValueError):
            make_mobility("teleport")

    def test_route_needs_two_waypoints(self):
        with pytest.raises(ValueError):
            DrivingRoute(waypoints=((0.0, 0.0),))

"""UE mobility models: stationary, walking, driving, indoor walking.

Matches the paper's measurement settings (Table 1): stationary hot-spot
baselines, urban walking, and driving across urban / suburban / beltway
routes (with traffic-light stops in urban areas — footnote 6 notes CC
changes happen more often on highways because of speed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class UEState:
    """Instantaneous kinematic state of the UE."""

    position: Tuple[float, float]
    speed_mps: float
    indoor: bool = False


class MobilityModel:
    """Base class: ``step(dt, rng)`` advances and returns the new state."""

    def reset(self, rng: np.random.Generator) -> UEState:  # pragma: no cover - abstract
        raise NotImplementedError

    def step(self, dt_s: float, rng: np.random.Generator) -> UEState:  # pragma: no cover - abstract
        raise NotImplementedError


class Stationary(MobilityModel):
    """Fixed position (ideal-condition hot-spot measurements)."""

    def __init__(self, position: Tuple[float, float] = (0.0, 0.0), indoor: bool = False) -> None:
        self.position = position
        self.indoor = indoor
        self._state = UEState(position, 0.0, indoor)

    def reset(self, rng: np.random.Generator) -> UEState:
        self._state = UEState(self.position, 0.0, self.indoor)
        return self._state

    def step(self, dt_s: float, rng: np.random.Generator) -> UEState:
        return self._state


class RandomWalk(MobilityModel):
    """Pedestrian random waypointless walk (~1.4 m/s, smooth heading)."""

    def __init__(
        self,
        start: Tuple[float, float] = (0.0, 0.0),
        speed_mps: float = 1.4,
        heading_sigma: float = 0.3,
        area_m: Optional[float] = 1_000.0,
        indoor: bool = False,
    ) -> None:
        if speed_mps < 0:
            raise ValueError("speed must be non-negative")
        self.start = start
        self.speed = speed_mps
        self.heading_sigma = heading_sigma
        self.area_m = area_m
        self.indoor = indoor
        self._position = np.array(start, dtype=np.float64)
        self._heading = 0.0

    def reset(self, rng: np.random.Generator) -> UEState:
        self._position = np.array(self.start, dtype=np.float64)
        self._heading = 2 * math.pi * rng.random()  # rng.uniform(0, 2 * math.pi), bare
        return UEState(tuple(self._position), self.speed, self.indoor)

    def step(self, dt_s: float, rng: np.random.Generator) -> UEState:
        # rng.normal(0.0, heading_sigma * sqrt(dt)), bare
        self._heading += self.heading_sigma * math.sqrt(dt_s) * rng.standard_normal()
        delta = self.speed * dt_s
        self._position += (delta * math.cos(self._heading), delta * math.sin(self._heading))
        if self.area_m is not None:
            # reflect at the area boundary to stay in coverage
            for axis in range(2):
                if self._position[axis] < 0:
                    self._position[axis] = -self._position[axis]
                    self._heading += math.pi / 2
                elif self._position[axis] > self.area_m:
                    self._position[axis] = 2 * self.area_m - self._position[axis]
                    self._heading += math.pi / 2
        return UEState(tuple(self._position), self.speed, self.indoor)


class DrivingRoute(MobilityModel):
    """Waypoint-following drive with speed variation and urban stops.

    The position is a pair of Python floats.  Each segment length goes
    through numpy's ``dot``, as ``np.linalg.norm`` computes it: the BLAS
    dot rounds differently from ``math.hypot`` or ``dx * dx + dy * dy``
    in the last ulp.
    """

    def __init__(
        self,
        waypoints: Optional[Tuple[Tuple[float, float], ...]] = None,
        speed_mps: float = 12.0,
        stop_probability_per_min: float = 1.5,
        stop_duration_s: float = 20.0,
        loop: bool = True,
    ) -> None:
        if waypoints is not None and len(waypoints) < 2:
            raise ValueError("need at least two waypoints")
        self.waypoints = waypoints or ((0.0, 0.0), (800.0, 0.0), (800.0, 800.0), (0.0, 800.0))
        self.cruise_speed = speed_mps
        self.stop_rate = stop_probability_per_min / 60.0
        self.stop_duration_s = stop_duration_s
        self.loop = loop
        self._targets = tuple((float(x), float(y)) for x, y in self.waypoints)
        #: scratch vector of the segment-length dot
        self._delta = np.empty(2, dtype=np.float64)
        self._segment = 0
        self._position = self._targets[0]
        self._stopped_until = 0.0
        self._clock = 0.0

    def reset(self, rng: np.random.Generator) -> UEState:
        self._segment = 0
        self._position = self._targets[0]
        self._stopped_until = 0.0
        self._clock = 0.0
        return UEState(self._position, self.cruise_speed)

    def step(self, dt_s: float, rng: np.random.Generator) -> UEState:
        self._clock += dt_s
        if self._clock < self._stopped_until:
            return UEState(self._position, 0.0)
        # rng.uniform(a, b) is drawn bare as a + (b - a) * rng.random()
        if self.stop_rate > 0 and rng.random() < self.stop_rate * dt_s:
            self._stopped_until = self._clock + self.stop_duration_s * (0.5 + (1.5 - 0.5) * rng.random())
            return UEState(self._position, 0.0)
        speed = max(self.cruise_speed * (0.8 + (1.15 - 0.8) * rng.random()), 0.0)
        remaining = speed * dt_s
        targets, delta = self._targets, self._delta
        x, y = self._position
        while remaining > 0:
            target_x, target_y = targets[(self._segment + 1) % len(targets)]
            dx = target_x - x
            dy = target_y - y
            delta[0] = dx
            delta[1] = dy
            distance = math.sqrt(delta.dot(delta))
            if distance <= remaining:
                x, y = target_x, target_y
                remaining -= distance
                self._segment += 1
                if not self.loop and self._segment >= len(targets) - 1:
                    break
            else:
                x += dx / distance * remaining
                y += dy / distance * remaining
                remaining = 0.0
        self._position = (x, y)
        return UEState(self._position, speed)


class IndoorWalk(RandomWalk):
    """Walking inside a building (higher penetration loss, small area)."""

    def __init__(self, start: Tuple[float, float] = (200.0, 200.0), area_m: float = 80.0) -> None:
        super().__init__(start=start, speed_mps=1.0, heading_sigma=0.6, area_m=None, indoor=True)
        self._anchor = np.array(start, dtype=np.float64)
        self.room_m = area_m

    def step(self, dt_s: float, rng: np.random.Generator) -> UEState:
        super().step(dt_s, rng)  # advances self._position/_heading
        # keep within the building footprint around the anchor
        offset = self._position - self._anchor
        radius = float(np.linalg.norm(offset))
        if radius > self.room_m:
            self._position = self._anchor + offset / radius * self.room_m
            self._heading += math.pi
        return UEState(tuple(self._position), self.speed, indoor=True)


def make_mobility(kind: str, **kwargs) -> MobilityModel:
    """Factory: ``stationary`` / ``walking`` / ``driving`` / ``indoor``."""
    factories = {
        "stationary": Stationary,
        "walking": RandomWalk,
        "driving": DrivingRoute,
        "indoor": IndoorWalk,
    }
    if kind not in factories:
        raise ValueError(f"unknown mobility {kind!r}; choose from {sorted(factories)}")
    return factories[kind](**kwargs)

"""Cells, base stations, and per-scenario deployments.

Each base station hosts one or more *cells* (a channel within a band,
with its own PCI) — the left panel of the paper's Fig 3.  Deployment
generators place sites with scenario-appropriate inter-site distances
and per-operator band inventories, so that a moving UE sees exactly the
phenomenon the paper maps in Fig 4: the set of coverage-overlapping
channels (hence possible CA combinations) changes along the route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bands import Band, get_band
from .phy import num_resource_blocks
from .propagation import indoor_penetration_loss_db, noise_power_dbm


@dataclass(frozen=True)
class Cell:
    """One channel (component-carrier candidate) at a site."""

    cell_id: int
    pci: int
    band: Band
    bandwidth_mhz: float
    scs_khz: int
    position: Tuple[float, float]
    tx_power_dbm: float
    channel_key: str  #: e.g. "n41@2506" — distinguishes co-band channels

    @property
    def is_5g(self) -> bool:
        return self.band.is_5g

    def __repr__(self) -> str:
        return f"Cell({self.channel_key}, {self.bandwidth_mhz:g} MHz, pci={self.pci})"


@dataclass
class BaseStation:
    """A site hosting co-located cells (possibly multiple bands)."""

    site_id: int
    position: Tuple[float, float]
    cells: List[Cell] = field(default_factory=list)


#: typical total transmit power by band class (mmWave is beamformed EIRP).
_TX_POWER_DBM = {"low": 46.0, "mid": 46.0, "high": 50.0}

#: coverage radius heuristics by band class (metres) for cell placement sanity.
COVERAGE_RADIUS_M = {"low": 3_000.0, "mid": 1_200.0, "high": 200.0}


@dataclass(frozen=True)
class CellTable:
    """Per-cell arrays of a deployment; row ``i`` describes ``cells[i]``.

    Built once per :class:`Deployment` and shared by every simulator
    lane on it: the geometry of the coverage test, the topology keys of
    correlated shadowing and co-channel interference, and the radio
    constants the array radio step reads.  A lane gathers its candidate
    rows from here instead of recomputing them per cell.
    """

    position: np.ndarray  #: (N, 2) site position, metres
    radius_m: np.ndarray  #: band-class coverage radius
    site: np.ndarray  #: station index (same station <=> same ``site_of``)
    site_band: np.ndarray  #: index of the cell's (station, band) pair
    channel: np.ndarray  #: index of the cell's channel key
    freq_mhz: np.ndarray
    n_rb: np.ndarray  #: configured resource blocks (float64)
    n_rb_db: np.ndarray  #: 10 log10(n_rb)
    per_re_tx_dbm: np.ndarray  #: total power spread over all sub-carriers
    noise_mw: np.ndarray  #: noise power over one RE (one sub-carrier)
    indoor_pen_db: np.ndarray  #: building-entry loss

    @classmethod
    def build(cls, stations: Sequence[BaseStation]) -> "CellTable":
        cells: List[Cell] = []
        site: List[int] = []
        site_band: List[int] = []
        channel: List[int] = []
        site_bands: Dict[Tuple[int, str], int] = {}
        channels: Dict[str, int] = {}
        for station, bs in enumerate(stations):
            for cell in bs.cells:
                cells.append(cell)
                site.append(station)
                site_band.append(site_bands.setdefault((station, cell.band.name), len(site_bands)))
                channel.append(channels.setdefault(cell.channel_key, len(channels)))
        n_rb = np.array(
            [num_resource_blocks(c.bandwidth_mhz, c.scs_khz, c.band.rat) for c in cells],
            dtype=np.float64,
        )
        return cls(
            position=np.array([c.position for c in cells], dtype=np.float64).reshape(-1, 2),
            radius_m=np.array([COVERAGE_RADIUS_M[c.band.band_class] for c in cells], dtype=np.float64),
            site=np.array(site, dtype=np.intp),
            site_band=np.array(site_band, dtype=np.intp),
            channel=np.array(channel, dtype=np.intp),
            freq_mhz=np.array([c.band.freq_mhz for c in cells], dtype=np.float64),
            n_rb=n_rb,
            n_rb_db=10.0 * np.log10(n_rb),
            per_re_tx_dbm=np.array([c.tx_power_dbm for c in cells], dtype=np.float64)
            - 10.0 * np.log10(n_rb * 12.0),
            noise_mw=np.array(
                [10 ** (noise_power_dbm(c.scs_khz / 1e3) / 10.0) for c in cells], dtype=np.float64
            ),
            indoor_pen_db=np.array(
                [indoor_penetration_loss_db(c.band.freq_mhz) for c in cells], dtype=np.float64
            ),
        )


class Deployment:
    """A set of base stations covering a scenario area."""

    def __init__(self, stations: Sequence[BaseStation]) -> None:
        if not stations:
            raise ValueError("deployment needs at least one base station")
        self.stations = list(stations)
        self.cells: List[Cell] = [cell for bs in self.stations for cell in bs.cells]
        self._cell_site: Dict[int, int] = {
            cell.cell_id: bs.site_id for bs in self.stations for cell in bs.cells
        }
        #: per-cell arrays, built once and shared by every lane on this deployment
        self.table = CellTable.build(self.stations)

    def site_of(self, cell: Cell) -> int:
        return self._cell_site[cell.cell_id]

    def coverage_mask(
        self, position: Tuple[float, float], max_distance_m: Optional[float] = None
    ) -> np.ndarray:
        """Boolean mask over :attr:`cells`: whose coverage radius reaches ``position``.

        One vectorized distance test over the cell table.  ``np.hypot``
        and ``math.dist`` can round the same distance one ulp apart, so a
        cell within 1e-9 relative of its limit is decided by
        ``math.dist``, keeping the per-cell scan's decision exactly.
        """
        table = self.table
        delta = table.position - np.asarray(position, dtype=np.float64)
        distance = np.hypot(delta[:, 0], delta[:, 1])
        limit = table.radius_m if max_distance_m is None else np.minimum(table.radius_m, max_distance_m)
        covered = distance <= limit
        for i in np.flatnonzero(np.abs(distance - limit) <= 1e-9 * limit):
            covered[i] = math.dist(position, self.cells[i].position) <= limit[i]
        return covered

    def cells_near(self, position: Tuple[float, float], max_distance_m: Optional[float] = None) -> List[Cell]:
        """Cells whose class-based coverage radius reaches ``position``."""
        return [self.cells[i] for i in np.flatnonzero(self.coverage_mask(position, max_distance_m))]

    def unique_channels(self, rat: Optional[str] = None) -> List[str]:
        """Distinct channel keys in the deployment (optionally by RAT)."""
        keys = {
            cell.channel_key
            for cell in self.cells
            if rat is None or cell.band.rat == rat
        }
        return sorted(keys)


@dataclass(frozen=True)
class ChannelPlan:
    """A channel an operator deploys: band + bandwidth (+ count per site)."""

    band_name: str
    bandwidth_mhz: float
    per_site: int = 1  #: co-channel instances per site (e.g. two n41 carriers)


#: scenario -> inter-site distance (metres); the one place layout
#: density is defined, shared by area- and cell-count-sized builders.
_SCENARIO_SPACING_M = {
    "urban": 350.0,
    "suburban": 900.0,
    "highway": 1_500.0,
    "indoor": 400.0,
}


def scenario_spacing_m(scenario: str) -> float:
    """Inter-site distance for a scenario."""
    try:
        return _SCENARIO_SPACING_M[scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {scenario!r}") from None


def _site_positions(scenario: str, area_m: float, rng: np.random.Generator) -> List[Tuple[float, float]]:
    """Site layout per scenario: dense urban grid, sparse suburban, linear highway."""
    spacing = scenario_spacing_m(scenario)
    if scenario == "highway":
        n = max(2, int(area_m / spacing))
        return [
            (i * spacing + rng.uniform(-100, 100), rng.uniform(-300, 300))
            for i in range(n + 1)
        ]
    n = max(1, int(area_m / spacing))
    positions = []
    for i, j in itertools.product(range(n + 1), repeat=2):
        jitter = rng.uniform(-spacing / 6, spacing / 6, size=2)
        positions.append((i * spacing + jitter[0], j * spacing + jitter[1]))
    return positions


def build_deployment(
    channel_plans: Sequence[ChannelPlan],
    scenario: str = "urban",
    area_m: float = 1_000.0,
    seed: int = 0,
    deploy_fraction: Optional[Dict[str, float]] = None,
) -> Deployment:
    """Place base stations and instantiate cells from channel plans.

    ``deploy_fraction`` maps a band name to the fraction of sites that
    carry it (e.g. mmWave only in dense pockets; OpX's sparse FR1 CA).
    """
    rng = np.random.default_rng(seed)
    positions = _site_positions(scenario, area_m, rng)
    stations: List[BaseStation] = []
    cell_id = itertools.count(1)
    pci = itertools.count(100)
    # Assign each (plan, instance) a globally consistent spectrum slot so
    # that, e.g., the 100 MHz n41 carrier has the same channel key at
    # every site (distinct from the 40 MHz n41 carrier: n41^a vs n41^b).
    plan_keys: Dict[Tuple[int, int], str] = {}
    band_offsets: Dict[str, int] = {}
    for plan_index, plan in enumerate(channel_plans):
        band = get_band(plan.band_name)
        for instance in range(plan.per_site):
            offset = band_offsets.get(band.name, 0)
            band_offsets[band.name] = offset + int(plan.bandwidth_mhz)
            plan_keys[(plan_index, instance)] = f"{band.name}@{int(band.freq_mhz) + offset}"
    for site_id, position in enumerate(positions):
        cells: List[Cell] = []
        for plan_index, plan in enumerate(channel_plans):
            band = get_band(plan.band_name)
            fraction = 1.0 if deploy_fraction is None else deploy_fraction.get(plan.band_name, 1.0)
            if rng.random() > fraction:
                continue
            for instance in range(plan.per_site):
                key = plan_keys[(plan_index, instance)]
                cells.append(
                    Cell(
                        cell_id=next(cell_id),
                        pci=next(pci) % 504,
                        band=band,
                        bandwidth_mhz=plan.bandwidth_mhz,
                        scs_khz=band.default_scs_khz,
                        position=position,
                        tx_power_dbm=_TX_POWER_DBM[band.band_class],
                        channel_key=key,
                    )
                )
        if cells:
            stations.append(BaseStation(site_id=site_id, position=position, cells=cells))
    return Deployment(stations)


def build_city_deployment(
    channel_plans: Sequence[ChannelPlan],
    scenario: str = "urban",
    target_cells: int = 100,
    seed: int = 0,
    deploy_fraction: Optional[Dict[str, float]] = None,
) -> Deployment:
    """Place a deployment sized to roughly ``target_cells`` cells.

    The city-scale campaign engine's sizing knob: instead of an area in
    metres, callers ask for a cell count and the area is derived from
    the scenario's inter-site distance and the expected cells per site
    (channel plans weighted by their deploy fraction).  Placement
    jitter and fractional band deployment make the realized count
    approximate — read ``len(deployment.cells)`` for the actual figure.
    """
    if target_cells < 1:
        raise ValueError("target_cells must be >= 1")
    spacing = scenario_spacing_m(scenario)
    per_site = 0.0
    for plan in channel_plans:
        fraction = 1.0 if deploy_fraction is None else deploy_fraction.get(plan.band_name, 1.0)
        per_site += plan.per_site * fraction
    per_site = max(per_site, 1.0)
    sites = max(2, math.ceil(target_cells / per_site))
    if scenario == "highway":
        area_m = sites * spacing
    else:
        # the grid builder places (n+1)^2 sites for n = area/spacing
        n = max(1, math.ceil(math.sqrt(sites)) - 1)
        area_m = n * spacing
    return build_deployment(
        channel_plans,
        scenario=scenario,
        area_m=area_m,
        seed=seed,
        deploy_fraction=deploy_fraction,
    )

"""CA manager tests: PCell selection, SCell add/release, caps, events."""

from repro.ran import CAManager, ChannelPlan, build_deployment, get_ue


def _deployment():
    plans = [ChannelPlan("n71", 20), ChannelPlan("n25", 20), ChannelPlan("n41", 100), ChannelPlan("n41", 40)]
    return build_deployment(plans, scenario="urban", area_m=400.0, seed=0)


def _site_cells(deployment):
    """Cells of the first site, keyed by band/bandwidth for addressing."""
    station = deployment.stations[0]
    return {cell.cell_id: cell for cell in station.cells}


def _manager(deployment, **kwargs):
    defaults = dict(rat="5G", max_ccs_policy=4, time_to_trigger_s=0.0)
    defaults.update(kwargs)
    return CAManager(deployment, get_ue("X70"), **defaults)


class TestPCellSelection:
    def test_strongest_mid_band_wins(self):
        deployment = _deployment()
        cells = _site_cells(deployment)
        rsrp = {cid: -85.0 for cid in cells}
        manager = _manager(deployment)
        state = manager.step(1.0, rsrp, cells)
        assert state.pcell_id is not None
        pcell = cells[state.pcell_id]
        assert pcell.band.band_class == "mid"
        assert pcell.bandwidth_mhz == 100  # widest mid-band preferred

    def test_low_band_fallback_when_mid_weak(self):
        deployment = _deployment()
        cells = _site_cells(deployment)
        rsrp = {}
        for cid, cell in cells.items():
            rsrp[cid] = -90.0 if cell.band.band_class == "low" else -112.0
        manager = _manager(deployment)
        state = manager.step(1.0, rsrp, cells)
        assert cells[state.pcell_id].band.band_class == "low"

    def test_no_servable_cell_gives_no_pcell(self):
        deployment = _deployment()
        cells = _site_cells(deployment)
        rsrp = {cid: -130.0 for cid in cells}
        state = _manager(deployment).step(1.0, rsrp, cells)
        assert state.pcell_id is None
        assert state.n_ccs == 0

    def test_hysteresis_prevents_ping_pong(self):
        deployment = _deployment()
        cells = _site_cells(deployment)
        mid_ids = [cid for cid, c in cells.items() if c.bandwidth_mhz == 100]
        other_mid = [cid for cid, c in cells.items() if c.bandwidth_mhz == 40]
        manager = _manager(deployment, ca_enabled=False, l3_filter_alpha=1.0)
        rsrp = {mid_ids[0]: -80.0, other_mid[0]: -85.0}
        state = manager.step(1.0, rsrp, cells)
        first = state.pcell_id
        # small fluctuation should not flip the PCell
        rsrp = {mid_ids[0]: -84.0, other_mid[0]: -83.0}
        state = manager.step(1.0, rsrp, cells)
        assert state.pcell_id == first


class TestSCellManagement:
    def test_scells_added_up_to_cap(self):
        deployment = _deployment()
        cells = _site_cells(deployment)
        rsrp = {cid: -80.0 for cid in cells}
        manager = _manager(deployment)
        state = manager.step(1.0, rsrp, cells)
        assert state.n_ccs == min(4, len(cells))
        assert any(e.startswith("scell_add") for e in state.events)

    def test_ue_capability_caps_ccs(self):
        deployment = _deployment()
        cells = _site_cells(deployment)
        rsrp = {cid: -80.0 for cid in cells}
        manager = CAManager(deployment, get_ue("X60"), rat="5G", max_ccs_policy=4, time_to_trigger_s=0.0)
        state = manager.step(1.0, rsrp, cells)
        assert state.n_ccs <= 2  # X60 supports 2CC FR1

    def test_x50_gets_no_sa_ca(self):
        deployment = _deployment()
        cells = _site_cells(deployment)
        rsrp = {cid: -75.0 for cid in cells}
        manager = CAManager(deployment, get_ue("X50"), rat="5G", max_ccs_policy=4, time_to_trigger_s=0.0)
        state = manager.step(1.0, rsrp, cells)
        assert state.n_ccs == 1

    def test_weak_scell_released_with_event(self):
        deployment = _deployment()
        cells = _site_cells(deployment)
        rsrp = {cid: -80.0 for cid in cells}
        manager = _manager(deployment)
        state = manager.step(1.0, rsrp, cells)
        scell = state.scell_ids[0]
        rsrp = dict(rsrp)
        rsrp[scell] = -130.0
        released_events = []
        for _ in range(4):  # L3 filtering takes a few steps to converge
            state = manager.step(1.0, rsrp, cells)
            released_events += state.events
        assert scell not in state.scell_ids
        assert any(e.startswith("scell_release") for e in released_events)

    def test_time_to_trigger_delays_addition(self):
        deployment = _deployment()
        cells = _site_cells(deployment)
        manager = _manager(deployment, time_to_trigger_s=0.64)
        rsrp = {cid: -80.0 for cid in cells}
        state = manager.step(0.1, rsrp, cells)
        assert state.n_ccs == 1  # PCell connects immediately, SCells wait TTT
        for _ in range(8):
            state = manager.step(0.1, rsrp, cells)
        assert state.n_ccs > 1

    def test_ca_disabled_never_aggregates(self):
        deployment = _deployment()
        cells = _site_cells(deployment)
        rsrp = {cid: -75.0 for cid in cells}
        manager = _manager(deployment, ca_enabled=False)
        for _ in range(5):
            state = manager.step(1.0, rsrp, cells)
        assert state.n_ccs == 1

    def test_pcell_change_releases_scells(self):
        deployment = _deployment()
        cells = _site_cells(deployment)
        rsrp = {cid: -80.0 for cid in cells}
        manager = _manager(deployment, l3_filter_alpha=1.0)
        state = manager.step(1.0, rsrp, cells)
        old_pcell = state.pcell_id
        assert state.scell_ids
        # crush the PCell so another band takes over
        rsrp = dict(rsrp)
        rsrp[old_pcell] = -130.0
        state = manager.step(1.0, rsrp, cells)
        assert state.pcell_id != old_pcell


class TestCAPerformanceCoupling:
    def _aggregated_manager(self):
        deployment = _deployment()
        cells = _site_cells(deployment)
        rsrp = {cid: -80.0 for cid in cells}
        manager = _manager(deployment)
        state = manager.step(1.0, rsrp, cells)
        return manager, cells, state

    def test_no_penalty_without_ca(self):
        deployment = _deployment()
        cells = _site_cells(deployment)
        manager = _manager(deployment, ca_enabled=False)
        state = manager.step(1.0, {cid: -80.0 for cid in cells}, cells)
        assert manager.sinr_penalty_db(state.pcell_id) == 0.0

    def test_scell_penalty_exceeds_pcell_penalty(self):
        manager, cells, state = self._aggregated_manager()
        assert state.scell_ids
        assert manager.sinr_penalty_db(state.scell_ids[0]) > manager.sinr_penalty_db(state.pcell_id)

    def test_penalty_capped(self):
        manager, cells, state = self._aggregated_manager()
        assert manager.sinr_penalty_db(state.scell_ids[0]) <= manager.max_power_split_db

    def test_fdd_scell_loses_layers_at_3cc(self):
        """The Fig 14 mechanism: FDD SCell drops to 1 layer in >=3CC CA."""
        manager, cells, state = self._aggregated_manager()
        assert state.n_ccs >= 3
        fdd_scells = [cid for cid in state.scell_ids if cells[cid].band.duplex == "FDD"]
        assert fdd_scells, "expected an FDD SCell in the combo"
        assert manager.layer_cap(cells[fdd_scells[0]], default_cap=4) == 1

    def test_pcell_keeps_full_rank(self):
        manager, cells, state = self._aggregated_manager()
        assert manager.layer_cap(cells[state.pcell_id], default_cap=4) == 4

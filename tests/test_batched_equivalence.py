"""Batched-vs-loop equivalence for the folded hot paths.

Three Python loops ship folded into array computation; each loop lives
on as an oracle in ``tests/oracles.py``:

* CC folding in Prism5G — forward values must be **bit-identical** to
  the per-carrier loop, including the row-chunked path used above
  ``_FOLD_CHUNK_ROWS``; gradients agree to a relative tolerance
  (weight-gradient matmuls reassociate the same sums).
* The fused decoder rollouts (Prism5G, Seq2Seq) — bit-identical to the
  op-by-op step loop, including the chunked head projection.
* The array candidate-cell radio update — per-field agreement with the
  scalar per-cell loop (numpy vs ``math`` transcendentals differ at
  ulp level), discrete fields exact.
* The array AR(1) shadowing/fading advance — traces **bit-identical**
  to the per-candidate loop, solo, in cohorts and in a sharded
  campaign, on runs whose candidate sets change.
"""

import numpy as np
import pytest

from repro.core.predictors import _Seq2Seq
from repro.core.prism5g import (
    _FOLD_CHUNK_ROWS,
    Prism5G,
    pack_inputs,
)
from repro.nn import LSTM, Tensor, concat, no_grad
from repro.nn.modules import MLP
from repro.nn.training import Trainer
from repro.ran import (
    CityCampaignConfig,
    MultiUESimulator,
    Stationary,
    city_campaign_jobs,
    run_city_campaign,
)
from repro.ran.campaign import _build_group_deployment
from repro.ran.mobility import UEState
from repro.ran.phy import cqi_from_sinr, mcs_from_cqi
from repro.ran.simulator import TraceSimulator

from . import oracles

RNG = np.random.default_rng(1234)


def _packed_batch(n: int, t: int = 7, c: int = 4, f: int = 5) -> np.ndarray:
    x = RNG.normal(size=(n, t, c, f))
    mask = (RNG.random(size=(n, t, c)) > 0.3).astype(np.float64)
    mask[:, :, 0] = 1.0  # keep at least one carrier active
    y_hist = RNG.normal(size=(n, t))
    return pack_inputs(x, mask, y_hist)


def _rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-9) -> float:
    # absolute floor: some gradients are analytically zero (e.g. the
    # attention key bias under softmax shift-invariance)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), floor)))


class TestCCFolding:
    @pytest.mark.parametrize("rnn", ["lstm", "gru"])
    @pytest.mark.parametrize("head", ["decoder", "mlp"])
    def test_forward_bit_identical(self, rnn, head):
        model = Prism5G(n_ccs=4, n_features=5, horizon=6, hidden=12, rnn=rnn, head=head)
        packed = _packed_batch(10)
        folded = model(Tensor(packed)).numpy()
        loop = oracles.prism5g_loop_forward(model, Tensor(packed)).numpy()
        assert np.array_equal(folded, loop)

    def test_forward_matches_op_by_op_oracle(self):
        """Folded + fused vs the fully unfused per-CC loop."""
        model = Prism5G(n_ccs=4, n_features=5, horizon=6, hidden=12)
        packed = _packed_batch(9)
        folded = model(Tensor(packed)).numpy()
        with oracles.op_by_op():
            oracle = oracles.prism5g_loop_forward(model, Tensor(packed)).numpy()
        assert np.array_equal(folded, oracle)

    def test_chunked_rows_bit_identical(self):
        """Row counts above _FOLD_CHUNK_ROWS take the L2-blocked path."""
        c = 4
        n = _FOLD_CHUNK_ROWS // c + 9  # c*n > _FOLD_CHUNK_ROWS
        model = Prism5G(n_ccs=c, n_features=5, horizon=4, hidden=10)
        packed = _packed_batch(n, c=c)
        assert c * n > _FOLD_CHUNK_ROWS
        folded = model(Tensor(packed)).numpy()
        loop = oracles.prism5g_loop_forward(model, Tensor(packed)).numpy()
        assert np.array_equal(folded, loop)

    @pytest.mark.parametrize("rnn", ["lstm"])
    def test_gradients_match_loop(self, rnn):
        packed = _packed_batch(8)

        def grads(folded: bool):
            model = Prism5G(n_ccs=4, n_features=5, horizon=5, hidden=10, rnn=rnn)
            forward = model if folded else (lambda x: oracles.prism5g_loop_forward(model, x))
            loss = (forward(Tensor(packed)) ** 2).mean()
            model.zero_grad()
            loss.backward()
            return {name: p.grad for name, p in model.named_parameters()}

        ga, gb = grads(True), grads(False)
        assert set(ga) == set(gb)
        for name in gb:
            assert ga[name] is not None, name
            assert _rel_err(ga[name], gb[name]) <= 1e-6, name

    def test_predict_all_single_pass_consistent(self):
        model = Prism5G(n_ccs=4, n_features=5, horizon=6, hidden=12)
        packed = _packed_batch(6)
        agg, per_cc = model.predict_all(packed)
        assert agg.shape == (6, 6)
        assert per_cc.shape == (6, 4, 6)
        assert np.array_equal(model.aggregate_prediction(packed), agg)
        assert np.array_equal(model.predict_per_cc(packed), per_cc)
        # the aggregate head is the sum of the per-CC heads
        np.testing.assert_allclose(agg, per_cc.sum(axis=1), rtol=1e-12, atol=1e-12)


class TestFusedDecoder:
    def test_rollout_bit_identical(self):
        model = Prism5G(n_ccs=4, n_features=5, horizon=8, hidden=12)
        h0 = Tensor(RNG.normal(size=(12, 12)))
        fused = model._decode(h0).numpy()
        fused_loop = oracles.decode_loop(model, h0).numpy()
        assert np.array_equal(fused, fused_loop)

    def test_chunked_head_projection_bit_identical(self):
        """out_chunks splits the narrow head GEMV to match per-CC rounding."""
        model = Prism5G(n_ccs=4, n_features=5, horizon=6, hidden=10)
        per_cc = RNG.normal(size=(4, 16, 10))
        folded = np.concatenate(list(per_cc), axis=0)  # carrier-major fold
        whole = model._decode(Tensor(folded), chunks=4).numpy()
        parts = np.concatenate(
            [model._decode(Tensor(h)).numpy() for h in per_cc], axis=0
        )
        assert np.array_equal(whole, parts)

    def test_rollout_gradients_match_loop(self):
        h0_data = RNG.normal(size=(10, 12))

        def grads(use_fused: bool):
            model = Prism5G(n_ccs=4, n_features=5, horizon=8, hidden=12)
            h0 = Tensor(h0_data, requires_grad=True)
            if use_fused:
                preds = model._decode(h0)
            else:
                with oracles.op_by_op():
                    preds = oracles.decode_loop(model, h0)
            loss = (preds ** 2).mean()
            model.zero_grad()
            loss.backward()
            named = {
                name: p.grad
                for name, p in model.named_parameters()
                if name.startswith("decoder") and p.grad is not None
            }
            named["h0"] = h0.grad
            return named

        ga, gb = grads(True), grads(False)
        assert set(ga) == set(gb) and len(ga) > 1
        for name in gb:
            assert _rel_err(ga[name], gb[name]) <= 1e-6, name

    def test_seq2seq_rollout_matches_loop(self):
        x = RNG.normal(size=(9, 7, 5))

        def run(fused: bool):
            model = _Seq2Seq(in_size=5, hidden=8, horizon=6, seed=2)
            if fused:
                preds = model(Tensor(x))
            else:
                with oracles.op_by_op():
                    preds = oracles.seq2seq_forward(model, Tensor(x))
            loss = (preds ** 2).mean()
            model.zero_grad()
            loss.backward()
            return preds.numpy(), {name: p.grad for name, p in model.named_parameters()}

        (out_a, ga), (out_b, gb) = run(True), run(False)
        assert np.array_equal(out_a, out_b)
        for name in gb:
            assert _rel_err(ga[name], gb[name]) <= 1e-6, name


class TestBatchOne:
    """The online forecast's shape: one window, so the C carriers fold to
    C rows and every decoder head chunk is one row.

    At one row numpy's matmul takes BLAS's GEMV path, which sums in
    another order than the GEMM a taller block runs.  The loops run each
    carrier (and each step's input projection) at one row while the fused
    kernels run C rows (and one hoisted ``(T·B, F)`` GEMM), so at batch
    one they agree to rounding rather than bit for bit; from two rows per
    carrier on the fold is bit-identical (``TestCCFolding``).
    """

    @staticmethod
    def _close(got: np.ndarray, want: np.ndarray) -> None:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    @staticmethod
    def _model(**kwargs) -> Prism5G:
        model = Prism5G(n_features=5, horizon=6, **kwargs)
        # biases start at zero: make every one count, the head's included
        rng = np.random.default_rng(11)
        for name, param in model.named_parameters():
            if name.rsplit(".", 1)[-1].startswith("bias"):
                param.data = rng.normal(scale=0.3, size=param.data.shape)
        return model

    @pytest.mark.parametrize("c", [3, 4])
    @pytest.mark.parametrize("rnn", ["lstm", "gru"])
    @pytest.mark.parametrize("head", ["decoder", "mlp"])
    def test_prism5g_forward_matches_loop(self, c, rnn, head):
        model = self._model(n_ccs=c, hidden=12, rnn=rnn, head=head)
        packed = _packed_batch(1, c=c)
        folded = model(Tensor(packed)).numpy()
        self._close(folded, oracles.prism5g_loop_forward(model, Tensor(packed)).numpy())
        with no_grad():
            assert np.array_equal(model(Tensor(packed)).numpy(), folded)

    def test_lstm_seq_matches_loop(self):
        x = RNG.normal(size=(1, 7, 5))

        def run(fused: bool):
            net = LSTM(5, 8, num_layers=2, rng=np.random.default_rng(4))
            inp = Tensor(x, requires_grad=True)
            out, state = net(inp) if fused else oracles.lstm_loop(net, inp)
            (out ** 2 + out).sum().backward()
            grads = {name: p.grad for name, p in net.named_parameters()}
            grads["x"] = inp.grad
            return out.numpy(), state[-1][1].numpy(), grads

        (out_a, c_a, ga), (out_b, c_b, gb) = run(True), run(False)
        self._close(out_a, out_b)
        self._close(c_a, c_b)
        for name in gb:
            assert _rel_err(ga[name], gb[name]) <= 1e-6, name

    @pytest.mark.parametrize("c", [3, 4])
    def test_decoder_one_row_chunks_match_loop(self, c):
        h_data = RNG.normal(size=(c, 10))  # carrier-major fold of one window

        def run(fused: bool):
            model = self._model(n_ccs=c, hidden=10)
            h0 = Tensor(h_data, requires_grad=True)
            if fused:
                preds = model._decode(h0, chunks=c)
            else:
                with oracles.op_by_op():
                    preds = concat([oracles.decode_loop(model, h0[j : j + 1]) for j in range(c)], axis=0)
            (preds ** 2).mean().backward()
            grads = {
                name: p.grad for name, p in model.named_parameters() if name.startswith("decoder")
            }
            grads["h0"] = h0.grad
            return preds.numpy(), grads

        (out_a, ga), (out_b, gb) = run(True), run(False)
        self._close(out_a, out_b)
        assert set(ga) == set(gb) and len(ga) > 1
        for name in gb:
            assert _rel_err(ga[name], gb[name]) <= 1e-6, name


class TestVectorizedRadio:
    @pytest.fixture(scope="class")
    def trace_pair(self):
        def run():
            sim = TraceSimulator(
                "OpX", scenario="urban", mobility="walking", dt_s=0.1, seed=7
            )
            return sim.run(20.0)

        vec = run()
        with oracles.scalar_radio():
            loop = run()
        return vec, loop

    def test_analog_fields_match_per_cell(self, trace_pair):
        vec, loop = trace_pair
        assert len(vec.records) == len(loop.records)
        for rec_v, rec_l in zip(vec.records, loop.records):
            for cc_v, cc_l in zip(rec_v.ccs, rec_l.ccs):
                for field in ("rsrp_dbm", "sinr_db", "bler", "n_rb", "tput_mbps"):
                    np.testing.assert_allclose(
                        getattr(cc_v, field),
                        getattr(cc_l, field),
                        rtol=1e-9,
                        atol=1e-12,
                        err_msg=field,
                    )

    def test_discrete_fields_exact(self, trace_pair):
        vec, loop = trace_pair
        for rec_v, rec_l in zip(vec.records, loop.records):
            assert rec_v.n_active_ccs == rec_l.n_active_ccs
            for cc_v, cc_l in zip(rec_v.ccs, rec_l.ccs):
                assert cc_v.active == cc_l.active
                assert cc_v.cqi == cc_l.cqi
                assert cc_v.mcs == cc_l.mcs

    def test_aggregate_throughput_matches(self, trace_pair):
        vec, loop = trace_pair
        np.testing.assert_allclose(
            vec.throughput_series(), loop.throughput_series(), rtol=1e-9, atol=1e-12
        )


#: solo runs, one per simulator axis.  A 3 km deployment around the
#: 800 m drive loop makes every run's candidate set change mid-run.
ADVANCE_RUNS = {
    "1s": dict(operator="OpX", mobility="driving", seed=3, duration_s=60.0),
    "100ms": dict(operator="OpZ", mobility="driving", dt_s=0.1, seed=8, duration_s=20.0),
    "10ms": dict(operator="OpZ", mobility="driving", dt_s=0.01, seed=9, duration_s=8.0),
    "walking": dict(operator="OpX", mobility="walking", dt_s=0.1, seed=7, duration_s=20.0),
    "indoor": dict(operator="OpZ", scenario="indoor", mobility="indoor", seed=12, duration_s=60.0),
    "force_los": dict(operator="OpZ", mobility="driving", force_los=True, seed=11, duration_s=60.0),
    "4G": dict(operator="OpZ", mobility="driving", rat="4G", seed=13, duration_s=60.0),
    "band_lock": dict(operator="OpZ", mobility="driving", band_lock=("n41",), seed=14, duration_s=60.0),
}


def _set_changed(sim: TraceSimulator) -> bool:
    # version 1 is the empty set a simulator starts with, 2 the first refresh
    return sim._cand_version > 2


class TestArrayRadioState:
    @pytest.mark.parametrize("case", sorted(ADVANCE_RUNS))
    def test_solo_bit_identical_to_loop(self, case):
        kwargs = dict(ADVANCE_RUNS[case])
        duration_s = kwargs.pop("duration_s")

        def run():
            sim = TraceSimulator(area_m=3_000.0, **kwargs)
            return sim, sim.run(duration_s)

        sim, trace = run()
        with oracles.loop_advance():
            _, loop = run()
        assert _set_changed(sim)
        assert trace.records == loop.records

    @pytest.mark.parametrize("batch", [True, False])
    def test_cohort_bit_identical_to_loop(self, batch):
        config = CityCampaignConfig(
            operators=("OpY",), scenarios=("suburban",), rats=("5G",),
            ues=4, cells=60, shards=1, cohort=4, duration_s=60.0, seed=21,
        )
        jobs = city_campaign_jobs(config)
        deployment = _build_group_deployment(config, "OpY", "suburban")

        def run():
            # driving and walking lanes: candidate sets of different widths
            # that change at different steps
            lanes = [
                TraceSimulator(
                    operator=job.operator, scenario=job.scenario,
                    mobility=("driving", "walking")[i % 2], rat=job.rat,
                    seed=job.seed, deployment=deployment,
                )
                for i, job in enumerate(jobs)
            ]
            return lanes, MultiUESimulator(lanes, batch=batch).run(config.duration_s)

        lanes, traces = run()
        with oracles.loop_advance():
            _, loop = run()
        assert any(_set_changed(lane) for lane in lanes)
        assert [t.records for t in traces] == [t.records for t in loop]

    def test_two_shard_campaign_bit_identical_to_loop(self, tmp_path):
        config = CityCampaignConfig(
            operators=("OpX", "OpZ"), scenarios=("urban", "highway"), rats=("5G",),
            ues=3, cells=24, shards=2, cohort=4, duration_s=20.0, seed=21,
        )
        result = run_city_campaign(config, state_dir=tmp_path / "array", processes=1)
        with oracles.loop_advance():
            loop = run_city_campaign(config, state_dir=tmp_path / "loop", processes=1)
        assert result.complete and loop.complete
        assert result.stats == loop.stats

    def test_cell_that_returns_starts_fresh(self):
        # near a site, then 1.6 km east (its mid-band cells leave, its
        # 3 km low-band cell stays), then back
        sim, twin = (TraceSimulator("OpZ", mobility="stationary", seed=4, area_m=3_000.0) for _ in range(2))
        x, y = sim.deployment.stations[0].position
        legs = [(x + 50.0, y), (x + 1_600.0, y), (x + 50.0, y)]
        sets, links = [], []
        for position in legs:
            for _ in range(3):
                state = UEState(position, 10.0)
                _, rho = sim._begin_step(state)
                twin._begin_step(state)
                got = sim._advance_radio_processes(state, rho)
                want = oracles.advance_loop(twin, state, rho)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            sets.append(set(sim._cand_ids))
            links.append(dict(sim._links))
        stayed = sets[0] & sets[1]
        returned = (sets[0] & sets[2]) - sets[1]
        assert stayed and returned
        assert all(links[2][cell_id] is links[0][cell_id] for cell_id in stayed)
        assert all(links[2][cell_id] is not links[0][cell_id] for cell_id in returned)

    def test_unchanged_set_is_kept_and_pack_reused(self):
        deployment = TraceSimulator("OpZ", seed=5).deployment
        lanes = [
            TraceSimulator("OpZ", mobility=Stationary(position=(150.0 * i, 80.0)), seed=i, deployment=deployment)
            for i in range(3)
        ]
        cohort = MultiUESimulator(lanes)
        states = [lane.mobility.reset(lane._rng) for lane in lanes]
        for lane in lanes:
            lane.reset()
        cohort.step_all(states)
        candidates = [lane._candidates for lane in lanes]
        pack = cohort._pack
        # at dt 1 s the refresh fires every step and finds the same sets
        for _ in range(4):
            cohort.step_all(states)
        assert all(lane._candidates is kept for lane, kept in zip(lanes, candidates))
        assert cohort._pack is pack
        # one lane moving out of coverage changes its set: the pack follows
        cohort.step_all([UEState((50_000.0, 50_000.0), 0.0)] + states[1:])
        assert lanes[0]._candidates == []
        assert cohort._pack is not pack
        assert cohort._pack[0].shape[1] == max(len(lane._candidates) for lane in lanes)


class TestPhyLookupOracles:
    def test_cqi_searchsorted_matches_scan(self):
        for sinr in np.arange(-30.0, 40.0, 0.01):
            assert cqi_from_sinr(sinr) == oracles.cqi_from_sinr_scan(sinr), sinr

    def test_mcs_searchsorted_matches_scan(self):
        for cqi in range(16):
            assert mcs_from_cqi(cqi) == oracles.mcs_from_cqi_scan(cqi), cqi


class TestTrainerCheckpoint:
    def test_fit_restores_best_epoch_parameters(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 6))
        y = x @ rng.normal(size=(6, 2)) + 0.5 * rng.normal(size=(64, 2))
        x_val = rng.normal(size=(24, 6))
        y_val = x_val @ rng.normal(size=(6, 2))  # different target: val fluctuates

        def fit(max_epochs: int):
            model = MLP(6, [8], 2, rng=np.random.default_rng(0))
            trainer = Trainer(model, lr=0.05, batch_size=16, max_epochs=max_epochs,
                              patience=max_epochs, seed=5)
            history = trainer.fit(x, y, x_val, y_val)
            return model, history

        model, history = fit(10)
        assert 0 <= history.best_epoch < 10
        # rerunning with max_epochs = best_epoch + 1 replays the identical
        # (seeded) trajectory up to the best epoch; the restored best
        # checkpoint must equal that run's final parameters bit-for-bit
        model_ref, history_ref = fit(history.best_epoch + 1)
        assert history_ref.best_epoch == history.best_epoch
        ref = dict(model_ref.named_parameters())
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, ref[name].data), name

"""Prism5G model unit tests: packing, masking, ablations, per-CC output."""

import numpy as np
import pytest

from repro.core import Prism5G, pack_inputs, unpack_inputs
from repro.nn import Tensor


def _toy_batch(n=6, t=5, c=3, f=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, t, c, f))
    mask = (rng.random((n, t, c)) > 0.3).astype(float)
    y_hist = rng.random((n, t))
    return x, mask, y_hist


class TestPacking:
    def test_roundtrip(self):
        x, mask, y_hist = _toy_batch()
        packed = pack_inputs(x, mask, y_hist)
        x2, m2, h2 = unpack_inputs(packed, 3, 4)
        np.testing.assert_allclose(x2, x)
        np.testing.assert_allclose(m2, mask)
        np.testing.assert_allclose(h2, y_hist)

    def test_shape_validation(self):
        x, mask, y_hist = _toy_batch()
        with pytest.raises(ValueError):
            pack_inputs(x, mask[:, :, :2], y_hist)
        with pytest.raises(ValueError):
            unpack_inputs(pack_inputs(x, mask, y_hist), 4, 4)


class TestForward:
    def test_output_layout(self):
        x, mask, y_hist = _toy_batch()
        model = Prism5G(n_ccs=3, n_features=4, horizon=7, hidden=8)
        out = model(Tensor(pack_inputs(x, mask, y_hist)))
        assert out.shape == (6, 7 * (1 + 3))

    def test_aggregate_is_sum_of_per_cc(self):
        x, mask, y_hist = _toy_batch()
        model = Prism5G(n_ccs=3, n_features=4, horizon=5, hidden=8)
        packed = pack_inputs(x, mask, y_hist)
        out = model(Tensor(packed)).numpy()
        agg = out[:, :5]
        per_cc = model.predict_per_cc(packed)  # (n, C, H)
        np.testing.assert_allclose(agg, per_cc.sum(axis=1), atol=1e-9)

    def test_state_trigger_gates_inactive_cc(self):
        """With the state trigger, a CC inactive at the last step predicts 0."""
        x, mask, y_hist = _toy_batch()
        mask[:, -1, 1] = 0.0
        model = Prism5G(n_ccs=3, n_features=4, horizon=4, hidden=8, use_state_trigger=True)
        per_cc = model.predict_per_cc(pack_inputs(x, mask, y_hist))
        np.testing.assert_allclose(per_cc[:, 1, :], 0.0)

    def test_no_state_ablation_does_not_gate(self):
        x, mask, y_hist = _toy_batch()
        mask[:, -1, 1] = 0.0
        model = Prism5G(n_ccs=3, n_features=4, horizon=4, hidden=8, use_state_trigger=False)
        per_cc = model.predict_per_cc(pack_inputs(x, mask, y_hist))
        assert np.abs(per_cc[:, 1, :]).max() > 0

    def test_fusion_ablation_changes_output(self):
        x, mask, y_hist = _toy_batch()
        packed = pack_inputs(x, mask, y_hist)
        full = Prism5G(n_ccs=3, n_features=4, horizon=4, hidden=8, seed=1)
        ablated = Prism5G(n_ccs=3, n_features=4, horizon=4, hidden=8, seed=1, use_fusion=False)
        assert not np.allclose(full(Tensor(packed)).numpy(), ablated(Tensor(packed)).numpy())

    def test_fusion_conditions_on_other_ccs(self):
        """With fusion, changing CC 2's history changes CC 0's forecast."""
        x, mask, y_hist = _toy_batch()
        mask[:] = 1.0
        model = Prism5G(n_ccs=3, n_features=4, horizon=4, hidden=8, seed=0)
        base = model.predict_per_cc(pack_inputs(x, mask, y_hist))
        x2 = x.copy()
        x2[:, :, 2, :] += 3.0
        mod = model.predict_per_cc(pack_inputs(x2, mask, y_hist))
        assert not np.allclose(base[:, 0, :], mod[:, 0, :])

    def test_no_fusion_isolates_ccs(self):
        """Without fusion, CC 0's forecast ignores CC 2's features."""
        x, mask, y_hist = _toy_batch()
        mask[:] = 1.0
        model = Prism5G(n_ccs=3, n_features=4, horizon=4, hidden=8, seed=0, use_fusion=False)
        base = model.predict_per_cc(pack_inputs(x, mask, y_hist))
        x2 = x.copy()
        x2[:, :, 2, :] += 3.0
        mod = model.predict_per_cc(pack_inputs(x2, mask, y_hist))
        np.testing.assert_allclose(base[:, 0, :], mod[:, 0, :])

    def test_gru_variant(self):
        x, mask, y_hist = _toy_batch()
        model = Prism5G(n_ccs=3, n_features=4, horizon=4, hidden=8, rnn="gru")
        out = model(Tensor(pack_inputs(x, mask, y_hist)))
        assert out.shape == (6, 4 * 4)

    def test_invalid_rnn_kind(self):
        for rnn in ("kalman", "transformer"):
            with pytest.raises(ValueError):
                Prism5G(n_ccs=2, n_features=3, rnn=rnn)

    def test_weights_shared_across_ccs(self):
        """Same features on different CC slots give identical predictions
        when fusion is off (the encoder/head are weight-shared)."""
        rng = np.random.default_rng(0)
        t, f = 5, 4
        row = rng.normal(size=(1, t, f))
        x = np.zeros((1, t, 3, f))
        y_hist = rng.random((1, t))
        model = Prism5G(n_ccs=3, n_features=f, horizon=4, hidden=8, use_fusion=False)
        outs = []
        for slot in range(3):
            x_slot = np.zeros_like(x)
            mask = np.zeros((1, t, 3))
            x_slot[:, :, slot, :] = row
            mask[:, :, slot] = 1.0
            per_cc = model.predict_per_cc(pack_inputs(x_slot, mask, y_hist))
            outs.append(per_cc[0, slot])
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-9)
        np.testing.assert_allclose(outs[0], outs[2], atol=1e-9)

    def test_gradients_flow_to_all_parameters(self):
        x, mask, y_hist = _toy_batch()
        mask[:] = 1.0
        model = Prism5G(n_ccs=3, n_features=4, horizon=4, hidden=8)
        out = model(Tensor(pack_inputs(x, mask, y_hist)))
        (out * out).mean().backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, f"no gradient for {name}"

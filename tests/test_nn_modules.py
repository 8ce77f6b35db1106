"""Neural module tests: shapes, gradients reaching parameters, state dicts."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    TCN,
    CausalConv1d,
    Embedding,
    GRU,
    Linear,
    LSTM,
    LSTMCell,
    Sequential,
    Tensor,
    load_state,
    numerical_gradient,
    save_state,
)

RNG = np.random.default_rng(7)


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        assert layer(Tensor(RNG.normal(size=(5, 4)))).shape == (5, 3)

    def test_gradients_reach_parameters(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        layer(Tensor(RNG.normal(size=(5, 4)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_weight_gradient_correct(self):
        layer = Linear(3, 2, rng=np.random.default_rng(1))
        x = RNG.normal(size=(4, 3))
        layer(Tensor(x)).sum().backward()
        expected = numerical_gradient(
            lambda w: float((x @ w + layer.bias.data).sum()), layer.weight.data.copy()
        )
        np.testing.assert_allclose(layer.weight.grad, expected, atol=1e-5)


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 6)
        assert emb(np.array([[1, 2, 3]])).shape == (1, 3, 6)

    def test_out_of_range_raises(self):
        emb = Embedding(4, 2)
        with pytest.raises(IndexError):
            emb(np.array([4]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_gradient_is_row_sparse(self):
        emb = Embedding(5, 3, rng=np.random.default_rng(0))
        emb(np.array([1, 1, 3])).sum().backward()
        grad = emb.weight.grad
        np.testing.assert_allclose(grad[0], 0.0)
        np.testing.assert_allclose(grad[1], 2.0)  # index 1 used twice
        np.testing.assert_allclose(grad[3], 1.0)


class TestRecurrent:
    def test_lstm_output_shape(self):
        lstm = LSTM(3, 8, num_layers=2, rng=np.random.default_rng(0))
        out, state = lstm(Tensor(RNG.normal(size=(4, 6, 3))))
        assert out.shape == (4, 6, 8)
        assert len(state) == 2
        assert state[0][0].shape == (4, 8)

    def test_lstm_cell_state_evolves(self):
        cell = LSTMCell(2, 4, rng=np.random.default_rng(0))
        h = Tensor(np.zeros((1, 4)))
        c = Tensor(np.zeros((1, 4)))
        h2, c2 = cell(Tensor(RNG.normal(size=(1, 2))), (h, c))
        assert not np.allclose(h2.numpy(), 0.0)

    def test_lstm_forget_bias_initialized_to_one(self):
        cell = LSTMCell(2, 4)
        np.testing.assert_allclose(cell.bias.data[4:8], 1.0)

    def test_gru_output_shape(self):
        gru = GRU(3, 5, rng=np.random.default_rng(0))
        out, state = gru(Tensor(RNG.normal(size=(2, 7, 3))))
        assert out.shape == (2, 7, 5)
        assert state[0].shape == (2, 5)

    def test_lstm_gradients_flow_through_time(self):
        lstm = LSTM(2, 4, rng=np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(1, 5, 2)), requires_grad=True)
        out, _ = lstm(x)
        out[:, -1, :].sum().backward()
        # the first timestep must receive gradient through recurrence
        assert np.abs(x.grad[0, 0]).sum() > 0


class TestConvolutional:
    def test_causal_conv_shape(self):
        conv = CausalConv1d(3, 5, kernel_size=3, rng=np.random.default_rng(0))
        assert conv(Tensor(RNG.normal(size=(2, 7, 3)))).shape == (2, 7, 5)

    def test_causality(self):
        """Output at t must not depend on inputs after t."""
        conv = CausalConv1d(1, 1, kernel_size=3, dilation=2, rng=np.random.default_rng(0))
        x = RNG.normal(size=(1, 10, 1))
        base = conv(Tensor(x)).numpy()
        x_mod = x.copy()
        x_mod[0, 7, 0] += 100.0  # perturb the future
        modified = conv(Tensor(x_mod)).numpy()
        np.testing.assert_allclose(base[0, :7], modified[0, :7])
        assert not np.allclose(base[0, 7:], modified[0, 7:])

    def test_tcn_shape_and_receptive_field(self):
        tcn = TCN(2, [4, 4, 4], kernel_size=2, rng=np.random.default_rng(0))
        assert tcn(Tensor(RNG.normal(size=(3, 12, 2)))).shape == (3, 12, 4)


class TestModuleInfrastructure:
    def _small_model(self, seed=0):
        rng = np.random.default_rng(seed)
        return Sequential(Linear(3, 4, rng=rng), Linear(4, 2, rng=rng))

    def test_named_parameters_unique(self):
        model = self._small_model()
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == len(set(names)) == 4

    def test_state_dict_roundtrip(self):
        model_a = self._small_model(seed=0)
        model_b = self._small_model(seed=99)
        model_b.load_state_dict(model_a.state_dict())
        x = RNG.normal(size=(2, 3))
        np.testing.assert_allclose(model_a(Tensor(x)).numpy(), model_b(Tensor(x)).numpy())

    def test_state_dict_rejects_mismatch(self):
        model = self._small_model()
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_save_load_npz(self, tmp_path):
        model_a = self._small_model(seed=0)
        model_b = self._small_model(seed=1)
        path = tmp_path / "model.npz"
        save_state(model_a, path)
        load_state(model_b, path)
        x = RNG.normal(size=(2, 3))
        np.testing.assert_allclose(model_a(Tensor(x)).numpy(), model_b(Tensor(x)).numpy())

    def test_mlp_architecture(self):
        mlp = MLP(4, [8, 8], 2, rng=np.random.default_rng(0))
        assert mlp(Tensor(RNG.normal(size=(3, 4)))).shape == (3, 2)
        assert mlp.num_parameters() == 4 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2

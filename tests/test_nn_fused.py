"""Property tests for the fused sequence kernels and inference mode.

The fused ops (``affine``, ``lstm_seq``/``gru_seq``) must match the
op-by-op reference compositions in ``tests/oracles.py`` bit-for-bit on
the forward pass and to <= 1e-6 relative error on gradients (they are
the same math, reassociated); a one-step sequence kernel must match the
op-by-op ``LSTMCell``/``GRUCell`` the same way.  ``no_grad`` must
change nothing about the numbers while skipping graph construction.
"""

import numpy as np
import pytest

from repro.nn import (
    GRU,
    LSTM,
    GRUCell,
    Linear,
    LSTMCell,
    Tensor,
    affine,
    gru_seq,
    is_grad_enabled,
    lstm_seq,
    mse_loss,
    no_grad,
    numerical_gradient,
)

from . import oracles

RNG = np.random.default_rng(7)


def _max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), floor)))


def _grad_pairs(module_a, module_b):
    for (name, pa), (_, pb) in zip(
        module_a.named_parameters(), module_b.named_parameters()
    ):
        yield name, pa.grad, pb.grad


# ---------------------------------------------------------------------------
# affine


def test_affine_matches_op_by_op():
    x = Tensor(RNG.normal(size=(6, 4)), requires_grad=True)
    w = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(RNG.normal(size=3), requires_grad=True)
    fused = affine(x, w, b)
    x2 = Tensor(x.data.copy(), requires_grad=True)
    w2 = Tensor(w.data.copy(), requires_grad=True)
    b2 = Tensor(b.data.copy(), requires_grad=True)
    layer = Linear(4, 3)
    layer.weight, layer.bias = w2, b2
    reference = oracles.linear(layer, x2)
    assert np.array_equal(fused.data, reference.data)
    (fused * fused).sum().backward()
    (reference * reference).sum().backward()
    for fused_t, ref_t in ((x, x2), (w, w2), (b, b2)):
        assert _max_rel_err(fused_t.grad, ref_t.grad) <= 1e-6


def test_affine_two_input_form_matches_sum():
    x = Tensor(RNG.normal(size=(5, 4)), requires_grad=True)
    h = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
    w_x = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
    w_h = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(RNG.normal(size=2), requires_grad=True)
    fused = affine(x, w_x, b, h=h, weight_h=w_h)
    expected = (x.data @ w_x.data + h.data @ w_h.data) + b.data
    assert np.array_equal(fused.data, expected)
    fused.sum().backward()
    assert np.allclose(w_x.grad, x.data.T @ np.ones((5, 2)))
    assert np.allclose(h.grad, np.ones((5, 2)) @ w_h.data.T)


# ---------------------------------------------------------------------------
# one-step sequence kernels vs the op-by-op cells


def _cell_pair(cell_cls, in_size=5, hidden=6):
    a = cell_cls(in_size, hidden, rng=np.random.default_rng(3))
    b = cell_cls(in_size, hidden, rng=np.random.default_rng(3))
    return a, b


def _lstm_step(cell, x, h0, c0):
    """One ``lstm_seq`` step with ``cell``'s weights: ``(h, c)``."""
    _, (h,), (c,) = lstm_seq(
        x.reshape(x.shape[0], 1, -1), [h0], [c0], [cell.weight_ih], [cell.weight_hh], [cell.bias]
    )
    return h, c


def test_lstm_cell_forward_bit_identical():
    cell, ref = _cell_pair(LSTMCell)
    x = RNG.normal(size=(4, 5))
    h0 = RNG.normal(size=(4, 6))
    c0 = RNG.normal(size=(4, 6))
    h, c = _lstm_step(cell, Tensor(x), Tensor(h0), Tensor(c0))
    h_ref, c_ref = ref(Tensor(x), (Tensor(h0), Tensor(c0)))
    assert np.array_equal(h.data, h_ref.data)
    assert np.array_equal(c.data, c_ref.data)


def test_lstm_cell_gradients_match_reference():
    cell, ref = _cell_pair(LSTMCell)
    x = RNG.normal(size=(4, 5))
    h0 = RNG.normal(size=(4, 6))
    c0 = RNG.normal(size=(4, 6))
    target_h = RNG.normal(size=(4, 6))
    xa, ha, ca = Tensor(x, requires_grad=True), Tensor(h0, requires_grad=True), Tensor(c0, requires_grad=True)
    h, c = _lstm_step(cell, xa, ha, ca)
    (mse_loss(h, Tensor(target_h)) + (c * c).sum()).backward()
    xb, hb, cb = Tensor(x, requires_grad=True), Tensor(h0, requires_grad=True), Tensor(c0, requires_grad=True)
    h_ref, c_ref = ref(xb, (hb, cb))
    (mse_loss(h_ref, Tensor(target_h)) + (c_ref * c_ref).sum()).backward()
    for name, ga, gb in _grad_pairs(cell, ref):
        assert _max_rel_err(ga, gb) <= 1e-6, name
    for ga, gb in ((xa.grad, xb.grad), (ha.grad, hb.grad), (ca.grad, cb.grad)):
        assert _max_rel_err(ga, gb) <= 1e-6


def test_lstm_cell_c_only_loss():
    """The h->c gradient hand-off treats an unused h as zero gradient."""
    cell, ref = _cell_pair(LSTMCell)
    x = RNG.normal(size=(3, 5))
    state = (Tensor(RNG.normal(size=(3, 6))), Tensor(RNG.normal(size=(3, 6))))
    _, c = _lstm_step(cell, Tensor(x), *state)
    (c * c).sum().backward()
    _, c_ref = ref(Tensor(x), state)
    (c_ref * c_ref).sum().backward()
    for name, ga, gb in _grad_pairs(cell, ref):
        assert _max_rel_err(ga, gb) <= 1e-6, name


def test_gru_cell_matches_reference():
    cell, ref = _cell_pair(GRUCell)
    x = RNG.normal(size=(4, 1, 5))
    h0 = RNG.normal(size=(4, 6))
    xa, ha = Tensor(x, requires_grad=True), Tensor(h0, requires_grad=True)
    _, h = gru_seq(
        xa, ha,
        cell.weight_ih, cell.weight_hh, cell.bias,
        cell.weight_in, cell.weight_hn, cell.bias_n,
    )
    (h * h).sum().backward()
    xb, hb = Tensor(x, requires_grad=True), Tensor(h0, requires_grad=True)
    h_ref = ref(xb[:, 0, :], hb)
    assert np.array_equal(h.data, h_ref.data)
    (h_ref * h_ref).sum().backward()
    for name, ga, gb in _grad_pairs(cell, ref):
        assert _max_rel_err(ga, gb) <= 1e-6, name
    assert _max_rel_err(xa.grad, xb.grad) <= 1e-6
    assert _max_rel_err(ha.grad, hb.grad) <= 1e-6


# ---------------------------------------------------------------------------
# fused sequence kernels vs the per-step loop


#: the per-step loop oracle for each sequence module
LOOPS = {LSTM: oracles.lstm_loop, GRU: oracles.gru_loop}


@pytest.mark.parametrize("net_cls", [LSTM, GRU])
@pytest.mark.parametrize("num_layers", [1, 2])
def test_seq_kernels_match_reference_loop(net_cls, num_layers):
    fused_net = net_cls(5, 6, num_layers=num_layers, rng=np.random.default_rng(1))
    ref_net = net_cls(5, 6, num_layers=num_layers, rng=np.random.default_rng(1))
    x = RNG.normal(size=(4, 7, 5))
    target = RNG.normal(size=(4, 7, 6))
    out, state = fused_net(Tensor(x))
    mse_loss(out, Tensor(target)).backward()
    out_ref, state_ref = LOOPS[net_cls](ref_net, Tensor(x))
    mse_loss(out_ref, Tensor(target)).backward()
    assert np.array_equal(out.data, out_ref.data)
    if net_cls is LSTM:
        assert np.array_equal(state[0][0].data, state_ref[0][0].data)
        assert np.array_equal(state[0][1].data, state_ref[0][1].data)
    else:
        assert np.array_equal(state[0].data, state_ref[0].data)
    for name, ga, gb in _grad_pairs(fused_net, ref_net):
        assert _max_rel_err(ga, gb) <= 1e-6, name


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _stack_run(stacked: bool, layers: int, batch: int, time: int, initial: bool, loss: str):
    """Outputs, final states and every gradient of a seeded LSTM stack."""
    rng = np.random.default_rng(1000 * layers + 10 * batch + time)
    net = LSTM(5, 6, num_layers=layers, rng=np.random.default_rng(layers))
    x = Tensor(rng.normal(size=(batch, time, 5)), requires_grad=True)
    state = None
    if initial:
        state = [
            (Tensor(rng.normal(size=(batch, 6)), requires_grad=True), Tensor(rng.normal(size=(batch, 6)), requires_grad=True))
            for _ in range(layers)
        ]
    out, new_state = net(x, state) if stacked else oracles.lstm_layers(net, x, state)

    def weight(tensor: Tensor) -> Tensor:
        return Tensor(rng.normal(size=tensor.shape))

    if loss == "all":
        total = (out * weight(out)).sum()
        for h, c in new_state:
            total = total + (h * weight(h)).sum() + (c * c).sum()
    elif loss == "c_T":
        total = sum(((c * weight(c)).sum() for _, c in new_state[1:]), (new_state[0][1] ** 2).sum())
    else:  # the bottom layer's states only: the layers above get no gradient
        total = (new_state[0][0] * new_state[0][1]).sum()
    total.backward()
    values = [out.data] + [t.data for pair in new_state for t in pair]
    grads = [p.grad for _, p in net.named_parameters()] + [x.grad]
    if initial:
        grads += [t.grad for pair in state for t in pair]
    return values, grads


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 2, 4, 128, 256])
@pytest.mark.parametrize("time", [1, 10])
@pytest.mark.parametrize("initial", [False, True])
@pytest.mark.parametrize("loss", ["all", "c_T", "bottom"])
def test_lstm_stack_bit_identical_to_per_layer_kernels(layers, batch, time, initial, loss):
    """The wavefront stack against one single-layer stack per layer:
    outputs, h_T, c_T and every gradient, bit for bit (and no gradient
    where the per-layer graph gives none)."""
    (values_a, grads_a), (values_b, grads_b) = (
        _stack_run(stacked, layers, batch, time, initial, loss) for stacked in (True, False)
    )
    for got, want in zip(values_a, values_b):
        assert _same_bits(got, want)
    for got, want in zip(grads_a, grads_b):
        assert (got is None) == (want is None)
        assert got is None or _same_bits(got, want)


def test_lstm_seq_state_only_loss_matches_reference():
    """Seq2Seq-style usage: only the final (h, c) feeds the loss."""
    fused_net = LSTM(4, 5, rng=np.random.default_rng(2))
    ref_net = LSTM(4, 5, rng=np.random.default_rng(2))
    x = RNG.normal(size=(3, 6, 4))
    _, state = fused_net(Tensor(x))
    (state[0][0].sum() + (state[0][1] * state[0][1]).sum()).backward()
    _, state_ref = oracles.lstm_loop(ref_net, Tensor(x))
    (state_ref[0][0].sum() + (state_ref[0][1] * state_ref[0][1]).sum()).backward()
    for name, ga, gb in _grad_pairs(fused_net, ref_net):
        assert _max_rel_err(ga, gb) <= 1e-6, name


def test_rnn_does_not_mutate_caller_state():
    net = LSTM(4, 5, rng=np.random.default_rng(0))
    x = Tensor(RNG.normal(size=(2, 3, 4)))
    h0 = Tensor(np.zeros((2, 5)))
    c0 = Tensor(np.zeros((2, 5)))
    caller_state = [(h0, c0)]
    for forward in (net, lambda x, state: oracles.lstm_loop(net, x, state)):
        _, new_state = forward(x, state=caller_state)
        assert caller_state == [(h0, c0)]
        assert new_state is not caller_state
        assert new_state[0][0] is not h0

    gru = GRU(4, 5, rng=np.random.default_rng(0))
    gru_state = [h0]
    for forward in (gru, lambda x, state: oracles.gru_loop(gru, x, state)):
        _, new_state = forward(x, state=gru_state)
        assert gru_state == [h0]
        assert new_state is not gru_state


# ---------------------------------------------------------------------------
# numerical gradients through the fused kernels


def _check_numerical(net_cls):
    net = net_cls(3, 4, rng=np.random.default_rng(5))
    x = RNG.normal(size=(2, 4, 3))
    param = net.cell0.weight_ih

    def objective(w: np.ndarray) -> float:
        saved = param.data
        param.data = w
        try:
            out, _ = net(Tensor(x))
            return float((out * out).sum().data)
        finally:
            param.data = saved

    numeric = numerical_gradient(objective, param.data.copy(), eps=1e-6)
    out, _ = net(Tensor(x))
    (out * out).sum().backward()
    denom = np.maximum(np.abs(numeric), 1e-4)
    assert float(np.max(np.abs(numeric - param.grad) / denom)) <= 1e-5


def test_lstm_seq_numerical_gradient():
    _check_numerical(LSTM)


def test_gru_seq_numerical_gradient():
    _check_numerical(GRU)


# ---------------------------------------------------------------------------
# no_grad semantics


def test_no_grad_outputs_bit_identical_and_graphless():
    net = LSTM(4, 5, rng=np.random.default_rng(8))
    x = Tensor(RNG.normal(size=(3, 6, 4)))
    out_grad, _ = net(x)
    with no_grad():
        assert not is_grad_enabled()
        out_nograd, state = net(x)
    assert is_grad_enabled()
    assert np.array_equal(out_grad.data, out_nograd.data)
    assert out_nograd._parents == ()
    assert out_nograd._backward is None
    assert not out_nograd.requires_grad
    assert state[0][0]._parents == ()


def test_no_grad_nests_and_restores():
    with no_grad():
        with no_grad():
            assert not is_grad_enabled()
        assert not is_grad_enabled()
    assert is_grad_enabled()


def test_no_grad_as_decorator():
    @no_grad()
    def forward(layer, x):
        return layer(x)

    layer = Linear(3, 2, rng=np.random.default_rng(0))
    out = forward(layer, Tensor(RNG.normal(size=(4, 3))))
    assert out._parents == ()
    assert not out.requires_grad


# ---------------------------------------------------------------------------
# heavier randomized sweep (excluded from tier-1 by the slow marker)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(5))
def test_seq_kernel_randomized_sweep(seed):
    rng = np.random.default_rng(100 + seed)
    batch, time, feat, hidden = (
        int(rng.integers(1, 6)),
        int(rng.integers(1, 9)),
        int(rng.integers(1, 7)),
        int(rng.integers(1, 9)),
    )
    for net_cls in (LSTM, GRU):
        fused_net = net_cls(feat, hidden, num_layers=2, rng=np.random.default_rng(seed))
        ref_net = net_cls(feat, hidden, num_layers=2, rng=np.random.default_rng(seed))
        x = rng.normal(size=(batch, time, feat))
        target = rng.normal(size=(batch, time, hidden))
        out, _ = fused_net(Tensor(x))
        mse_loss(out, Tensor(target)).backward()
        out_ref, _ = LOOPS[net_cls](ref_net, Tensor(x))
        mse_loss(out_ref, Tensor(target)).backward()
        assert np.array_equal(out.data, out_ref.data)
        for name, ga, gb in _grad_pairs(fused_net, ref_net):
            assert _max_rel_err(ga, gb) <= 1e-6, (net_cls.__name__, name)

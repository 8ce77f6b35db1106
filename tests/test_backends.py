"""repro.backends: the backend object, its sanitizer seam, and kernel scratch.

The numpy backend's bit-identity to the loop oracles is covered by
tests/test_nn_fused.py and tests/test_batched_equivalence.py.  This
file covers the dispatch object itself (every primitive present, the
sanitize flag swapping a wrapped twin in and the same object back out),
the LSTM gate helper on extreme values, kernel outputs that never share
memory across calls, and gradient correctness across consecutive fits.
"""

import warnings

import numpy as np
import pytest

from repro import backends, runtime
from repro.backends import numpy_backend
from repro.nn.kernels import lstm_seq
from repro.nn.modules import LSTM, Linear, Module
from repro.nn.tensor import Tensor
from repro.nn.training import Trainer


@pytest.fixture(autouse=True)
def restore_flags():
    before = runtime.flags()
    yield
    runtime.configure(**before)


# ---------------------------------------------------------------------------
# the backend object


class TestRegistry:
    def test_numpy_is_default_and_available(self):
        assert backends.active_name() == "numpy"
        be = backends.active()
        assert be.lstm_seq_forward is numpy_backend.lstm_seq_forward
        assert be.radio_step is numpy_backend.radio_step

    def test_backend_object_carries_every_primitive(self):
        be = backends.active()
        for fname in backends.PRIMITIVES:
            assert callable(getattr(be, fname)), fname

    def test_flag_flip_swaps_active_backend(self):
        # arming the sanitizer swaps in a wrapped twin; disarming hands
        # back the very same object, so attributes patched onto it survive
        plain = backends.active()
        with runtime.use(sanitize="1"):
            assert backends.active() is not plain
            assert backends.active_name() == "numpy"
        assert backends.active() is plain

    def test_kernels_bit_identical_across_backend_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6, 5))
        h0 = np.zeros((4, 8))
        c0 = np.zeros((4, 8))
        w_ih = rng.normal(size=(5, 32))
        w_hh = rng.normal(size=(8, 32))
        b = rng.normal(size=32)
        args = ([Tensor(h0)], [Tensor(c0)], [Tensor(w_ih)], [Tensor(w_hh)], [Tensor(b)])
        out_a, _, _ = lstm_seq(Tensor(x), *args)
        with runtime.use(sanitize="1"):
            out_b, _, _ = lstm_seq(Tensor(x), *args)
        assert np.array_equal(out_a.data, out_b.data)


class TestLstmGates:
    """``_lstm_gates`` clamps only from below and divides in place; it
    must still give the fully clipped ``sigmoid`` bit for bit."""

    #: either side of the clamp, where exp overflows (709) and where it
    #: underflows to 0 (746), the largest doubles, and the non-finite
    EXTREMES = (60.0, -60.0, 60.5, -60.5, 709.0, -709.0, 746.0, -746.0, 1e308, -1e308, np.inf, -np.inf, np.nan)

    def test_extreme_values_match_clipped_sigmoid(self):
        hidden = len(self.EXTREMES)
        gates = np.random.default_rng(5).normal(scale=30.0, size=(3, 4 * hidden))
        gates[0] = np.tile(self.EXTREMES, 4)
        gates[1] = -gates[0]
        gate_view = gates.reshape(3, 4, hidden).transpose(1, 0, 2)
        step_act = np.full((5, 3, hidden), 7.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # exp's underflow stays silent
            floor = np.full((3, 3, hidden), -60.0)
            numpy_backend._lstm_gates(*numpy_backend._gate_views(gate_view, step_act, floor, np.ones_like(floor)))
        want = [numpy_backend.sigmoid(gate_view[k]) for k in (0, 1, 3)] + [np.tanh(gate_view[2])]
        for got, expected in zip(step_act[:4], want):
            assert np.array_equal(got, expected, equal_nan=True)
            finite = ~np.isnan(expected)
            assert np.array_equal(got[finite].view(np.int64), expected[finite].view(np.int64))
        assert np.array_equal(step_act[4], np.full((3, hidden), 7.0))  # tanh_c is left alone
        i_gate = dict(zip(self.EXTREMES[:-1], step_act[0, 0, :-1].tolist()))
        assert i_gate[746.0] == i_gate[np.inf] == i_gate[60.0] == 1.0  # lint: bit-identical
        assert i_gate[-746.0] == i_gate[-np.inf] == i_gate[-60.0]  # lint: bit-identical
        assert np.isnan(step_act[0, 0, -1])


# ---------------------------------------------------------------------------
# the BLAS behaviour the fused kernels' bit-identity rests on


class TestBlasRows:
    """numpy's matmul hands a 2-D product of two or more rows to BLAS
    GEMM, which computes each row the same at any row count: the
    wavefront's ``B``-row input GEMM of an upper layer gives the rows of
    the ``(T·B)``-row GEMM a per-layer run hoists.  One row is the
    exception, documented rather than asserted: numpy takes GEMV, which
    sums in another order (here every row of a 200-row probe differed),
    so a one-row stack runs its layers one after another."""

    ROWS = list(range(2, 65)) + [90, 106, 128, 180, 192, 212, 256, 372]

    @pytest.mark.parametrize("hidden", [8, 12, 24, 32])
    def test_gemm_rows_do_not_depend_on_row_count(self, hidden):
        rng = np.random.default_rng(hidden)
        tall = rng.normal(size=(2560, hidden))
        weight = rng.normal(size=(hidden, 4 * hidden))
        want = tall @ weight
        for rows in self.ROWS:
            got = tall[:rows] @ weight
            assert np.array_equal(got.view(np.int64), want[:rows].view(np.int64)), rows

    @pytest.mark.parametrize("chunk_rows", [1, 2, 16, 106, 128])
    @pytest.mark.parametrize("chunks", [2, 3, 4])
    @pytest.mark.parametrize("width", [1, 96])
    def test_3d_matmul_equals_the_per_chunk_loop(self, chunk_rows, chunks, width):
        # width 1: the decoder's head projection per carrier chunk; 96:
        # the wavefront's recurrent GEMMs, one weight per layer
        rng = np.random.default_rng(chunk_rows * chunks + width)
        h = rng.normal(size=(chunks, chunk_rows, 24))
        weights = rng.normal(size=(chunks, 24, width))
        for weight in (weights[0], weights):
            got = np.empty((chunks, chunk_rows, width))
            np.matmul(h, weight, out=got)
            for j in range(chunks):
                want = h[j] @ (weight if weight.ndim == 2 else weight[j])
                assert np.array_equal(got[j].view(np.int64), want.view(np.int64)), j


# ---------------------------------------------------------------------------
# kernel scratch and outputs across calls


class _SeqModel(Module):
    def __init__(self, features: int = 4, hidden: int = 8):
        super().__init__()
        self.rnn = LSTM(features, hidden)
        self.head = Linear(hidden, 1)

    def forward(self, x):
        out, _ = self.rnn(x)
        return self.head(out[:, -1, :])


class _LastStepModel(Module):
    """Returns the LSTM's last-step output, a slice of the kernel's output."""

    def __init__(self, features: int = 4, hidden: int = 8):
        super().__init__()
        self.rnn = LSTM(features, hidden)

    def forward(self, x):
        return self.rnn(x)[0][:, -1, :]


class TestArena:
    """Kernel calls and fits share no memory: each call allocates its own scratch."""

    def test_two_consecutive_fits_keep_correct_grads(self):
        # nothing carries over between fit() calls: the same trainer fit
        # twice equals two independent single fits
        rng = np.random.default_rng(2)
        x = rng.normal(size=(32, 8, 4))
        y = rng.normal(size=(32, 1))
        trainer = Trainer(_SeqModel(), max_epochs=2, batch_size=8, seed=0)
        trainer.fit(x, y)
        second = trainer.fit(x, y)

        reference = Trainer(_SeqModel(), max_epochs=2, batch_size=8, seed=0)
        reference.fit(x, y)
        reference_second = reference.fit(x, y)
        assert second.train_loss == reference_second.train_loss  # lint: bit-identical

    def test_buffers_escaping_as_tensor_data_are_distinct(self):
        # outputs and final states escape as Tensor.data and must never
        # share memory with a later kernel call's
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5, 4))
        args = ([Tensor(np.zeros((3, 6)))], [Tensor(np.zeros((3, 6)))],
                [Tensor(rng.normal(size=(4, 24)))], [Tensor(rng.normal(size=(6, 24)))],
                [Tensor(rng.normal(size=24))])
        out1, _, c1 = lstm_seq(Tensor(x), *args)
        first = out1.data.copy()
        out2, _, _ = lstm_seq(Tensor(2.0 * x), *args)
        assert out1.data is not out2.data
        assert np.array_equal(out1.data, first)

    def test_batch_one_predict_equals_batched_predict(self):
        # at B == 1 the kernel's batch-major output is a view of its
        # time-major scratch; each row must keep its own window's values
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 5, 4))
        trainer = Trainer(_LastStepModel(), batch_size=6, seed=0)
        batched = trainer.predict(x)
        one_by_one = trainer.predict(x, batch_size=1)
        assert not np.allclose(batched[0], batched[-1])
        assert np.allclose(one_by_one, batched)

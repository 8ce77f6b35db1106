"""repro.backends: the backend object, its sanitizer seam, and kernel scratch.

The numpy backend's bit-identity to the loop oracles is covered by
tests/test_nn_fused.py and tests/test_batched_equivalence.py.  This
file covers the dispatch object itself (every primitive present, the
sanitize flag swapping a wrapped twin in and the same object back out),
kernel outputs that never share memory across calls, and gradient
correctness across consecutive fits.
"""

import numpy as np
import pytest

from repro import backends, runtime
from repro.backends import numpy_backend
from repro.nn.kernels import lstm_seq
from repro.nn.modules import LSTM, Linear, Module
from repro.nn.tensor import Tensor
from repro.nn.training import Trainer, stack_trace_windows


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
        out_a, _, _ = lstm_seq(Tensor(x), Tensor(h0), Tensor(c0),
                               Tensor(w_ih), Tensor(w_hh), Tensor(b))
        with runtime.use(sanitize="1"):
            out_b, _, _ = lstm_seq(Tensor(x), Tensor(h0), Tensor(c0),
                                   Tensor(w_ih), Tensor(w_hh), Tensor(b))
        assert np.array_equal(out_a.data, out_b.data)


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
        args = (Tensor(np.zeros((3, 6))), Tensor(np.zeros((3, 6))),
                Tensor(rng.normal(size=(4, 24))), Tensor(rng.normal(size=(6, 24))),
                Tensor(rng.normal(size=24)))
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


# ---------------------------------------------------------------------------
# multi-trace stacking


class TestStackTraceWindows:
    def test_stacks_along_sample_axis(self):
        rng = np.random.default_rng(5)
        pairs = [(rng.normal(size=(n, 6, 3)), rng.normal(size=(n, 2))) for n in (4, 7, 5)]
        x, y = stack_trace_windows(pairs)
        assert x.shape == (16, 6, 3)
        assert y.shape == (16, 2)
        assert np.array_equal(x[4:11], pairs[1][0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            stack_trace_windows([
                (np.zeros((2, 5, 3)), np.zeros((2, 1))),
                (np.zeros((2, 4, 3)), np.zeros((2, 1))),
            ])
        with pytest.raises(ValueError, match="windows"):
            stack_trace_windows([(np.zeros((2, 5, 3)), np.zeros((3, 1)))])
        with pytest.raises(ValueError, match="at least one"):
            stack_trace_windows([])

    def test_fit_traces_equals_fit_on_stacked(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 8, 4))
        y = rng.normal(size=(40, 1))
        pairs = [(x[:25], y[:25]), (x[25:], y[25:])]
        stacked = Trainer(_SeqModel(), max_epochs=2, batch_size=10, seed=0)
        hist_a = stacked.fit_traces(pairs)
        reference = Trainer(_SeqModel(), max_epochs=2, batch_size=10, seed=0)
        hist_b = reference.fit(x, y)
        assert hist_a.train_loss == hist_b.train_loss  # lint: bit-identical

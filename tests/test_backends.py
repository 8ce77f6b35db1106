"""repro.backends: the backend object, its sanitizer seam, and the arena.

The numpy backend's bit-identity to the loop oracles is covered by
tests/test_nn_fused.py and tests/test_batched_equivalence.py.  This
file covers the dispatch object itself (every primitive present, the
sanitize flag swapping a wrapped twin in and the same object back out)
and the workspace arena's step-window semantics and gradient
correctness across consecutive fits.
"""

import numpy as np
import pytest

from repro import backends, runtime
from repro.backends import arena, numpy_backend
from repro.nn.kernels import lstm_seq
from repro.nn.modules import LSTM, Linear, Module
from repro.nn.tensor import Tensor
from repro.nn.training import Trainer, stack_trace_windows


@pytest.fixture(autouse=True)
def restore_flags():
    before = runtime.flags()
    yield
    runtime.configure(**before)
    arena.clear()


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
# workspace arena


class _SeqModel(Module):
    def __init__(self, features: int = 4, hidden: int = 8):
        super().__init__()
        self.rnn = LSTM(features, hidden)
        self.head = Linear(hidden, 1)

    def forward(self, x):
        out, _ = self.rnn(x)
        return self.head(out[:, -1, :])


def _fit_losses(x, y, epochs: int = 3):
    arena.clear()
    trainer = Trainer(_SeqModel(), max_epochs=epochs, batch_size=16, seed=0)
    history = trainer.fit(x, y)
    preds = trainer.predict(x)
    return history.train_loss, preds


class TestArena:
    def test_pools_are_reused_across_steps(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(48, 10, 4))
        y = rng.normal(size=(48, 1))
        arena.clear()
        Trainer(_SeqModel(), max_epochs=2, batch_size=16, seed=0).fit(x, y)
        stats = arena.workspace().stats()
        assert stats["steps"] > 1
        assert stats["hits"] > stats["misses"]
        # window closed after fit: library calls outside a step allocate fresh
        assert not arena.workspace().active

    def test_arena_is_numerically_invisible(self, monkeypatch):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(64, 10, 4))
        y = rng.normal(size=(64, 1))
        loss_on, preds_on = _fit_losses(x, y)
        # a fit whose step windows never open allocates every buffer fresh
        monkeypatch.setattr(arena, "begin_step", lambda: None)
        loss_off, preds_off = _fit_losses(x, y)
        assert arena.workspace().stats()["buffers"] == 0
        assert loss_on == loss_off  # lint: bit-identical
        assert np.array_equal(preds_on, preds_off)

    def test_two_consecutive_fits_keep_correct_grads(self):
        # buffer recycling across fit() calls must not leak stale state:
        # the same trainer fit twice equals two independent single fits
        rng = np.random.default_rng(2)
        x = rng.normal(size=(32, 8, 4))
        y = rng.normal(size=(32, 1))
        arena.clear()
        trainer = Trainer(_SeqModel(), max_epochs=2, batch_size=8, seed=0)
        trainer.fit(x, y)
        second = trainer.fit(x, y)

        reference = Trainer(_SeqModel(), max_epochs=2, batch_size=8, seed=0)
        reference.fit(x, y)
        reference_second = reference.fit(x, y)
        assert second.train_loss == reference_second.train_loss  # lint: bit-identical

    def test_buffers_escaping_as_tensor_data_are_distinct(self):
        # outputs/final states escape the step window as Tensor.data and
        # must never alias pooled scratch across two kernel calls
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5, 4))
        args = (Tensor(np.zeros((3, 6))), Tensor(np.zeros((3, 6))),
                Tensor(rng.normal(size=(4, 24))), Tensor(rng.normal(size=(6, 24))),
                Tensor(rng.normal(size=24)))
        arena.clear()
        arena.begin_step()
        out1, _, c1 = lstm_seq(Tensor(x), *args)
        first = out1.data.copy()
        arena.begin_step()
        out2, _, _ = lstm_seq(Tensor(2.0 * x), *args)
        assert out1.data is not out2.data
        assert np.array_equal(out1.data, first)
        arena.end_run()

    def test_windows_touching_different_keys(self):
        ws = arena.Workspace()
        ws.begin_step()
        a1, a2 = ws.empty((4, 4)), ws.empty((4, 4))
        b1 = ws.empty(5)
        assert len({id(a1), id(a2), id(b1)}) == 3  # distinct within a window
        # the next window touches only the (5,) key, under other spellings
        # of the same shape and dtype
        ws.begin_step()
        assert ws.empty((5,), dtype=np.dtype("float64")) is b1
        b2 = ws.empty(5, dtype=np.float64)
        assert b2 is not b1
        # a window after one that skipped the (4, 4) key still starts it over
        ws.begin_step()
        assert ws.empty((4, 4)) is a1
        assert ws.empty((4, 4)) is a2
        assert ws.empty((5,)) is b1
        # another dtype is another pool
        assert ws.empty((4, 4), dtype=np.float32) is not a1
        stats = ws.stats()
        assert stats["pools"] == 3
        assert stats["buffers"] == 5
        assert stats["misses"] == 5 and stats["hits"] == 4

    def test_inactive_outside_step_window(self):
        arena.clear()
        buf_a = arena.empty((4, 4))
        buf_b = arena.empty((4, 4))
        assert buf_a is not buf_b
        assert arena.workspace().stats()["pools"] == 0


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

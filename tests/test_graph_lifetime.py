"""Autograd graphs hold no reference cycles, so they die by refcount.

Every backward closure takes its node's gradient as an argument and
never refers to its own output, so a graph is freed when its last
reference goes, whether or not ``backward`` ran, without waiting for
the cyclic garbage collector.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import DeepConfig, LSTMPredictor, Prism5GPredictor
from repro.data import SubDatasetSpec, build_subdataset, random_split
from repro.nn.kernels import affine, gru_seq, lstm_decoder_seq, lstm_seq
from repro.nn.tensor import Tensor, concat, stack, where

FAST = DeepConfig(hidden=8, max_epochs=2, patience=2)


@pytest.fixture(scope="module")
def splits():
    dataset = build_subdataset(SubDatasetSpec("OpZ", "driving", "long"), n_traces=2, samples_per_trace=60, seed=2)
    return random_split(dataset.windows, 0.5, 0.2, 0.3, seed=0)


@pytest.fixture
def collector_off():
    """The cyclic collector off; an explicit collect saves what it finds."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.garbage.clear()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _graph(rng):
    """A loss through every differentiable op, plus nodes it does not reach."""
    batch, time, features, hidden = 3, 4, 2, 5

    def param(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    def zeros():
        return Tensor(np.zeros((batch, hidden)))

    x = param(batch, time, features)
    seq, (last,), (cell,) = lstm_seq(
        x, [zeros()], [zeros()], [param(features, 4 * hidden)], [param(hidden, 4 * hidden)], [param(4 * hidden)]
    )
    # an LSTM whose cell state and sequence the loss never reads
    _, (side_last,), _ = lstm_seq(
        x, [zeros()], [zeros()], [param(features, 4 * hidden)], [param(hidden, 4 * hidden)], [param(4 * hidden)]
    )
    gru_out, gru_last = gru_seq(
        x, zeros(), param(features, 2 * hidden), param(hidden, 2 * hidden), param(2 * hidden),
        param(features, hidden), param(hidden, hidden), param(hidden),
    )
    decoded = lstm_decoder_seq(
        param(batch, 1), last, cell, param(1, 4 * hidden), param(hidden, 4 * hidden), param(4 * hidden),
        param(hidden, 1), param(1), horizon=3,
    )
    h = affine(gru_last, param(hidden, hidden), param(hidden)) + side_last
    h = (h * h - h / (h.abs() + 1.0)) ** 2
    h = h.tanh().sigmoid().exp() @ param(hidden, hidden)
    h = concat([h, last], axis=-1).reshape(batch, 2, hidden).transpose(1, 0, 2)
    h = stack([h[0], h[1]], axis=0)
    h = where(h.data > 1.0, h, h * 0.5)
    return h.sum() + decoded.mean() + seq.sum() + gru_out.sum()


def _nodes(root):
    seen, todo = {}, [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(node._parents)
    return list(seen.values())


@pytest.mark.parametrize("run_backward", [False, True], ids=["dropped", "after-backward"])
def test_graph_dies_on_del(collector_off, run_backward):
    loss = _graph(np.random.default_rng(0))
    if run_backward:
        loss.backward()
    nodes = _nodes(loss)
    # a Tensor's array lives exactly as long as the Tensor holding it
    refs = [weakref.ref(node.data) for node in nodes]
    assert len(refs) > 40
    del loss, nodes
    assert sum(ref() is not None for ref in refs) == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: LSTMPredictor(FAST),
        lambda: Prism5GPredictor(FAST, rnn="lstm"),
        lambda: Prism5GPredictor(FAST, rnn="gru"),
    ],
    ids=["lstm", "prism5g-lstm", "prism5g-gru"],
)
def test_fit_leaves_no_tensor_to_the_collector(collector_off, splits, make):
    train, val, _ = splits
    make().fit(train, val)
    gc.collect()
    assert [obj for obj in gc.garbage if isinstance(obj, Tensor)] == []

"""Fused autograd primitives: graph bookkeeping over backend dispatch.

The op-by-op LSTM/GRU cell composition records ~15 graph nodes per
timestep (two matmuls, adds, four slices, four nonlinearities, the
elementwise state update).  The primitives here record one or two nodes
per layer/step with a hand-written, fully vectorized backward — and
delegate **all array math** to the active compute backend
(:mod:`repro.backends`):

* this module owns the autograd contract: Tensor construction, parent
  wiring, ``requires_grad`` propagation, gradient accumulation and
  broadcast reduction;
* the backend owns the numbers: each ``*_forward`` returns values plus
  an opaque ``saved`` payload that this module hands back to the
  *same* backend object's ``*_backward`` (the object is captured per
  call, so arming the sanitizer mid-step cannot mismatch a
  forward/backward pair).

Forward values are bit-identical to the op-by-op oracles in
``tests/oracles.py`` (see tests/test_nn_fused.py).

reprolint RL007 guards this split: no direct ``np.*`` compute calls are
allowed here — array math belongs in the backend (opt-out:
``# lint: backend-impl``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .. import backends, obs
from . import tensor as _tensor
from .tensor import Tensor, _unbroadcast


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accumulate_from(grads: dict, pairs) -> None:
    """Push backend-computed raw gradients into their tensors."""
    for tensor, key in pairs:
        grad = grads.get(key)
        if grad is not None:
            tensor._accumulate(grad)


def affine(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    h: Optional[Tensor] = None,
    weight_h: Optional[Tensor] = None,
) -> Tensor:
    """Fused ``x @ weight [+ h @ weight_h] [+ bias]`` as one graph node.

    Replaces the 2-3 node chain an op-by-op composition would record.
    Weights must be 2-D ``(in, out)``; ``x``/``h`` may carry leading
    batch/time axes.
    """
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    if (h is None) != (weight_h is None):
        raise ValueError("h and weight_h must be passed together")
    if h is not None:
        h = _as_tensor(h)
        weight_h = _as_tensor(weight_h)
    if bias is not None:
        bias = _as_tensor(bias)
    be = backends.active()
    value = be.affine_forward(
        x.data,
        weight.data,
        h.data if h is not None else None,
        weight_h.data if weight_h is not None else None,
        bias.data if bias is not None else None,
    )
    operands = [t for t in (x, weight, h, weight_h, bias) if t is not None]
    requires = _tensor.is_grad_enabled() and any(t.requires_grad for t in operands)
    out = Tensor(value, requires_grad=requires, _parents=tuple(operands) if requires else ())
    if not requires:
        return out

    def _backward(g: np.ndarray) -> None:
        needs = {
            "x": x.requires_grad,
            "weight": weight.requires_grad,
            "h": h is not None and h.requires_grad,
            "weight_h": weight_h is not None and weight_h.requires_grad,
            "bias": bias is not None and bias.requires_grad,
        }
        grads = be.affine_backward(
            g,
            x.data,
            weight.data,
            h.data if h is not None else None,
            weight_h.data if weight_h is not None else None,
            needs,
        )
        _accumulate_from(grads, ((x, "x"), (weight, "weight")))
        if h is not None:
            _accumulate_from(grads, ((h, "h"), (weight_h, "weight_h")))
        if needs["bias"]:
            bias._accumulate(_unbroadcast(grads["bias"], bias.shape))

    out._backward = _backward
    return out


def lstm_seq(
    x: Tensor,
    h0: Sequence[Tensor],
    c0: Sequence[Tensor],
    weight_ih: Sequence[Tensor],
    weight_hh: Sequence[Tensor],
    bias: Sequence[Tensor],
) -> Tuple[Tensor, Tuple[Tensor, ...], Tuple[Tensor, ...]]:
    """Fused LSTM stack over a whole ``(B, T, F)`` sequence.

    ``h0``, ``c0``, ``weight_ih``, ``weight_hh`` and ``bias`` hold one
    tensor per layer, bottom first.  The whole stack is one graph node:
    the backend runs its layers as one wavefront with the input
    projection ``x @ W_ih`` hoisted out of the time loop, and the
    backward is a hand-written BPTT sweep per layer, top down, each
    layer's input gradient seeding the layer below, with weight
    gradients collapsed into single ``(B*T, ·)`` matmuls.  Per-step
    arithmetic matches the op-by-op :class:`~repro.nn.modules.LSTMCell`
    exactly (same expression order), so forward values are
    bit-identical to the cell loop.

    Returns ``(outputs, h_T, c_T)``: the top layer's outputs ``(B, T,
    H)`` and one final hidden and cell state per layer.
    """
    if obs.metrics_enabled():
        obs.counter("kernel.lstm_seq")
    x = _as_tensor(x)
    h0 = tuple(_as_tensor(h) for h in h0)
    c0 = tuple(_as_tensor(c) for c in c0)
    weight_ih, weight_hh, bias = tuple(weight_ih), tuple(weight_hh), tuple(bias)
    layers = len(weight_ih)
    parents = (x,) + h0 + c0 + weight_ih + weight_hh + bias
    requires = _tensor.is_grad_enabled() and any(t.requires_grad for t in parents)
    be = backends.active()
    outputs, c_T, saved = be.lstm_seq_forward(
        x.data,
        tuple(h.data for h in h0),
        tuple(c.data for c in c0),
        tuple(w.data for w in weight_ih),
        tuple(w.data for w in weight_hh),
        tuple(b.data for b in bias),
        requires,
    )
    if not requires:
        return (
            Tensor(outputs[-1]),
            tuple(Tensor(out[:, -1, :]) for out in outputs),
            tuple(Tensor(c) for c in c_T),
        )

    # The stack's graph node.  The outputs and final states hand it
    # their gradients by key; its backward starts at the highest layer
    # any of them reaches, as a per-layer graph would.
    stack = Tensor(np.zeros(()), requires_grad=True, _parents=parents)
    seeds: dict = {}
    # whether any input of layers below l needs a gradient: only then
    # does layer l pass one down
    below = [x.requires_grad]
    for layer in range(layers - 1):
        below.append(below[-1] or any(
            t.requires_grad for t in (h0[layer], c0[layer], weight_ih[layer], weight_hh[layer], bias[layer])
        ))

    def _seeded(value: np.ndarray, key: tuple, copy: bool = False) -> Tensor:
        def _backward(g: np.ndarray) -> None:
            # the backward accumulates into dc_T in place
            seeds[key] = g.copy() if copy else g
            stack._accumulate(np.zeros(()))

        out = Tensor(value, requires_grad=True, _parents=(stack,))
        out._backward = _backward
        return out

    def _backward(_: np.ndarray) -> None:
        g = seeds.pop(("out", layers - 1), None)
        top = layers - 1 if g is not None else max(layer for _, layer in seeds)
        for layer in range(top, -1, -1):
            needs = {
                "x": below[layer],
                "h0": h0[layer].requires_grad,
                "c0": c0[layer].requires_grad,
                "weight_ih": weight_ih[layer].requires_grad,
                "weight_hh": weight_hh[layer].requires_grad,
                "bias": bias[layer].requires_grad,
            }
            grads = be.lstm_seq_backward(
                np.zeros_like(outputs[layer]) if g is None else g,
                seeds.pop(("h", layer), None),
                seeds.pop(("c", layer), None),
                saved[layer],
                outputs[layer - 1] if layer else x.data,
                h0[layer].data,
                weight_ih[layer].data,
                weight_hh[layer].data,
                needs,
            )
            _accumulate_from(
                grads,
                (
                    (h0[layer], "h0"),
                    (c0[layer], "c0"),
                    (weight_ih[layer], "weight_ih"),
                    (weight_hh[layer], "weight_hh"),
                    (bias[layer], "bias"),
                ),
            )
            if not needs["x"]:
                return
            g = grads["x"]  # time-major underneath: the layer below copies it back cheaply
        x._accumulate(g)

    stack._backward = _backward
    return (
        _seeded(outputs[-1], ("out", layers - 1)),
        tuple(_seeded(out[:, -1, :], ("h", layer)) for layer, out in enumerate(outputs)),
        tuple(_seeded(c, ("c", layer), copy=True) for layer, c in enumerate(c_T)),
    )


def gru_seq(
    x: Tensor,
    h0: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias: Tensor,
    weight_in: Tensor,
    weight_hn: Tensor,
    bias_n: Tensor,
) -> Tuple[Tensor, Tensor]:
    """Fused single-layer GRU over a ``(B, T, F)`` sequence.

    Same design as :func:`lstm_seq`: hoisted input projections, one
    graph node per layer, hand-written BPTT.  Returns
    ``(outputs, h_T)``.
    """
    if obs.metrics_enabled():
        obs.counter("kernel.gru_seq")
    x, h0 = _as_tensor(x), _as_tensor(h0)
    parents = (x, h0, weight_ih, weight_hh, bias, weight_in, weight_hn, bias_n)
    requires = _tensor.is_grad_enabled() and any(t.requires_grad for t in parents)
    be = backends.active()
    outputs, saved = be.gru_seq_forward(
        x.data,
        h0.data,
        weight_ih.data,
        weight_hh.data,
        bias.data,
        weight_in.data,
        weight_hn.data,
        bias_n.data,
        requires,
    )

    out_t = Tensor(outputs, requires_grad=requires, _parents=parents if requires else ())
    if not requires:
        return out_t, out_t[:, -1, :]

    def _backward(g: np.ndarray) -> None:
        needs = {
            "x": x.requires_grad,
            "h0": h0.requires_grad,
            "weight_ih": weight_ih.requires_grad,
            "weight_hh": weight_hh.requires_grad,
            "bias": bias.requires_grad,
            "weight_in": weight_in.requires_grad,
            "weight_hn": weight_hn.requires_grad,
            "bias_n": bias_n.requires_grad,
        }
        grads = be.gru_seq_backward(
            g,
            saved,
            x.data,
            weight_ih.data,
            weight_hh.data,
            weight_in.data,
            weight_hn.data,
            needs,
        )
        _accumulate_from(
            grads,
            (
                (h0, "h0"),
                (x, "x"),
                (weight_ih, "weight_ih"),
                (weight_hh, "weight_hh"),
                (bias, "bias"),
                (weight_in, "weight_in"),
                (weight_hn, "weight_hn"),
                (bias_n, "bias_n"),
            ),
        )

    out_t._backward = _backward
    return out_t, out_t[:, -1, :]


def lstm_decoder_seq(
    y0: Tensor,
    h0: Tensor,
    c0: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias: Tensor,
    weight_out: Tensor,
    bias_out: Tensor,
    horizon: int,
    out_chunks: int = 1,
) -> Tensor:
    """Fused autoregressive LSTM decoder rollout: one graph node.

    Runs ``horizon`` feedback steps of the Seq2Seq decoder discipline

        h_t, c_t = LSTMCell(y_{t-1}, (h_{t-1}, c_{t-1}))
        y_t      = h_t @ W_out + b_out

    where each step's prediction is the next step's input, so the whole
    rollout is inherently sequential — but every step is *one* batched
    LSTM cell over however many sequences (or carriers folded into the
    batch axis) are decoded at once.  The op-by-op loop records
    ``horizon * 3`` graph nodes; this primitive records one, with a
    hand-written BPTT whose weight gradients collapse into single
    ``(B*T, ·)`` matmuls.  Per-step arithmetic matches
    :class:`~repro.nn.modules.LSTMCell` + ``h @ W_out + b_out`` exactly
    (same expression order), so forward values are bit-identical to the
    loop composition.

    Returns the predictions as ``(B, horizon, O)`` where ``O`` is the
    head's output width (= the cell's input width, by feedback).

    ``out_chunks`` splits the head projection ``h_t @ W_out`` into that
    many equal row groups.  BLAS dispatches narrow matmuls (``O`` of 1)
    to a GEMV path whose rounding depends on the row count, so a rollout
    over carriers folded to ``B·C`` rows would drift from the per-carrier
    loop by ~1 ulp per step — compounding through the feedback.  Callers
    that fold C carriers carrier-major pass ``out_chunks=C`` so each
    group is projected at the same row count the loop oracle uses,
    keeping the fold bit-identical.  The wide gate matmuls are row-count
    invariant and stay fully batched.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if out_chunks < 1:
        raise ValueError("out_chunks must be >= 1")
    if obs.metrics_enabled():
        obs.counter("kernel.lstm_decoder_seq")
    y0, h0, c0 = _as_tensor(y0), _as_tensor(h0), _as_tensor(c0)
    batch = h0.data.shape[0]
    out_features = weight_out.data.shape[1]
    if weight_ih.data.shape[0] != out_features:
        raise ValueError(
            f"feedback width mismatch: cell input {weight_ih.data.shape[0]} "
            f"!= head output {out_features}"
        )
    if batch % out_chunks:
        raise ValueError(f"batch {batch} not divisible by out_chunks {out_chunks}")
    parents = (y0, h0, c0, weight_ih, weight_hh, bias, weight_out, bias_out)
    requires = _tensor.is_grad_enabled() and any(t.requires_grad for t in parents)
    be = backends.active()
    outputs, saved = be.lstm_decoder_forward(
        y0.data,
        h0.data,
        c0.data,
        weight_ih.data,
        weight_hh.data,
        bias.data,
        weight_out.data,
        bias_out.data,
        horizon,
        out_chunks,
        requires,
    )

    out_t = Tensor(outputs, requires_grad=requires, _parents=parents if requires else ())
    if not requires:
        return out_t

    def _backward(g: np.ndarray) -> None:
        needs = {
            "y0": y0.requires_grad,
            "h0": h0.requires_grad,
            "c0": c0.requires_grad,
            "weight_ih": weight_ih.requires_grad,
            "weight_hh": weight_hh.requires_grad,
            "bias": bias.requires_grad,
            "weight_out": weight_out.requires_grad,
            "bias_out": bias_out.requires_grad,
        }
        grads = be.lstm_decoder_backward(
            g,
            saved,
            y0.data,
            h0.data,
            weight_ih.data,
            weight_hh.data,
            weight_out.data,
            needs,
        )
        _accumulate_from(
            grads,
            (
                (y0, "y0"),
                (h0, "h0"),
                (c0, "c0"),
                (weight_ih, "weight_ih"),
                (weight_hh, "weight_hh"),
                (bias, "bias"),
                (weight_out, "weight_out"),
                (bias_out, "bias_out"),
            ),
        )

    out_t._backward = _backward
    return out_t

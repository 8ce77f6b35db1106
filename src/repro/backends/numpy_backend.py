"""The compute backend: plain numpy, bit-identical to the loop oracles.

Every numeric core here keeps the exact expressions, evaluation order
and in-place ufunc sequences of the op-by-op compositions the
equivalence suites compare against (``tests/oracles.py``), so forward
values are bit-identical to them and gradients agree to numerical
precision.

The split of responsibilities with :mod:`repro.nn.kernels` is:

* **backend** (this module): all array math — forward values, saved
  activations, and the raw gradient arrays of every primitive.  The
  only inputs and outputs are plain ``np.ndarray``; each forward
  returns an opaque ``saved`` dict its paired backward consumes.
* **kernel layer**: autograd bookkeeping only — Tensor construction,
  parent wiring, gradient accumulation and broadcast reduction.

Every call allocates its own scratch with ``np.empty``/``np.zeros``.
Scratch a backward reads lives in ``saved``, so it dies with the graph
node that holds it, and malloc hands the freed blocks to the next
batch.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np


# ----------------------------------------------------------------------
# shared scalar helpers
# ----------------------------------------------------------------------
def sigmoid(x: np.ndarray) -> np.ndarray:
    """Same clipped logistic as ``Tensor.sigmoid`` (bit-identical).

    ``minimum(maximum(x, lo), hi)`` selects the exact same values as
    ``np.clip`` (NaNs propagate identically) while skipping np.clip's
    dispatch overhead, which dominates the sequence kernels' step loops.
    """
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -60.0), 60.0)))


def _lstm_gates(gate_view: np.ndarray, step_act: np.ndarray, floor: np.ndarray) -> None:
    """LSTM gate activations of one step into ``step_act[:4]``.

    ``gate_view`` is the ``(4, B, H)`` gate-major view of the packed
    ``(B, 4H)`` pre-activations, in the cell's ``[i, f, g, o]`` order;
    ``step_act`` is one step's ``(5, B, H)`` block laid out ``[i, f, o,
    g, tanh_c]``, so the three sigmoid gates are one contiguous ``(3, B,
    H)`` block; ``floor`` is a ``(3, B, H)`` block of -60.0 (numpy's
    ``maximum`` runs ~4x faster against an array than against a scalar).
    The clamp reads the gates through the view; one clamp, negate, exp,
    +1, divide chain then runs over the whole block and gives the values
    of :func:`sigmoid` bit for bit: its upper clamp is dropped because
    for x >= 60 ``1 + exp(-x)`` already rounds to 1.0 (beyond ~745
    ``exp`` underflows to 0, silently under numpy's default error
    state), and ``1.0 / s`` is the division ``np.reciprocal`` does.
    ``tanh`` fills g.
    """
    sig = step_act[:3]
    np.maximum(gate_view[:2], floor[:2], out=sig[:2])
    np.maximum(gate_view[3], floor[2], out=sig[2])
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)
    np.add(sig, 1.0, out=sig)
    np.divide(1.0, sig, out=sig)
    np.tanh(gate_view[2], out=step_act[3])


def _weight_grad(inp: np.ndarray, g: np.ndarray, weight_shape: Tuple[int, ...]) -> np.ndarray:
    """dW for ``out = inp @ W`` with ``inp (..., F)`` and ``g (..., O)``."""
    f, o = weight_shape
    return inp.reshape(-1, f).T @ g.reshape(-1, o)


# ----------------------------------------------------------------------
# affine: x @ W [+ h @ W_h] [+ b]
# ----------------------------------------------------------------------
def affine_forward(
    x: np.ndarray,
    weight: np.ndarray,
    h: Optional[np.ndarray],
    weight_h: Optional[np.ndarray],
    bias: Optional[np.ndarray],
) -> np.ndarray:
    value = x @ weight
    if h is not None:
        value = value + h @ weight_h
    if bias is not None:
        value = value + bias
    return value


def affine_backward(
    g: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    h: Optional[np.ndarray],
    weight_h: Optional[np.ndarray],
    needs: Dict[str, bool],
) -> Dict[str, np.ndarray]:
    grads: Dict[str, np.ndarray] = {}
    if needs["x"]:
        grads["x"] = g @ weight.T
    if needs["weight"]:
        grads["weight"] = _weight_grad(x, g, weight.shape)
    if h is not None:
        if needs["h"]:
            grads["h"] = g @ weight_h.T
        if needs["weight_h"]:
            grads["weight_h"] = _weight_grad(h, g, weight_h.shape)
    if needs.get("bias"):
        grads["bias"] = g  # kernel layer reduces over broadcast axes
    return grads


# ----------------------------------------------------------------------
# fused LSTM over a whole (B, T, F) sequence
# ----------------------------------------------------------------------
def lstm_seq_forward(
    x: np.ndarray,
    h0: np.ndarray,
    c0: np.ndarray,
    weight_ih: np.ndarray,
    weight_hh: np.ndarray,
    bias: np.ndarray,
    requires: bool,
) -> Tuple[np.ndarray, np.ndarray, Dict]:
    """Returns ``(outputs (B,T,H), c_T, saved)``.

    Hoisted input projection (one flat GEMM over all ``(t, b)`` rows),
    time-major in-place step loop — the exact operation order of the
    op-by-op cell, so forward values are bit-identical to the oracle.
    """
    batch, time, features = x.shape
    hidden = weight_hh.shape[0]
    # hoisted input projection: one flat GEMM over all (t, b) rows (a
    # 3-D matmul would dispatch B tiny GEMMs), laid out time-major so
    # each step reads a contiguous (B, 4H) block
    x_tm = np.empty((time, batch, features), dtype=x.dtype)
    np.copyto(x_tm, x.transpose(1, 0, 2))
    dtype = np.result_type(x.dtype, weight_ih.dtype, h0.dtype, bias.dtype)
    gx = np.empty((time * batch, 4 * hidden), dtype=dtype)
    np.matmul(x_tm.reshape(time * batch, -1), weight_ih, out=gx)
    gx = gx.reshape(time, batch, -1)
    # Scratch is laid out time-major so every per-step write lands in one
    # contiguous (B, ·) block, and every elementwise op below runs in
    # place (out=) with the exact operation order of the op-by-op cell —
    # same bits, no temporaries.  Activations are stored gate-major
    # (step, [i, f, o, g, tanh_c], B, H) so each gate is a contiguous
    # (B, H) block and the three sigmoid gates one (3, B, H) block that
    # _lstm_gates activates in a single ufunc chain: strided column views
    # of a packed (B, 5H) row defeat the SIMD ufunc loops (measured ~2.7x
    # slower sigmoid).
    out_tm = np.empty((time, batch, hidden), dtype=dtype)
    gates = np.empty((batch, 4 * hidden), dtype=dtype)
    gate_view = gates.reshape(batch, 4, hidden).transpose(1, 0, 2)
    ig = np.empty((batch, hidden), dtype=dtype)
    c_pair = np.empty((2, batch, hidden), dtype=dtype)
    # materialized bias rows: the broadcast add of a (4H,) row measures
    # ~2x a same-shape add, and the loop pays it every step
    bias_rows = np.empty((batch, 4 * hidden), dtype=dtype)
    bias_rows[:] = bias
    floor = np.full((3, batch, hidden), -60.0, dtype=dtype)
    if requires:
        act = np.empty((time, 5, batch, hidden), dtype=dtype)
        c_hist = np.empty((time, batch, hidden), dtype=dtype)  # c entering step t
    else:
        act = c_hist = None
        step_act = np.empty((5, batch, hidden), dtype=dtype)
    h = h0
    c = c0
    for t in range(time):
        np.matmul(h, weight_hh, out=gates)
        np.add(gx[t], gates, out=gates)
        np.add(gates, bias_rows, out=gates)
        if requires:
            step_act = act[t]
            c_hist[t] = c
        _lstm_gates(gate_view, step_act, floor)
        i, f, o, g_in, tanh_c = step_act
        c_new = c_pair[t & 1]
        np.multiply(f, c, out=c_new)
        np.multiply(i, g_in, out=ig)
        np.add(c_new, ig, out=c_new)  # f*c + i*g, same order as the cell
        np.tanh(c_new, out=tanh_c)
        c = c_new
        h = out_tm[t]
        np.multiply(o, tanh_c, out=h)
    # batch-major outputs: a copy, or at B == 1 or T == 1 a view of out_tm
    outputs = np.ascontiguousarray(out_tm.transpose(1, 0, 2))
    c = c.copy()  # detach the final state from the ping-pong scratch
    saved = {
        "x_tm": x_tm,
        "out_tm": out_tm,
        "act": act,
        "c_hist": c_hist,
        "dtype": dtype,
        "dims": (batch, time, hidden),
    }
    return outputs, c, saved


def lstm_seq_backward(
    g_out_bm: np.ndarray,
    dc_T: Optional[np.ndarray],
    saved: Dict,
    x: np.ndarray,
    h0: np.ndarray,
    weight_ih: np.ndarray,
    weight_hh: np.ndarray,
    needs: Dict[str, bool],
) -> Dict[str, np.ndarray]:
    batch, time, hidden = saved["dims"]
    dtype = saved["dtype"]
    act, c_hist = saved["act"], saved["c_hist"]
    x_tm, out_tm = saved["x_tm"], saved["out_tm"]
    # time-major like the forward scratch: contiguous per-step reads
    # of the incoming grad and writes of the gate grads
    g_out = np.empty((time, batch, hidden), dtype=g_out_bm.dtype)
    np.copyto(g_out, g_out_bm.transpose(1, 0, 2))
    dc = dc_T
    if dc is None:
        dc = np.zeros((batch, hidden), dtype=dtype)
    dh_carry = np.zeros((batch, hidden), dtype=dtype)
    dg_tm = np.empty((time, batch, 4 * hidden), dtype=dtype)
    dh = np.empty((batch, hidden), dtype=dtype)
    t1 = np.empty((batch, hidden), dtype=dtype)
    t2 = np.empty((batch, hidden), dtype=dtype)
    for t in range(time - 1, -1, -1):
        i, f, o, g_in, tanh_c = act[t]
        dg_step = dg_tm[t]
        np.add(g_out[t], dh_carry, out=dh)
        # dc += dh * (o * (1 - tanh_c^2)), same association as the cell
        np.multiply(tanh_c, tanh_c, out=t1)
        np.subtract(1.0, t1, out=t1)
        np.multiply(o, t1, out=t1)
        np.multiply(dh, t1, out=t1)
        np.add(dc, t1, out=dc)
        # gate grads: ((dc * pre) * gate) * (1 - gate), per gate
        np.multiply(dc, g_in, out=t1)
        np.multiply(t1, i, out=t1)
        np.subtract(1.0, i, out=t2)
        np.multiply(t1, t2, out=dg_step[:, 0 * hidden : 1 * hidden])
        np.multiply(dc, c_hist[t], out=t1)
        np.multiply(t1, f, out=t1)
        np.subtract(1.0, f, out=t2)
        np.multiply(t1, t2, out=dg_step[:, 1 * hidden : 2 * hidden])
        np.multiply(dc, i, out=t1)
        np.multiply(g_in, g_in, out=t2)
        np.subtract(1.0, t2, out=t2)
        np.multiply(t1, t2, out=dg_step[:, 2 * hidden : 3 * hidden])
        np.multiply(dh, tanh_c, out=t1)
        np.multiply(t1, o, out=t1)
        np.subtract(1.0, o, out=t2)
        np.multiply(t1, t2, out=dg_step[:, 3 * hidden : 4 * hidden])
        np.matmul(dg_step, weight_hh.T, out=dh_carry)
        np.multiply(dc, f, out=dc)
    grads: Dict[str, np.ndarray] = {}
    if needs["h0"]:
        grads["h0"] = dh_carry.copy()
    if needs["c0"]:
        grads["c0"] = dc
    # the collapsed grad matmuls stay time-major: weight grads are
    # sums over the same (t, b) row set either way (reassociated at
    # ulp level, within the documented gradient tolerance), and
    # skipping a batch-major restore saves a multi-MB transpose
    # copy per backward call
    flat_g = dg_tm.reshape(time * batch, 4 * hidden)
    if needs["x"]:
        # one flat GEMM; the broadcast form would dispatch B small ones
        dx_flat = np.empty((time * batch, x.shape[-1]), dtype=dtype)
        np.matmul(flat_g, weight_ih.T, out=dx_flat)
        grads["x"] = dx_flat.reshape(time, batch, -1).transpose(1, 0, 2)
    if needs["weight_ih"]:
        grads["weight_ih"] = x_tm.reshape(time * batch, -1).T @ flat_g
    if needs["weight_hh"]:
        # h entering step t is h0 for t=0 and the step-(t-1) output
        h_prev = np.empty((time, batch, hidden), dtype=dtype)
        h_prev[0] = h0
        h_prev[1:] = out_tm[:-1]
        grads["weight_hh"] = h_prev.reshape(time * batch, hidden).T @ flat_g
    if needs["bias"]:
        grads["bias"] = flat_g.sum(axis=0)
    return grads


# ----------------------------------------------------------------------
# fused GRU over a whole (B, T, F) sequence
# ----------------------------------------------------------------------
def gru_seq_forward(
    x: np.ndarray,
    h0: np.ndarray,
    weight_ih: np.ndarray,
    weight_hh: np.ndarray,
    bias: np.ndarray,
    weight_in: np.ndarray,
    weight_hn: np.ndarray,
    bias_n: np.ndarray,
    requires: bool,
) -> Tuple[np.ndarray, Dict]:
    batch, time, features = x.shape
    hidden = weight_hh.shape[0]
    dtype = np.result_type(x.dtype, weight_ih.dtype, h0.dtype, bias.dtype)
    # hoisted input projections: one flat GEMM over all (b, t) rows each.
    # A stacked (B, T, F) matmul runs B small products, and a single-row
    # one (T=1) takes a GEMV path that rounds differently from the GEMM
    # the op-by-op cell runs
    flat_x = x.reshape(batch * time, features)
    gx = np.empty((batch, time, 2 * hidden), dtype=dtype)
    np.matmul(flat_x, weight_ih, out=gx.reshape(batch * time, 2 * hidden))
    nx = np.empty((batch, time, hidden), dtype=dtype)
    np.matmul(flat_x, weight_in, out=nx.reshape(batch * time, hidden))
    outputs = np.empty((batch, time, hidden), dtype=dtype)
    if requires:
        r_all = np.empty((batch, time, hidden), dtype=dtype)
        z_all = np.empty((batch, time, hidden), dtype=dtype)
        n_all = np.empty((batch, time, hidden), dtype=dtype)
        rh_all = np.empty((batch, time, hidden), dtype=dtype)
        h_prev_all = np.empty((batch, time, hidden), dtype=dtype)
    else:
        r_all = z_all = n_all = rh_all = h_prev_all = None
    h = h0
    for t in range(time):
        gates = gx[:, t] + h @ weight_hh + bias
        r = sigmoid(gates[:, :hidden])
        z = sigmoid(gates[:, hidden:])
        rh = r * h
        n = np.tanh(nx[:, t] + rh @ weight_hn + bias_n)
        if requires:
            r_all[:, t], z_all[:, t], n_all[:, t] = r, z, n
            rh_all[:, t] = rh
            h_prev_all[:, t] = h
        h = (1.0 - z) * n + z * h
        outputs[:, t] = h
    saved = {
        "r_all": r_all,
        "z_all": z_all,
        "n_all": n_all,
        "rh_all": rh_all,
        "h_prev_all": h_prev_all,
        "dtype": dtype,
        "dims": (batch, time, hidden),
    }
    return outputs, saved


def gru_seq_backward(
    g_out: np.ndarray,
    saved: Dict,
    x: np.ndarray,
    weight_ih: np.ndarray,
    weight_hh: np.ndarray,
    weight_in: np.ndarray,
    weight_hn: np.ndarray,
    needs: Dict[str, bool],
) -> Dict[str, np.ndarray]:
    batch, time, hidden = saved["dims"]
    dtype = saved["dtype"]
    r_all, z_all, n_all = saved["r_all"], saved["z_all"], saved["n_all"]
    rh_all, h_prev_all = saved["rh_all"], saved["h_prev_all"]
    dh_carry = np.zeros((batch, hidden), dtype=dtype)
    d_gates = np.empty((batch, time, 2 * hidden), dtype=dtype)
    dn_pre = np.empty((batch, time, hidden), dtype=dtype)
    w_hh_t = weight_hh.T
    w_hn_t = weight_hn.T
    for t in range(time - 1, -1, -1):
        dh = g_out[:, t] + dh_carry
        r, z, n = r_all[:, t], z_all[:, t], n_all[:, t]
        h_prev = h_prev_all[:, t]
        dz = dh * (h_prev - n)
        dnp = (dh * (1.0 - z)) * (1.0 - n * n)
        dn_pre[:, t] = dnp
        drh = dnp @ w_hn_t
        d_gates[:, t, :hidden] = (drh * h_prev) * r * (1.0 - r)
        d_gates[:, t, hidden:] = dz * z * (1.0 - z)
        dh_carry = dh * z + drh * r + d_gates[:, t] @ w_hh_t
    grads: Dict[str, np.ndarray] = {}
    if needs["h0"]:
        grads["h0"] = dh_carry
    flat_g = d_gates.reshape(batch * time, 2 * hidden)
    flat_n = dn_pre.reshape(batch * time, hidden)
    flat_x = x.reshape(batch * time, -1)
    if needs["x"]:
        # the forward's flat GEMMs, transposed
        grads["x"] = (flat_g @ weight_ih.T + flat_n @ weight_in.T).reshape(batch, time, -1)
    if needs["weight_ih"]:
        grads["weight_ih"] = flat_x.T @ flat_g
    if needs["weight_hh"]:
        grads["weight_hh"] = h_prev_all.reshape(batch * time, hidden).T @ flat_g
    if needs["bias"]:
        grads["bias"] = flat_g.sum(axis=0)
    if needs["weight_in"]:
        grads["weight_in"] = flat_x.T @ flat_n
    if needs["weight_hn"]:
        grads["weight_hn"] = rh_all.reshape(batch * time, hidden).T @ flat_n
    if needs["bias_n"]:
        grads["bias_n"] = flat_n.sum(axis=0)
    return grads


# ----------------------------------------------------------------------
# fused autoregressive LSTM decoder rollout
# ----------------------------------------------------------------------
def lstm_decoder_forward(
    y0: np.ndarray,
    h0: np.ndarray,
    c0: np.ndarray,
    weight_ih: np.ndarray,
    weight_hh: np.ndarray,
    bias: np.ndarray,
    weight_out: np.ndarray,
    bias_out: np.ndarray,
    horizon: int,
    out_chunks: int,
    requires: bool,
) -> Tuple[np.ndarray, Dict]:
    batch = h0.shape[0]
    hidden = weight_hh.shape[0]
    out_features = weight_out.shape[1]
    chunk_rows = batch // out_chunks
    dtype = np.result_type(y0.dtype, h0.dtype, bias.dtype)

    def _project(h_rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        if out_chunks == 1:
            np.matmul(h_rows, weight_out, out=out)
            np.add(out, bias_out, out=out)
            return out
        # BLAS dispatches narrow matmuls to a GEMV path whose rounding
        # depends on the row count; chunked projection keeps each group
        # at the oracle's row count so the fold stays bit-identical.  The
        # bias add is elementwise, so one add over every row is the same
        for j in range(out_chunks):
            rows = slice(j * chunk_rows, (j + 1) * chunk_rows)
            np.matmul(h_rows[rows], weight_out, out=out[rows])
        np.add(out, bias_out, out=out)
        return out

    outputs = np.empty((batch, horizon, out_features), dtype=dtype)
    # Time-major scratch + in-place elementwise ops, mirroring
    # lstm_seq_forward: same FP operation order as the op-by-op cell, so
    # forward values stay bit-identical while the step loop allocates
    # nothing.  Input and hidden histories are rebuilt in the backward
    # from ``y0``/``outputs`` and ``h0``/``h_tm``.
    gates = np.empty((batch, 4 * hidden), dtype=dtype)
    gate_view = gates.reshape(batch, 4, hidden).transpose(1, 0, 2)
    hh = np.empty((batch, 4 * hidden), dtype=dtype)
    bias_rows = np.empty((batch, 4 * hidden), dtype=dtype)
    bias_rows[:] = bias
    floor = np.full((3, batch, hidden), -60.0, dtype=dtype)
    ig = np.empty((batch, hidden), dtype=dtype)
    c_pair = np.empty((2, batch, hidden), dtype=dtype)
    y_step = np.empty((batch, out_features), dtype=dtype)
    if requires:
        # gate-major (step, [i, f, o, g, tanh_c], B, H): contiguous
        # blocks, see lstm_seq_forward
        act = np.empty((horizon, 5, batch, hidden), dtype=dtype)
        c_hist = np.empty((horizon, batch, hidden), dtype=dtype)  # c entering step t
        h_tm = np.empty((horizon, batch, hidden), dtype=dtype)  # h leaving step t
    else:
        act = c_hist = None
        step_act = np.empty((5, batch, hidden), dtype=dtype)
        h_tm = np.empty((2, batch, hidden), dtype=dtype)
    h = h0
    c = c0
    y = y0
    for t in range(horizon):
        np.matmul(y, weight_ih, out=gates)
        np.matmul(h, weight_hh, out=hh)
        np.add(gates, hh, out=gates)
        np.add(gates, bias_rows, out=gates)
        if requires:
            step_act = act[t]
            c_hist[t] = c
        _lstm_gates(gate_view, step_act, floor)
        i, f, o, g_in, tanh_c = step_act
        c_new = c_pair[t & 1]
        np.multiply(f, c, out=c_new)
        np.multiply(i, g_in, out=ig)
        np.add(c_new, ig, out=c_new)  # f*c + i*g, same order as the cell
        np.tanh(c_new, out=tanh_c)
        h = h_tm[t] if requires else h_tm[t & 1]
        np.multiply(o, tanh_c, out=h)
        c = c_new
        y = _project(h, y_step)
        outputs[:, t] = y
    saved = {
        "act": act,
        "c_hist": c_hist,
        "h_tm": h_tm,
        "outputs": outputs,
        "dtype": dtype,
        "dims": (batch, horizon, hidden, out_features),
    }
    return outputs, saved


def lstm_decoder_backward(
    g_out: np.ndarray,
    saved: Dict,
    y0: np.ndarray,
    h0: np.ndarray,
    weight_ih: np.ndarray,
    weight_hh: np.ndarray,
    weight_out: np.ndarray,
    needs: Dict[str, bool],
) -> Dict[str, np.ndarray]:
    batch, horizon, hidden, out_features = saved["dims"]
    dtype = saved["dtype"]
    act, c_hist, h_tm = saved["act"], saved["c_hist"], saved["h_tm"]
    outputs = saved["outputs"]
    dy_feedback = np.zeros((batch, out_features), dtype=dtype)
    dh_carry = np.zeros((batch, hidden), dtype=dtype)
    dc = np.zeros((batch, hidden), dtype=dtype)
    dg_tm = np.empty((horizon, batch, 4 * hidden), dtype=dtype)
    dy_tm = np.empty((horizon, batch, out_features), dtype=dtype)
    dh = np.empty((batch, hidden), dtype=dtype)
    t1 = np.empty((batch, hidden), dtype=dtype)
    t2 = np.empty((batch, hidden), dtype=dtype)
    w_out_t = weight_out.T
    w_ih_t = weight_ih.T
    w_hh_t = weight_hh.T
    for t in range(horizon - 1, -1, -1):
        i, f, o, g_in, tanh_c = act[t]
        dg_step = dg_tm[t]
        dy = dy_tm[t]
        np.add(g_out[:, t], dy_feedback, out=dy)  # loss + next input grad
        np.matmul(dy, w_out_t, out=dh)
        np.add(dh, dh_carry, out=dh)
        # dc += dh * (o * (1 - tanh_c^2)), same association as the cell
        np.multiply(tanh_c, tanh_c, out=t1)
        np.subtract(1.0, t1, out=t1)
        np.multiply(o, t1, out=t1)
        np.multiply(dh, t1, out=t1)
        np.add(dc, t1, out=dc)
        np.multiply(dc, g_in, out=t1)
        np.multiply(t1, i, out=t1)
        np.subtract(1.0, i, out=t2)
        np.multiply(t1, t2, out=dg_step[:, 0 * hidden : 1 * hidden])
        np.multiply(dc, c_hist[t], out=t1)
        np.multiply(t1, f, out=t1)
        np.subtract(1.0, f, out=t2)
        np.multiply(t1, t2, out=dg_step[:, 1 * hidden : 2 * hidden])
        np.multiply(dc, i, out=t1)
        np.multiply(g_in, g_in, out=t2)
        np.subtract(1.0, t2, out=t2)
        np.multiply(t1, t2, out=dg_step[:, 2 * hidden : 3 * hidden])
        np.multiply(dh, tanh_c, out=t1)
        np.multiply(t1, o, out=t1)
        np.subtract(1.0, o, out=t2)
        np.multiply(t1, t2, out=dg_step[:, 3 * hidden : 4 * hidden])
        np.matmul(dg_step, w_ih_t, out=dy_feedback)
        np.matmul(dg_step, w_hh_t, out=dh_carry)
        np.multiply(dc, f, out=dc)
    grads: Dict[str, np.ndarray] = {}
    if needs["y0"]:
        grads["y0"] = dy_feedback.copy()
    if needs["h0"]:
        grads["h0"] = dh_carry.copy()
    if needs["c0"]:
        grads["c0"] = dc.copy()
    # the collapsed grad matmuls stay time-major (h_tm already is):
    # weight grads sum the same (t, b) rows either way, reassociated
    # at ulp level within the documented gradient tolerance, and the
    # batch-major restore would cost a multi-MB transpose copy
    flat_g = dg_tm.reshape(horizon * batch, 4 * hidden)
    flat_dy = dy_tm.reshape(horizon * batch, out_features)
    if needs["weight_ih"]:
        # input entering step t: y0 at t=0, the step-(t-1) prediction after
        inp_tm = np.empty((horizon, batch, out_features), dtype=dtype)
        inp_tm[0] = y0
        inp_tm[1:] = outputs.transpose(1, 0, 2)[:-1]
        grads["weight_ih"] = inp_tm.reshape(horizon * batch, out_features).T @ flat_g
    if needs["weight_hh"]:
        h_prev = np.empty((horizon, batch, hidden), dtype=dtype)
        h_prev[0] = h0
        h_prev[1:] = h_tm[:-1]
        grads["weight_hh"] = h_prev.reshape(horizon * batch, hidden).T @ flat_g
    if needs["bias"]:
        grads["bias"] = flat_g.sum(axis=0)
    if needs["weight_out"]:
        grads["weight_out"] = h_tm.reshape(horizon * batch, hidden).T @ flat_dy
    if needs["bias_out"]:
        grads["bias_out"] = flat_dy.sum(axis=0)
    return grads


# ----------------------------------------------------------------------
# simulator radio step
# ----------------------------------------------------------------------
_pathloss_array = None


def radio_step(
    position: np.ndarray,
    indoor: bool,
    force_los: Optional[bool],
    shadows: np.ndarray,
    fadings: np.ndarray,
    cand_pos: np.ndarray,
    cand_freq: np.ndarray,
    cand_per_re_tx: np.ndarray,
    cand_noise_mw: np.ndarray,
    cand_nrb: np.ndarray,
    cand_nrb_db: np.ndarray,
    cand_indoor_pen: np.ndarray,
    interf_mask: np.ndarray,
    los_blend_m: float,
    co_channel_activity: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One vectorized radio update over all candidate cells.

    The numeric core of the simulator's ``_radio_update``:
    pathloss, RSRP/RSRQ/SINR, and the O(C^2) co-channel interference as
    a handful of numpy expressions over the cached candidate arrays.
    Returns ``(rsrp, sinr, rsrq)`` per candidate, in dB(m).
    """
    global _pathloss_array
    if _pathloss_array is None:  # lazy: keeps repro.backends import-cycle-free
        from ..ran.propagation import urban_macro_pathloss_db_array

        _pathloss_array = urban_macro_pathloss_db_array
    delta = cand_pos - position
    distance = np.hypot(delta[:, 0], delta[:, 1])
    pl_los = _pathloss_array(distance, cand_freq, los=True)
    pl_nlos = _pathloss_array(distance, cand_freq, los=False)
    if indoor:
        los_weight = np.zeros_like(distance)
    elif force_los is True:
        los_weight = np.ones_like(distance)
    elif force_los is False:
        los_weight = np.zeros_like(distance)
    else:
        los_weight = np.exp(-distance / los_blend_m)
    pl = los_weight * pl_los + (1.0 - los_weight) * pl_nlos
    # interfering links keep the distance-based LOS probability
    # (force_los applies to serving links only)
    if indoor:
        interf_weight = np.zeros_like(distance)
    else:
        interf_weight = np.exp(-distance / los_blend_m)
    pl_interf = interf_weight * pl_los + (1.0 - interf_weight) * pl_nlos
    if indoor:
        pl = pl + cand_indoor_pen
        pl_interf = pl_interf + cand_indoor_pen

    rsrp = cand_per_re_tx - pl - shadows + fadings
    received_mw = co_channel_activity * 10.0 ** ((cand_per_re_tx - pl_interf) / 10.0)
    interf_mw = interf_mask @ received_mw
    signal_mw = 10.0 ** (rsrp / 10.0)
    sinr = 10.0 * np.log10(signal_mw / (cand_noise_mw + interf_mw))
    rssi_mw = (signal_mw + cand_noise_mw + interf_mw) * 12.0 * cand_nrb
    rsrq = cand_nrb_db + rsrp - 10.0 * np.log10(rssi_mw)
    return rsrp, sinr, rsrq


def radio_step_multi(
    positions: np.ndarray,
    indoor: np.ndarray,
    force_los: Optional[bool],
    shadows: np.ndarray,
    fadings: np.ndarray,
    cand_pos: np.ndarray,
    cand_freq: np.ndarray,
    cand_per_re_tx: np.ndarray,
    cand_noise_mw: np.ndarray,
    cand_nrb: np.ndarray,
    cand_nrb_db: np.ndarray,
    cand_indoor_pen: np.ndarray,
    interf_mask: np.ndarray,
    los_blend_m: float,
    co_channel_activity: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`radio_step` batched over a cohort of UEs (lane axis first).

    Inputs are carrier-major structure-of-arrays tensors padded to the
    cohort's widest candidate set: ``positions`` is ``(U, 2)``,
    ``indoor`` is ``(U,)`` bool, the per-candidate arrays are
    ``(U, C)`` (``cand_pos`` is ``(U, C, 2)``), and ``interf_mask`` is
    ``(U, C, C)``.  ``force_los`` is shared across the cohort (the
    multi-UE driver falls back to per-lane dispatch when lanes
    disagree).  Padding lanes must be numerically inert — the caller
    pads with unit distances / zero interference rows and slices each
    lane's first ``C_i`` outputs; this kernel never sees a mask.
    Returns ``(rsrp, sinr, rsrq)``, each ``(U, C)``.
    """
    global _pathloss_array
    if _pathloss_array is None:  # lazy: keeps repro.backends import-cycle-free
        from ..ran.propagation import urban_macro_pathloss_db_array

        _pathloss_array = urban_macro_pathloss_db_array
    delta = cand_pos - positions[:, None, :]
    distance = np.hypot(delta[..., 0], delta[..., 1])
    pl_los = _pathloss_array(distance, cand_freq, los=True)
    pl_nlos = _pathloss_array(distance, cand_freq, los=False)
    indoor_col = np.asarray(indoor, dtype=bool)[:, None]
    blend = np.exp(-distance / los_blend_m)
    if force_los is True:
        serving_weight = np.ones_like(distance)
    elif force_los is False:
        serving_weight = np.zeros_like(distance)
    else:
        serving_weight = blend
    los_weight = np.where(indoor_col, 0.0, serving_weight)
    pl = los_weight * pl_los + (1.0 - los_weight) * pl_nlos
    # interfering links keep the distance-based LOS probability
    # (force_los applies to serving links only)
    interf_weight = np.where(indoor_col, 0.0, blend)
    pl_interf = interf_weight * pl_los + (1.0 - interf_weight) * pl_nlos
    pen = np.where(indoor_col, cand_indoor_pen, 0.0)
    pl = pl + pen
    pl_interf = pl_interf + pen

    rsrp = cand_per_re_tx - pl - shadows + fadings
    received_mw = co_channel_activity * 10.0 ** ((cand_per_re_tx - pl_interf) / 10.0)
    interf_mw = (interf_mask @ received_mw[..., None])[..., 0]
    signal_mw = 10.0 ** (rsrp / 10.0)
    sinr = 10.0 * np.log10(signal_mw / (cand_noise_mw + interf_mw))
    rssi_mw = (signal_mw + cand_noise_mw + interf_mw) * 12.0 * cand_nrb
    rsrq = cand_nrb_db + rsrp - 10.0 * np.log10(rssi_mw)
    return rsrp, sinr, rsrq

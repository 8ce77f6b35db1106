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

from typing import Dict, Optional, Sequence, Tuple

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


def _gate_views(gate_view: np.ndarray, step_act: np.ndarray, floor: np.ndarray, one: np.ndarray) -> tuple:
    """The views :func:`_lstm_gates` reads and writes for one step block.

    ``gate_view`` is the ``(4, ·, H)`` gate-major block of pre-activations,
    in the cell's ``[i, f, g, o]`` order; ``step_act`` is one step's ``(5,
    ·, H)`` block laid out ``[i, f, o, g, tanh_c]``, so the three sigmoid
    gates are one contiguous ``(3, ·, H)`` block; ``floor`` and ``one`` are
    ``(3, ·, H)`` blocks of -60.0 and 1.0 (``maximum``, ``add`` and
    ``divide`` dispatch faster against an array than against a scalar).
    The step loops build these once per block rather than once per step.
    """
    sig = step_act[:3]
    return (gate_view[:2], floor[:2], sig[:2], gate_view[3], floor[2], sig[2], sig, one, gate_view[2], step_act[3])


def _lstm_gates(
    if_pre: np.ndarray,
    if_floor: np.ndarray,
    if_out: np.ndarray,
    o_pre: np.ndarray,
    o_floor: np.ndarray,
    o_out: np.ndarray,
    sig: np.ndarray,
    one: np.ndarray,
    g_pre: np.ndarray,
    g_out: np.ndarray,
) -> None:
    """LSTM gate activations of one step, over :func:`_gate_views`' views.

    The clamp reads i/f and o from the pre-activations into the sigmoid
    block; one negate, exp, +1, divide chain then runs over the whole
    block and gives the values of :func:`sigmoid` bit for bit: its upper
    clamp is dropped because for x >= 60 ``1 + exp(-x)`` already rounds
    to 1.0 (beyond ~745 ``exp`` underflows to 0, silently under numpy's
    default error state), and ``1.0 / s`` is the division
    ``np.reciprocal`` does.  ``tanh`` fills g.
    """
    np.maximum(if_pre, if_floor, out=if_out)
    np.maximum(o_pre, o_floor, out=o_out)
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)
    np.add(sig, one, out=sig)
    np.divide(one, sig, out=sig)
    np.tanh(g_pre, out=g_out)


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
# fused LSTM stack over a whole (B, T, F) sequence
# ----------------------------------------------------------------------
def lstm_seq_forward(
    x: np.ndarray,
    h0: Sequence[np.ndarray],
    c0: Sequence[np.ndarray],
    weight_ih: Sequence[np.ndarray],
    weight_hh: Sequence[np.ndarray],
    bias: Sequence[np.ndarray],
    requires: bool,
) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...], Tuple[Dict, ...]]:
    """A stack of LSTM layers; ``h0`` .. ``bias`` hold one array per layer.

    Returns ``(outputs, c_T, saved)``, one entry per layer: its ``(B, T,
    H)`` outputs (the top layer's a contiguous array, the others views),
    its final cell state, and the ``saved`` dict its
    :func:`lstm_seq_backward` call reads.

    The stack runs as a layer wavefront: at wavefront step ``s`` layer
    ``l`` advances time ``s - l``, so every layer active at a step takes
    its input from the step before.  Layer 0's input projection is
    hoisted into one flat GEMM over all ``(t, b)`` rows; the recurrent
    GEMM and each upper layer's input GEMM run per layer at ``B`` rows,
    and the two bias adds, the gate chain and the cell update run once
    over the active layers' contiguous ``(L, B, ·)`` block.  Per-step
    arithmetic is the op-by-op cell's, in its order, so outputs, states
    and every ``saved`` view are the bits a per-layer run gives: BLAS
    computes the rows of a GEMM with two or more rows the same at any
    row count, so an upper layer's ``B``-row input GEMM matches the
    ``(T·B)``-row one a per-layer run hoists.  At one row numpy's matmul
    takes GEMV, which rounds otherwise; a one-row stack over several
    steps therefore runs its layers one after another.
    """
    batch, time, features = x.shape
    layers = len(weight_ih)
    if batch == 1 and time > 1 and layers > 1:
        outputs: Tuple[np.ndarray, ...] = ()
        c_T: Tuple[np.ndarray, ...] = ()
        saved: Tuple[Dict, ...] = ()
        inp = x
        for layer in range(layers):
            one = slice(layer, layer + 1)
            out, c, s = lstm_seq_forward(
                inp, h0[one], c0[one], weight_ih[one], weight_hh[one], bias[one], requires
            )
            outputs, c_T, saved, inp = outputs + out, c_T + c, saved + s, out[0]
        return outputs, c_T, saved
    hidden = weight_hh[0].shape[0]
    steps = time + layers - 1
    dtype = np.result_type(x.dtype, weight_ih[0].dtype, h0[0].dtype, bias[0].dtype)
    x_tm = np.empty((time, batch, features), dtype=x.dtype)
    np.copyto(x_tm, x.transpose(1, 0, 2))
    # gx[t]: layer 0's input projection at time t, one flat GEMM over
    # all (t, b) rows (a 3-D matmul would dispatch B tiny GEMMs).  Upper
    # layer l's projection at step s lands in slot s - l, which layer 0
    # read l steps before and layer l - 1 the step before, so a step's
    # active layers read one view of the slots with a layer stride of
    # minus one slot, and one add covers them
    gx = np.empty((time, batch, 4 * hidden), dtype=dtype)
    np.matmul(x_tm.reshape(time * batch, -1), weight_ih[0], out=gx.reshape(time * batch, -1))
    # Stacked histories, time-major so every per-step write lands in one
    # contiguous (L, B, ·) block: hs[s, l] and cs[s, l] are layer l's h
    # and c entering step s, so layer l's run sits at rows l .. l + T.
    # Activations are gate-major (step, [i, f, o, g, tanh_c], L, B, H):
    # each gate is a contiguous block and the three sigmoid gates one
    # block that _lstm_gates activates in a single ufunc chain (strided
    # column views of a packed (B, 5H) row defeat the SIMD ufunc loops,
    # measured ~2.7x slower sigmoid).
    hs = np.empty((steps + 1, layers, batch, hidden), dtype=dtype)
    # without a backward to read it, c needs only a ping-pong pair
    cs = np.empty((steps + 1 if requires else 2, layers, batch, hidden), dtype=dtype)
    c_at = range(steps + 1) if requires else [s & 1 for s in range(steps + 1)]
    # The first bias add writes the pre-activations gate-major, [i, f,
    # g, o] by (L, B, H) block, so the gate chain reads contiguous
    # blocks (strided (B, 4H) column views cost it ~3x per call).  The
    # bias blocks are materialized: the broadcast add of a (4H,) row
    # measures ~2x a same-shape add, and the loop pays it every step.
    gates = np.empty((layers, batch, 4 * hidden), dtype=dtype)
    pre = np.empty((4, layers, batch, hidden), dtype=dtype)
    bias_gm = np.empty((4, layers, batch, hidden), dtype=dtype)
    for layer in range(layers):
        hs[layer, layer] = h0[layer]
        cs[c_at[layer], layer] = c0[layer]
        bias_gm[:, layer] = bias[layer].reshape(4, 1, hidden)
    gates_packed, pre_packed = gates.reshape(layers, batch, 4, hidden), pre.transpose(1, 2, 0, 3)
    gx_gates = gx.reshape(time, batch, 4, hidden)
    ig = np.empty((layers, batch, hidden), dtype=dtype)
    floor = np.full((3, layers, batch, hidden), -60.0, dtype=dtype)
    one = np.ones((3, layers, batch, hidden), dtype=dtype)
    act = np.empty((steps if requires else 1, 5, layers, batch, hidden), dtype=dtype)
    # The recurrent GEMMs of a step, and the upper layers' input GEMMs,
    # each run as one 3-D matmul over the active layers: numpy issues
    # one BLAS call per layer, the call a 2-D matmul would make.
    w_hh = np.empty((layers, hidden, 4 * hidden), dtype=weight_hh[0].dtype)
    w_ih = np.empty((layers - 1, hidden, 4 * hidden), dtype=weight_ih[-1].dtype)
    for layer in range(layers):
        w_hh[layer] = weight_hh[layer]
        if layer:
            w_ih[layer - 1] = weight_ih[layer]
    # Every view the step loop reads, built before it.  The wavefront
    # fills and drains through L - 1 partial layer ranges; the views of
    # a range (and, with no history kept, of its activations) are shared
    # by all of its steps.

    def act_views(index: int, rows: slice) -> tuple:
        step_act = act[index][:, rows]
        return (_gate_views(pre[:, rows], step_act, floor[:, rows], one[:, rows]), *step_act)

    ranges: Dict[Tuple[int, int], tuple] = {}
    plan = []
    for s in range(steps):
        lo, hi = max(0, s - time + 1), min(s + 1, layers)
        rows, up = slice(lo, hi), max(lo, 1)
        block = ranges.get((lo, hi))
        if block is None:
            block = ranges[lo, hi] = (
                w_hh[rows],
                None if up >= hi else w_ih[up - 1 : hi - 1],
                gates[rows],
                gates_packed[rows],
                pre_packed[rows],
                pre[:, rows],
                bias_gm[:, rows],
                ig[rows],
                None if requires else act_views(0, rows),
            )
        h_in = hs[s]
        plan.append((
            h_in[rows],
            h_in[up - 1 : hi - 1],
            gx[s - hi + 1 : s - up + 1][::-1],
            gx_gates[s - hi + 1 : s - lo + 1][::-1],
            block,
            act_views(s, rows) if requires else block[-1],
            cs[c_at[s], rows],
            cs[c_at[s + 1], rows],
            hs[s + 1, rows],
        ))
    for h_rec, h_up, g_up, g_x, block, step_act, c_in, c_out, h_out in plan:
        w_rec, w_up, g, g_packed, p_packed, p, b_gm, ig_rows, _ = block
        np.matmul(h_rec, w_rec, out=g)
        if w_up is not None:
            np.matmul(h_up, w_up, out=g_up)
        np.add(g_x, g_packed, out=p_packed)
        np.add(p, b_gm, out=p)
        gate_views, i, f, o, g_in, tanh_c = step_act
        _lstm_gates(*gate_views)
        np.multiply(f, c_in, out=c_out)
        np.multiply(i, g_in, out=ig_rows)
        np.add(c_out, ig_rows, out=c_out)  # f*c + i*g, same order as the cell
        np.tanh(c_out, out=tanh_c)
        np.multiply(o, tanh_c, out=h_out)
    outputs = ()
    c_T = ()
    saved = ()
    for layer in range(layers):
        out_tm = hs[layer + 1 : layer + 1 + time, layer]
        # batch-major: the top layer's is a copy, the others views
        out_bm = out_tm.transpose(1, 0, 2)
        outputs += (np.ascontiguousarray(out_bm) if layer == layers - 1 else out_bm,)
        # a copy once c lives in the ping-pong pair
        c_T += (cs[layer + time, layer] if requires else cs[c_at[layer + time], layer].copy(),)
        if requires:
            saved += (
                {
                    "x_tm": x_tm if layer == 0 else hs[layer : layer + time, layer - 1],
                    "out_tm": out_tm,
                    "act": act[layer : layer + time, :, layer],
                    "c_hist": cs[layer : layer + time, layer],  # c entering step t
                    "dtype": dtype,
                    "dims": (batch, time, hidden),
                },
            )
    return outputs, c_T, saved


def lstm_seq_backward(
    g_out_bm: np.ndarray,
    dh_T: Optional[np.ndarray],
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
    if dh_T is not None:
        # the final hidden state's own gradient, where a slice of the
        # outputs would have added it
        np.add(g_out[-1], dh_T, out=g_out[-1])
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
    dtype = np.result_type(y0.dtype, h0.dtype, bias.dtype)
    # Time-major scratch + in-place elementwise ops, mirroring
    # lstm_seq_forward: same FP operation order as the op-by-op cell, so
    # forward values stay bit-identical while the step loop allocates
    # nothing.  The head projects straight into the time-major outputs,
    # whose step t is step t + 1's input.  Input and hidden histories
    # are rebuilt in the backward from ``y0``/``out_tm`` and ``h0``/``h_tm``.
    out_tm = np.empty((horizon, batch, out_features), dtype=dtype)
    # gate-major pre-activations and materialized bias blocks, see
    # lstm_seq_forward
    gates = np.empty((batch, 4 * hidden), dtype=dtype)
    hh = np.empty((batch, 4 * hidden), dtype=dtype)
    pre = np.empty((4, batch, hidden), dtype=dtype)
    bias_gm = np.empty((4, batch, hidden), dtype=dtype)
    bias_gm[:] = bias.reshape(4, 1, hidden)
    gates_packed, hh_packed = gates.reshape(batch, 4, hidden), hh.reshape(batch, 4, hidden)
    pre_packed = pre.transpose(1, 0, 2)
    floor = np.full((3, batch, hidden), -60.0, dtype=dtype)
    one = np.ones((3, batch, hidden), dtype=dtype)
    ig = np.empty((batch, hidden), dtype=dtype)
    # gate-major (step, [i, f, o, g, tanh_c], B, H): contiguous blocks,
    # see lstm_seq_forward.  c entering step t (step t's c_hist row) and
    # h leaving it: whole histories when the backward reads them, else
    # ping-pong pairs
    act = np.empty((horizon if requires else 1, 5, batch, hidden), dtype=dtype)
    cs = np.empty((horizon + 1 if requires else 2, batch, hidden), dtype=dtype)
    c_at = range(horizon + 1) if requires else [t & 1 for t in range(horizon + 1)]
    cs[0] = c0
    h_tm = np.empty((horizon if requires else 2, batch, hidden), dtype=dtype)
    h_at = range(horizon) if requires else [t & 1 for t in range(horizon)]
    # BLAS dispatches narrow matmuls to a GEMV path whose rounding
    # depends on the row count, so the head projects each of the
    # ``out_chunks`` row groups at the oracle's row count: one 3-D matmul,
    # for which numpy issues the per-group BLAS call a loop over the
    # groups would.  The bias add is elementwise, so one add covers
    # every row.
    chunked = (out_chunks, batch // out_chunks)
    # every per-step view, built once before the loop
    shared_views = _gate_views(pre, act[0], floor, one)
    plan = []
    for t in range(horizon):
        h = h_tm[h_at[t]]
        y = out_tm[t]
        if out_chunks > 1:
            h_rows, y_rows = h.reshape(*chunked, hidden), y.reshape(*chunked, out_features)
        else:
            h_rows, y_rows = h, y
        step_act = act[t if requires else 0]
        plan.append((
            y0 if t == 0 else out_tm[t - 1],
            h0 if t == 0 else h_tm[h_at[t - 1]],
            cs[c_at[t]],
            cs[c_at[t + 1]],
            _gate_views(pre, step_act, floor, one) if requires else shared_views,
            *step_act,
            h,
            h_rows,
            y,
            y_rows,
        ))
    for y_in, h_in, c_in, c_new, gate_views, i, f, o, g_in, tanh_c, h, h_rows, y, y_rows in plan:
        np.matmul(y_in, weight_ih, out=gates)
        np.matmul(h_in, weight_hh, out=hh)
        np.add(gates_packed, hh_packed, out=pre_packed)
        np.add(pre, bias_gm, out=pre)
        _lstm_gates(*gate_views)
        np.multiply(f, c_in, out=c_new)
        np.multiply(i, g_in, out=ig)
        np.add(c_new, ig, out=c_new)  # f*c + i*g, same order as the cell
        np.tanh(c_new, out=tanh_c)
        np.multiply(o, tanh_c, out=h)
        np.matmul(h_rows, weight_out, out=y_rows)
        np.add(y, bias_out, out=y)
    saved = {
        "act": act if requires else None,
        "c_hist": cs[:horizon] if requires else None,
        "h_tm": h_tm,
        "out_tm": out_tm,
        "dtype": dtype,
        "dims": (batch, horizon, hidden, out_features),
    }
    return np.ascontiguousarray(out_tm.transpose(1, 0, 2)), saved


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
        inp_tm[1:] = saved["out_tm"][:-1]
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

"""Prism5G: the CA-aware deep-learning throughput predictor (paper §5).

Architecture (Fig 16):

1. **Per-CC modeling** — a weights-shared RNN (LSTM by default, GRU
   optional: the paper notes the building block is swappable) encodes
   each component carrier's feature history ``X_c`` after gating it
   with the RRC-derived activity mask: ``X'_c = X_c (.) I``.
2. **CA event monitoring** — the binary mask vector ``I`` (built from
   RRC SCell add/release signaling) is embedded into a dense vector
   ``E`` describing the current channel combination.
3. **Fusion learning** — ``h_f = Fusion([h_1..h_C, E])`` captures the
   inter-carrier interplay (power splits, RB throttling) that §4.3
   shows cannot be inferred from any single CC.
4. **Aggregated prediction** — per-CC MLP heads on ``h'_c = h_c + h_f``
   predict each carrier's future throughput; the aggregate is their
   (mask-gated) sum: ``y = sum_c I_c * MLP(h'_c)``.

Input packing: one flat array per time step —
``[cc0 features.., cc1 features.., ..., mask bits.., aggregate tput]``
(see :func:`pack_inputs`) so the standard Trainer can batch it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..nn.modules import GRU, LSTM, MLP, Embedding, Linear, LSTMCell, Module
from ..nn.tensor import Tensor, concat, lstm_decoder_seq, no_grad

#: row cap per fused-kernel call in the folded forward.  Recurrent step
#: arrays at the full fold height (C·B rows) spill the L2 cache, so the
#: folded path runs the encoder/decoder over row blocks of at most this
#: many sequences, in every mode.  Values are unaffected: wide-GEMM rows
#: are invariant to batch height, everything else is elementwise.
_FOLD_CHUNK_ROWS = 256


def pack_inputs(x: np.ndarray, mask: np.ndarray, y_hist: np.ndarray) -> np.ndarray:
    """Pack (n, T, C, F) features + (n, T, C) mask + (n, T) history.

    Returns a flat (n, T, C*F + C + 1) array; models unpack it knowing
    (C, F).
    """
    n, t, c, f = x.shape
    if mask.shape != (n, t, c):
        raise ValueError(f"mask shape {mask.shape} does not match features {(n, t, c)}")
    if y_hist.shape != (n, t):
        raise ValueError(f"y_hist shape {y_hist.shape} does not match {(n, t)}")
    return np.concatenate(
        [x.reshape(n, t, c * f), mask, y_hist[..., None]], axis=2
    )


def unpack_inputs(packed: np.ndarray, n_ccs: int, n_features: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_inputs`."""
    n, t, d = packed.shape
    expected = n_ccs * n_features + n_ccs + 1
    if d != expected:
        raise ValueError(f"packed width {d} != expected {expected} for C={n_ccs}, F={n_features}")
    x = packed[:, :, : n_ccs * n_features].reshape(n, t, n_ccs, n_features)
    mask = packed[:, :, n_ccs * n_features : n_ccs * n_features + n_ccs]
    y_hist = packed[:, :, -1]
    return x, mask, y_hist


class Prism5G(Module):
    """The CA-aware throughput prediction model.

    Parameters
    ----------
    n_ccs, n_features:
        Carrier-slot count C and per-CC feature count F.
    horizon:
        Output sequence length (10 in the paper).
    hidden:
        RNN/MLP hidden width (paper: 128; scaled down by default since
        the numpy substrate trains on CPU).
    rnn:
        ``"lstm"`` (paper default) or ``"gru"`` (the Table 13 ablation)
        — the swappable recurrent block.
    use_state_trigger:
        Gate inputs and outputs with the RRC mask (ablation: Table 13
        "No State").
    use_fusion:
        Enable the fusion module (ablation: Table 13 "No Fusion").
    embed_dim:
        Dense size of the channel-combination embedding E.
    head:
        ``"decoder"`` (default): a weight-shared autoregressive LSTM
        decoder emits the horizon step by step per carrier — the same
        sequence-output discipline as Lumos5G's Seq2Seq, which trains
        markedly better on this substrate.  ``"mlp"``: the paper's
        literal one-shot MLP head (kept for fidelity/ablation).
    """

    def __init__(
        self,
        n_ccs: int,
        n_features: int,
        horizon: int = 10,
        hidden: int = 32,
        rnn: str = "lstm",
        use_state_trigger: bool = True,
        use_fusion: bool = True,
        embed_dim: int = 8,
        head: str = "decoder",
        seed: int = 0,
    ) -> None:
        super().__init__()
        if rnn not in ("lstm", "gru"):
            raise ValueError("rnn must be 'lstm' or 'gru'")
        if head not in ("decoder", "mlp"):
            raise ValueError("head must be 'decoder' or 'mlp'")
        rng = np.random.default_rng(seed)
        self.n_ccs = n_ccs
        self.n_features = n_features
        self.horizon = horizon
        self.hidden = hidden
        self.use_state_trigger = use_state_trigger
        self.use_fusion = use_fusion
        self.head_kind = head
        # shared per-CC encoder: features + own mask bit + aggregate history
        in_size = n_features + 2
        encoder = LSTM if rnn == "lstm" else GRU
        self.encoder = encoder(in_size, hidden, num_layers=2, rng=rng)
        self.combo_embedding = Embedding(2 ** n_ccs, embed_dim, rng=rng)
        self.fusion = MLP(n_ccs * hidden + embed_dim, [hidden], hidden, rng=rng)
        if head == "mlp":
            self.head = MLP(hidden, [hidden], horizon, rng=rng)
        else:
            self.decoder_cell = LSTMCell(1, hidden, rng=rng)
            self.decoder_out = Linear(hidden, 1, rng=rng)

    def _decode(self, h_c: Tensor, chunks: int = 1) -> Tensor:
        """Roll the shared decoder ``horizon`` steps from state ``h_c``.

        The whole rollout is one :func:`~repro.nn.tensor.lstm_decoder_seq`
        graph node.  ``chunks`` (the carrier count when folding) splits
        the narrow head projection so its GEMV rounding matches a
        per-carrier rollout.
        """
        batch = h_c.shape[0]
        preds = lstm_decoder_seq(
            Tensor(np.zeros((batch, 1))),
            h_c,
            Tensor(np.zeros((batch, self.hidden))),
            self.decoder_cell.weight_ih,
            self.decoder_cell.weight_hh,
            self.decoder_cell.bias,
            self.decoder_out.weight,
            self.decoder_out.bias,
            self.horizon,
            out_chunks=chunks,
        )
        return preds.reshape(batch, self.horizon)

    # ------------------------------------------------------------------
    def forward(self, packed: Tensor) -> Tensor:
        """Predict ``(batch, horizon * (1 + C))``: aggregate then per-CC.

        Columns ``[:horizon]`` are the aggregate forecast (the sum of
        the per-CC heads); the rest are the per-CC forecasts flattened
        ``(horizon, C)``-major, used for per-carrier supervision and
        Fig 33-34 style per-cell plots.  Use
        :meth:`aggregate_prediction` / :meth:`predict_per_cc` to slice,
        or :meth:`predict_all` for both in one pass.

        The forward is carrier-folded: the per-CC inputs ``(B, T, C,
        F+2)`` are folded carrier-major to ``(C*B, T, F+2)`` — row
        ``c*B + b`` is carrier ``c`` of sample ``b`` — so the
        weight-shared encoder runs as a single fused sequence kernel
        over ``C*B`` sequences instead of ``C`` separate calls, and the
        decoder rollout likewise folds carriers into the batch axis.
        Values are bit-identical to a per-CC loop: the wide GEMMs
        produce the same rows regardless of batch height, every other
        op is elementwise or a pure reshape, and the narrow head
        projections are evaluated per carrier-contiguous chunk so their
        GEMV rounding matches the loop's row count (see
        :func:`~repro.nn.tensor.lstm_decoder_seq`).
        """
        data = packed.data if isinstance(packed, Tensor) else np.asarray(packed)
        x, mask, y_hist = unpack_inputs(data, self.n_ccs, self.n_features)
        n, t, c, f = x.shape

        features = x * mask[..., None] if self.use_state_trigger else x
        hist = np.broadcast_to(y_hist[:, :, None, None], (n, t, c, 1))
        folded = np.concatenate([features, mask[..., None], hist], axis=3)
        # (B, T, C, F+2) -> (C*B, T, F+2), carrier-major
        folded = folded.transpose(2, 0, 1, 3).reshape(c * n, t, f + 2)

        rows = c * n
        if rows > _FOLD_CHUNK_ROWS:
            # L2 blocking: at full fold height the recurrent step loop's
            # working set spills the cache, so run the (row-independent)
            # encoder over near-equal row blocks.  The wide gate GEMMs
            # are batch-height invariant, so the fold stays bit-identical.
            n_blocks = -(-rows // _FOLD_CHUNK_ROWS)
            base, rem = divmod(rows, n_blocks)
            h_parts: List[Tensor] = []
            start = 0
            for j in range(n_blocks):
                stop = start + base + (1 if j < rem else 0)
                block_out, _ = self.encoder(Tensor(folded[start:stop]))
                h_parts.append(block_out[:, -1, :])
                start = stop
            h_last = concat(h_parts, axis=0).reshape(c, n, self.hidden)
        else:
            enc_out, _ = self.encoder(Tensor(folded))
            h_last = enc_out[:, -1, :].reshape(c, n, self.hidden)

        if self.use_fusion:
            combo_index = self._combo_indices(mask)
            embed = self.combo_embedding(combo_index)
            h_cat = h_last.transpose(1, 0, 2).reshape(n, c * self.hidden)
            h_fusion = self.fusion(concat([h_cat, embed], axis=1))
            h_head = h_last + h_fusion.reshape(1, n, self.hidden)
        else:
            h_head = h_last

        if self.head_kind == "mlp":
            # narrow output GEMMs are not batch-height invariant, so
            # apply the head per carrier
            preds = concat([self.head(h_head[cc]) for cc in range(c)], axis=0)
        elif rows > _FOLD_CHUNK_ROWS:
            # same L2 blocking for the rollout; per-carrier blocks
            # keep the head's GEMV row count equal to the loop's
            preds = concat([self._decode(h_head[cc]) for cc in range(c)], axis=0)
        else:
            preds = self._decode(h_head.reshape(c * n, self.hidden), chunks=c)
        preds = preds.reshape(c, n, self.horizon)
        if self.use_state_trigger:
            preds = preds * Tensor(np.ascontiguousarray(mask[:, -1, :].T)[:, :, None])

        # sequential per-CC adds (not a tree reduction) so the aggregate
        # matches the loop oracle bit for bit
        total = preds[0]
        for cc in range(1, c):
            total = total + preds[cc]
        per_cc_flat = preds.transpose(1, 2, 0).reshape(n, self.horizon * c)
        return concat([total, per_cc_flat], axis=1)

    def _combo_indices(self, mask: np.ndarray) -> np.ndarray:
        """Encode the final-step activity pattern as an integer id."""
        last = (mask[:, -1, :] > 0.5).astype(np.int64)
        weights = (1 << np.arange(self.n_ccs)).astype(np.int64)
        return last @ weights

    # ------------------------------------------------------------------
    def predict_all(self, packed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One inference forward returning ``(aggregate, per_cc)``.

        ``aggregate`` has shape (batch, horizon); ``per_cc`` has shape
        (batch, C, horizon).  Callers that need both (Fig 33-34 style
        plots) should use this instead of calling
        :meth:`aggregate_prediction` then :meth:`predict_per_cc`, which
        would run the network twice.
        """
        with no_grad():  # pure inference: skip graph construction
            out = self.forward(Tensor(np.asarray(packed))).numpy()
        agg = out[:, : self.horizon]
        per_cc = np.ascontiguousarray(
            out[:, self.horizon :].reshape(-1, self.horizon, self.n_ccs).transpose(0, 2, 1)
        )
        return agg, per_cc

    def aggregate_prediction(self, packed: np.ndarray) -> np.ndarray:
        """Aggregate forecast only, shape (batch, horizon)."""
        return self.predict_all(packed)[0]

    def predict_per_cc(self, packed: np.ndarray) -> np.ndarray:
        """Per-carrier predictions, shape (batch, C, horizon) (Fig 33-34)."""
        return self.predict_all(packed)[1]

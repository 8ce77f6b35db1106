"""Generic mini-batch training loop with validation-based model selection.

Mirrors the paper's protocol (Appendix C.1): Adam, RMSE loss, the best
epoch chosen on the validation set, early stopping with patience.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .. import obs
from .losses import mse_loss
from .modules import Module
from .optim import Adam
from .tensor import Tensor, no_grad


@dataclass
class TrainingHistory:
    """Per-epoch loss curves plus the selected (best) epoch."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


class Trainer:
    """Train a model whose ``forward`` maps input batch -> prediction Tensor.

    Parameters
    ----------
    model:
        Any :class:`Module`.
    loss_fn:
        Differentiable loss ``(pred, target) -> Tensor``; defaults to MSE
        (equivalent to optimizing RMSE).
    forward_fn:
        Optional override used when the model requires non-array inputs
        (e.g. Prism5G takes an extra mask); called as
        ``forward_fn(model, x_batch)``.
    """

    def __init__(
        self,
        model: Module,
        lr: float = 0.01,
        batch_size: int = 128,
        max_epochs: int = 200,
        patience: int = 20,
        loss_fn: Callable[[Tensor, Tensor], Tensor] = mse_loss,
        forward_fn: Optional[Callable] = None,
        grad_clip: Optional[float] = 5.0,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.optimizer = Adam(model.parameters(), lr=lr, grad_clip=grad_clip)
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.loss_fn = loss_fn
        self.forward_fn = forward_fn or (lambda model, x: model(Tensor(x)))
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        #: the last :meth:`fit`'s history (``None`` before any fit, and
        #: for trainers rebuilt from a checkpoint).
        self.history: Optional[TrainingHistory] = None

    def _batch_loss(self, x: np.ndarray, y: np.ndarray, train: bool) -> float:
        """One batch's loss, after its optimizer step when ``train``.

        The batch's graph lives in this call's locals, so it dies by
        refcount on return, before the next batch's forward allocates.
        """
        if not train:
            with no_grad():  # validation never needs the graph
                return self.loss_fn(self.forward_fn(self.model, x), Tensor(y)).item()
        loss = self.loss_fn(self.forward_fn(self.model, x), Tensor(y))
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()
        return loss.item()

    def _epoch(self, x: np.ndarray, y: np.ndarray, train: bool) -> float:
        n = len(x)
        order = self.rng.permutation(n) if train else np.arange(n)
        total, count = 0.0, 0
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            total += self._batch_loss(x[idx], y[idx], train) * len(idx)
            count += len(idx)
        return total / max(count, 1)

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
    ) -> TrainingHistory:
        """Train and restore the best-validation-loss parameters."""
        if len(x_train) != len(y_train):
            raise ValueError("x_train and y_train must have equal length")
        history = TrainingHistory()
        self.history = history
        # best-model checkpoint buffers, allocated once and reused across
        # improving epochs (np.copyto) instead of rebuilding a deep-copied
        # state_dict every time validation improves
        best_state: Optional[Dict[str, np.ndarray]] = None
        params = dict(self.model.named_parameters())
        stale = 0
        for epoch in range(self.max_epochs):
            train_loss = self._epoch(x_train, y_train, train=True)
            if x_val is not None and len(x_val):
                val_loss = self._epoch(x_val, y_val, train=False)
            else:
                val_loss = train_loss
            history.train_loss.append(train_loss)
            history.val_loss.append(val_loss)
            if val_loss < history.best_val_loss - 1e-9:
                history.best_val_loss = val_loss
                history.best_epoch = epoch
                if best_state is None:
                    best_state = {name: p.data.copy() for name, p in params.items()}
                else:
                    for name, p in params.items():
                        np.copyto(best_state[name], p.data)
                stale = 0
            else:
                stale += 1
            if stale >= self.patience:
                break
        if best_state is not None:
            for name, p in params.items():
                np.copyto(p.data, best_state[name])
        obs.counter("train.epochs", history.epochs_run)
        return history

    def predict(self, x: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Run the model over ``x`` in batches.

        The whole pass runs under :class:`~repro.nn.tensor.no_grad`, so
        no computation graph is recorded — outputs are bit-identical to
        a grad-mode forward since the same numpy expressions execute.
        """
        bs = batch_size or self.batch_size
        with no_grad():
            outputs = [self.forward_fn(self.model, x[start : start + bs]).numpy() for start in range(0, len(x), bs)]
        return np.concatenate(outputs, axis=0)

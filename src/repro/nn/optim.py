"""The Adam gradient-descent optimizer.

The paper trains all deep models with Adam (lr=0.01, batch 128); we
implement Adam exactly as in Kingma & Ba (2014), including bias
correction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .tensor import Tensor


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, params: List[Tensor], lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2014) with bias correction."""

    def __init__(
        self,
        params: List[Tensor],
        lr: float = 0.01,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        grad_clip: Optional[float] = None,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1 - self.beta1 ** self._t
        bias2 = 1 - self.beta2 ** self._t
        for param in self.params:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.grad_clip is not None:
                norm = np.linalg.norm(grad)
                if norm > self.grad_clip:
                    grad = grad * (self.grad_clip / (norm + 1e-12))
            key = id(param)
            m = self._m.get(key)
            v = self._v.get(key)
            if m is None:
                m = self._m[key] = np.zeros_like(param.data)
                v = self._v[key] = np.zeros_like(param.data)
            # first/second moments updated in place (no per-step reallocs)
            np.multiply(m, self.beta1, out=m)
            np.add(m, (1 - self.beta1) * grad, out=m)
            np.multiply(v, self.beta2, out=v)
            np.add(v, (1 - self.beta2) * grad * grad, out=v)
            # update = lr * m_hat / (sqrt(v_hat) + eps), built in one buffer
            update = np.sqrt(v / bias2)
            update += self.eps
            np.divide(m, update, out=update)
            update *= self.lr / bias1
            param.data -= update

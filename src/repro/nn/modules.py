"""Neural-network building blocks on top of :mod:`repro.nn.tensor`.

These mirror the PyTorch modules used by the paper's implementation:
``Linear``, ``Embedding``, ``LSTM``, ``GRU``, causal ``Conv1d`` /
``TCN`` (for the TCN baseline), ``MLP`` and ``Sequential``.  All modules
expose ``parameters()`` / ``named_parameters()`` and a ``state_dict`` /
``load_state_dict`` pair for serialization.

Batch convention: sequence inputs are ``(batch, time, features)``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor, affine, concat, gru_seq, lstm_seq


class Module:
    """Base class: tracks sub-modules and parameters by attribute name."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> List[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.data.shape}")
            param.data = value.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape: Tuple[int, ...]) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Linear(Module):
    """Affine map ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(_glorot(rng, in_features, out_features, (in_features, out_features)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer indices to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Tensor(rng.normal(0.0, 0.1, size=(num_embeddings, embedding_dim)), requires_grad=True)

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if np.any(indices < 0) or np.any(indices >= self.num_embeddings):
            raise IndexError("embedding index out of range")
        return self.weight[indices]


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(Module):
    """Chain modules, feeding each output into the next."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class MLP(Module):
    """Multi-layer perceptron with ReLU activations between layers."""

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        sizes = [in_features, *hidden, out_features]
        layers: List[Module] = []
        for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(a, b, rng=rng))
            if i < len(sizes) - 2:
                layers.append(ReLU())
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


class LSTMCell(Module):
    """Single LSTM step; gates packed as [i, f, g, o].

    Holds the weights that :class:`LSTM` and the Seq2Seq decoders hand
    to the fused kernels; its own forward is the op-by-op composition
    (~15 graph nodes per step) those kernels must match bit for bit.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Tensor(_glorot(rng, input_size, hidden_size, (input_size, 4 * hidden_size)), requires_grad=True)
        self.weight_hh = Tensor(_glorot(rng, hidden_size, hidden_size, (hidden_size, 4 * hidden_size)), requires_grad=True)
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget-gate bias of 1 aids training
        self.bias = Tensor(bias, requires_grad=True)

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        gates = x @ self.weight_ih + h_prev @ self.weight_hh + self.bias
        hs = self.hidden_size
        i = gates[:, 0 * hs : 1 * hs].sigmoid()
        f = gates[:, 1 * hs : 2 * hs].sigmoid()
        g = gates[:, 2 * hs : 3 * hs].tanh()
        o = gates[:, 3 * hs : 4 * hs].sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c


class LSTM(Module):
    """Multi-layer LSTM over ``(batch, time, features)`` sequences."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.cells = []
        for layer in range(num_layers):
            cell = LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng=rng)
            setattr(self, f"cell{layer}", cell)
            self.cells.append(cell)

    def forward(
        self,
        x: Tensor,
        state: Optional[List[Tuple[Tensor, Tensor]]] = None,
    ) -> Tuple[Tensor, List[Tuple[Tensor, Tensor]]]:
        batch = x.shape[0]
        if state is None:
            state = [
                (Tensor(np.zeros((batch, self.hidden_size))), Tensor(np.zeros((batch, self.hidden_size))))
                for _ in range(self.num_layers)
            ]
        # one fused graph node for the whole stack and sequence
        out, h_t, c_t = lstm_seq(
            x,
            [h for h, _ in state],
            [c for _, c in state],
            [cell.weight_ih for cell in self.cells],
            [cell.weight_hh for cell in self.cells],
            [cell.bias for cell in self.cells],
        )
        return out, list(zip(h_t, c_t))


class GRUCell(Module):
    """Single GRU step; gates packed as [r, z].

    Holds the weights that :class:`GRU` hands to the fused kernel; its
    own forward is the op-by-op composition that kernel must match.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Tensor(_glorot(rng, input_size, hidden_size, (input_size, 2 * hidden_size)), requires_grad=True)
        self.weight_hh = Tensor(_glorot(rng, hidden_size, hidden_size, (hidden_size, 2 * hidden_size)), requires_grad=True)
        self.bias = Tensor(np.zeros(2 * hidden_size), requires_grad=True)
        self.weight_in = Tensor(_glorot(rng, input_size, hidden_size, (input_size, hidden_size)), requires_grad=True)
        self.weight_hn = Tensor(_glorot(rng, hidden_size, hidden_size, (hidden_size, hidden_size)), requires_grad=True)
        self.bias_n = Tensor(np.zeros(hidden_size), requires_grad=True)

    def forward(self, x: Tensor, h_prev: Tensor) -> Tensor:
        gates = x @ self.weight_ih + h_prev @ self.weight_hh + self.bias
        hs = self.hidden_size
        r = gates[:, :hs].sigmoid()
        z = gates[:, hs:].sigmoid()
        n = (x @ self.weight_in + (r * h_prev) @ self.weight_hn + self.bias_n).tanh()
        return (1.0 - z) * n + z * h_prev


class GRU(Module):
    """Multi-layer GRU over ``(batch, time, features)`` sequences."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.cells = []
        for layer in range(num_layers):
            cell = GRUCell(input_size if layer == 0 else hidden_size, hidden_size, rng=rng)
            setattr(self, f"cell{layer}", cell)
            self.cells.append(cell)

    def forward(self, x: Tensor, state: Optional[List[Tensor]] = None) -> Tuple[Tensor, List[Tensor]]:
        batch = x.shape[0]
        if state is None:
            state = [Tensor(np.zeros((batch, self.hidden_size))) for _ in range(self.num_layers)]
        else:
            state = list(state)  # never mutate the caller's list
        out = x
        for layer, cell in enumerate(self.cells):
            out, h_t = gru_seq(
                out, state[layer],
                cell.weight_ih, cell.weight_hh, cell.bias,
                cell.weight_in, cell.weight_hn, cell.bias_n,
            )
            state[layer] = h_t
        return out, state


class CausalConv1d(Module):
    """1-D convolution with left padding so output only sees the past.

    Input/output shape: ``(batch, time, channels)``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        fan_in = in_channels * kernel_size
        self.weight = Tensor(
            _glorot(rng, fan_in, out_channels, (kernel_size, in_channels, out_channels)),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        batch, time, _ = x.shape
        pad = (self.kernel_size - 1) * self.dilation
        padded = concat([Tensor(np.zeros((batch, pad, self.in_channels))), x], axis=1)
        # Sum over kernel taps: y[t] = sum_k x[t - (K-1-k)*d] @ W[k]
        terms = []
        for k in range(self.kernel_size):
            start = k * self.dilation
            window = padded[:, start : start + time, :]
            terms.append(window @ self.weight[k])
        out = terms[0]
        for term in terms[1:]:
            out = out + term
        return out + self.bias


class TCNBlock(Module):
    """Residual temporal block: two dilated causal convs + ReLU."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.conv1 = CausalConv1d(in_channels, out_channels, kernel_size, dilation, rng=rng)
        self.conv2 = CausalConv1d(out_channels, out_channels, kernel_size, dilation, rng=rng)
        self.downsample = Linear(in_channels, out_channels, rng=rng) if in_channels != out_channels else None

    def forward(self, x: Tensor) -> Tensor:
        out = self.conv2(self.conv1(x).relu()).relu()
        residual = x if self.downsample is None else self.downsample(x)
        return out + residual


class TCN(Module):
    """Temporal convolutional network (Bai et al. style) over sequences."""

    def __init__(
        self,
        input_size: int,
        channels: Sequence[int],
        kernel_size: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.blocks = []
        prev = input_size
        for i, ch in enumerate(channels):
            block = TCNBlock(prev, ch, kernel_size, dilation=2 ** i, rng=rng)
            setattr(self, f"block{i}", block)
            self.blocks.append(block)
            prev = ch

    def forward(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return x

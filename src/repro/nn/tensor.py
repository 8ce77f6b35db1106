"""Reverse-mode automatic differentiation on numpy arrays.

This module provides the :class:`Tensor` class, a small but complete
autograd engine used by every neural model in this repository (the paper
uses PyTorch; PyTorch is unavailable offline, so we implement the same
math from scratch — see DESIGN.md, substitution table).

Gradients are accumulated by a topological-order backward pass over the
dynamically recorded computation graph.  Broadcasting is supported: the
gradient flowing into a broadcast operand is summed over the broadcast
axes so that ``grad.shape == data.shape`` always holds.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple]

#: global autograd switch — see :class:`no_grad` / :func:`is_grad_enabled`.
_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Whether new operations record backward graphs."""
    return _GRAD_ENABLED


def set_grad_enabled(mode: bool) -> bool:
    """Set the global autograd switch; returns the previous value."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = bool(mode)
    return previous


class no_grad:
    """Context manager (and decorator) disabling graph construction.

    Inside the context every tensor op computes forward values only: no
    parents, no backward closures, no gradient bookkeeping.  This is the
    inference fast path used by ``Trainer.predict`` and the Prism5G
    rollout — forward values are bit-identical to grad mode because the
    same numpy expressions run either way.
    """

    def __enter__(self) -> "no_grad":
        self._previous = set_grad_enabled(False)
        return self

    def __exit__(self, *exc) -> None:
        set_grad_enabled(self._previous)

    def __call__(self, fn):
        def wrapped(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        return wrapped


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A numpy-backed tensor that records operations for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        #: pushes this node's gradient (its argument) into its parents.
        #: It never refers to this node, so a graph holds no reference
        #: cycle and dies by refcount with its last reference.
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = tuple(_parents)
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph mechanics
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        elif self.grad.shape == grad.shape:
            # in-place: the buffer is owned (created by the copy above)
            np.add(self.grad, grad, out=self.grad)
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (i.e. the tensor is treated as a sum of
        its elements for non-scalar outputs).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        topo: List[Tensor] = []
        visited = set()

        def build(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            seen_on_stack = {id(node)}
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in visited and id(parent) not in seen_on_stack:
                        stack.append((parent, iter(parent._parents)))
                        seen_on_stack.add(id(parent))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    seen_on_stack.discard(id(current))
                    if id(current) not in visited:
                        visited.add(id(current))
                        topo.append(current)

        build(self)
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _binary(self, other: ArrayLike, forward, back_self, back_other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        requires = _GRAD_ENABLED and (self.requires_grad or other_t.requires_grad)
        out = Tensor(
            forward(self.data, other_t.data),
            requires_grad=requires,
            _parents=(self, other_t) if requires else (),
        )

        if requires:

            def _backward(g: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(back_self(g, self.data, other_t.data), self.shape))
                if other_t.requires_grad:
                    other_t._accumulate(
                        _unbroadcast(back_other(g, self.data, other_t.data), other_t.shape)
                    )

            out._backward = _backward
        return out

    def __add__(self, other: ArrayLike) -> "Tensor":
        return self._binary(other, np.add, lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self._binary(other, np.subtract, lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return self._binary(other, np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return self._binary(
            other,
            np.divide,
            lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b),
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        requires = _GRAD_ENABLED and self.requires_grad
        out = Tensor(self.data ** exponent, requires_grad=requires, _parents=(self,) if requires else ())

        if requires:

            def _backward(g: np.ndarray) -> None:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Matrix ops
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        requires = _GRAD_ENABLED and (self.requires_grad or other_t.requires_grad)
        out = Tensor(
            self.data @ other_t.data,
            requires_grad=requires,
            _parents=(self, other_t) if requires else (),
        )
        if not requires:
            return out

        def _backward(g: np.ndarray) -> None:
            a, b = self.data, other_t.data
            if self.requires_grad:
                if b.ndim == 1:
                    grad_a = np.outer(g, b) if a.ndim == 2 else g[..., None] * b
                    if a.ndim > 2:
                        grad_a = g[..., None] * b
                else:
                    grad_a = g @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(grad_a.reshape(a.shape) if grad_a.shape != a.shape and grad_a.size == a.size else grad_a, a.shape))
            if other_t.requires_grad:
                if a.ndim == 1:
                    grad_b = np.outer(a, g)
                elif b.ndim == 1:
                    grad_b = (np.swapaxes(a, -1, -2) @ g[..., None])[..., 0]
                    grad_b = _unbroadcast(grad_b, b.shape)
                else:
                    grad_b = np.swapaxes(a, -1, -2) @ g
                other_t._accumulate(_unbroadcast(grad_b, b.shape))

        out._backward = _backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # Unary nonlinearities
    # ------------------------------------------------------------------
    def _unary(self, value: np.ndarray, local_grad: Callable[[], np.ndarray]) -> "Tensor":
        requires = _GRAD_ENABLED and self.requires_grad
        out = Tensor(value, requires_grad=requires, _parents=(self,) if requires else ())

        if requires:

            def _backward(g: np.ndarray) -> None:
                self._accumulate(g * local_grad())

            out._backward = _backward
        return out

    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        return self._unary(value, lambda: value)

    def log(self) -> "Tensor":
        return self._unary(np.log(self.data), lambda: 1.0 / self.data)

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        return self._unary(value, lambda: 1.0 - value * value)

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(self.data, -60.0), 60.0)))
        return self._unary(value, lambda: value * (1.0 - value))

    def relu(self) -> "Tensor":
        value = np.maximum(self.data, 0.0)
        return self._unary(value, lambda: (self.data > 0).astype(np.float64))

    def sqrt(self) -> "Tensor":
        value = np.sqrt(self.data)
        return self._unary(value, lambda: 0.5 / value)

    def abs(self) -> "Tensor":
        return self._unary(np.abs(self.data), lambda: np.sign(self.data))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        value = self.data.sum(axis=axis, keepdims=keepdims)
        requires = _GRAD_ENABLED and self.requires_grad
        out = Tensor(value, requires_grad=requires, _parents=(self,) if requires else ())

        def _backward(g: np.ndarray) -> None:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        if out.requires_grad:
            out._backward = _backward
        return out

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        requires = _GRAD_ENABLED and self.requires_grad
        out = Tensor(self.data.reshape(shape), requires_grad=requires, _parents=(self,) if requires else ())

        def _backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(self.shape))

        if out.requires_grad:
            out._backward = _backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        axes_t: Optional[Tuple[int, ...]] = tuple(axes) if axes else None
        requires = _GRAD_ENABLED and self.requires_grad
        out = Tensor(self.data.transpose(axes_t), requires_grad=requires, _parents=(self,) if requires else ())

        def _backward(g: np.ndarray) -> None:
            if axes_t is None:
                self._accumulate(g.transpose())
            else:
                inverse = np.argsort(axes_t)
                self._accumulate(g.transpose(tuple(inverse)))

        if out.requires_grad:
            out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        requires = _GRAD_ENABLED and self.requires_grad
        out = Tensor(self.data[index], requires_grad=requires, _parents=(self,) if requires else ())

        def _backward(g: np.ndarray) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, g)
            self._accumulate(grad)

        if out.requires_grad:
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)


# ----------------------------------------------------------------------
# Free functions operating on tensors
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(tensors) if requires else ())

    def _backward(g: np.ndarray) -> None:
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis if axis >= 0 else g.ndim + axis] = slice(start, stop)
                t._accumulate(g[tuple(index)])

    if out.requires_grad:
        out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(tensors) if requires else ())

    def _backward(g: np.ndarray) -> None:
        pieces = np.split(g, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(np.squeeze(piece, axis=axis))

    if out.requires_grad:
        out._backward = _backward
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable element selection; ``condition`` is a plain array."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)
    requires = _GRAD_ENABLED and (a.requires_grad or b.requires_grad)
    out = Tensor(
        np.where(cond, a.data, b.data),
        requires_grad=requires,
        _parents=(a, b) if requires else (),
    )

    def _backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * cond, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * (~cond), b.shape))

    if out.requires_grad:
        out._backward = _backward
    return out


# ----------------------------------------------------------------------
# Fused sequence kernels
#
# The fused primitives (affine, lstm_seq, gru_seq, lstm_decoder_seq)
# live in :mod:`repro.nn.kernels`: autograd bookkeeping there, array
# math in the compute backend (:mod:`repro.backends`).  They are
# re-exported lazily below so
# ``from repro.nn.tensor import lstm_seq`` keeps working without an
# import cycle (kernels imports this module at load time).
# ----------------------------------------------------------------------
_KERNEL_EXPORTS = (
    "affine",
    "gru_seq",
    "lstm_decoder_seq",
    "lstm_seq",
)


def __getattr__(name: str):
    if name in _KERNEL_EXPORTS:
        from . import kernels

        return getattr(kernels, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")



def numerical_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function (for testing)."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        upper = fn(x)
        flat[i] = old - eps
        lower = fn(x)
        flat[i] = old
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad

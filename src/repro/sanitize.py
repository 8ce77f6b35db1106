"""repro.sanitize — runtime numeric sanitizer for backend primitives.

The static rules in :mod:`repro.lintkit` keep the *code* honest; this
module keeps the *numbers* honest.  When the ``sanitize`` switch
is armed (``REPRO_SANITIZE=1`` / ``repro5g --sanitize`` /
``runtime.configure(sanitize="1")``), :mod:`repro.backends` swaps
the active backend for a :func:`wrap_backend` twin, which replaces every
dispatchable primitive (see :data:`repro.backends.PRIMITIVES`) with a
guarded twin:

* **NaN/Inf/overflow guard** — every ndarray a primitive returns is
  checked with ``np.isfinite``; a single non-finite element aborts the
  run with the offending primitive named, instead of letting poisoned
  state propagate silently through thousands of steps.
* **Autograd-graph integrity** — every backward primitive receives the
  forward's saved inputs as explicit arguments (that is the kernel
  layer's calling convention), so each gradient it returns is checked
  for shape *and* dtype against the forward input it differentiates.
  A grad that silently broadcast to the wrong shape, or came back in
  a different dtype than its input, trips the guard at the primitive
  that produced it.
* **Grad-seed guard** — the incoming gradient arguments of a backward
  (``g`` / ``g_out`` / ``dh_T`` / ``dc_T``) are checked too, so a NaN
  born in the loss is caught at the first backward it enters.

Every wrapped call increments the ``sanitize.checks`` obs counter;
violations count ``sanitize.violation.nonfinite`` or
``sanitize.violation.backward_mismatch`` and raise
:class:`SanitizerError`, whose message names the primitive and the
backend.  A run that raises writes no record, so the error is what
says what tripped.  CI runs the fast workload with ``--sanitize`` and
asserts that its record counts checks and no violation.

The wrapper is applied once per switch change at the backend
seam — hot paths pay zero overhead while the switch is off, and the
wrapped backend keeps the inner backend's ``name``, so an error names
the real compute backend, not the wrapper.
"""

from __future__ import annotations

import functools
from typing import Dict, Mapping, Tuple

import numpy as np

from . import obs

__all__ = ["SanitizerError", "wrap_backend"]


class SanitizerError(RuntimeError):
    """A numeric invariant was violated inside a backend primitive.

    ``primitive`` names the offending primitive (e.g.
    ``"lstm_seq_backward"``), ``backend`` the compute backend
    it ran on — both also appear in ``args[0]`` so a bare traceback is
    self-explanatory.
    """

    def __init__(self, message: str, primitive: str, backend: str) -> None:
        super().__init__(message)
        self.primitive = primitive
        self.backend = backend


#: positional argument names per backward primitive, mirroring the
#: reference signatures in :mod:`repro.backends.numpy_backend`.  The
#: kernel layer passes the forward's saved inputs positionally, so
#: binding by these names recovers ``grad key -> forward input`` pairs
#: without any cross-call state.
_BACKWARD_ARGS: Dict[str, Tuple[str, ...]] = {
    "affine_backward": ("g", "x", "weight", "h", "weight_h", "needs"),
    "lstm_seq_backward": ("g_out", "dh_T", "dc_T", "saved", "x", "h0", "weight_ih", "weight_hh", "needs"),
    "gru_seq_backward": (
        "g_out",
        "saved",
        "x",
        "weight_ih",
        "weight_hh",
        "weight_in",
        "weight_hn",
        "needs",
    ),
    "lstm_decoder_backward": (
        "g_out",
        "saved",
        "y0",
        "h0",
        "weight_ih",
        "weight_hh",
        "weight_out",
        "needs",
    ),
}

#: argument names that carry *incoming* gradients into a backward —
#: checked for finiteness so loss-born NaNs are caught at entry.
_GRAD_SEED_ARGS = frozenset({"g", "g_out", "dh_T", "dc_T"})

#: bound-argument names that are bookkeeping, never gradient targets.
_NON_TENSOR_ARGS = frozenset({"saved", "needs"})


def _all_finite(value: np.ndarray) -> bool:
    if not np.issubdtype(value.dtype, np.floating):
        return True
    return bool(np.isfinite(value).all())


def _violation(kind: str, message: str, primitive: str, backend: str) -> SanitizerError:
    # counted before raising, so a caller that catches the error still
    # sees the violation in the registry
    if obs.metrics_enabled():
        obs.counter(f"sanitize.violation.{kind}")
    return SanitizerError(f"sanitize[{backend}.{primitive}]: {message}", primitive, backend)


def _check_output_finite(result: object, primitive: str, backend: str, label: str) -> None:
    """Finite-check every ndarray in ``result`` (tuples recursed, so a
    stack's per-layer results are checked; dicts skipped — ``saved`` is
    the backend's opaque scratch for its backward)."""
    if isinstance(result, np.ndarray):
        if not _all_finite(result):
            raise _violation(
                "nonfinite",
                f"non-finite values in {label}",
                primitive,
                backend,
            )
    elif isinstance(result, tuple):
        for index, element in enumerate(result):
            _check_output_finite(element, primitive, backend, f"{label}[{index}]")


def _check_grads(
    grads: Mapping[str, np.ndarray],
    bound: Mapping[str, object],
    primitive: str,
    backend: str,
) -> None:
    """Each returned gradient must be finite and, when the matching
    forward input was passed to the backward, match its shape/dtype."""
    for key, grad in grads.items():
        if not isinstance(grad, np.ndarray):
            continue
        if not _all_finite(grad):
            raise _violation(
                "nonfinite",
                f"non-finite values in grad {key!r}",
                primitive,
                backend,
            )
        forward_input = bound.get(key)
        if key in _NON_TENSOR_ARGS or not isinstance(forward_input, np.ndarray):
            continue
        if grad.shape != forward_input.shape or grad.dtype != forward_input.dtype:
            raise _violation(
                "backward_mismatch",
                f"grad {key!r} is {grad.shape}/{grad.dtype} but the forward input "
                f"was {forward_input.shape}/{forward_input.dtype}",
                primitive,
                backend,
            )


def _bind(spec: Tuple[str, ...], args: Tuple, kwargs: Mapping[str, object]) -> Dict[str, object]:
    bound: Dict[str, object] = dict(zip(spec, args))
    bound.update(kwargs)
    return bound


def _wrap_forward(primitive: str, fn, backend: str):
    @functools.wraps(fn)
    def guarded(*args: object, **kwargs: object) -> object:
        result = fn(*args, **kwargs)
        if obs.metrics_enabled():
            obs.counter("sanitize.checks")
        _check_output_finite(result, primitive, backend, "output")
        return result

    return guarded


def _wrap_backward(primitive: str, fn, backend: str):
    spec = _BACKWARD_ARGS[primitive]

    @functools.wraps(fn)
    def guarded(*args: object, **kwargs: object) -> object:
        if obs.metrics_enabled():
            obs.counter("sanitize.checks")
        bound = _bind(spec, args, kwargs)
        for name in _GRAD_SEED_ARGS:
            seed = bound.get(name)
            if isinstance(seed, np.ndarray) and not _all_finite(seed):
                raise _violation(
                    "nonfinite",
                    f"non-finite values in incoming grad {name!r}",
                    primitive,
                    backend,
                )
        result = fn(*args, **kwargs)
        if isinstance(result, Mapping):
            _check_grads(result, bound, primitive, backend)
        else:
            _check_output_finite(result, primitive, backend, "output")
        return result

    return guarded


class SanitizedBackend:
    """A backend twin whose primitives are wrapped with numeric guards.

    Duck-types :class:`repro.backends.Backend`: one attribute per
    primitive plus ``name`` (kept equal to the inner backend's so
    errors name the real compute backend).  ``inner`` exposes the
    unwrapped backend for tests and debugging.
    """

    def __init__(self, inner, primitives: Tuple[str, ...]) -> None:
        self.inner = inner
        self.name = inner.name
        for primitive in primitives:
            fn = getattr(inner, primitive)
            if primitive in _BACKWARD_ARGS:
                wrapped = _wrap_backward(primitive, fn, inner.name)
            else:
                wrapped = _wrap_forward(primitive, fn, inner.name)
            setattr(self, primitive, wrapped)

    def __repr__(self) -> str:
        return f"SanitizedBackend({self.name!r})"


def wrap_backend(backend, primitives: Tuple[str, ...]) -> SanitizedBackend:
    """Wrap ``backend`` so every primitive in ``primitives`` is guarded.

    ``primitives`` is passed in (rather than imported) because
    :mod:`repro.backends` calls this while that package is still
    initializing, when the sanitizer is armed at import.
    """
    return SanitizedBackend(backend, primitives)

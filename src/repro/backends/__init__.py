"""The compute backend behind the fused hot-path primitives.

Every fused primitive in the repo — the LSTM/GRU sequence kernels, the
affine projection, the Seq2Seq decoder rollout
(:mod:`repro.nn.kernels`) and the simulator's radio step
(:mod:`repro.ran.simulator`, :mod:`repro.ran.multi_ue`) — dispatches
through the object :func:`active` returns.  It carries one attribute
per name in :data:`PRIMITIVES`, each a pure ``ndarray -> ndarray``
function from :mod:`repro.backends.numpy_backend`; the kernel layer
keeps all autograd bookkeeping, so primitives never see a ``Tensor``.

Hot paths look the object up once per kernel call, which makes it the
one seam where a primitive can be wrapped.  The numeric sanitizer
hooks in here: when the ``sanitize`` switch is armed
(``REPRO_SANITIZE=1`` / ``repro5g --sanitize``), :func:`active` hands
out a :func:`repro.sanitize.wrap_backend` twin whose every primitive
call is guarded with NaN/Inf and backward shape/dtype checks.  The
package arms itself from :func:`repro.runtime.flags` at import, and
:func:`repro.runtime.configure` swaps the object on every change, so
the unarmed path pays nothing: :func:`active` returns one module global.
"""

from __future__ import annotations

from typing import cast

from .. import runtime
from . import numpy_backend

__all__ = [
    "Backend",
    "PRIMITIVES",
    "active",
    "active_name",
    "numpy_backend",
    "sanitize_active",
]

#: the dispatchable primitive set.
PRIMITIVES = (
    "affine_forward",
    "affine_backward",
    "lstm_seq_forward",
    "lstm_seq_backward",
    "gru_seq_forward",
    "gru_seq_backward",
    "lstm_decoder_forward",
    "lstm_decoder_backward",
    "radio_step",
    "radio_step_multi",
)


class Backend:
    """One attribute per primitive, taken from ``module``."""

    __slots__ = ("name",) + PRIMITIVES

    def __init__(self, name: str, module) -> None:
        self.name = name
        for fname in PRIMITIVES:
            setattr(self, fname, getattr(module, fname))

    def __repr__(self) -> str:
        return f"Backend({self.name!r})"


_NUMPY = Backend("numpy", numpy_backend)
_ACTIVE = _NUMPY


def _arm_sanitizer(armed: bool) -> None:
    """Hand out the sanitizer-wrapped twin, or the plain object itself
    (:func:`repro.runtime.configure` calls this on every change)."""
    global _ACTIVE
    if armed:
        # lazy: repro.sanitize pulls in repro.obs, and the arming below
        # runs while this package is still initializing
        from .. import sanitize

        # the wrapped twin duck-types Backend: same name, one guarded
        # callable per primitive
        _ACTIVE = cast(Backend, sanitize.wrap_backend(_NUMPY, PRIMITIVES))
    else:
        _ACTIVE = _NUMPY


_arm_sanitizer(runtime.flags()["sanitize"] == "1")


def active() -> Backend:
    """The backend object hot paths dispatch through."""
    return _ACTIVE


def active_name() -> str:
    """The compute backend's name (the sanitizer wrap keeps it)."""
    return _ACTIVE.name


def sanitize_active() -> bool:
    """Whether the active backend is wrapped by the numeric sanitizer.

    Follows the ``sanitize`` switch (see :mod:`repro.sanitize`); the
    ``name`` stays the inner backend's, so this is the authoritative way
    to ask whether guards are armed.
    """
    return _ACTIVE is not _NUMPY

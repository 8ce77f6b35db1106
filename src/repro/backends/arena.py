"""Workspace arena: step-scoped reuse of kernel scratch buffers.

A training step allocates the same gate/activation/grad scratch arrays
every batch — for the fused LSTM kernel alone that is a dozen
multi-megabyte ``np.empty`` calls per step, all with identical shapes
step after step.  The arena keeps one pool of buffers per
``(shape, dtype)`` key and hands them out sequentially within a *step
window*; :func:`begin_step` rewinds the pool cursors the last window
advanced, so the next step recycles the same memory.

Lifetime rules (see DESIGN.md §6e):

* A buffer is valid from the :func:`empty`/:func:`zeros` call until the
  next :func:`begin_step`.  Kernels may only pool *internal scratch*
  whose lifetime ends with the step — forward activations consumed by
  the same step's backward qualify; anything that escapes as
  ``Tensor.data`` (layer outputs, final states) must stay freshly
  allocated, because downstream code may hold those arrays across
  steps (``Trainer.predict`` collects them without copying).
* Outside a step window the arena is inactive and every call is a plain
  ``np.empty`` — library code can call into the kernels at any time
  without coordinating with a trainer.
* :class:`~repro.nn.training.Trainer` owns the step windows: it calls
  :func:`begin_step` before each batch and :func:`end_run` when a fit
  or predict pass finishes.

Memory reuse never changes floating-point math — the same expressions
write into recycled storage — so results are bit-identical whether or
not a step window is open.  The arena has no off switch: pooling cuts
the ``table4`` benchmark's peak RSS from ~617 MB to ~357 MB (DESIGN §6e).
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

import numpy as np

ShapeLike = Union[int, Tuple[int, ...]]


class Workspace:
    """One pool of reusable scratch buffers, keyed by ``(shape, dtype)``.

    Within a step window, repeated requests for the same key return
    *distinct* buffers (a per-key cursor advances), so a kernel may ask
    for several same-shaped temporaries.  ``begin_step`` rewinds the
    cursors the last window advanced; buffers are never freed until
    :meth:`clear`.

    A key is normalized once per raw ``(shape, dtype)`` argument pair —
    ``5`` and ``(5,)``, ``np.float64`` and ``np.dtype("float64")`` share
    one pool — and the raw pair then maps straight to its pool, so a
    pooled request costs two dict lookups on top of the buffer hand-out.
    """

    __slots__ = ("_pools", "_by_raw", "_cursors", "active", "steps", "hits", "misses")

    def __init__(self) -> None:
        #: normalized ``(shape, dtype.str)`` key -> its buffers
        self._pools: Dict[Tuple, List[np.ndarray]] = {}
        #: raw ``(shape, dtype)`` argument pair -> the same buffer list
        self._by_raw: Dict[Tuple, List[np.ndarray]] = {}
        #: ``id(pool)`` -> next buffer index, for the pools this window touched
        self._cursors: Dict[int, int] = {}
        self.active = False
        self.steps = 0
        self.hits = 0
        self.misses = 0

    def begin_step(self) -> None:
        """Open a step window: rewind the cursors the last window advanced."""
        self.active = True
        self.steps += 1
        self._cursors.clear()

    def end_run(self) -> None:
        """Close the current window; subsequent calls allocate fresh."""
        self.active = False

    def clear(self) -> None:
        """Drop every pooled buffer (and deactivate)."""
        self._pools.clear()
        self._by_raw.clear()
        self._cursors.clear()
        self.active = False
        self.hits = 0
        self.misses = 0
        self.steps = 0

    def _pool(self, shape: ShapeLike, dtype) -> List[np.ndarray]:
        """The buffer list of a raw ``(shape, dtype)`` pair, normalized once."""
        dims = (shape,) if isinstance(shape, int) else shape
        key = (tuple(int(s) for s in dims), np.dtype(dtype).str)
        pool = self._by_raw[(shape, dtype)] = self._pools.setdefault(key, [])
        return pool

    def empty(self, shape: ShapeLike, dtype=np.float64) -> np.ndarray:
        """An uninitialized buffer, pooled when a step window is open."""
        if not self.active:
            return np.empty(shape, dtype=dtype)
        pool = self._by_raw.get((shape, dtype))
        if pool is None:
            pool = self._pool(shape, dtype)
        pool_id = id(pool)
        cursor = self._cursors.get(pool_id, 0)
        self._cursors[pool_id] = cursor + 1
        if cursor < len(pool):
            self.hits += 1
            return pool[cursor]
        self.misses += 1
        buf = np.empty(shape, dtype=dtype)
        pool.append(buf)
        return buf

    def zeros(self, shape: ShapeLike, dtype=np.float64) -> np.ndarray:
        """A zero-filled buffer, pooled when a step window is open."""
        buf = self.empty(shape, dtype=dtype)
        buf.fill(0.0)
        return buf

    def stats(self) -> Dict[str, int]:
        """Pool counters (for tests and the perf bench)."""
        return {
            "pools": len(self._pools),
            "buffers": sum(len(p) for p in self._pools.values()),
            "bytes": sum(b.nbytes for p in self._pools.values() for b in p),
            "steps": self.steps,
            "hits": self.hits,
            "misses": self.misses,
        }


#: the process-wide workspace used by the compute backends.
_WORKSPACE = Workspace()


def workspace() -> Workspace:
    """The process-wide :class:`Workspace`."""
    return _WORKSPACE


def begin_step() -> None:
    """Open a step window on the process-wide workspace."""
    _WORKSPACE.begin_step()


def end_run() -> None:
    """Close the process-wide step window."""
    _WORKSPACE.end_run()


def clear() -> None:
    """Drop all pooled buffers from the process-wide workspace."""
    _WORKSPACE.clear()


def empty(shape: ShapeLike, dtype=np.float64) -> np.ndarray:
    """Step-scoped scratch buffer (module-level convenience)."""
    return _WORKSPACE.empty(shape, dtype)


def zeros(shape: ShapeLike, dtype=np.float64) -> np.ndarray:
    """Step-scoped zeroed scratch buffer (module-level convenience)."""
    return _WORKSPACE.zeros(shape, dtype)

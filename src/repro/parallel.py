"""Process-parallel, order-preserving task runner.

The RAN simulator is pure python and CPU-bound, so trace synthesis and
city-campaign shards dominate their runs.  :func:`run_tasks` fans
independent work items out over a ``multiprocessing`` pool while
guaranteeing the serial result: output order matches input order, and
every worker derives its randomness from the per-item seed baked into
the item itself.  Campaign shards get a retry and a timeout on top;
trace synthesis runs with ``retries=0``.

Environment knobs:

``REPRO_PROCS``
    Worker count override.  ``REPRO_PROCS=1`` forces serial execution
    (useful inside test harnesses or already-parallel callers).

If the platform cannot create a pool (sandboxes without semaphore
support, restricted containers), the tasks run in a serial loop.  A
task's own failure never triggers that fallback: the task is retried
or raised, and the other tasks do not run again.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from . import obs

T = TypeVar("T")
R = TypeVar("R")


class _Counted:
    """Picklable pool wrapper returning ``(fn(item), counters)``.

    Used on the pool path whenever metrics are on.  The counters are
    the worker's counts for this item alone: the registry is cleared
    after every call, so a failed attempt's counts are dropped with it.
    The parent sums them with :func:`repro.obs.add_counters`.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, item):
        try:
            return self.fn(item), obs.snapshot()["counters"]
        finally:
            obs.reset()


def _uncount(pair):
    """A :class:`_Counted` result, with its counters added to this process."""
    result, counters = pair
    obs.add_counters(counters)
    return result


def _pool(processes: int):
    """A worker pool, forked where the platform allows, with a fresh obs registry."""
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    return ctx.Pool(processes=processes, initializer=obs.child_after_fork)


def default_processes(n_items: int) -> int:
    """Worker count: ``REPRO_PROCS`` if set, else ``min(cpus, items)``."""
    env = os.environ.get("REPRO_PROCS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return max(1, min(os.cpu_count() or 1, n_items))


def _fail(label: str, attempts: int, exc: BaseException) -> "RuntimeError":
    # log_warning also bumps the ``parallel.shard.failed`` counter
    obs.log_warning(
        "parallel.shard.failed",
        shard=label,
        attempts=attempts,
        error=f"{type(exc).__name__}: {exc}",
    )
    return RuntimeError(
        f"{label} failed after {attempts} attempt(s): {type(exc).__name__}: {exc}"
    )


def _note_retry(label: str, attempt: int, exc: BaseException) -> None:
    # log_warning also bumps the ``parallel.shard.retry`` counter
    obs.log_warning(
        "parallel.shard.retry",
        shard=label,
        attempt=attempt,
        error=f"{type(exc).__name__}: {exc}",
    )


def _run_with_retries(run_fn: Callable, item, label: str, retries: int):
    attempts = 0
    while True:
        try:
            return run_fn(item)
        except Exception as exc:
            attempts += 1
            if attempts > retries:
                raise _fail(label, attempts, exc) from exc
            _note_retry(label, attempts, exc)


def run_tasks(
    fn: Callable[[T], R],
    items: Iterable[T],
    labels: Optional[Sequence[str]] = None,
    processes: Optional[int] = None,
    retries: int = 1,
    timeout_s: Optional[float] = None,
) -> List[R]:
    """Run labelled tasks, order-preserving, with per-task retry and timeout.

    ``fn`` must be a picklable top-level function and each item must be
    picklable.  With ``processes`` <= 1 (or a single item, or a pool
    that cannot start) the tasks run serially in-process — results are
    identical either way.  Each task gets

    * up to ``retries`` re-submissions after a failure, each publishing
      a ``parallel.shard.retry`` obs counter and a structured warning;
    * a per-task wall budget (``timeout_s``) enforced on the pool path —
      an expired task counts as a failure and is retried.  (The serial
      path cannot preempt a running task, so there the budget applies
      only as a failure classifier.)

    A task that exhausts its retries raises :class:`RuntimeError` naming
    the task label, so campaign logs read "shard-0007 failed", not a
    bare traceback.  Retried tasks may double-execute (a timed-out
    original keeps running while its replacement starts), so task
    side effects must be idempotent — the campaign shard writers are
    (atomic rename, content-identical output).
    """
    work: Sequence[T] = list(items)
    names: List[str] = list(labels) if labels is not None else [f"task-{i}" for i in range(len(work))]
    if len(names) != len(work):
        raise ValueError(f"got {len(names)} labels for {len(work)} tasks")
    if not work:
        return []
    if processes is None:
        processes = default_processes(len(work))
    processes = min(processes, len(work))
    pool = None
    if processes > 1 and len(work) > 1:
        try:
            pool = _pool(processes)
        except OSError:
            pass  # no semaphores / fork blocked (sandbox): run serially
    if pool is None:
        return [_run_with_retries(fn, work[i], names[i], retries) for i in range(len(work))]
    counting = obs.metrics_enabled()
    task_fn: Callable = _Counted(fn) if counting else fn
    with pool:
        pending = [pool.apply_async(task_fn, (item,)) for item in work]
        results: List[R] = []
        for i, handle in enumerate(pending):
            attempts = 0
            while True:
                try:
                    value = handle.get(timeout_s)
                    break
                except Exception as exc:
                    attempts += 1
                    if attempts > retries:
                        raise _fail(names[i], attempts, exc) from exc
                    _note_retry(names[i], attempts, exc)
                    handle = pool.apply_async(task_fn, (work[i],))
            results.append(_uncount(value) if counting else value)
        return results

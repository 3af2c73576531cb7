"""A deterministic multiprocessing batch executor.

The fuzz campaigns, corpus benches and the ``repro batch`` verb all share
the same workload shape: a long list of independent, pure tasks whose
*combined* result must be reproducible bit for bit.  This module provides
that as one primitive — map a picklable function over picklable tasks
across ``workers`` forked processes and hand the results back **in task
order**, so the merged output is identical no matter how many workers ran
or how the OS scheduled them.

Design rules:

- **Determinism lives in task order, not scheduling.**  Results are
  returned (``parallel_map``) or yielded (``parallel_imap``) in the order
  tasks were submitted; callers derive any per-task randomness from the
  task itself (see :func:`derive_seed`), never from worker identity.
- **Serial is the reference implementation.**  ``workers <= 1``, a single
  task, platforms without ``fork``, or a pool that fails to start all
  fall back to a plain in-process loop — same results, no surprises in
  CI sandboxes or on Windows/macOS spawn-only configurations.
- **Tasks travel, objects don't.**  Task payloads and results should be
  plain data (ints, strings, dicts); callers rebuild rich objects (
  grammars, failures) on the receiving side.  This keeps the executor
  honest about what crosses the process boundary.

``parallel_imap`` yields results lazily, so drivers with a wall-clock
budget can stop consuming early; the pool is terminated when the
generator is closed, abandoning unconsumed tasks.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Iterable, Iterator, List, Sequence, TypeVar

from . import instrument

Task = TypeVar("Task")
Result = TypeVar("Result")

#: Mixes a base seed and task index into a per-task seed.  The odd prime
#: keeps neighbouring bases from producing overlapping seed sequences.
_SEED_STRIDE = 1_000_003


def derive_seed(base_seed: int, index: int) -> int:
    """The deterministic per-task seed for task *index* of a batch."""
    return (base_seed * _SEED_STRIDE + index) % (2**31)


def fork_available() -> bool:
    """Whether this platform can fork worker processes at all."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms only
        return False


def effective_workers(workers: int, n_tasks: int) -> int:
    """The worker count actually used: clamped to the task count, and 1
    (serial) when parallelism is disabled or unsupported."""
    if workers <= 1 or n_tasks <= 1 or not fork_available():
        return 1
    return min(workers, n_tasks)


def chunked(items: Sequence, size: int) -> List[list]:
    """Split *items* into consecutive chunks of at most *size*."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


def _pool(workers: int):
    """A fork-context pool, or None when one cannot be started."""
    try:
        return multiprocessing.get_context("fork").Pool(workers)
    except OSError:  # pragma: no cover - resource exhaustion only
        return None


def _shutdown(pool) -> None:
    """Tear a pool down completely, even after a mid-task terminate.

    ``Pool.join`` alone is not enough once ``terminate`` has killed
    workers mid-task: the worker ``Process`` handles stay open (their
    pipes and sentinel fds with them) until they are individually
    joined and closed, and an unreaped child lingers in
    ``active_children()`` where the resource tracker will flag its
    semaphores at interpreter exit.  Deadline-cancelled sweeps hit this
    path on every run, so the teardown is explicit: terminate, join the
    pool machinery, then join/close every worker process."""
    pool.terminate()
    pool.join()
    for proc in getattr(pool, "_pool", []):
        try:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker only
                proc.kill()
                proc.join(timeout=5.0)
            proc.close()
        except (ValueError, OSError):  # pragma: no cover - already closed
            pass
    # Reap any straggling zombies so active_children() is empty again.
    multiprocessing.active_children()


def parallel_map(
    fn: "Callable[[Task], Result]",
    tasks: "Iterable[Task]",
    workers: int = 1,
    chunksize: int = 1,
) -> "List[Result]":
    """``[fn(t) for t in tasks]``, fanned across *workers* processes.

    Results come back in task order.  An exception raised by *fn* in a
    worker propagates to the caller, mirroring the serial loop.
    """
    task_list = list(tasks)
    n = effective_workers(workers, len(task_list))
    if instrument.enabled():
        instrument.count("parallel.tasks", len(task_list))
        instrument.count("parallel.worker_batches")
    if n <= 1:
        return [fn(task) for task in task_list]
    pool = _pool(n)
    if pool is None:  # pragma: no cover - resource exhaustion only
        return [fn(task) for task in task_list]
    try:
        return pool.map(fn, task_list, chunksize)
    finally:
        _shutdown(pool)


def parallel_imap(
    fn: "Callable[[Task], Result]",
    tasks: "Iterable[Task]",
    workers: int = 1,
    budget=None,
) -> "Iterator[Result]":
    """Lazily yield ``fn(t)`` per task, in task order.

    Closing the generator early (``break`` in the consuming loop) tears
    the pool down and abandons unstarted tasks — the hook wall-clock-
    budgeted drivers use to stop a sweep mid-flight.

    A *budget* (:class:`repro.core.budget.Budget`) with a timeout makes
    the executor enforce the deadline itself: the serial path polls
    between tasks, and the pool path waits for each result at most the
    remaining time — when the deadline passes mid-task the pool is
    terminated (cancelling the in-flight workers) and the generator
    stops gracefully, exactly like a caller breaking out of the loop.
    Results already completed in task order are still yielded.
    """
    task_list = list(tasks)
    n = effective_workers(workers, len(task_list))
    if instrument.enabled():
        instrument.count("parallel.tasks", len(task_list))
        instrument.count("parallel.worker_batches")
    if n <= 1:
        for task in task_list:
            if budget is not None and budget.expired():
                return
            yield fn(task)
        return
    pool = _pool(n)
    if pool is None:  # pragma: no cover - resource exhaustion only
        for task in task_list:
            if budget is not None and budget.expired():
                return
            yield fn(task)
        return
    try:
        results = pool.imap(fn, task_list)
        while True:
            if budget is None:
                try:
                    result = results.next()
                except StopIteration:
                    break
            else:
                remaining = budget.remaining()
                if remaining is not None and remaining <= 0:
                    return
                try:
                    # IMapIterator.next honours a timeout, which is what
                    # lets the deadline cancel an in-flight worker task.
                    result = results.next(timeout=remaining)
                except multiprocessing.TimeoutError:
                    return
                except StopIteration:
                    break
            yield result
        pool.close()
    finally:
        _shutdown(pool)

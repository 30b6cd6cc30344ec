"""Execution backends for the embarrassingly-parallel ensemble stage.

EnsemFDet's selling point (paper §IV-C, Table III) is that the ``N`` FDET
runs over sampled subgraphs are independent, so they parallelise perfectly.
The ensemble fans its members out through one engine,
:func:`repro.ensemble.runner.run_members`, on one of two backends:

* ``serial``  — every member in the parent process; reference semantics,
  easiest to debug. The batched native kernel still runs
  ``native_threads()`` wide inside the one call.
* ``process`` — a ``ProcessPoolExecutor`` (fork context where available);
  real multi-core speedup, and a crashed or hung member takes down only
  its worker, which can be killed and replaced.

For repeated fan-outs, :class:`ReusablePool` keeps one process pool alive
across fits so each ensemble fit stops paying process start-up costs.

Worker counts honour the ``REPRO_WORKERS`` environment variable so CI and
benchmarks can pin parallelism deterministically. Worker crashes and
timeouts are classified by the runner, which kills hung workers with
:func:`kill_executor_workers` and calls :meth:`ReusablePool.respawn` so
the next attempt runs on fresh workers.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from typing import Callable, TypeVar

from ..errors import ReproError

__all__ = [
    "ExecutorMode",
    "ReusablePool",
    "default_workers",
    "kill_executor_workers",
]

T = TypeVar("T")
R = TypeVar("R")


class ExecutorMode:
    """Names of the available execution backends."""

    SERIAL = "serial"
    PROCESS = "process"
    ALL = (SERIAL, PROCESS)


def default_workers(n_items: int | None = None) -> int:
    """Worker count: CPU count, capped by the number of items (if known).

    Set ``REPRO_WORKERS`` to pin the count explicitly (CI, benchmarks);
    values below 1 clamp to 1, non-integers raise :class:`ReproError`.
    """
    pinned = os.environ.get("REPRO_WORKERS")
    if pinned is not None and pinned.strip():
        try:
            workers = int(pinned)
        except ValueError:
            raise ReproError(f"REPRO_WORKERS must be an integer, got {pinned!r}") from None
        workers = max(1, workers)
    else:
        workers = os.cpu_count() or 1
    if n_items is not None:
        workers = max(1, min(workers, n_items))
    return workers


def _process_context():
    # prefer fork (cheap, shares the parent's loaded modules); fall back to
    # the platform default where fork is unavailable.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def kill_executor_workers(executor: Executor) -> int:
    """SIGKILL every live worker of a ``ProcessPoolExecutor``.

    The only way to reclaim a *hung* worker — ``shutdown()`` joins it (and
    hangs with it) and futures of running tasks cannot be cancelled.
    Returns the number of processes signalled.
    """
    processes = getattr(executor, "_processes", None)
    if not processes:
        return 0
    killed = 0
    for process in list(processes.values()):
        if process.is_alive():
            try:
                os.kill(process.pid, signal.SIGKILL)
                killed += 1
            except (ProcessLookupError, PermissionError):  # pragma: no cover
                pass
    return killed


class ReusablePool:
    """A process pool that survives across ensemble fits.

    A fit without a pool starts and tears down a one-shot process pool;
    that is correct but wasteful when the ensemble fits many times
    (threshold sweeps, the figure experiments, long-running services). A
    ``ReusablePool`` owns one ``ProcessPoolExecutor`` created lazily on
    first use and keeps it warm until :meth:`close`.

    >>> with ReusablePool(n_workers=2) as pool:
    ...     pool.submit(abs, -1).result()
    1
    """

    def __init__(self, n_workers: int | None = None) -> None:
        self.n_workers = n_workers or default_workers()
        self._executor: Executor | None = None
        #: how many times the executor was respawned after a worker crash
        self.restarts = 0

    def _ensure(self) -> Executor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=_process_context()
            )
        return self._executor

    def submit(self, func: Callable[[T], R], item: T) -> Future:
        """Submit one task to the (lazily created) pool."""
        return self._ensure().submit(func, item)

    def kill_workers(self) -> int:
        """SIGKILL live workers (reclaims hung chunks)."""
        if self._executor is None:
            return 0
        return kill_executor_workers(self._executor)

    def respawn(self) -> None:
        """Discard the current executor; the next use spawns fresh workers."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self.restarts += 1

    def close(self) -> None:
        """Shut the workers down; the pool may not be used afterwards."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "ReusablePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

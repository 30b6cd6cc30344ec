"""Shared helpers of the benchmark: paths, environment, statistics, host record.

Every benchmark process (the entry point ``run.py``, the fit process
``fit_sut.py`` and the server bootstrap ``serve_boot.py``) imports this
module, so the environment the program runs under is set in one place.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: everything the benchmark writes lives under this directory of the checkout
WORK_DIR = ROOT / ".perfbench_build"
NATIVE_CACHE = WORK_DIR / "native"
TMP_DIR = WORK_DIR / "tmp"


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def bench_env() -> dict[str, str]:
    """Environment for every process that runs the program.

    The compiled kernel and temporary files are kept inside the checkout,
    so a run reads and writes nothing outside it.
    """
    NATIVE_CACHE.parent.mkdir(parents=True, exist_ok=True)
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_NATIVE_CACHE_DIR"] = str(NATIVE_CACHE)
    env["TMPDIR"] = str(TMP_DIR)
    return env


def use_bench_env() -> None:
    """Apply :func:`bench_env` to this process before it imports ``repro``."""
    os.environ.update(bench_env())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def vote_fingerprint(user_votes, merchant_votes) -> str:
    """Canonical digest of a vote table (``label -> votes`` maps)."""
    digest = hashlib.sha256()
    for votes in (user_votes, merchant_votes):
        pairs = sorted((int(label), int(count)) for label, count in votes.items() if count)
        digest.update(json.dumps(pairs, separators=(",", ":")).encode())
    return digest.hexdigest()[:32]


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def tail(values, min_beyond: int = 10) -> tuple[float | None, float]:
    """The highest of p99/p95/p90/p75 with ``min_beyond`` samples above it.

    Returns ``(percentile, value)``; ``(None, nan)`` when even p75 has too
    few samples beyond it.
    """
    ordered = sorted(values)
    for pct in (99.0, 95.0, 90.0, 75.0):
        if len(ordered) * (1.0 - pct / 100.0) >= min_beyond:
            rank = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
            return pct, float(ordered[rank])
    return None, float("nan")


def _tree(pid: int) -> list[int]:
    """``pid`` and every live descendant (Linux ``/proc``)."""
    found, pending = [], [pid]
    while pending:
        current = pending.pop()
        found.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{current}/task/{tid}/children") as handle:
                    pending.extend(int(child) for child in handle.read().split())
            except FileNotFoundError:
                continue
    return found


def _pss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


class TreeMemory:
    """Peak memory of a process plus its workers, sampled from outside.

    A thread sums the proportional set size (PSS) of the process and all
    its live descendants every ``interval`` seconds. PSS splits each
    shared page among the processes mapping it, so forked pool workers
    and shared-memory segments are counted once. :meth:`take` returns the
    largest sum since the previous call, so one operation's peak is a
    ``take()`` before it and one after it.
    """

    def __init__(self, pid: int, interval: float = 0.02) -> None:
        self.pid = pid
        self.interval = interval
        self._peak_kib = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, name="bench-memory", daemon=True)

    def _poll(self) -> None:
        while True:
            total = sum(_pss_kib(pid) for pid in _tree(self.pid))
            with self._lock:
                self._peak_kib = max(self._peak_kib, total)
            if self._stop.wait(self.interval):
                return

    def start(self) -> "TreeMemory":
        self._thread.start()
        return self

    def take(self) -> float:
        """The peak in MiB since the previous call (or the start)."""
        with self._lock:
            peak, self._peak_kib = self._peak_kib, 0
        return peak / 1024.0

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the host since boot (``/proc/stat``).

    Steal is time the hypervisor ran something else on the guest's
    virtual CPUs; on a shared host it is the main source of run-to-run
    drift in wall times, so every result reports its share.
    """
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def host_record() -> dict:
    """Host facts that decide how comparable two runs are.

    Must run after ``repro`` is importable; loading the native kernel here
    is what a fit would do first anyway.
    """
    import numpy

    from repro.fdet import _native

    kernels = _native.load_kernels()
    # the kernel cache names each build after a digest of its source and cflags
    builds = sorted(NATIVE_CACHE.glob("peel-*.so"), key=lambda path: path.stat().st_mtime)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "omp_threads": _native.native_threads(1),
        "omp_num_threads_env": os.environ.get("OMP_NUM_THREADS"),
        "native_loaded": kernels is not None,
        "native_openmp": kernels is not None and kernels.has_openmp,
        "native_cflags_digest": builds[-1].stem[len("peel-") :] if kernels and builds else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }

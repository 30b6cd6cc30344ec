"""Process-wide fault-injection runtime.

Production code declares *injection points* by calling :func:`fault_point`
at interesting places (per-member detection, store-file mapping,
snapshot-write stages). With no plan armed the call is a single module
global ``None`` check — cheap enough to leave in every hot path, which is
the whole point: chaos runs exercise the **unmodified** production code.

A plan is armed either explicitly (:func:`arm`, tests) or from the
``REPRO_FAULTS`` environment variable at import time (CLI/chaos runs; a
forked pool worker inherits the parent's armed state, a spawned one
re-reads the environment on import). Firing decisions are fully
deterministic — see :mod:`repro.faults.plan` for the matching rules.

Registered injection points
---------------------------
``member.detect``
    One ensemble member's FDET run, in whatever process executes it.
    Context: ``index`` (global member index), ``attempt`` (retry round).
``native.peel``
    One member's enrolment into the batched native peel kernel (fires in
    the worker, before the batch runs). Context: ``index`` (global member
    index), ``attempt`` (retry round).
``mmap.open``
    Worker-side mapping of the parent's graph store file — the one
    zero-copy transport. A fired fault fails the worker's chunk with kind
    ``"transport"`` and the retry rounds ship the pickled store instead.
    Context: ``path``.
``shard.merge``
    One shard's vote-tally accumulation during a sharded fit's merge. A
    fired fault abandons the shard-wise merge and falls back to the global
    array tally, which produces the same table. Context: ``shard`` (shard
    index).
``state.write``
    Snapshot persistence, at stages ``tmp_written`` (payload durable in
    the temp file), ``backup_done`` (previous snapshot rotated to
    ``.bak``) and ``committed`` (rename done). Context: ``stage``,
    ``path``.
"""

from __future__ import annotations

import os
import signal
import time
from collections import Counter

from ..errors import InjectedFault, ReproError
from .plan import FaultKind, FaultPlan, FaultSpec

__all__ = [
    "ENV_VAR",
    "arm",
    "arm_from_env",
    "disarm",
    "armed_plan",
    "fault_point",
    "fired_log",
]

ENV_VAR = "REPRO_FAULTS"

_PLAN: FaultPlan | None = None
#: per-spec counters of matching hits / actual firings (per process)
_HITS: Counter[int] = Counter()
_FIRED: Counter[int] = Counter()
#: ordered record of every firing in this process (for assertions/logs)
_LOG: list[tuple[str, str, dict]] = []


def arm(plan: FaultPlan | str | None) -> None:
    """Arm a fault plan process-wide (``None`` or an empty plan disarms).

    Resets the deterministic hit/fire counters, so arming the same plan
    twice reproduces the same failures.
    """
    global _PLAN
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _HITS.clear()
    _FIRED.clear()
    _LOG.clear()
    _PLAN = plan if plan else None


def disarm() -> None:
    """Remove any armed plan and clear counters."""
    arm(None)


def armed_plan() -> FaultPlan | None:
    """The currently armed plan, if any."""
    return _PLAN


def arm_from_env() -> None:
    """Arm from ``REPRO_FAULTS`` if set (no-op otherwise)."""
    raw = os.environ.get(ENV_VAR)
    if raw and raw.strip():
        arm(FaultPlan.parse(raw))


def fired_log() -> list[tuple[str, str, dict]]:
    """Every ``(kind, point, context)`` fired in this process, in order."""
    return list(_LOG)


def _fire(spec: FaultSpec, point: str, context: dict) -> None:
    _LOG.append((spec.kind, point, dict(context)))
    if spec.kind == FaultKind.RAISE:
        raise InjectedFault(
            f"injected fault at {point} (context {sorted(context.items())})"
        )
    if spec.kind == FaultKind.CRASH:
        # emulate the real failure mode: the kernel OOM-killer / a segfault
        # gives no chance to clean up, flush, or raise
        os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("unreachable")  # pragma: no cover
    if spec.kind == FaultKind.HANG:
        time.sleep(spec.seconds)
        return
    if spec.kind == FaultKind.CORRUPT:
        path = context.get("path")
        if path is None:
            raise ReproError(
                f"corrupt fault at {point} needs a 'path' in the injection context"
            )
        _flip_byte(str(path), spec.offset)
        return
    raise AssertionError(f"unhandled fault kind {spec.kind}")  # pragma: no cover


def _flip_byte(path: str, offset: int) -> None:
    """Flip one byte of ``path`` in place (negative offsets from the end)."""
    size = os.path.getsize(path)
    if size == 0:  # pragma: no cover - nothing to corrupt
        return
    position = offset % size
    with open(path, "r+b") as handle:
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0xFF]))


def fault_point(point: str, **context: object) -> None:
    """Declare an injection point; fires any armed, matching fault spec.

    Near-zero cost when nothing is armed. Multiple matching specs fire in
    plan order (a ``raise`` naturally stops evaluation by raising).
    """
    if _PLAN is None:
        return
    for spec_id, spec in enumerate(_PLAN.specs):
        if not spec.matches(point, context):
            continue
        _HITS[spec_id] += 1
        if spec.at and _HITS[spec_id] != spec.at:
            continue
        if spec.times >= 0 and _FIRED[spec_id] >= spec.times:
            continue
        _FIRED[spec_id] += 1
        _fire(spec, point, context)


arm_from_env()

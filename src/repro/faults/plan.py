"""Deterministic fault plans: what to break, where, and when.

A fault spec uses the same terse ``name:key=value,key=value`` grammar as
the detector registry (:mod:`repro.detectors.specs`) with the *kind* of
fault as the name::

    raise:point=member.detect,index=3        # member 3 raises once
    crash:point=member.detect,index=1        # SIGKILL the worker running it
    hang:point=member.detect,index=0,seconds=2.5
    raise:point=mmap.open,at=1               # first store-file map fails
    crash:point=state.write,stage=tmp_written   # die mid-snapshot-write
    corrupt:point=state.write,stage=committed,offset=17  # flip a byte

A :class:`FaultPlan` is a ``;``-separated list of such specs, parsed from
the ``REPRO_FAULTS`` environment variable (or built programmatically) and
armed process-wide by :mod:`repro.faults.injection`. Every decision is
deterministic: specs match on the *identity* of the hit (injection-point
name, member index, retry attempt, write stage, per-process hit ordinal),
never on wall-clock or shared mutable state, so the same plan against the
same seed produces the same failures — and the same retry log — run after
run.

Matching rules
--------------
``point``
    Required; the injection-point name, matched exactly.
``index``
    When set, the context's ``index`` (global ensemble-member index) must
    equal it.
``stage``
    When set, the context's ``stage`` (snapshot-write phase) must equal it.
``attempt``
    The retry attempt the fault fires on. Defaults to ``0`` — faults hit
    the first try and *recover on retry*, which is what keeps crash loops
    impossible by default. Set ``attempt=-1`` to fire on every attempt
    (permanent failures, for quorum tests).
``at``
    1-based ordinal among this spec's *matching* hits in this process
    (e.g. ``at=2``: the second time the point is reached). ``0`` (default)
    means any ordinal.
``times``
    Maximum number of firings per process (default ``1``); ``-1`` removes
    the cap.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import ReproError

__all__ = ["FaultSpec", "FaultPlan", "FaultKind"]


class FaultKind:
    """Names of the injectable failure modes."""

    RAISE = "raise"  # raise InjectedFault (transient exception)
    CRASH = "crash"  # SIGKILL the current process (worker death)
    HANG = "hang"  # sleep for `seconds` (stuck worker)
    CORRUPT = "corrupt"  # flip one byte of the context's file path
    ALL = (RAISE, CRASH, HANG, CORRUPT)


_TYPES: dict[str, type] = {
    "point": str,
    "index": int,
    "stage": str,
    "attempt": int,
    "at": int,
    "times": int,
    "seconds": float,
    "offset": int,
}


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: kind + injection-point matchers."""

    kind: str
    point: str
    index: int | None = None
    stage: str | None = None
    attempt: int = 0
    at: int = 0
    times: int = 1
    seconds: float = 5.0
    offset: int = -1

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; expected one of {FaultKind.ALL}"
            )
        if not self.point:
            raise ReproError(f"fault spec {self.kind!r} needs a point=... parameter")
        if self.at < 0:
            raise ReproError(f"fault 'at' must be >= 0, got {self.at}")
        if self.seconds < 0:
            raise ReproError(f"fault 'seconds' must be >= 0, got {self.seconds}")

    def matches(self, point: str, context: dict) -> bool:
        """Would this spec fire at ``point`` with ``context`` (ignoring counters)?"""
        if point != self.point:
            return False
        if self.index is not None and context.get("index") != self.index:
            return False
        if self.stage is not None and context.get("stage") != self.stage:
            return False
        if self.attempt >= 0 and int(context.get("attempt", 0)) != self.attempt:
            return False
        return True

    def serialise(self) -> str:
        """Canonical spec string (non-default parameters only)."""
        parts = [f"point={self.point}"]
        for spec_field in dataclasses.fields(self):
            if spec_field.name in ("kind", "point"):
                continue
            value = getattr(self, spec_field.name)
            if value != spec_field.default:
                parts.append(f"{spec_field.name}={value}")
        return f"{self.kind}:{','.join(parts)}"

    @classmethod
    def parse(cls, spec: str) -> "FaultSpec":
        """Parse one ``kind:key=value,...`` fault spec."""
        if not isinstance(spec, str) or not spec.strip():
            raise ReproError(f"empty fault spec {spec!r}")
        kind, _, rest = spec.partition(":")
        kind = kind.strip().lower()
        kwargs: dict[str, object] = {}
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            key, value = key.strip().lower(), value.strip()
            if not eq or not key or not value:
                raise ReproError(
                    f"malformed parameter {item!r} in fault spec {spec!r} "
                    "(expected key=value)"
                )
            target = _TYPES.get(key)
            if target is None:
                raise ReproError(
                    f"unknown parameter {key!r} in fault spec {spec!r}; "
                    f"valid parameters: {', '.join(_TYPES)}"
                )
            if key in kwargs:
                raise ReproError(f"duplicate parameter {key!r} in fault spec {spec!r}")
            try:
                kwargs[key] = target(value)
            except ValueError as exc:
                raise ReproError(
                    f"fault spec {spec!r}: {key}={value!r} is not a valid "
                    f"{target.__name__}"
                ) from exc
        if "point" not in kwargs:
            raise ReproError(f"fault spec {spec!r} is missing the required 'point='")
        return cls(kind=kind, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultSpec` (``;``-separated)."""

    specs: tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    def serialise(self) -> str:
        """Canonical plan string (round-trips through :meth:`parse`)."""
        return ";".join(spec.serialise() for spec in self.specs)

    @classmethod
    def parse(cls, plan: str) -> "FaultPlan":
        """Parse a ``spec;spec;...`` plan string (blank parts skipped)."""
        specs = tuple(
            FaultSpec.parse(part) for part in plan.split(";") if part.strip()
        )
        return cls(specs=specs)

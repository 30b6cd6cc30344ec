"""Detector spec dataclasses and the shared spec-string grammar.

A detector spec is ``name`` or ``name:key=value,key=value,...`` — the same
terse grammar the sampler registry uses for names, extended with typed
parameters. Each registered detector owns a frozen config dataclass here;
parameters left unset (``None``) inherit from the caller's
:class:`DetectorContext`, so one grid/experiment/CLI invocation can share
its knobs (seed, ensemble size, engine, ...) across every detector it runs
while any individual spec can still override them.

Parsing is type-directed: a field annotated ``int | None`` coerces its raw
string with ``int``, booleans accept ``1/0/true/false/yes/no``, and
serialisation (:meth:`DetectorSpec.params` + :func:`format_param`) emits a
canonical form that round-trips — ``parse(serialise(parse(s)))`` is always
``parse(s)``, and a canonically-written spec string re-serialises to
itself.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import DetectionError
from ..fdet import PeelEngine
from ..parallel import ExecutorMode

__all__ = [
    "DetectorContext",
    "DetectorSpec",
    "EnsembleSpec",
    "IncrementalSpec",
    "FdetSpec",
    "FraudarSpec",
    "SpokenSpec",
    "FBoxSpec",
    "DegreeSpec",
    "split_spec",
    "format_param",
]


@dataclass(frozen=True)
class DetectorContext:
    """Shared knobs a caller provides once for every detector it builds.

    The scenario harness derives one from its grid config, the figure
    experiments from their scale preset, the CLI from its flags. A spec
    field that is left unset falls back to the matching context value, so
    ``"ensemfdet"`` and ``"incremental"`` built from the same context are
    guaranteed to share sampler, seed and FDET knobs (which is what makes
    their bit-parity check meaningful).
    """

    seed: int | None = 0
    n_samples: int = 16
    sample_ratio: float = 0.3
    stripe: int = 64
    max_blocks: int = 10
    n_components: int = 25
    engine: str = PeelEngine.DEFAULT
    executor: str = ExecutorMode.SERIAL


_SCALAR_TYPES = {"int": int, "float": float, "bool": bool, "str": str}

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def _coerce(name: str, key: str, raw: object, target: type) -> object:
    """Coerce one raw parameter (string from a spec, or dict value)."""
    if raw is None:
        return None
    if target is bool:
        if isinstance(raw, bool):
            return raw
        word = str(raw).strip().lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise DetectionError(
            f"detector {name!r}: parameter {key}={raw!r} is not a boolean "
            "(use 1/0, true/false, yes/no)"
        )
    if isinstance(raw, bool):
        # bool is an int subclass; reject it for non-bool fields explicitly
        raise DetectionError(
            f"detector {name!r}: parameter {key!r} expects {target.__name__}, got a bool"
        )
    if target is str:
        # string parameters are enum-like (sampler/engine/executor names);
        # normalising case here keeps every comparison downstream — stable-
        # sampler aliases, duplicate-spec detection, canonical forms —
        # consistent with the case-insensitive spec grammar
        return str(raw).strip().lower()
    try:
        return target(raw)
    except (TypeError, ValueError) as exc:
        raise DetectionError(
            f"detector {name!r}: parameter {key}={raw!r} is not a valid {target.__name__}"
        ) from exc


def format_param(value: object) -> str:
    """Canonical textual form of one parameter value (round-trips).

    Floats use ``repr`` — the shortest string that parses back to the
    exact same value — so canonicalising a spec never drifts the
    configuration (``format(v, "g")`` would truncate to 6 significant
    digits and silently change what runs).
    """
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def split_spec(spec: str) -> tuple[str, dict[str, str]]:
    """Split ``"name:key=val,key=val"`` into ``(name, raw params)``.

    Names and keys are case-insensitive; a bare ``"name"`` (or a trailing
    colon with nothing after it) yields empty params.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise DetectionError(f"empty detector spec {spec!r}")
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if not name:
        raise DetectionError(f"detector spec {spec!r} has no name")
    params: dict[str, str] = {}
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        key, value = key.strip().lower(), value.strip()
        if not eq or not key or not value:
            raise DetectionError(
                f"malformed parameter {item!r} in detector spec {spec!r} "
                "(expected key=value)"
            )
        if key in params:
            raise DetectionError(f"duplicate parameter {key!r} in detector spec {spec!r}")
        params[key] = value
    return name, params


@dataclass(frozen=True)
class DetectorSpec:
    """Base class for per-detector configs parsed from specs and dicts."""

    @classmethod
    def field_types(cls) -> dict[str, type]:
        """Field name -> scalar python type, derived from the annotations.

        Spec fields must be annotated ``int | None``, ``float | None``,
        ``bool | None`` or ``str | None`` (or the bare scalar) — the
        grammar the spec-string parser can coerce.
        """
        types: dict[str, type] = {}
        for spec_field in dataclasses.fields(cls):
            base = str(spec_field.type).split("|")[0].strip()
            scalar = _SCALAR_TYPES.get(base)
            if scalar is None:
                raise DetectionError(
                    f"{cls.__name__}.{spec_field.name} is annotated "
                    f"{spec_field.type!r}; spec fields must be one of "
                    f"{sorted(_SCALAR_TYPES)} (optionally '| None') so spec "
                    "strings can be parsed"
                )
            types[spec_field.name] = scalar
        return types

    @classmethod
    def from_params(cls, name: str, params: dict) -> "DetectorSpec":
        """Build a spec from raw parameters (strings or typed values)."""
        types = cls.field_types()
        kwargs = {}
        for key, raw in params.items():
            key = str(key).strip().lower()
            if key not in types:
                raise DetectionError(
                    f"unknown parameter {key!r} for detector {name!r}; "
                    f"valid parameters: {', '.join(types) or '(none)'}"
                )
            kwargs[key] = _coerce(name, key, raw, types[key])
        return cls(**kwargs)

    def params(self) -> dict[str, object]:
        """Non-default parameters in field order (the canonical subset)."""
        out: dict[str, object] = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if value != spec_field.default:
                out[spec_field.name] = value
        return out


@dataclass(frozen=True)
class EnsembleSpec(DetectorSpec):
    """``ensemfdet`` — the paper's ensemble (cold fit).

    ``sampler`` takes any :func:`repro.sampling.make_sampler` name;
    the default is the stable edge sampler so that ``ensemfdet`` and
    ``incremental`` built from one context are bit-comparable.
    """

    n: int | None = None  # ensemble size N
    ratio: float | None = None  # sample ratio S
    sampler: str | None = None  # sampling registry name (default: ses)
    stripe: int | None = None  # stable-sampler stripe size
    max_blocks: int | None = None  # FDET extraction cap per sample
    engine: str | None = None  # peeling backend
    executor: str | None = None  # serial / process
    seed: int | None = None


@dataclass(frozen=True)
class IncrementalSpec(DetectorSpec):
    """``incremental`` — streaming EnsemFDet (always stable-sampled).

    ``window`` (a batch count) turns the detector into a rolling-window
    one: edges older than the last ``window`` update batches expire, and
    :data:`~repro.scenarios.BatchKind.CLEANUP` batches in a replayed
    stream are honoured as retractions instead of skipped.
    """

    n: int | None = None
    ratio: float | None = None
    stripe: int | None = None
    max_blocks: int | None = None
    engine: str | None = None
    executor: str | None = None
    seed: int | None = None
    window: int | None = None


@dataclass(frozen=True)
class FdetSpec(DetectorSpec):
    """``fdet`` — one bare FDET run on the full graph (no sampling)."""

    max_blocks: int | None = None
    min_block_edges: int | None = None
    engine: str | None = None


@dataclass(frozen=True)
class FraudarSpec(DetectorSpec):
    """``fraudar`` — multi-block Fraudar baseline."""

    n_blocks: int | None = None
    min_block_edges: int | None = None
    engine: str | None = None


@dataclass(frozen=True)
class SpokenSpec(DetectorSpec):
    """``spoken`` — SpokEn spectral baseline."""

    components: int | None = None


@dataclass(frozen=True)
class FBoxSpec(DetectorSpec):
    """``fbox`` — FBox reconstruction-error baseline."""

    components: int | None = None
    min_degree: int | None = None
    buckets: int | None = None


@dataclass(frozen=True)
class DegreeSpec(DetectorSpec):
    """``degree`` — the naive degree-ranking control."""

    weighted: bool | None = None

"""Detector-protocol adapters for the ensemble family.

Both adapters reduce a fitted :class:`~repro.ensemble.VoteTable` to the
uniform :class:`~repro.detectors.base.Detection` shape:

* ``user_scores`` / ``merchant_scores`` are the vote counts,
* ``operating_points`` is the full voting-threshold sweep ``T = 1..N``
  (exactly the curve the paper's figures are drawn from), and
* ``ranked_users`` orders voted users by ``(-votes, label)`` — the same
  ranking the scenario harness always used for precision@k, preserved
  verbatim so the golden grid stays bit-exact.
"""

from __future__ import annotations

import numpy as np

from ..ensemble import (
    EnsemFDet,
    EnsemFDetConfig,
    IncrementalEnsemFDet,
    VoteTable,
)
from ..errors import DetectionError
from ..fdet import FdetConfig
from ..graph import BipartiteGraph, WindowConfig
from ..parallel import Timer
from ..sampling import StableEdgeSampler, make_sampler
from .base import Detection
from .specs import DetectorContext, EnsembleSpec, IncrementalSpec

__all__ = ["EnsembleDetector", "IncrementalDetector", "detection_from_votes"]

#: stable-edge sampler aliases that honour the spec's ``stripe`` parameter
_STABLE_SAMPLERS = ("ses", "stable_edge")

#: mirrors :data:`repro.scenarios.BatchKind.CLEANUP` — spelled out here so
#: the detector layer never imports the scenario package (which imports us)
_CLEANUP = "cleanup"


def _voted_users(table: VoteTable) -> tuple[np.ndarray, np.ndarray]:
    """``(labels, votes)`` of every voted user, ascending by label."""
    voted = np.flatnonzero(table.users.votes)
    labels, votes = table.users.labels[voted].astype(np.int64), table.users.votes[voted]
    order = np.argsort(labels)
    return labels[order], votes[order]


def _ranked_by_votes(table: VoteTable) -> np.ndarray:
    """Voted user labels from most to least voted (ties broken by label)."""
    labels, votes = _voted_users(table)
    return labels[np.lexsort((labels, -votes.astype(np.int64)))]


def _threshold_sweep(
    table: VoteTable, n_samples: int
) -> tuple[tuple[float, np.ndarray], ...]:
    """Detected user labels at every voting threshold ``T = 1..N``.

    One numpy pass over the vote table instead of ``N``
    :func:`majority_vote` calls (which would also tally merchants just to
    discard them); each array is bit-identical to
    ``majority_vote(table, t).user_labels`` — sorted labels whose vote
    count reaches ``t``.
    """
    labels, counts = _voted_users(table)
    return tuple(
        (float(threshold), labels[counts >= threshold])
        for threshold in range(1, n_samples + 1)
    )


def degraded_meta(result) -> dict:
    """Degraded-mode annotations for ``Detection.meta`` (empty when clean).

    Populated from an :class:`~repro.ensemble.EnsemFDetResult` whose fit
    lost members: who failed (kind, error, attempts), the surviving
    quorum, how a caller-facing threshold is rescaled, and the retry
    history. Absent keys mean the fit was fault-free.
    """
    meta: dict = {}
    if getattr(result, "failed_members", ()):
        meta["failed_members"] = [f.as_dict() for f in result.failed_members]
        meta["effective_quorum"] = result.effective_quorum
        meta["threshold_scale"] = result.vote_table.n_samples / result.config.n_samples
    retry_log = getattr(result, "retry_log", ())
    if len(retry_log) > 1:
        meta["n_retries"] = len(retry_log) - 1
        meta["retry_log"] = [dict(entry) for entry in retry_log]
    return meta


def detection_from_votes(
    spec: str,
    graph: BipartiteGraph,
    table: VoteTable,
    n_samples: int,
    seconds: float,
    meta: dict,
) -> Detection:
    """Uniform :class:`Detection` view of a fitted vote table."""
    points = _threshold_sweep(table, n_samples)
    return Detection(
        spec=spec,
        user_labels=graph.user_labels,
        user_scores=table.users.scores(graph.user_labels),
        merchant_labels=graph.merchant_labels,
        merchant_scores=table.merchants.scores(graph.merchant_labels),
        operating_points=points,
        ranked_users=_ranked_by_votes(table),
        seconds=seconds,
        meta={"n_samples": n_samples, **meta},
    )


def _ensemble_config(
    spec: EnsembleSpec | IncrementalSpec, context: DetectorContext, sampler_name: str
) -> EnsemFDetConfig:
    """Resolve a spec against the context into a full ensemble config."""
    ratio = spec.ratio if spec.ratio is not None else context.sample_ratio
    spec_stripe = getattr(spec, "stripe", None)
    if sampler_name in _STABLE_SAMPLERS:
        sampler = StableEdgeSampler(
            ratio, stripe=spec_stripe if spec_stripe is not None else context.stripe
        )
    else:
        if spec_stripe is not None:
            # never silently drop an explicit parameter: the canonical
            # spec would advertise a knob that had no effect
            raise DetectionError(
                f"'stripe' only applies to the stable edge sampler, "
                f"not sampler={sampler_name!r}"
            )
        sampler = make_sampler(sampler_name, ratio)
    return EnsemFDetConfig(
        sampler=sampler,
        n_samples=spec.n if spec.n is not None else context.n_samples,
        fdet=FdetConfig(
            max_blocks=spec.max_blocks if spec.max_blocks is not None else context.max_blocks,
            engine=spec.engine if spec.engine is not None else context.engine,
        ),
        executor=spec.executor if spec.executor is not None else context.executor,
        seed=spec.seed if spec.seed is not None else context.seed,
    )


def _describe_sampler(config: EnsemFDetConfig) -> str:
    """Human-readable resolved sampler, e.g. ``StableEdgeSampler(ratio=0.3, stripe=64)``."""
    sampler = config.sampler
    stripe = getattr(sampler, "stripe", None)
    extra = f", stripe={stripe}" if stripe is not None else ""
    return f"{type(sampler).__name__}(ratio={sampler.ratio:g}{extra})"


def _parity_fingerprint(config: EnsemFDetConfig) -> tuple:
    """The resolved knobs that determine the vote table bit-for-bit.

    Two ensemble detectors are bit-comparable iff these agree (the
    executor deliberately excluded: serial and process produce
    identical tables by design). The harness's parity cross-check only
    groups detectors whose fingerprints match, so a spec that overrides
    e.g. the sampler or ``n`` is legitimately allowed to diverge.
    """
    sampler = config.sampler
    return (
        type(sampler).__name__,
        sampler.ratio,
        getattr(sampler, "stripe", None),
        config.n_samples,
        config.fdet.max_blocks,
        config.fdet.engine,
        config.seed,
    )


class EnsembleDetector:
    """``ensemfdet`` — cold :meth:`EnsemFDet.fit` on the full graph."""

    def __init__(self, spec: str, config: EnsembleSpec, context: DetectorContext) -> None:
        self.spec = spec
        self.config = _ensemble_config(config, context, config.sampler or "ses")

    def parity_fingerprint(self) -> tuple:
        """See :func:`_parity_fingerprint`."""
        return _parity_fingerprint(self.config)

    def fit(self, graph: BipartiteGraph) -> Detection:
        # the Timer wraps only the core fit — building the uniform
        # Detection view (threshold sweep, score arrays) happens outside,
        # so ``Detection.seconds`` stays comparable to the raw algorithm
        with Timer() as timer:
            result = EnsemFDet(self.config).fit(graph)
        return detection_from_votes(
            self.spec,
            graph,
            result.vote_table,
            self.config.n_samples,
            seconds=timer.elapsed,
            meta={
                "sampler": _describe_sampler(self.config),
                "sampling_seconds": result.sampling_seconds,
                "detection_seconds": result.detection_seconds,
                **degraded_meta(result),
            },
        )


class IncrementalDetector:
    """``incremental`` — streaming EnsemFDet with warm vote state.

    :meth:`fit` is a cold fit (bit-identical to ``ensemfdet`` under the
    same stable sampler and seed); :meth:`fit_stream` replays an edge
    stream — fit on the background batch, one ``update()`` per attack
    batch — exercising the incremental layer end to end.

    With ``window=W`` the detector rolls a ``W``-batch window: streamed
    batches get ordinal timestamps, old edges expire, and
    :data:`~repro.scenarios.BatchKind.CLEANUP` batches are applied as
    retractions. Windowed specs extend their parity fingerprint, so the
    harness never bit-compares them against append-only detectors —
    forgetting edges is *supposed* to change the verdict.
    """

    def __init__(self, spec: str, config: IncrementalSpec, context: DetectorContext) -> None:
        self.spec = spec
        self.config = _ensemble_config(config, context, "ses")
        self.window = None
        if config.window is not None:
            if config.window < 1:
                raise DetectionError(
                    f"detector {spec!r}: window must be >= 1, got {config.window}"
                )
            self.window = WindowConfig(max_batches=config.window)

    def parity_fingerprint(self) -> tuple:
        """See :func:`_parity_fingerprint`; windowed specs are their own group."""
        fingerprint = _parity_fingerprint(self.config)
        if self.window is not None:
            fingerprint += ("window", self.window.max_batches)
        return fingerprint

    def _detection(
        self, detector: IncrementalEnsemFDet, seconds: float, meta: dict
    ) -> Detection:
        return detection_from_votes(
            self.spec,
            detector.graph,
            detector.vote_table,
            self.config.n_samples,
            seconds=seconds,
            meta={"sampler": _describe_sampler(self.config), **meta},
        )

    def fit(self, graph: BipartiteGraph) -> Detection:
        with Timer() as timer:
            detector = IncrementalEnsemFDet(self.config, window=self.window)
            detector.fit(graph)
        return self._detection(
            detector, timer.elapsed, {"n_updates": 0, "n_refreshed": 0}
        )

    def fit_stream(self, background: BipartiteGraph, batches, kinds=None) -> Detection:
        """Replay a batch stream: fit on the background, update per batch.

        ``kinds`` (parallel to ``batches``, :class:`BatchKind` strings)
        routes :data:`BatchKind.CLEANUP` batches: a windowed detector
        applies them as retractions; an append-only one skips them — it
        has no way to un-ingest an edge, which is exactly the asymmetry
        the temporal scenarios measure.
        """
        batches = list(batches)
        if kinds is not None and len(kinds) != len(batches):
            raise DetectionError(
                f"kinds length {len(kinds)} does not match {len(batches)} batches"
            )
        with Timer() as timer:
            detector = IncrementalEnsemFDet(self.config, window=self.window)
            if self.window is not None:
                detector.fit(background, timestamp=0.0)
            else:
                detector.fit(background)
            refreshed = 0
            skipped = 0
            failed: list[dict] = []
            stale: tuple[int, ...] = ()
            for index, batch in enumerate(batches):
                cleanup = kinds is not None and kinds[index] == _CLEANUP
                if self.window is None:
                    if cleanup:
                        skipped += 1
                        continue
                    report = detector.update(batch.users, batch.merchants, batch.weights)
                elif cleanup:
                    report = detector.update(
                        remove_users=batch.users,
                        remove_merchants=batch.merchants,
                        timestamp=float(index + 1),
                    )
                else:
                    report = detector.update(
                        batch.users,
                        batch.merchants,
                        batch.weights,
                        timestamp=float(index + 1),
                    )
                refreshed += report.n_refreshed
                failed.extend(f.as_dict() for f in report.failed_members)
                stale = report.stale_members
        meta: dict = {"n_updates": len(batches) - skipped, "n_refreshed": refreshed}
        if skipped:
            meta["skipped_cleanup_batches"] = skipped
        if failed:
            meta["failed_members"] = failed
            meta["stale_members"] = list(stale)
        return self._detection(detector, timer.elapsed, meta)

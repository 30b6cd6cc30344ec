"""Parallel execution of FDET across sampled subgraphs (paper Fig. 2).

One fan-out engine, :func:`run_members`, runs every ensemble member from
its compact :class:`~repro.sampling.SamplePlan` (edge lists, node picks,
stripe rows) on one of two backends:

* ``serial`` — the members run in the parent against the in-process
  graph, through one batched kernel call.
* ``process`` — the parent keeps the graph in one frozen
  :class:`~repro.graph.GraphStore`, which travels as one mmap-able store
  file: the file a parent was opened from (:meth:`GraphStore.open`), or a
  compacted spill of a resident parent (:meth:`GraphStore.export_shared`,
  once per attempt). Workers map the file **once per process** (a
  process-local cache, so :class:`~repro.parallel.ReusablePool` workers
  reuse it across fits) and run their chunk of plans through one batched
  kernel call — zero graph bytes are pickled per ensemble member, only
  the ~1%-sized plans and a ~100-byte :class:`~repro.graph.StoreLayout`
  descriptor. Mapped columns are read lazily, so out-of-core graphs
  never materialize in any process.

One chunk function (:func:`_detect_member_chunk`) serves both backends,
and :func:`detect_on_plans` is its strict shell. Every attempt records
which members ran and which failed; failed members are retried under the
:class:`~repro.parallel.FaultTolerance` policy — per-member wall-clock
timeouts (hung workers are SIGKILLed and the pool respawned), bounded
deterministic backoff, degradation to the serial backend, store-file →
pickled-store fallback and, after a worker crash, kernel →
reference-engine fallback — and whatever still fails after the last round
comes back as a typed :class:`MemberFailure` instead of an exception. The
parent-side spill directory is removed on **every** exit path (normal,
crash, timeout, KeyboardInterrupt), backstopped by the handle's
``weakref.finalize``.

Because plans re-materialize deterministically, a member that fails and
then succeeds on retry produces a detection bitwise-identical to a
fault-free run — the invariant the chaos suite pins down.

Results come back in sample order regardless of backend, and
``track_members=False`` skips recording each sample's node labels when no
aggregator needs them (appearance-normalised voting and the incremental
layer do; plain MVA does not).
"""

from __future__ import annotations

import time as _time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..errors import DetectionError, GraphError, InjectedFault, MemberTimeoutError, WorkerCrashError
from ..faults import fault_point
from ..fdet import Fdet, FdetConfig, FdetResult, PeelEngine
from ..fdet import batched as _batched
from ..fdet._native import native_threads
from ..graph import BipartiteGraph, GraphStore, StoreLayout, attached_store
from ..parallel import (
    ExecutorMode,
    FaultTolerance,
    ReusablePool,
    default_workers,
    kill_executor_workers,
)
from ..graph.window import EdgeWindow
from ..parallel.executor import _process_context
from ..sampling import SamplePlan, materialize_plan

__all__ = [
    "detect_on_plans",
    "run_members",
    "SampleDetection",
    "MemberFailure",
    "MemberRun",
]

#: failure classification recorded per member
FAIL_CRASH = "crash"  # the worker process died under the member
FAIL_TIMEOUT = "timeout"  # the member (chunk) exceeded its wall-clock budget
FAIL_TRANSPORT = "transport"  # the worker could not map the parent's store file
FAIL_ERROR = "error"  # the member's own code raised


@dataclass(frozen=True)
class SampleDetection:
    """FDET output for one sampled subgraph, plus (optionally) its contents.

    ``sample_users`` / ``sample_merchants`` (int64 label arrays) are only
    populated when the caller asked for member tracking — a fit at ``N=80``
    would otherwise keep every sampled label array alive for nothing.

    ``detected_user_indices`` / ``detected_merchant_indices`` are parent
    node-index arrays of the truncated detection, populated only by the
    batched native backend; they feed the vote tally directly. No array
    takes part in equality.
    """

    result: FdetResult
    sample_users: np.ndarray | None = field(default=None, compare=False)
    sample_merchants: np.ndarray | None = field(default=None, compare=False)
    detected_user_indices: np.ndarray | None = field(default=None, compare=False, repr=False)
    detected_merchant_indices: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class MemberFailure:
    """One ensemble member that still had no detection after every retry."""

    index: int
    kind: str  # one of FAIL_CRASH / FAIL_TIMEOUT / FAIL_TRANSPORT / FAIL_ERROR
    error: str
    attempts: int

    def as_dict(self) -> dict:
        """JSON-able form (for ``Detection.meta`` / state annotations)."""
        return {
            "index": self.index,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass
class MemberRun:
    """Everything one fault-tolerant fan-out produced.

    ``detections[i]`` is ``None`` exactly when member ``i`` appears in
    ``failures``. ``retry_log`` holds one JSON-able dict per attempt —
    which members ran, on what backend/transport, and which failed with
    what kind — and is deterministic for a fixed seed + fault plan.
    ``errors`` keeps the last raw exception per failed member so strict
    callers can re-raise the original object.
    """

    detections: list[SampleDetection | None]
    failures: tuple[MemberFailure, ...]
    retry_log: tuple[dict, ...]
    errors: dict[int, BaseException] | None = None

    @property
    def n_failed(self) -> int:
        """Members with no detection after all retries."""
        return len(self.failures)

    @property
    def n_retries(self) -> int:
        """Extra attempts beyond the first."""
        return max(0, len(self.retry_log) - 1)

    def survivors(self) -> list[SampleDetection]:
        """The detections that made it, in member order."""
        return [d for d in self.detections if d is not None]


def _detection(fdet: Fdet, graph: BipartiteGraph, track_members: bool) -> SampleDetection:
    result = fdet.detect(graph)
    if not track_members:
        return SampleDetection(result=result)
    return SampleDetection(
        result=result,
        sample_users=np.asarray(graph.user_labels, dtype=np.int64),
        sample_merchants=np.asarray(graph.merchant_labels, dtype=np.int64),
    )


def _resolve_parent(
    source: BipartiteGraph | GraphStore | StoreLayout,
    window: EdgeWindow | None,
) -> tuple[BipartiteGraph, EdgeWindow | None]:
    """The parent graph (and liveness overlay) a worker materializes against.

    A :class:`StoreLayout` resolves through the process-local attachment
    cache (first touch maps the file, later chunks and later fits on the
    same file are dictionary hits); a pickled :class:`GraphStore` is the
    fallback after a transport failure; a :class:`BipartiteGraph` arrives
    only on the serial backend. Stores carry their window columns in the
    file itself, so ``window`` is only consulted for in-process graphs.
    """
    if isinstance(source, StoreLayout):
        store = attached_store(source)
        return store.to_graph(), store.edge_window()
    if isinstance(source, GraphStore):
        return source.to_graph(), source.edge_window()
    return source, window


def _native_detection(nd: "_batched.NativeDetection", track_members: bool) -> SampleDetection:
    """Wrap one batched-kernel output like :func:`_detection` would."""
    return SampleDetection(
        result=nd.result,
        sample_users=np.asarray(nd.user_labels, dtype=np.int64) if track_members else None,
        sample_merchants=(
            np.asarray(nd.merchant_labels, dtype=np.int64) if track_members else None
        ),
        detected_user_indices=nd.detected_user_indices,
        detected_merchant_indices=nd.detected_merchant_indices,
    )


def _detect_member_chunk(
    args: tuple[
        BipartiteGraph | GraphStore | StoreLayout,
        FdetConfig,
        list[tuple[int, SamplePlan]],
        bool,
        int,
        EdgeWindow | None,
        bool,
        int,
    ]
) -> tuple[dict[int, SampleDetection], dict[int, tuple[str, BaseException]]]:
    """Run a chunk of ``(member_index, plan)`` pairs in whatever process.

    Returns ``(results, failures)`` keyed by member index: a member whose
    own code raises fails alone, recorded with its kind, and the rest of
    the chunk still runs. The per-member injection points fire *inside*
    the worker, so chaos plans exercise the real fan-out path (chunk
    pickling, store-file mapping, materialization) unmodified. A parent
    that cannot be mapped fails the whole chunk as ``FAIL_TRANSPORT``.

    With the batched backend on and an eligible config, the chunk's
    members run through one multi-member kernel call (``threads`` wide).
    A member the batch cannot finish (an in-kernel allocation failure, or
    a batch-level error such as a plan that does not fit the window)
    re-runs alone through ``materialize_plan`` + ``Fdet.detect``, so only
    the members at fault fail.
    """
    source, config, members, track_members, attempt, window, native_batch, threads = args
    try:
        graph, window = _resolve_parent(source, window)
    except (GraphError, InjectedFault, OSError) as exc:  # the retry ships the pickled store
        return {}, {index: (FAIL_TRANSPORT, exc) for index, _ in members}
    fdet = Fdet(config)
    use_batch = (
        native_batch
        and _batched.config_eligible(config)
        and _batched.batch_kernels() is not None
    )
    results: dict[int, SampleDetection] = {}
    failures: dict[int, tuple[str, BaseException]] = {}
    batch_work: list[tuple[int, SamplePlan]] = []
    alone: list[tuple[int, SamplePlan]] = []
    for index, plan in members:
        try:
            fault_point("member.detect", index=index, attempt=attempt)
            if use_batch:
                fault_point("native.peel", index=index, attempt=attempt)
                batch_work.append((index, plan))
            else:
                alone.append((index, plan))
        except Exception as exc:  # noqa: BLE001 - recorded, retried, re-raised by strict callers
            failures[index] = (_classify(exc), exc)
    try:
        native = _batched.detect_many(
            graph, [plan for _, plan in batch_work], config, window, threads
        )
    except Exception:  # noqa: BLE001 - each member re-runs alone and fails on its own
        native = None
    for (index, plan), nd in zip(batch_work, native or [None] * len(batch_work)):
        if nd is None:
            alone.append((index, plan))
        else:
            results[index] = _native_detection(nd, track_members)
    for index, plan in alone:
        try:
            results[index] = _detection(
                fdet, materialize_plan(graph, plan, window), track_members
            )
        except Exception as exc:  # noqa: BLE001 - same contract as above
            failures[index] = (_classify(exc), exc)
    return results, failures


def _chunked(items: list, n_chunks: int) -> list[list]:
    """Split into at most ``n_chunks`` contiguous, near-equal chunks."""
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks: list[list] = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def _maybe_override_engine(config: FdetConfig, engine: str | None) -> FdetConfig:
    if engine is not None and engine != config.engine:
        return replace(config, engine=engine)
    return config


def _classify(error: BaseException) -> str:
    """Map one member/chunk exception to a failure kind."""
    if isinstance(error, BrokenExecutor) or isinstance(error, WorkerCrashError):
        return FAIL_CRASH
    if isinstance(error, TimeoutError):
        return FAIL_TIMEOUT
    return FAIL_ERROR


def check_executor(mode: str) -> None:
    """Reject an executor name that is not one of :class:`ExecutorMode`."""
    if mode not in ExecutorMode.ALL:
        raise DetectionError(
            f"unknown executor {mode!r}; expected one of {ExecutorMode.ALL}"
        )


def _gather_chunk_futures(
    futures: list[Future],
    chunks: list[list[tuple[int, SamplePlan]]],
    member_timeout: float | None,
) -> tuple[dict[int, SampleDetection], dict[int, tuple[str, BaseException]], bool]:
    """Collect per-chunk futures with one shared wall-clock deadline.

    Returns ``(results, failures, timed_out)``: each finished chunk's
    per-member results and failures, plus every member of a chunk that
    timed out or whose worker died. The deadline is ``member_timeout ×
    largest chunk`` — chunks run concurrently, so any chunk still
    unfinished then has spent more than its own budget. Completed futures
    keep their results even if the pool broke later.
    """
    results: dict[int, SampleDetection] = {}
    failures: dict[int, tuple[str, BaseException]] = {}
    timed_out = False
    deadline = None
    if member_timeout is not None:
        deadline = _time.monotonic() + member_timeout * max(len(c) for c in chunks)
    for chunk, future in zip(chunks, futures):
        remaining = None
        if deadline is not None:
            remaining = max(0.001, deadline - _time.monotonic())
        try:
            chunk_results, chunk_failures = future.result(timeout=remaining)
            results.update(chunk_results)
            failures.update(chunk_failures)
        except TimeoutError as exc:
            timed_out = True
            for index, _ in chunk:
                failures[index] = (FAIL_TIMEOUT, exc)
        except BaseException as exc:  # noqa: BLE001 - classified per kind below
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            kind = _classify(exc)
            for index, _ in chunk:
                failures[index] = (kind, exc)
    return results, failures, timed_out


def _run_pooled(
    graph: BipartiteGraph,
    work: list[tuple[int, SamplePlan]],
    config: FdetConfig,
    n_workers: int | None,
    pool: ReusablePool | None,
    track_members: bool,
    use_file: bool,
    attempt: int,
    tolerance: FaultTolerance,
    window: EdgeWindow | None = None,
    native_batch: bool = False,
    source_store: GraphStore | None = None,
) -> tuple[dict[int, SampleDetection], dict[int, tuple[str, BaseException]], str]:
    """One process attempt. Returns ``(results, failures, transport)``.

    ``transport`` names what actually carried the parent to the workers:
    ``"file"`` (the parent is already a file-backed store — its layout is
    shipped and workers map the same file), ``"spill"`` (a resident parent
    spilled once to a temporary store file) or ``"pickle"`` (the columnar
    store pickled per worker chunk: after a transport failure, or when the
    spill volume refuses the write).

    The spill is created before the fan-out and removed in the
    ``finally`` below no matter how the attempt ends — worker crash,
    timeout kill, Ctrl-C — so spill directories can never accumulate;
    the handle's ``weakref.finalize`` backstops even a failure inside
    this function (on Linux the removed file stays valid for live worker
    maps).
    """
    workers = pool.n_workers if pool is not None else (n_workers or default_workers(len(work)))

    # the liveness columns ride inside the store; workers rebuild the
    # EdgeWindow from the mapped columns
    store = source_store if source_store is not None else GraphStore.from_graph(graph, window)
    source: GraphStore | StoreLayout = store
    spilled = None
    transport = "pickle"
    if use_file and store.layout is not None:
        source, transport = store.layout, "file"
    elif use_file:
        try:
            spilled = store.export_shared()
        except OSError:  # spill volume full or unwritable: pickle instead
            pass
        else:
            source, transport = spilled.layout, "spill"

    own_executor = None
    try:
        chunks = _chunked(work, workers)
        # oversubscription guard: workers x in-kernel threads <= cores
        threads = native_threads(workers)
        args = [
            (source, config, chunk, track_members, attempt, None, native_batch, threads)
            for chunk in chunks
        ]

        if pool is not None:
            submit = pool.submit
        else:
            own_executor = ProcessPoolExecutor(
                max_workers=min(workers, len(chunks)), mp_context=_process_context()
            )
            submit = own_executor.submit

        futures: list[Future] = []
        submit_error: BrokenExecutor | None = None
        try:
            for arg in args:
                futures.append(submit(_detect_member_chunk, arg))
        except BrokenExecutor as exc:
            submit_error = exc

        results, failures, timed_out = _gather_chunk_futures(
            futures, chunks[: len(futures)], tolerance.member_timeout
        )
        if submit_error is not None:
            for chunk in chunks[len(futures) :]:
                for index, _ in chunk:
                    failures[index] = (FAIL_CRASH, submit_error)
        if timed_out:
            # a hung worker cannot be joined or cancelled — reclaim it
            if pool is not None:
                pool.kill_workers()
            else:
                kill_executor_workers(own_executor)
        broken = timed_out or any(kind == FAIL_CRASH for kind, _ in failures.values())
        if broken and pool is not None:
            pool.respawn()
        return results, failures, transport
    finally:
        if own_executor is not None:
            own_executor.shutdown(wait=False, cancel_futures=True)
        if spilled is not None:
            spilled.dispose()


def run_members(
    graph: BipartiteGraph | GraphStore,
    plans: Sequence[SamplePlan],
    config: FdetConfig,
    mode: str = ExecutorMode.SERIAL,
    n_workers: int | None = None,
    engine: str | None = None,
    pool: ReusablePool | None = None,
    track_members: bool = True,
    tolerance: FaultTolerance | None = None,
    window: EdgeWindow | None = None,
    native_batch: bool | None = None,
) -> MemberRun:
    """Fault-tolerant fan-out: every plan either detects or fails *typed*.

    ``native_batch`` selects the batched native backend (each chunk of an
    attempt peels through one multi-member kernel call on every execution
    backend; off, each member is materialized and detected alone through
    :meth:`Fdet.detect`, which under the ``fast`` engine is a one-member
    kernel call); ``None`` defers to ``REPRO_NATIVE_BATCH`` (default on).
    The degradation ladder has a kernel rung: a worker-crash round may
    mean the kernel crashed, so the remaining retries run each member
    alone on the reference engine, which never calls the kernel — the way
    transport failures switch to the pickled store.

    Process fan-outs ship the parent as one store file. ``graph`` may be a
    :class:`~repro.graph.GraphStore` instead of a graph — in particular one
    opened straight from a store file (:meth:`GraphStore.open`), whose
    windowed columns (if any) become the liveness overlay automatically;
    its layout is shipped as-is, so workers map the same file lazily and
    the parent columns never materialize anywhere. A resident parent is
    spilled (compacted) to a temporary store file once per attempt. After
    an ``mmap.open`` failure (kind ``"transport"``) the retries ship the
    pickled store instead; so does an attempt whose spill write fails.

    With ``window`` set, ``graph`` is the full stored graph of a rolling
    window and every member materializes through the liveness overlay
    (see :func:`repro.sampling.materialize_plan`); the overlay travels
    through the store file / pickled store on process backends.

    The engine behind :func:`detect_on_plans` and
    :meth:`~repro.ensemble.EnsemFDet.fit`. Runs all members on the
    requested backend (``mode``, one of :class:`ExecutorMode`; anything
    else raises :class:`~repro.errors.DetectionError`), then re-runs
    failed members for up to ``tolerance.max_retries`` extra rounds with
    deterministic backoff — in the parent (serial) when
    ``tolerance.degrade`` is set — falling back from the store file to
    the pickled store when the failure kinds call for it. Members that
    never succeed come back as :class:`MemberFailure` entries; the caller
    decides whether that is a quorum violation.
    """
    check_executor(mode)
    config = _maybe_override_engine(config, engine)
    tolerance = tolerance or FaultTolerance()
    plans = list(plans)
    detections: list[SampleDetection | None] = [None] * len(plans)
    if not plans:
        return MemberRun(detections=detections, failures=(), retry_log=())

    source_store: GraphStore | None = None
    if isinstance(graph, GraphStore):
        store = graph
        own_window = store.edge_window()
        if window is None:
            window = own_window
        if (
            own_window is None
            or window is own_window
            or (window.alive is own_window.alive and window.edge_ids is own_window.edge_ids)
        ):
            # the store carries exactly the overlay being used, so process
            # attempts can ship it (or its file layout) as-is
            source_store = store
        graph = store.to_graph()

    pending = list(range(len(plans)))
    fail_info: dict[int, tuple[str, BaseException]] = {}
    attempts_of: dict[int, int] = {}
    retry_log: list[dict] = []
    use_file = True
    use_batch = _batched.resolve_native_batch(native_batch)

    for attempt in range(tolerance.max_retries + 1):
        if not pending:
            break
        backoff = tolerance.backoff_for(attempt)
        if backoff:
            _time.sleep(backoff)
        # degrading retries run in the parent, out of reach of a broken pool
        backend = ExecutorMode.SERIAL if attempt and tolerance.degrade else mode
        work = [(index, plans[index]) for index in pending]
        for index in pending:
            attempts_of[index] = attempt + 1

        # one worker or one item never pays pool overhead
        # (REPRO_WORKERS=1 pins CI to this path)
        in_parent = backend == ExecutorMode.SERIAL
        if not in_parent and pool is None:
            effective = n_workers or default_workers(len(work))
            in_parent = effective <= 1 or len(work) == 1
        if in_parent:
            # no pool, no pickling, nothing left to degrade to
            results, failures = _detect_member_chunk(
                (graph, config, work, track_members, attempt, window, use_batch, native_threads(1))
            )
            transport = "local"
        else:
            results, failures, transport = _run_pooled(
                graph,
                work,
                config,
                n_workers,
                pool,
                track_members,
                use_file,
                attempt,
                tolerance,
                window,
                use_batch,
                source_store,
            )

        for index, detection in results.items():
            detections[index] = detection
        failed = sorted(failures)
        retry_log.append(
            {
                "attempt": attempt,
                "backend": ExecutorMode.SERIAL if in_parent else backend,
                "transport": transport,
                "native_batch": bool(use_batch),
                "engine": config.engine,
                "members": [int(i) for i in pending],
                "failed": [int(i) for i in failed],
                "kinds": {str(i): failures[i][0] for i in failed},
            }
        )
        fail_info.update(failures)
        if any(kind == FAIL_TRANSPORT for kind, _ in failures.values()):
            # the store file could not be mapped — pickled store next
            use_file = False
        if any(kind == FAIL_CRASH for kind, _ in failures.values()):
            # a dead worker may mean the kernel crashed — retries run each
            # member alone on the reference engine, like transports degrade
            use_batch = False
            config = _maybe_override_engine(config, PeelEngine.REFERENCE)
        pending = failed

    failures_out = tuple(
        MemberFailure(
            index=index,
            kind=fail_info[index][0],
            error=f"{type(fail_info[index][1]).__name__}: {fail_info[index][1]}",
            attempts=attempts_of[index],
        )
        for index in pending
    )
    return MemberRun(
        detections=detections,
        failures=failures_out,
        retry_log=tuple(retry_log),
        errors={index: fail_info[index][1] for index in pending},
    )


def _raise_first_failure(run: MemberRun) -> None:
    """Strict-mode contract: surface the first permanent failure, typed."""
    if not run.failures:
        return
    first = run.failures[0]
    indices = tuple(f.index for f in run.failures)
    if first.kind == FAIL_TIMEOUT:
        raise MemberTimeoutError(
            f"ensemble members {list(indices)} exceeded their wall-clock "
            f"budget ({first.error}); raise member_timeout, enable retries "
            "(FaultTolerance.max_retries), or use a smaller sample ratio",
            member_indices=indices,
        )
    if first.kind == FAIL_CRASH:
        raise WorkerCrashError(
            f"worker died while running ensemble members {list(indices)} "
            f"({first.error}); the pool was respawned — re-run, enable "
            "retries (FaultTolerance.max_retries), or use executor='serial' "
            "to isolate the member",
            member_indices=indices,
        )
    # member/application-level error (including a transport failure):
    # re-raise the original exception so strict callers keep fail-fast
    # semantics (e.g. a DetectionError from a misconfigured FdetConfig
    # propagates as-is)
    original = (run.errors or {}).get(first.index)
    if original is not None:
        raise original
    raise RuntimeError(
        f"member {first.index} failed after {first.attempts} attempt(s): {first.error}"
    )


def detect_on_plans(
    graph: BipartiteGraph | GraphStore,
    plans: Sequence[SamplePlan],
    config: FdetConfig,
    mode: str = ExecutorMode.SERIAL,
    n_workers: int | None = None,
    engine: str | None = None,
    pool: ReusablePool | None = None,
    track_members: bool = True,
    tolerance: FaultTolerance | None = None,
    window: EdgeWindow | None = None,
    native_batch: bool | None = None,
) -> list[SampleDetection]:
    """Materialize every plan against ``graph`` and run FDET on it.

    Strict by default: any member that still has no result after the
    (default zero-overhead) tolerance policy raises a typed error. Pass a
    :class:`~repro.parallel.FaultTolerance` to retry/degrade instead; for
    access to partial results and the retry log, call :func:`run_members`
    directly (as :meth:`EnsemFDet.fit` does).

    Parameters
    ----------
    graph:
        The parent graph all plans refer to.
    plans:
        Compact per-member sample plans (see :meth:`Sampler.plan_many`).
    config:
        FDET configuration applied to every member.
    mode, n_workers:
        Executor backend (one of :class:`~repro.parallel.ExecutorMode`) and
        pool size (default :func:`~repro.parallel.default_workers`).
    engine:
        Optional peeling-engine override applied on top of ``config.engine``.
    pool:
        Optional :class:`ReusablePool` of warm workers to run on.
    track_members:
        Record each sample's node labels on the detections (needed by
        appearance-normalised voting and the incremental layer).
    tolerance:
        Retry/timeout/degradation policy; defaults to strict (no retries).
    native_batch:
        Batched native backend switch (``None`` = ``REPRO_NATIVE_BATCH``,
        default on); see :func:`run_members`.
    """
    run = run_members(
        graph,
        plans,
        config,
        mode=mode,
        n_workers=n_workers,
        engine=engine,
        pool=pool,
        track_members=track_members,
        tolerance=tolerance or FaultTolerance.strict(),
        window=window,
        native_batch=native_batch,
    )
    _raise_first_failure(run)
    return [detection for detection in run.detections if detection is not None]


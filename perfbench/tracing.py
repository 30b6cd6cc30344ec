"""Span tracer that wraps the program's layer boundaries from outside.

Nothing inside ``src/`` is instrumented: :func:`install` replaces the
public callables of each layer where the calling code looks them up (a
module global, or a class attribute) with a wrapper that records one span
per call while the tracer is enabled. Spans ``(name, start, end, parent)``
stay in memory; :func:`summarize` turns them into per-layer self times.

Layers are named after the package's modules: ``graph``, ``sampling``,
``fdet``, ``parallel``, ``ensemble`` and ``serve``/``results``. Spans
inside pool worker processes are not recorded: a member's kernel time on
a process backend shows up as waiting inside ``ensemble.runner``.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from collections import Counter, defaultdict, deque


class Tracer:
    """In-memory spans, counters and samples; off until :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        #: one ``[name, start_ns, end_ns, parent_index]`` per traced call
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._submitted: deque[int] = deque()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, func, args, kwargs):
        """Run ``func`` inside a span named ``name`` (if enabled)."""
        if not self.enabled:
            return func(*args, **kwargs)
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, 0, 0, stack[-1] if stack else -1])
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            span = self.spans[index]
            span[1], span[2] = start, end

    def wrap(self, func, name: str, after=None, before=None):
        """A wrapper of ``func`` recording span ``name`` per call."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            result = tracer.call(name, func, args, kwargs)
            if after is not None and tracer.enabled:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None, before=None) -> None:
        """Replace ``owner.attr`` (module global or class attribute) by a wrapper."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, after, before))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name, after, before))
        else:
            new = self.wrap(raw, name, after, before)
        setattr(owner, attr, new)

    def dump(self) -> dict:
        """Spans, counters and samples as one JSON-able mapping."""
        return {"spans": self.spans, "counts": dict(self.counts), "samples": dict(self.samples)}

    @classmethod
    def load(cls, payload: dict) -> "Tracer":
        """A (disabled) tracer holding what :meth:`dump` wrote."""
        tracer = cls()
        tracer.spans = payload["spans"]
        tracer.counts.update(payload["counts"])
        tracer.samples.update(payload["samples"])
        return tracer


# ----------------------------------------------------------------------
# hooks: counters and samples taken at the same boundaries as the spans
# ----------------------------------------------------------------------


def _count_kernel_members(tracer, args, kwargs, result) -> None:
    plans = args[1] if len(args) > 1 else kwargs["plans"]
    tracer.counts["fdet.kernel_members"] += len(plans)


def _count_member_run(tracer, args, kwargs, run) -> None:
    tracer.counts["ensemble.retries"] += run.n_retries
    tracer.counts["ensemble.failed_members"] += run.n_failed


def _count_compaction(tracer, args, kwargs, reclaimed) -> None:
    if reclaimed:
        tracer.counts["graph.compactions"] += 1


def _queue_wait(tracer, args, kwargs) -> None:
    # the service's single writer runs ingests in submission order, so
    # the oldest pending submission is the one this update serves
    with tracer._lock:
        submitted = tracer._submitted.popleft() if tracer._submitted else None
    if submitted is not None and tracer.enabled:
        tracer.samples["serve.queue_wait_s"].append((time.perf_counter_ns() - submitted) / 1e9)


def _refresh_ratio(tracer, args, kwargs, report) -> None:
    kind = "delete" if kwargs.get("remove_users") is not None else "append"
    tracer.samples[f"ensemble.refresh_ratio.{kind}"].append(report.n_refreshed / report.n_samples)


def _state_size(tracer, args, kwargs, result) -> None:
    path = str(args[1] if len(args) > 1 else kwargs["path"])
    if not path.endswith(".npz"):
        path += ".npz"
    tracer.samples["results.state_mb"].append(os.path.getsize(path) / 2**20)


def _traced_submit(tracer, submit_ingest):
    """``submit_ingest`` stamping each accepted submission for queue waits."""

    @functools.wraps(submit_ingest)
    def traced(*args, **kwargs):
        # stamped even while disabled, so the FIFO stays aligned with the
        # writer's queue across a toggle
        stamp = time.perf_counter_ns()
        with tracer._lock:
            tracer._submitted.append(stamp)
        try:
            return submit_ingest(*args, **kwargs)
        except BaseException:
            with tracer._lock:
                if stamp in tracer._submitted:
                    tracer._submitted.remove(stamp)
            raise

    return traced


def _traced_pool_class(tracer, base):
    """``ProcessPoolExecutor`` whose start (init + first submit, which forks
    every worker) is a ``parallel.pool_start`` span."""

    class TracedProcessPoolExecutor(base):
        def __init__(self, *args, **kwargs):
            self._bench_started = False
            tracer.call("parallel.pool_start", super().__init__, args, kwargs)

        def submit(self, *args, **kwargs):
            if self._bench_started:
                return super().submit(*args, **kwargs)
            self._bench_started = True
            return tracer.call("parallel.pool_start", super().submit, args, kwargs)

    return TracedProcessPoolExecutor


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.ensemble import ensemfdet, incremental, runner
    from repro.ensemble.voting import VoteTable
    from repro.fdet import batched
    from repro.graph.builder import GraphAccumulator
    from repro.graph.store import GraphStore
    from repro.sampling.base import Sampler
    from repro.sampling.stable import StableEdgeSampler
    from repro.serve.service import DetectionService
    from repro.serve.snapshot import ScoreSnapshot

    tracer.patch(batched, "detect_many", "fdet.kernel", after=_count_kernel_members)

    pending = [Sampler]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "plan_many" in cls.__dict__:
            tracer.patch(cls, "plan_many", "sampling.plan")
    tracer.patch(StableEdgeSampler, "stripe_inclusion", "sampling.plan")
    tracer.patch(StableEdgeSampler, "stripe_plan", "sampling.plan")

    tracer.patch(batched, "vote_counters", "ensemble.votes")
    tracer.patch(VoteTable, "from_detections", "ensemble.votes")

    runner.ProcessPoolExecutor = _traced_pool_class(tracer, runner.ProcessPoolExecutor)
    tracer.patch(GraphStore, "from_graph", "graph.store_export")
    tracer.patch(GraphStore, "export_shared", "graph.store_export")

    # two separate bindings of the same engine
    tracer.patch(ensemfdet, "run_members", "ensemble.runner", after=_count_member_run)
    tracer.patch(incremental, "run_members", "ensemble.runner", after=_count_member_run)

    for verb in ("retract", "append", "expire", "maybe_compact", "window"):
        tracer.patch(GraphAccumulator, verb, "graph.window")
    tracer.patch(GraphAccumulator, "compact", "graph.window", after=_count_compaction)

    tracer.patch(
        incremental.IncrementalEnsemFDet,
        "update",
        "ensemble.merge",
        after=_refresh_ratio,
        before=_queue_wait,
    )
    tracer.patch(incremental.IncrementalEnsemFDet, "save", "results.commit", after=_state_size)
    tracer.patch(ScoreSnapshot, "capture", "serve.capture")
    # one score_of or top call per read request; /score also asks knows_user
    tracer.patch(ScoreSnapshot, "score_of", "serve.read")
    tracer.patch(ScoreSnapshot, "top", "serve.read")
    tracer.patch(ScoreSnapshot, "knows_user", "serve.read.known")

    DetectionService.submit_ingest = _traced_submit(tracer, DetectionService.__dict__["submit_ingest"])
    return tracer


#: layer spans reported as self seconds per operation
LAYER_SPANS = (
    "fdet.kernel",
    "sampling.plan",
    "ensemble.votes",
    "parallel.pool_start",
    "graph.store_export",
    "ensemble.runner",
    "graph.window",
    "ensemble.merge",
    "serve.capture",
)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self seconds per span name (duration minus child spans)."""
    child_total = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0 and end:
            child_total[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        if end:
            totals[name] += (end - start - child_total[index]) / 1e9
    return totals


def summarize(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer figures of one traced phase, as plain JSON-able values.

    ``n_ops`` is the number of fits or ingests the phase covered; layer
    times are self seconds per operation, so they add up (with the
    untraced remainder) to the operation's wall time.
    """
    totals = self_times(tracer.spans)
    per_op = max(1, n_ops)
    out = {f"{name}_s": totals.get(name, 0.0) / per_op for name in LAYER_SPANS}
    durations: dict[str, list[float]] = defaultdict(list)
    for name, start, end, _parent in tracer.spans:
        if end:
            durations[name].append((end - start) / 1e9)
    reads = durations["serve.read"]
    commits = durations["results.commit"]
    read_total = sum(reads) + sum(durations["serve.read.known"])
    out["serve.read_s"] = read_total / len(reads) if reads else 0.0
    out["serve.reads"] = len(reads)
    out["results.commits"] = len(commits)
    out["results.commit_s"] = sum(commits) / len(commits) if commits else 0.0
    out["fdet.kernel_members"] = tracer.counts["fdet.kernel_members"] / per_op
    for name in ("graph.compactions", "ensemble.retries", "ensemble.failed_members"):
        out[name] = tracer.counts[name]
    for name in (
        "serve.queue_wait_s",
        "ensemble.refresh_ratio.append",
        "ensemble.refresh_ratio.delete",
        "results.state_mb",
    ):
        values = tracer.samples.get(name, [])
        out[name] = sum(values) / len(values) if values else 0.0
    # root spans cover the part of each operation the trace explains
    out["root_s"] = sum(
        (end - start) / 1e9
        for name, start, end, parent in tracer.spans
        if parent < 0 and name not in ("serve.read", "serve.read.known", "results.commit")
    )
    out["queue_wait_total_s"] = sum(tracer.samples.get("serve.queue_wait_s", []))
    return out

"""Batched multi-member FDET: many members, one native kernel call.

This module drives the ``repro_fdet_batch`` entry point of
``_peel_kernel.c``, the one fast compute path of FDET: the parent's edge
arrays are shared read-only, each member is described only by its parent
edge-id list (:func:`repro.sampling.plan_edge_ids`, windowed liveness
AND-ed in), and the kernel performs node compaction, CSR construction, the
full block loop and the peels for **all members in one call** —
OpenMP-parallel across members when available. Every
:class:`~repro.sampling.SamplePlan` kind (RES edge lists, ONS/TNS node
picks, stripe rows) reduces to such a list, and ``Fdet.detect`` runs its
graph here as one all-edges member that keeps every node.

Python keeps the thin, cold edges of the pipeline: eligibility gating,
marshalling, truncation, :class:`Block` / :class:`FdetResult` assembly,
and the vote tally (``np.bincount`` over the members' parent node
indices). Inside the kernel each block peels only the member's residual
graph: its alive edges and the nodes they touch, with the isolated
nodes' share of the density curve replayed rather than peeled (the rule
and its guard are in the ``_peel_kernel.c`` header). Everything the
kernel computes is **bitwise identical** to the reference pipeline
(``materialize_plan`` + ``Fdet.detect`` on the reference engine) —
enforced against that engine by ``tests/fdet/test_batched_parity.py``,
``tests/fdet/test_residual_parity.py``,
``tests/ensemble/test_plan_parity.py`` and
``tests/fdet/test_engine_parity.py`` across sampler families, window
modes and execution backends.

Gating is conservative: the kernel only runs the stock density metrics
(:class:`LogWeightedDensity` / :class:`AverageDegreeDensity`
implementations, no prior hooks) under the ``fast`` engine. Anything
else — custom metrics, priors, the reference engine — runs the reference
engine. A load-time probe additionally verifies that the kernel's
pairwise summation reproduces ``np.sum`` bit for bit on this host and
disables the kernel path when it does not.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..graph import BipartiteGraph
from ..graph.window import EdgeWindow
from ..sampling import SamplePlan, plan_edge_ids
from ._native import NativeKernels, load_kernels
from .density import AverageDegreeDensity, DensityMetric, LogWeightedDensity
from .fdet import Block, FdetConfig, FdetResult, WeightPolicy
from .peeling import PeelEngine

__all__ = [
    "NativeDetection",
    "batch_kernels",
    "config_eligible",
    "detect_many",
    "detected_nodes",
    "label_nodes",
    "resolve_native_batch",
    "tally",
    "vote_counters",
]

#: metric implementations the kernel replicates; a subclass overriding any of
#: these (or the prior hooks) peels positions-dependently for all we know and
#: must take the reference engine
_DEGREE_WEIGHT_IMPLS = (
    LogWeightedDensity.merchant_degree_weights,
    AverageDegreeDensity.merchant_degree_weights,
)

_DUMMY_F64 = np.zeros(1, dtype=np.float64)

#: None = probe not yet run, else its verdict (per process)
_probe_verdict: bool | None = None


def resolve_native_batch(value: bool | None) -> bool:
    """Effective batch switch: explicit value, else ``REPRO_NATIVE_BATCH``."""
    if value is not None:
        return bool(value)
    raw = os.environ.get("REPRO_NATIVE_BATCH", "1").strip().lower()
    return raw not in ("0", "false", "no", "off")


def _probe(kernels: NativeKernels) -> bool:
    """Does the kernel's pairwise sum match ``np.sum`` bitwise on this host?

    The batch path reproduces ``edge_weights.sum()`` in C; numpy's pairwise
    blocking is an implementation detail, so on an exotic build the replica
    could drift by an ulp. One cheap deterministic check at first use keeps
    the bitwise guarantee honest — any mismatch disables batching entirely.
    """
    rng = np.random.default_rng(20260808)
    for size in (0, 1, 7, 8, 127, 128, 129, 1000, 4097, 12345):
        values = np.ascontiguousarray(rng.random(size))
        if kernels.pairwise_sum(values, size) != float(np.sum(values)):
            return False
    return True


def batch_kernels() -> NativeKernels | None:
    """The kernel handle iff the batch path may be used on this host."""
    kernels = load_kernels()
    if kernels is None:
        return None
    global _probe_verdict
    if _probe_verdict is None:
        _probe_verdict = _probe(kernels)
    return kernels if _probe_verdict else None


def config_eligible(config: FdetConfig) -> bool:
    """Can this FDET configuration run through the batched kernel?"""
    metric_cls = type(config.metric)
    return (
        config.engine == PeelEngine.FAST
        and metric_cls.edge_weights is DensityMetric.edge_weights
        and metric_cls.user_weights is DensityMetric.user_weights
        and metric_cls.merchant_weights is DensityMetric.merchant_weights
        and any(metric_cls.merchant_degree_weights is impl for impl in _DEGREE_WEIGHT_IMPLS)
    )


def _weight_table(metric: DensityMetric, graph: BipartiteGraph) -> np.ndarray:
    """``degree -> edge multiplier`` lookup covering every possible degree.

    A member's merchant degrees never exceed the parent's (member edges are
    a subset), so a table over ``0..max_parent_degree`` covers every value
    the kernel can look up. ``np.log`` is elementwise position-independent,
    making ``table[d]`` bitwise equal to evaluating the metric on the
    member's own degree array.
    """
    degrees = graph.merchant_degrees()
    max_degree = int(degrees.max()) if degrees.size else 0
    table = metric.merchant_degree_weights(np.arange(max_degree + 1, dtype=np.int64))
    return np.ascontiguousarray(table, dtype=np.float64)


@dataclass(frozen=True)
class NativeDetection:
    """One member's batched output, before runner-level wrapping.

    ``user_labels`` / ``merchant_labels`` are the member subgraph's node
    labels (parent labels gathered over the member's compacted node set);
    the ``detected_*_indices`` arrays are sorted unique **parent node
    indices** over the truncated blocks, feeding the vote tally.
    """

    result: FdetResult
    user_labels: np.ndarray
    merchant_labels: np.ndarray
    detected_user_indices: np.ndarray
    detected_merchant_indices: np.ndarray


def _picked(nodes: np.ndarray | None, side_size: int) -> int:
    """Most nodes a plan can keep on one side: its pick, else the side."""
    return side_size if nodes is None else int(nodes.size)


def detect_many(
    graph: BipartiteGraph,
    plans: Sequence[SamplePlan],
    config: FdetConfig,
    window: EdgeWindow | None = None,
    n_threads: int = 1,
    keep_nodes: bool = False,
) -> list[NativeDetection | None] | None:
    """Run FDET for every plan in one kernel call.

    Returns ``None`` when the kernel is unavailable; otherwise one
    :class:`NativeDetection` per plan, with ``None`` in a slot whose
    member hit an in-kernel allocation failure (the caller re-runs just
    that member on its own). A plan that does not fit ``window`` raises
    :class:`~repro.errors.SamplingError`, like
    :func:`~repro.sampling.materialize_plan`. The caller is responsible
    for eligibility (:func:`config_eligible`) and for fault points.

    Members keep the nodes their edges touch, exactly like
    ``materialize_plan``; ``keep_nodes=True`` keeps every node of
    ``graph`` instead, isolated ones included, which is how
    ``Fdet.detect`` peels a graph as it is.
    """
    kernels = batch_kernels()
    if kernels is None or not plans:
        return None

    n_members = len(plans)
    max_blocks = config.max_blocks
    # compact (int32/float32) parent columns — including read-only mmap
    # views — cross the ABI in their storage dtype; the kernel widens each
    # load, so no resident int64/float64 copy of the parent is ever built
    if graph.edge_users.dtype == graph.edge_merchants.dtype and graph.edge_users.dtype in (
        np.dtype(np.int32),
        np.dtype(np.int64),
    ):
        p_eu = np.ascontiguousarray(graph.edge_users)
        p_em = np.ascontiguousarray(graph.edge_merchants)
    else:
        p_eu = np.ascontiguousarray(graph.edge_users, dtype=np.int64)
        p_em = np.ascontiguousarray(graph.edge_merchants, dtype=np.int64)
    idx_width = p_eu.dtype.itemsize
    has_weights = graph.edge_weights is not None
    if has_weights:
        if graph.edge_weights.dtype in (np.dtype(np.float32), np.dtype(np.float64)):
            p_w = np.ascontiguousarray(graph.edge_weights)
        else:
            p_w = np.ascontiguousarray(graph.edge_weights, dtype=np.float64)
    else:
        p_w = _DUMMY_F64
    w_width = p_w.dtype.itemsize
    weight_table = _weight_table(config.metric, graph)

    ids_list = [plan_edge_ids(graph, plan, window) for plan in plans]
    counts = np.array([ids.size for ids in ids_list], dtype=np.int64)
    edge_off = np.zeros(n_members + 1, dtype=np.int64)
    np.cumsum(counts, out=edge_off[1:])
    edge_ids = np.concatenate(ids_list)
    del ids_list  # the kernel's own allocations can reuse this memory
    scales = np.array(
        [1.0 if plan.weight_scale is None else float(plan.weight_scale) for plan in plans],
        dtype=np.float64,
    )

    # output slabs, sized by per-member upper bounds: a member touches at
    # most min(|edges|, parent side size) nodes per side, and a node plan
    # no more than it sampled
    if keep_nodes:
        nu_bounds = np.full(n_members, graph.n_users, dtype=np.int64)
        nm_bounds = np.full(n_members, graph.n_merchants, dtype=np.int64)
    else:
        nu_bounds = np.minimum(counts, [_picked(p.users, graph.n_users) for p in plans])
        nm_bounds = np.minimum(counts, [_picked(p.merchants, graph.n_merchants) for p in plans])
    ku_off = np.zeros(n_members + 1, dtype=np.int64)
    np.cumsum(nu_bounds, out=ku_off[1:])
    km_off = np.zeros(n_members + 1, dtype=np.int64)
    np.cumsum(nm_bounds, out=km_off[1:])
    row_bounds = (nu_bounds + nm_bounds + 7) // 8
    mask_off = np.zeros(n_members + 1, dtype=np.int64)
    np.cumsum(max_blocks * row_bounds, out=mask_off[1:])

    out_status = np.zeros(n_members, dtype=np.int64)
    out_nu = np.zeros(n_members, dtype=np.int64)
    out_nm = np.zeros(n_members, dtype=np.int64)
    out_n_blocks = np.zeros(n_members, dtype=np.int64)
    kept_users = np.zeros(max(1, int(ku_off[-1])), dtype=np.int64)
    kept_merchants = np.zeros(max(1, int(km_off[-1])), dtype=np.int64)
    block_density = np.zeros(n_members * max_blocks, dtype=np.float64)
    block_n_edges = np.zeros(n_members * max_blocks, dtype=np.int64)
    block_masks = np.zeros(max(1, int(mask_off[-1])), dtype=np.uint8)

    kernels.fdet_batch(
        graph.n_users,
        graph.n_merchants,
        p_eu,
        p_em,
        idx_width,
        p_w,
        int(has_weights),
        w_width,
        weight_table,
        n_members,
        edge_ids,
        edge_off,
        scales,
        max_blocks,
        config.min_block_edges,
        float(config.min_density_ratio),
        int(config.weight_policy == WeightPolicy.FROZEN),
        int(keep_nodes),
        int(n_threads),
        out_status,
        out_nu,
        out_nm,
        kept_users,
        ku_off,
        kept_merchants,
        km_off,
        out_n_blocks,
        block_density,
        block_n_edges,
        block_masks,
        mask_off,
    )

    user_labels_all = graph.user_labels
    merchant_labels_all = graph.merchant_labels
    out: list[NativeDetection | None] = []
    for m in range(n_members):
        if out_status[m] != 0:
            out.append(None)  # in-kernel allocation failure: member re-runs alone
            continue
        nu = int(out_nu[m])
        nm = int(out_nm[m])
        n = nu + nm
        ku = kept_users[int(ku_off[m]) : int(ku_off[m]) + nu]
        km = kept_merchants[int(km_off[m]) : int(km_off[m]) + nm]
        member_user_labels = user_labels_all[ku]
        member_merchant_labels = merchant_labels_all[km]
        n_blocks = int(out_n_blocks[m])

        blocks: list[Block] = []
        bits = None
        if n_blocks:
            row_bytes = (n + 7) // 8
            base = int(mask_off[m])
            rows = block_masks[base : base + n_blocks * row_bytes]
            bits = np.unpackbits(
                rows.reshape(n_blocks, row_bytes), axis=1, bitorder="little"
            )[:, :n].astype(bool)
            for b in range(n_blocks):
                row = bits[b]
                blocks.append(
                    Block(
                        index=b,
                        user_labels=np.sort(member_user_labels[row[:nu]]),
                        merchant_labels=np.sort(member_merchant_labels[row[nu:]]),
                        density=float(block_density[m * max_blocks + b]),
                        n_edges=int(block_n_edges[m * max_blocks + b]),
                    )
                )
        k_hat = config.truncation.truncate([block.density for block in blocks])
        result = FdetResult(all_blocks=tuple(blocks), k_hat=k_hat)

        if k_hat > 0:
            union = bits[:k_hat].any(axis=0)
            detected_users = np.ascontiguousarray(ku[union[:nu]])
            detected_merchants = np.ascontiguousarray(km[union[nu:]])
        else:
            detected_users = np.empty(0, dtype=np.int64)
            detected_merchants = np.empty(0, dtype=np.int64)
        out.append(
            NativeDetection(
                result=result,
                user_labels=member_user_labels,
                merchant_labels=member_merchant_labels,
                detected_user_indices=detected_users,
                detected_merchant_indices=detected_merchants,
            )
        )
    return out


def tally(index_arrays: Sequence[np.ndarray], size: int) -> np.ndarray:
    """int32 count of every node ``0..size-1`` over the index arrays."""
    flat = np.concatenate(index_arrays) if len(index_arrays) else np.empty(0, dtype=np.int64)
    return np.bincount(flat, minlength=size).astype(np.int32)


def label_nodes(labels: np.ndarray, label_sets: Sequence) -> list[np.ndarray]:
    """The nodes carrying each set's labels, one sort of ``labels`` for all.

    A label that ``labels`` repeats maps to its first node, one it lacks
    to ``-1`` (which :func:`tally` rejects).
    """
    if not len(label_sets):
        return []
    values = np.concatenate([np.asarray(v, dtype=np.int64).reshape(-1) for v in label_sets])
    nodes = np.full(values.size, -1, dtype=np.int64)
    if labels.size:
        order = np.argsort(labels, kind="stable")
        first = order[np.minimum(np.searchsorted(labels[order], values), labels.size - 1)]
        found = labels[first] == values
        nodes[found] = first[found]
    return np.split(nodes, np.cumsum([len(v) for v in label_sets[:-1]]))


def _distinct_labels(labels: np.ndarray) -> bool:
    """Whether no label repeats (strictly increasing labels skip the sort)."""
    return bool(np.all(labels[1:] > labels[:-1])) or np.unique(labels).size == labels.size


def detected_nodes(
    detections: Sequence[object], labels: np.ndarray, side: str, distinct: bool = False
) -> list[np.ndarray]:
    """Each member's detected parent nodes on ``side`` ("user"/"merchant").

    Batched-kernel index arrays are used as they are; otherwise, or when
    ``labels`` repeats a label, the detected labels are looked up, so a
    member votes each label once, on its first node. ``distinct=True``
    vouches that no label repeats.
    """
    indices = [getattr(d, f"detected_{side}_indices") for d in detections]
    if all(i is not None for i in indices) and (distinct or _distinct_labels(labels)):
        return indices
    return label_nodes(labels, [getattr(d.result, f"detected_{side}s")() for d in detections])


def vote_counters(
    detections: Sequence[object], graph: BipartiteGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Votes per parent node: int32 user and merchant arrays over ``graph``.

    ``graph.user_labels[i] -> votes[i]`` equals tallying each member's
    ``result.detected_users()`` labels.
    """
    users = detected_nodes(detections, graph.user_labels, "user")
    merchants = detected_nodes(detections, graph.merchant_labels, "merchant")
    return tally(users, graph.n_users), tally(merchants, graph.n_merchants)

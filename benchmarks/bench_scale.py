"""Bench: out-of-core scale — edges vs wall-clock vs peak RSS, shard sweep.

Exercises the sharded / mmap-backed path end to end at three scales (every
shard store is spilled to a store file and mapped, so "sharded+mmap" is
simply "sharded"; the labels keep the historical names):

* **guard** (in-process, seconds): stream-write a store file, fit it
  unsharded-resident and sharded-mmap, assert the vote tables are
  **bitwise identical**, and report wall-clock per stage. These timings
  feed ``check_regression.py --fast`` via :func:`guard_timings`.
* **smoke** (``--smoke``, CI): a multi-million-edge store fitted in a
  fresh subprocess per configuration so ``ru_maxrss`` is honest. Every
  fit fans members out to a process pool, so ``RUSAGE_SELF`` isolates
  the parent orchestrator and ``RUSAGE_CHILDREN`` the workers. Asserts
  the sharded+mmap fit beats the wide fit on parent peak RSS and stays
  **bounded well below** it on worker peak RSS (no process ever holds
  the full int64 graph), and that all configurations agree bitwise
  (vote fingerprints).
* **full** (``--full``, committed baseline): the 10M-edge / 1M-user
  headline — store write throughput, then a shard sweep (1, 2, 4, 8)
  recording seconds and peak RSS per configuration into
  ``baselines/scale.json``.

Run standalone::

    python benchmarks/bench_scale.py             # guard case, print stats
    python benchmarks/bench_scale.py --update    # rewrite baselines/scale.json (guard)
    python benchmarks/bench_scale.py --smoke     # CI: bounded-RSS assertion
    python benchmarks/bench_scale.py --full --update   # 10M-edge sweep -> baseline
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":  # allow standalone runs without PYTHONPATH
    sys.path.insert(0, os.path.join(_HERE, "..", "src"))

from repro.datasets import write_store
from repro.ensemble import EnsemFDet, EnsemFDetConfig
from repro.fdet import FdetConfig
from repro.graph import BipartiteGraph, GraphStore
from repro.sampling import StableEdgeSampler

BASELINE = os.path.join(_HERE, "baselines", "scale.json")

#: guard scale — small enough for tier-1, big enough that sharding is real
GUARD = {
    "n_users": 20_000,
    "n_merchants": 5_000,
    "n_edges": 150_000,
    "n_samples": 8,
    "ratio": 0.2,
    "stripe": 256,
    "shards": 4,
    "seed": 17,
}

#: CI smoke — millions of edges, fresh subprocess per config for honest RSS
SMOKE = {
    "n_users": 1_000_000,
    "n_merchants": 100_000,
    "n_edges": 10_000_000,
    "n_samples": 8,
    "ratio": 0.1,
    "stripe": 4_096,
    "seed": 17,
}

#: headline scale and the shard sweep recorded in the committed baseline
FULL = dict(SMOKE)
FULL_SHARDS = (1, 2, 4, 8)

#: --smoke bound: the sharded+mmap workers' peak RSS must stay below this
#: fraction of the wide fit's worker peak. Workers are where the
#: out-of-core structure shows up sharpest — a wide worker maps the
#: full graph's spill file before materializing its member, a sharded
#: worker maps one shard file — while both parents share the
#: Python-Counter vote-table overhead, which scales with detected nodes,
#: not edges. Observed at 10M edges: ~0.55; the slack absorbs
#: machine-to-machine noise without letting a full-graph attach sneak back
#: in (that alone would push the ratio past 1).
SMOKE_WORKER_RSS_FRACTION = 0.7


def _config(case: dict, shards: int, executor: str = "serial") -> EnsemFDetConfig:
    return EnsemFDetConfig(
        sampler=StableEdgeSampler(case["ratio"], stripe=case["stripe"]),
        n_samples=case["n_samples"],
        fdet=FdetConfig(max_blocks=6),
        executor=executor,
        n_workers=2 if executor == "process" else None,
        seed=case["seed"],
        shards=shards,
    )


def _fingerprint(result) -> str:
    """Order-independent digest of the vote table (bitwise parity check)."""
    digest = hashlib.sha256()
    for counter in (result.vote_table.user_votes, result.vote_table.merchant_votes):
        for label, votes in sorted(counter.items()):
            digest.update(f"{label}:{votes};".encode())
    return digest.hexdigest()


def wide_resident_bytes(case: dict) -> int:
    """The in-RAM footprint of the pre-out-of-core representation: int64
    endpoints and labels, fully materialised."""
    return 8 * (2 * case["n_edges"] + case["n_users"] + case["n_merchants"])


def _write(case: dict, path: str) -> float:
    started = time.perf_counter()
    write_store(
        path,
        case["n_users"],
        case["n_merchants"],
        case["n_edges"],
        kind="chung_lu",
        rng=case["seed"],
    )
    return time.perf_counter() - started


def _wide_graph(store: GraphStore) -> BipartiteGraph:
    """Upcast a store to the wide int64 in-RAM graph (the legacy path)."""
    return BipartiteGraph(
        store.n_users,
        store.n_merchants,
        np.asarray(store.edge_users, dtype=np.int64),
        np.asarray(store.edge_merchants, dtype=np.int64),
        edge_weights=(
            None
            if store.edge_weights is None
            else np.asarray(store.edge_weights, dtype=np.float64)
        ),
        user_labels=np.asarray(store.user_labels, dtype=np.int64),
        merchant_labels=np.asarray(store.merchant_labels, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# worker mode: one fit in a fresh process, honest ru_maxrss
# ---------------------------------------------------------------------------


def _worker(spec: dict) -> dict:
    """One fit in this fresh process.

    Members always run in pool workers (``executor="process"``), so
    ``RUSAGE_SELF`` is the *parent* fit orchestrator alone — the process
    whose residency the out-of-core path promises to bound — and
    ``RUSAGE_CHILDREN`` is the worker high-water mark — read only after
    the pool workers are joined, since the fit shuts its pool down without
    waiting and unreaped children are not counted.
    """
    case = spec["case"]
    started = time.perf_counter()
    if spec["transport"] == "wide":
        # the legacy path: full int64 graph resident, spilled per fit
        graph = _wide_graph(GraphStore.open(spec["path"], mmap=False))
        result = EnsemFDet(_config(case, shards=1, executor="process")).fit(graph)
    else:
        store = GraphStore.open(spec["path"], mmap=True)
        result = EnsemFDet(
            _config(case, shards=spec["shards"], executor="process")
        ).fit(store)
    seconds = time.perf_counter() - started
    for child in multiprocessing.active_children():
        child.join()
    return {
        "seconds": round(seconds, 3),
        "maxrss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "workers_maxrss_bytes": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        * 1024,
        "fingerprint": _fingerprint(result),
    }


def _run_worker(spec: dict) -> dict:
    """Run one fit configuration in a fresh interpreter, return its stats."""
    process = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", json.dumps(spec)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(_HERE, "..", "src")},
    )
    if process.returncode != 0:
        raise RuntimeError(f"scale worker failed:\n{process.stderr[-2000:]}")
    return json.loads(process.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# guard scale (in-process): parity gate + timings for check_regression
# ---------------------------------------------------------------------------


def measure(case: dict = GUARD) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro_scale_") as tmpdir:
        path = os.path.join(tmpdir, "graph.store")
        write_seconds = _write(case, path)
        store_bytes = os.path.getsize(path)

        store = GraphStore.open(path, mmap=False)
        started = time.perf_counter()
        resident = EnsemFDet(_config(case, shards=1)).fit(
            _wide_graph(store)
        )
        resident_seconds = time.perf_counter() - started

        opened = GraphStore.open(path, mmap=True)
        started = time.perf_counter()
        sharded = EnsemFDet(_config(case, shards=case["shards"])).fit(opened)
        sharded_seconds = time.perf_counter() - started

    if _fingerprint(resident) != _fingerprint(sharded):
        raise AssertionError(
            "sharded+mmap vote table diverged from the wide resident fit — "
            "bitwise-parity contract broken"
        )
    return {
        "case": dict(case),
        "store_bytes": store_bytes,
        "write_seconds": round(write_seconds, 4),
        "resident_fit_seconds": round(resident_seconds, 4),
        "sharded_fit_seconds": round(sharded_seconds, 4),
        "fingerprint": _fingerprint(resident),
    }


def guard_timings(stats: dict) -> dict[str, float]:
    """Flatten guard stats into lower-is-better seconds for the ratio guard."""
    edges = stats["case"]["n_edges"]
    return {
        f"scale-write@{edges}": stats["write_seconds"],
        f"scale-fit-resident@{edges}": stats["resident_fit_seconds"],
        f"scale-fit-sharded@{edges}": stats["sharded_fit_seconds"],
    }


# ---------------------------------------------------------------------------
# smoke / full: subprocess sweep with RSS accounting
# ---------------------------------------------------------------------------


def sweep(case: dict, shard_counts: tuple[int, ...], keep_dir: str | None = None) -> dict:
    tmpdir = keep_dir or tempfile.mkdtemp(prefix="repro_scale_")
    path = os.path.join(tmpdir, "graph.store")
    print(f"writing {case['n_edges']:,}-edge store to {path} ...", flush=True)
    write_seconds = _write(case, path)
    store_bytes = os.path.getsize(path)
    print(
        f"  wrote {store_bytes / 1e6:.0f} MB in {write_seconds:.1f}s "
        f"({case['n_edges'] / write_seconds / 1e6:.2f} M edges/s)",
        flush=True,
    )

    configs = [{"label": "wide-resident", "transport": "wide", "shards": 1}]
    configs += [
        {"label": f"mmap-shards-{k}", "transport": "store", "shards": k}
        for k in shard_counts
    ]
    runs = []
    try:
        for config in configs:
            spec = {**config, "case": case, "path": path}
            print(f"running {config['label']} ...", flush=True)
            stats = _run_worker(spec)
            print(
                f"  {config['label']}: {stats['seconds']}s, "
                f"parent peak RSS {stats['maxrss_bytes'] / 1e6:.0f} MB, "
                f"worker peak RSS {stats['workers_maxrss_bytes'] / 1e6:.0f} MB",
                flush=True,
            )
            runs.append({**config, **stats})
    finally:
        if keep_dir is None:
            import shutil

            shutil.rmtree(tmpdir, ignore_errors=True)

    fingerprints = {run["fingerprint"] for run in runs}
    if len(fingerprints) != 1:
        raise AssertionError(
            f"vote fingerprints diverged across configurations: "
            f"{ {run['label']: run['fingerprint'][:12] for run in runs} }"
        )
    return {
        "case": dict(case),
        "store_bytes": store_bytes,
        "wide_resident_bytes": wide_resident_bytes(case),
        "write_seconds": round(write_seconds, 2),
        "runs": runs,
        "fingerprint": runs[0]["fingerprint"],
    }


def smoke(case: dict = SMOKE) -> int:
    stats = sweep(case, shard_counts=(4,))
    wide = next(r for r in stats["runs"] if r["label"] == "wide-resident")
    sharded = next(r for r in stats["runs"] if r["label"].startswith("mmap-shards"))
    worker_bound = wide["workers_maxrss_bytes"] * SMOKE_WORKER_RSS_FRACTION
    print(
        f"\nwide-resident footprint {stats['wide_resident_bytes'] / 1e6:.0f} MB; "
        f"wide fit: parent {wide['maxrss_bytes'] / 1e6:.0f} MB / "
        f"workers {wide['workers_maxrss_bytes'] / 1e6:.0f} MB; "
        f"sharded+mmap fit: parent {sharded['maxrss_bytes'] / 1e6:.0f} MB / "
        f"workers {sharded['workers_maxrss_bytes'] / 1e6:.0f} MB "
        f"(worker bound {worker_bound / 1e6:.0f} MB)"
    )
    failures = []
    if sharded["maxrss_bytes"] >= wide["maxrss_bytes"]:
        failures.append(
            f"sharded+mmap parent peak RSS {sharded['maxrss_bytes'] / 1e6:.0f} MB "
            f"is not below the wide fit's parent peak "
            f"({wide['maxrss_bytes'] / 1e6:.0f} MB)"
        )
    if sharded["workers_maxrss_bytes"] >= worker_bound:
        failures.append(
            f"sharded+mmap worker peak RSS "
            f"{sharded['workers_maxrss_bytes'] / 1e6:.0f} MB is not below "
            f"{SMOKE_WORKER_RSS_FRACTION:.0%} of the wide fit's worker peak "
            f"({worker_bound / 1e6:.0f} MB)"
        )
    if failures:
        for failure in failures:
            print(f"SMOKE FAILED: {failure}", file=sys.stderr)
        return 1
    print("scale smoke OK: bitwise parity and bounded RSS")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true", help="rewrite baselines/scale.json")
    parser.add_argument("--smoke", action="store_true", help="CI smoke: bounded-RSS assertion")
    parser.add_argument("--full", action="store_true", help="10M-edge shard sweep")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        print(json.dumps(_worker(json.loads(args.worker))))
        return 0
    if args.smoke:
        return smoke()

    stats = measure()
    payload: dict = {
        "meta": {"cpu_count": os.cpu_count()},
        "guard": guard_timings(stats),
    }
    if args.full:
        full = sweep(FULL, shard_counts=FULL_SHARDS)
        payload["full"] = full
        print(json.dumps(full, indent=2))
    else:
        print(json.dumps(stats, indent=2))

    if args.update:
        if not args.full and os.path.exists(BASELINE):
            # keep the committed full-sweep record when only guard reruns
            with open(BASELINE) as handle:
                previous = json.load(handle)
            if "full" in previous:
                payload["full"] = previous["full"]
        with open(BASELINE, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

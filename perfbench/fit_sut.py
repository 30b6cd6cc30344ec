"""The process under test of the fit workloads (``fit_batch``, ``fit_pool``).

Started by ``run.py``; not meant to be run by hand. One process:

1. set-up: imports the package, generates the JD-like graph from the
   seed and runs one warm-up fit (kernel load, first-touch costs), then
   prints ``READY`` — with ``--boot-only`` it exits here;
2. fits the same graph back to back for ``--seconds``, timing each
   ``EnsemFDet.fit``, and digests every fit's vote table;
3. memory phase: prints ``MEMORY``, waits for a line on stdin (the
   benchmark has started sampling the process tree's memory), then runs
   :data:`MEMORY_FITS` untimed fits, printing ``MEMORY_FIT`` after each,
   and ``MEMORY_END``; sampling from outside slows the process, so it
   never overlaps a timed fit;
4. prints one JSON line with the samples, the fingerprints and, with
   ``--trace 1``, the per-layer summary.

With tracing, every other fit is traced, so the same process also gives
the untraced times the tracing overhead is measured against.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import host_record, use_bench_env, vote_fingerprint

#: dataset scale, ensemble size per benchmark scale (tiny = smoke check)
SCALES = {"full": (5.0, 80), "tiny": (0.3, 16)}
#: untimed fits whose peak memory the benchmark samples
MEMORY_FITS = 3


def make_config(workload: str, scale: str, reference: bool = False):
    """The ensemble configuration of a fit workload.

    ``reference`` gives the cross-check configuration: the per-member
    (non-batched) path, run in the parent process.
    """
    from repro.ensemble import EnsemFDetConfig
    from repro.fdet import FdetConfig
    from repro.sampling import RandomEdgeSampler, TwoSideNodeSampler

    n_samples = SCALES[scale][1]
    if workload == "fit_batch":
        sampler, executor = RandomEdgeSampler(0.1), "serial"
    elif workload == "fit_pool":
        sampler, executor = TwoSideNodeSampler(0.3), "process"
    else:
        raise ValueError(f"not a fit workload: {workload}")
    return EnsemFDetConfig(
        sampler=sampler,
        n_samples=n_samples,
        fdet=FdetConfig(max_blocks=8),
        executor="serial" if reference else executor,
        seed=0,
        native_batch=False if reference else None,
    )


def make_dataset(scale: str, seed: int):
    from repro.datasets import make_jd_dataset

    return make_jd_dataset(1, scale=SCALES[scale][0], seed=seed)


def fingerprint(result) -> str:
    table = result.vote_table
    return vote_fingerprint(table.user_votes, table.merchant_votes)


def precision_at(result, blacklist, k: int = 100) -> float:
    """Share of the ``k`` most-voted users that are blacklisted."""
    ranked = sorted(result.vote_table.user_votes.items(), key=lambda item: (-item[1], item[0]))
    top = [label for label, _votes in ranked[:k]]
    return sum(label in blacklist for label in top) / max(1, len(top))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=sorted(SCALES))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--boot-only", action="store_true")
    parser.add_argument(
        "--reference",
        action="store_true",
        help="also fit once on the per-member path and report its fingerprint",
    )
    args = parser.parse_args(argv)

    use_bench_env()
    from repro.ensemble import EnsemFDet

    dataset = make_dataset(args.scale, args.seed)
    graph = dataset.graph
    config = make_config(args.workload, args.scale)
    warm = EnsemFDet(config).fit(graph)
    print("READY", flush=True)
    if args.boot_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(tracing.Tracer())

    fits: list[dict] = []
    traced_wall = 0.0
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds or len(fits) < 3:
        traced = tracer is not None and len(fits) % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        t0 = time.perf_counter()
        try:
            result = EnsemFDet(config).fit(graph)
            t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - a failed fit is counted, not fatal
            fits.append({"failed": f"{type(exc).__name__}: {exc}", "traced": traced})
            continue
        finally:
            if tracer is not None:
                tracer.enabled = False
        if traced:
            traced_wall += t1 - t0
        fits.append(
            {
                "fit_s": t1 - t0,
                "traced": traced,
                "fingerprint": fingerprint(result),
                "failed_members": result.n_failed,
            }
        )
    print("MEMORY", flush=True)
    sys.stdin.readline()
    memory_fingerprints = []
    for _ in range(MEMORY_FITS):
        memory_fingerprints.append(fingerprint(EnsemFDet(config).fit(graph)))
        print("MEMORY_FIT", flush=True)
    print("MEMORY_END", flush=True)

    out = {
        "fits": fits,
        "other_fingerprints": [fingerprint(warm), *memory_fingerprints],
        "precision_at_100": precision_at(warm, dataset.blacklist),
        "graph": [graph.n_users, graph.n_merchants, graph.n_edges],
        "host": host_record(),
    }
    if args.reference:
        reference = EnsemFDet(make_config(args.workload, args.scale, reference=True)).fit(graph)
        out["reference_fingerprint"] = fingerprint(reference)
    if tracer is not None:
        n_traced = sum(1 for fit in fits if fit.get("traced") and "fit_s" in fit)
        out["layers"] = tracing.summarize(tracer, n_traced)
        out["layers"]["traced_wall_s"] = traced_wall
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

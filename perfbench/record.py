"""Record the expected vote fingerprints of the fit workloads.

Usage (from the repository root)::

    python3 perfbench/record.py --seeds 0-31

For every seed and fit workload the graph is fitted twice: with the
workload's own configuration and on the per-member reference path
(``native_batch=False``, serial, in this process). A seed whose two
fingerprints differ is refused, not recorded. The result is merged into
``fingerprints.json``, which ``run.py`` checks every fit against.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import BENCH_DIR, use_bench_env

FIT_WORKLOADS = ("fit_batch", "fit_pool")


def _seeds(spec: str) -> list[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    use_bench_env()
    from repro.ensemble import EnsemFDet

    from fit_sut import fingerprint, make_config, make_dataset

    path = BENCH_DIR / "fingerprints.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    refused = 0
    for seed in _seeds(args.seeds):
        graph = make_dataset("full", seed).graph
        for workload in FIT_WORKLOADS:
            fitted = fingerprint(EnsemFDet(make_config(workload, "full")).fit(graph))
            reference = fingerprint(EnsemFDet(make_config(workload, "full", reference=True)).fit(graph))
            key = f"{workload}:full:{seed}"
            if fitted != reference:
                print(f"{key}: REFUSED, {fitted} != per-member {reference}", file=sys.stderr)
                refused += 1
                continue
            recorded[key] = fitted
            print(f"{key}: {fitted}", flush=True)
    path.write_text(json.dumps(dict(sorted(recorded.items())), indent=1) + "\n")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())

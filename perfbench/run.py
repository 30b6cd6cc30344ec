"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {fit_batch,fit_pool,serve_window} \\
        --seed N --seconds S --trace {0,1} [--scale {full,tiny}]

``--trace 0`` measures the end-to-end metrics with no tracing code loaded
in the program's processes. ``--trace 1`` is a separate run that wraps
the layer boundaries (see ``tracing.py``) for half of the measured
operations and reports the per-layer metrics, the untraced remainder and
the tracing overhead against the other half. Both print one line per
metric (name, value, unit, sample count) and, last, one JSON object.

The exit code is non-zero when any correctness check fails: a fit's vote
fingerprint differs from the recorded one (``fingerprints.json``, or an
in-run fit on the per-member path for seeds not recorded), or the served
vote table differs from a cold ``fit_window`` of the replayed window.
Metric definitions and the layer-to-metric predictions are in
``README.md`` and ``predictions.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    WORK_DIR,
    TreeMemory,
    bench_env,
    cpu_ticks,
    host_record,
    median,
    program_present,
    tail,
    use_bench_env,
)

WORKLOADS = ("fit_batch", "fit_pool", "serve_window")
FIT_BOOTS = 3
#: a fit process that runs longer than this is killed and the run fails
PROCESS_TIMEOUT_S = 150

#: end-to-end metrics (``--trace 0``), each printed for every workload
END_TO_END = {
    "setup_s": "s",
    "latency_s.p50": "s",
    "peak_rss_mb": "MB",
}
#: per-layer metrics (``--trace 1``); layers a workload bypasses read 0
PER_LAYER = {
    "fdet.kernel_s": "s",
    "fdet.kernel_members": "count",
    "sampling.plan_s": "s",
    "ensemble.votes_s": "s",
    "parallel.pool_start_s": "s",
    "graph.store_export_s": "s",
    "ensemble.runner_s": "s",
    "ensemble.retries": "count",
    "ensemble.failed_members": "count",
    "graph.window_s": "s",
    "graph.compactions": "count",
    "ensemble.merge_s": "s",
    "ensemble.refresh_ratio.append": "ratio",
    "ensemble.refresh_ratio.delete": "ratio",
    "serve.capture_s": "s",
    "serve.queue_wait_s": "s",
    "results.commit_s": "s",
    "results.state_mb": "MB",
    "serve.read_s": "s",
    "load.late_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Result:
    """Metrics, report-only figures and checks of one run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict[str, tuple[float, str, int, str]] = {}
        self.extra: dict[str, tuple[float, str, int, str]] = {}
        self.checks: dict[str, bool] = {}
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.host: dict = {}

    def put(
        self, name: str, value: float, unit: str, samples: int, extra: bool = False, alias: str = ""
    ) -> None:
        """Record a metric; ``alias`` is its workload-specific name."""
        (self.extra if extra else self.metrics)[name] = (float(value), unit, int(samples), alias)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def _fingerprints(path: Path) -> dict[str, str]:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def _launch_fit(args, boot_only: bool, reference: bool, log: Path):
    command = [
        sys.executable,
        str(BENCH_DIR / "fit_sut.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", args.scale,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if boot_only:
        command.append("--boot-only")
    if reference:
        command.append("--reference")
    started = time.perf_counter()
    memory = None
    peaks: list[float] = []
    ready = None
    with log.open("w") as err, subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=bench_env(), text=True
    ) as proc:
        # the run must end within its time limit even if the process hangs
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.strip() == "READY":
                    ready = time.perf_counter() - started
                    if boot_only:
                        break
                elif line.strip() == "MEMORY":
                    memory = TreeMemory(proc.pid).start()
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                elif line.strip() == "MEMORY_FIT":
                    peaks.append(memory.take())
                elif line.strip() == "MEMORY_END":
                    memory.stop()
                    break
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if memory is not None:
                memory.stop()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready is None or proc.returncode != 0:
        raise RuntimeError(
            f"{args.workload} process failed ({proc.returncode}); see {log}:\n{log.read_text()[-2000:]}"
        )
    return ready, peaks, rest


def run_fit(args, workdir: Path) -> Result:
    result = Result(args.workload)
    key = f"{args.workload}:{args.scale}:{args.seed}"
    expected = _fingerprints(Path(args.fingerprints)).get(key)
    boots = []
    for boot in range(FIT_BOOTS):
        last = boot == FIT_BOOTS - 1
        ready, peaks, rest = _launch_fit(
            args, boot_only=not last, reference=last and expected is None, log=workdir / f"fit{boot}.log"
        )
        boots.append(ready)
    data = json.loads(rest.strip().splitlines()[-1])
    result.host = data["host"]

    fits = data["fits"]
    done = [fit for fit in fits if "fit_s" in fit]
    plain = [fit for fit in done if not fit["traced"]]
    result.attempted = len(fits)
    result.failed = len(fits) - len(done)
    if expected is None:
        expected = data["reference_fingerprint"]
        result.notes.append(f"{key} not recorded: expected fingerprint from an in-run per-member fit")
    result.checks["every_fit_matches_expected_fingerprint"] = all(
        fingerprint == expected
        for fingerprint in [fit["fingerprint"] for fit in done] + data["other_fingerprints"]
    )
    result.checks["no_failed_fits"] = result.failed == 0

    fit_s = [fit["fit_s"] for fit in plain]
    result.put("setup_s", median(boots), "s", len(boots))
    result.notes.append("setup runs (s): " + " ".join(f"{boot:.3f}" for boot in boots))
    result.put("latency_s.p50", median(fit_s), "s", len(fit_s), alias="fit_s.p50")
    result.put("peak_rss_mb", median(peaks), "MB", len(peaks))
    _put_tail(result, "fit_s", fit_s)
    result.put("precision_at_100", data["precision_at_100"], "ratio", 100, extra=True)
    result.put("failed_members", sum(fit["failed_members"] for fit in done), "count", len(done), extra=True)
    result.put("failed_ratio", result.failed / max(1, result.attempted), "ratio", result.attempted, extra=True)

    if args.trace:
        layers = data["layers"]
        traced = [fit["fit_s"] for fit in done if fit["traced"]]
        n = max(1, len(traced))
        _put_layers(result, layers, n)
        result.put("load.late_s", 0.0, "s", 0)
        result.put("trace.remainder_s", (layers["traced_wall_s"] - layers["root_s"]) / n, "s", n)
        result.put("trace.overhead_ratio", median(traced) / median(fit_s) - 1.0, "ratio", len(traced))
    return result


def _put_tail(result: Result, name: str, values: list[float]) -> None:
    """Report-only tail: the highest percentile with 10 samples beyond it."""
    pct, value = tail(values)
    if pct is None:
        result.notes.append(f"{name}: {len(values)} samples, too few for a tail percentile")
    else:
        result.put(f"{name}.p{pct:g}", value, "s", len(values), extra=True)


def _put_layers(result: Result, layers: dict, n_ops: int) -> None:
    for name, unit in PER_LAYER.items():
        if name in layers:
            result.put(name, layers[name], unit, n_ops)


def run_serve(args, workdir: Path) -> Result:
    import serve_bench

    result = Result(args.workload)
    data = serve_bench.run(args.seed, args.seconds, bool(args.trace), args.scale, workdir)
    result.host = host_record()
    ingests = data["ingests"]
    reads = data["reads"]
    ok_reads = [lat for lat, status in reads if status == 200]
    result.attempted = len(ingests) + len(data["snapshots_s"]) + len(reads)
    result.failed = sum(1 for i in ingests if i["status"] != 200) + (len(reads) - len(ok_reads))
    result.failed += sum(1 for f in data["failures"] if f.startswith("snapshot"))
    result.checks.update(data["checks"])
    result.checks["no_failed_ingests"] = all(i["status"] == 200 for i in ingests)

    timed = [i for i in ingests if i["timed"]]
    plain = [i for i in timed if not i["traced"]]
    lags = [i["lag_s"] for i in plain]
    result.put("setup_s", median(data["boots_s"]), "s", len(data["boots_s"]))
    result.notes.append("setup runs (s): " + " ".join(f"{boot:.3f}" for boot in data["boots_s"]))
    result.put("latency_s.p50", median(lags), "s", len(lags), alias="ingest_lag_s.p50")
    result.put("peak_rss_mb", median(data["peaks_mb"]), "MB", len(data["peaks_mb"]))
    _put_tail(result, "ingest_lag_s", lags)
    result.put("query_s.p50", median(ok_reads), "s", len(ok_reads), extra=True)
    _put_tail(result, "query_s", ok_reads)
    result.put("queries_per_s", len(ok_reads) / data["measured_s"], "1/s", len(ok_reads), extra=True)
    result.put("prefill_s", data["prefill_s"], "s", 1, extra=True)
    if data["snapshots_s"]:
        result.put("snapshot_s.p50", median(data["snapshots_s"]), "s", len(data["snapshots_s"]), extra=True)
    result.put("failed_ratio", result.failed / max(1, result.attempted), "ratio", result.attempted, extra=True)
    late = [i["late_s"] for i in timed]
    result.put("load.late_s", sum(late) / len(late), "s", len(late), extra=not args.trace)

    if args.trace:
        import tracing

        traced = [i for i in ingests if i["traced"]]
        n = max(1, len(traced))
        layers = tracing.summarize(tracing.Tracer.load(data["spans"]), n)
        _put_layers(result, layers, n)
        # these are per read or per state commit, not per ingest
        result.put("serve.read_s", layers["serve.read_s"], "s", layers["serve.reads"])
        for name in ("results.commit_s", "results.state_mb"):
            result.put(name, layers[name], PER_LAYER[name], layers["results.commits"])
        lag_total = sum(i["lag_s"] for i in traced)
        remainder = (lag_total - layers["root_s"] - layers["queue_wait_total_s"]) / n
        result.put("trace.remainder_s", remainder, "s", n)
        overhead = median([i["lag_s"] for i in traced]) / median(lags) - 1.0
        result.put("trace.overhead_ratio", overhead, "ratio", n)
    return result


def report(result: Result, trace: bool) -> dict:
    """Print the human-readable lines; return the JSON result object."""
    names = PER_LAYER if trace else END_TO_END
    print(f"# host {json.dumps(result.host, sort_keys=True)}")
    for note in result.notes:
        print(f"# note {note}")
    for name, passed in result.checks.items():
        print(f"# check {name}: {'ok' if passed else 'FAILED'}")
    for name in names:
        value, unit, samples, alias = result.metrics[name]
        also = f" = {alias}" if alias else ""
        print(f"{result.workload} {name} {value:.6g} {unit} (n={samples}){also}")
    for name, (value, unit, samples, _alias) in result.extra.items():
        print(f"{result.workload} {name} {value:.6g} {unit} (n={samples}, report only)")
    return {
        "correct": result.correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name][0], "unit": result.metrics[name][1]}
            for name in names
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--fingerprints",
        default=str(BENCH_DIR / "fingerprints.json"),
        help="recorded vote fingerprints of the fit workloads",
    )
    args = parser.parse_args(argv)
    if not program_present():
        print("error: no program to benchmark (src/repro is missing)", file=sys.stderr)
        return 2

    # a terminated run still stops the processes it started (``finally``)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    use_bench_env()
    (WORK_DIR / "runs").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR / "runs"))
    steal_start, total_start = cpu_ticks()
    try:
        if args.workload == "serve_window":
            result = run_serve(args, workdir)
        else:
            result = run_fit(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal_end, total_end = cpu_ticks()
    result.host["steal_pct"] = round(100.0 * (steal_end - steal_start) / max(1, total_end - total_start), 1)
    payload = report(result, bool(args.trace))
    print(json.dumps(payload), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

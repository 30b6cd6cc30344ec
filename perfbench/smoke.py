"""Tiny-scale smoke check of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/smoke.py

1. Runs every workload at ``--scale tiny``, untraced and traced, and
   asserts a zero exit, ``correct: true``, and that every metric
   ``BENCHMARK.json`` names (``end_to_end`` untraced, ``per_layer``
   traced) is printed on its own line with its unit and sits in the JSON
   result with the same unit.
2. Runs ``fit_batch`` against a fingerprints file whose entry for the seed
   is wrong, and asserts a non-zero exit with ``correct: false``.
3. Runs the benchmark command in a directory holding only
   ``BENCHMARK.json`` and the benchmark's files, and asserts a non-zero
   exit with no result printed.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import BENCH_DIR, ROOT, WORK_DIR

SECONDS = "2"
SEED = "3"


def _run(cwd, *extra: str) -> tuple[int, list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], *extra], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc.returncode, proc.stdout.splitlines()


def _check_metrics(lines: list[str], workload: str, metrics: list[dict]) -> list[str]:
    problems = []
    result = json.loads(lines[-1])
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        printed = [
            line for line in lines[:-1] if line.startswith(f"{workload} {name} ") and f" {unit} (n=" in line
        ]
        if not printed:
            problems.append(f"{workload}: no line for {name} [{unit}]")
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            problems.append(f"{workload}: JSON lacks {name} [{unit}]: {got}")
    extra = set(result["metrics"]) - {metric["name"] for metric in metrics}
    if extra:
        problems.append(f"{workload}: JSON has unlisted metrics {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            args = ("--workload", workload, "--seed", SEED, "--seconds", SECONDS, "--trace", trace)
            code, lines = _run(ROOT, *args, "--scale", "tiny")
            label = f"{workload} --trace {trace}"
            if code != 0 or not lines or not json.loads(lines[-1])["correct"]:
                problems.append(f"{label}: exit {code}, last line {lines[-1:]}")
                continue
            problems += _check_metrics(lines, workload, metrics)
            print(f"ok {label}", flush=True)

    scratch = WORK_DIR / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    wrong = scratch / "wrong.json"
    wrong.write_text(json.dumps({f"fit_batch:tiny:{SEED}": "0" * 32}))
    args = ("--workload", "fit_batch", "--seed", SEED, "--seconds", SECONDS, "--trace", "0")
    code, lines = _run(ROOT, *args, "--scale", "tiny", "--fingerprints", str(wrong))
    if code == 0 or json.loads(lines[-1])["correct"]:
        problems.append(f"wrong expected fingerprint was accepted (exit {code})")
    else:
        print("ok wrong fingerprint fails the run", flush=True)

    bare = scratch / "bare"
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = _run(bare, *args)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"benchmark without the program exited {code} with {lines[-1:]}")
    else:
        print("ok no program, no result", flush=True)
    shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""The ``serve_window`` workload: ``ensemfdet serve`` under ingest and reads.

The server runs as a subprocess with the CLI defaults, except
``--window 40`` (batch-count rolling window) and ``--port 0``. It
cold-fits a Chung-Lu base graph; set-up then pre-fills the window, so
that every measured ingest expires one batch. One process drives it over
two keep-alive connections:

* the writer sends open-loop ``POST /ingest`` batches at a fixed rate,
  each with a timestamp; every 4th batch also retracts a few random live
  edges, and every 20th is followed by a ``POST /snapshot``. Each ingest
  is timed from its *due* time to its response, so a stall delays the
  batches behind it;
* the reader runs a closed loop of ``GET /score/{u}`` (80%) and
  ``GET /top?k=50`` (20%) over users the server knows.

After the timed ingests, :data:`MEMORY_INGESTS` more go out at the same
rate while the benchmark samples the server's memory. The whole op
sequence is drawn from the seed before the server starts. After the run,
the generator replays the batches it sent into a fresh window and checks
the served vote table against a cold ``EnsemFDet.fit_window`` of that
window, fitted with the configuration the server stored.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import math
import random
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path

from common import BENCH_DIR, TreeMemory, bench_env, vote_fingerprint

#: open-loop ingest rate (batches per second): about half of what the
#: server sustains beside the closed-loop reader on a 2-core host
RATE = 1.0
DELETE_EVERY = 4
N_DELETE = 8
SNAPSHOT_EVERY = 20
TOP_K = 50
SCORE_SHARE = 0.8
BOOTS = 3
BOOT_TIMEOUT_S = 100
#: untimed ingests after the timed ones, while the benchmark samples the
#: server's memory (sampling from outside slows it, so it never overlaps
#: a timed ingest)
MEMORY_INGESTS = 4
SCALES = {
    "full": {"users": 20_000, "merchants": 8_000, "edges": 170_000, "batch": 2048, "window": 40},
    "tiny": {"users": 2_000, "merchants": 800, "edges": 17_000, "batch": 256, "window": 8},
}


@dataclass
class Op:
    """One ingest: appended edges, optional retractions, its timestamp."""

    users: list[int]
    merchants: list[int]
    timestamp: float
    remove: list[tuple[int, int]] = field(default_factory=list)

    def body(self) -> bytes:
        payload = {"users": self.users, "merchants": self.merchants, "timestamp": self.timestamp}
        if self.remove:
            payload["remove_users"] = [u for u, _ in self.remove]
            payload["remove_merchants"] = [m for _, m in self.remove]
        return json.dumps(payload).encode()


class LiveModel:
    """The generator's own account of which streamed edges are live.

    Batch 0 (the base graph) counts toward the window but is not tracked,
    so the model only ever under-counts live copies: every retraction it
    draws names an edge the server still holds.
    """

    def __init__(self, max_batches: int) -> None:
        self.max_batches = max_batches
        self.batches: deque[tuple[int, list[tuple[int, int]]]] = deque([(0, [])])
        self.copies: dict[tuple[int, int], deque[int]] = defaultdict(deque)

    def draw(self, rng: random.Random, count: int) -> list[tuple[int, int]]:
        """``count`` distinct live pairs, uniform over the streamed batches."""
        streamed = [pairs for _bid, pairs in self.batches if pairs]
        chosen: list[tuple[int, int]] = []
        for _attempt in range(100 * count):
            if not streamed or len(chosen) == count:
                break
            pair = rng.choice(rng.choice(streamed))
            if pair not in chosen and self.copies.get(pair):
                chosen.append(pair)
        return chosen

    def apply(self, bid: int, pairs: list[tuple[int, int]], remove) -> None:
        """Retract, append, expire — the server's order of one update."""
        for pair in remove:
            self.copies[pair].popleft()
        for pair in pairs:
            self.copies[pair].append(bid)
        self.batches.append((bid, pairs))
        while len(self.batches) > self.max_batches:
            old, old_pairs = self.batches.popleft()
            for pair in old_pairs:
                queue = self.copies.get(pair)
                if queue and queue[0] == old:
                    queue.popleft()


def make_inputs(seed: int, scale: str, seconds: float):
    """Base graph plus the prefill, timed and memory-phase ops."""
    import numpy as np

    from repro.datasets.synthetic import chung_lu_bipartite

    size = SCALES[scale]
    rng = np.random.default_rng(seed)
    base = chung_lu_bipartite(size["users"], size["merchants"], size["edges"], rng=rng)
    users = base.user_labels[base.edge_users]
    merchants = base.merchant_labels[base.edge_merchants]
    model = LiveModel(size["window"])
    picker = random.Random(seed)
    n_prefill = size["window"]
    n_timed = max(2, math.ceil(seconds * RATE))
    ops: list[Op] = []
    for index in range(n_prefill + n_timed + MEMORY_INGESTS):
        # Chung-Lu batches over the base's realized degrees (known nodes)
        us = users[rng.integers(0, users.size, size["batch"])].tolist()
        ms = merchants[rng.integers(0, merchants.size, size["batch"])].tolist()
        remove = model.draw(picker, N_DELETE) if index and index % DELETE_EVERY == 0 else []
        ops.append(Op(us, ms, float(index + 1), remove))
        model.apply(index + 1, list(zip(us, ms)), remove)
    return base, ops[:n_prefill], ops[n_prefill : n_prefill + n_timed], ops[n_prefill + n_timed :]


class Server:
    """One ``ensemfdet serve`` subprocess, booted through ``serve_boot.py``."""

    def __init__(self, edges: Path, state: Path, window: int, trace_file: Path | None, log: Path):
        self.trace_file = trace_file
        command = [
            sys.executable,
            str(BENCH_DIR / "serve_boot.py"),
            str(trace_file) if trace_file else "-",
            "serve",
            str(edges),
            "--state",
            str(state),
            "--window",
            str(window),
            "--port",
            "0",
        ]
        self._log = log.open("w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=bench_env(), text=True
        )
        self.port = None
        # a server that never gets ready is killed, so the run still ends
        watchdog = threading.Timer(BOOT_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("# serving on http://"):
                    self.port = int(line.rsplit(":", 1)[1])
                    break
        finally:
            watchdog.cancel()
        self.boot_s = time.perf_counter() - started
        if self.port is None:
            self.stop()
            raise RuntimeError(f"server did not become ready; see {log}")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> int:
        """SIGTERM (drain, commit state, exit 0) and wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return code


def request(conn, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def reference_votes(users, merchants, ops: list[Op], window: int, config) -> tuple[str, dict]:
    """Fingerprint and user votes of a cold ``fit_window`` of the live
    window the sent batches leave, fitted serially with ``config``."""
    from repro.ensemble import EnsemFDet
    from repro.graph import GraphAccumulator, WindowConfig

    base = GraphAccumulator()
    base.append(users, merchants)
    acc = GraphAccumulator.from_graph(base.graph(), window=WindowConfig(max_batches=window), timestamp=0.0)
    for op in ops:
        if op.remove:
            acc.retract([u for u, _ in op.remove], [m for _, m in op.remove])
        acc.append(op.users, op.merchants, timestamp=op.timestamp)
        acc.expire()
        acc.maybe_compact()
    serial = dataclasses.replace(config, executor="serial")
    table = EnsemFDet(serial).fit_window(acc.window()).vote_table
    return vote_fingerprint(table.user_votes, table.merchant_votes), dict(table.user_votes)


def run(seed: int, seconds: float, trace: bool, scale: str, workdir: Path) -> dict:
    """One run of the workload; returns samples, checks and layer dumps."""
    size = SCALES[scale]
    from repro.graph import save_edge_list

    base, prefill, measured, memory_ops = make_inputs(seed, scale, seconds)
    # the server reads these rows back in file order, as the replay does
    users = base.user_labels[base.edge_users]
    merchants = base.merchant_labels[base.edge_merchants]
    edges = workdir / "edges.tsv"
    save_edge_list(base, edges)
    known = sorted(set(users.tolist()))

    boots: list[float] = []
    server = None
    for boot in range(BOOTS):
        last = boot == BOOTS - 1
        trace_file = workdir / "spans.json" if (trace and last) else None
        server = Server(edges, workdir / f"state{boot}.npz", size["window"], trace_file, workdir / f"server{boot}.log")
        boots.append(server.boot_s)
        if not last:
            server.stop()

    failures: list[str] = []
    try:
        writer = server.connect()
        started = time.perf_counter()
        for op in prefill:
            status, body = request(writer, "POST", "/ingest", op.body())
            if status != 200:
                raise RuntimeError(f"prefill ingest failed: {status} {body[:200]!r}")
        prefill_s = time.perf_counter() - started
        bodies = [op.body() for op in measured + memory_ops]
        memory = TreeMemory(server.proc.pid)

        ingests: list[dict] = []
        peaks: list[float] = []
        snapshots: list[float] = []
        reads: list[tuple[float, int]] = []  # (latency, HTTP status)
        done = threading.Event()
        timed = threading.Event()
        timed.set()
        half = len(measured) // 2

        def read_loop() -> None:
            conn = server.connect()
            picker = random.Random(seed + 1)
            try:
                while not done.is_set():
                    if picker.random() < SCORE_SHARE:
                        path = f"/score/{picker.choice(known)}"
                    else:
                        path = f"/top?k={TOP_K}"
                    t0 = time.perf_counter()
                    try:
                        status, _ = request(conn, "GET", path)
                    except (OSError, http.client.HTTPException) as exc:
                        failures.append(f"read {path}: {exc}")
                        conn.close()
                        conn = server.connect()
                        status = 0
                    if timed.is_set():
                        reads.append((time.perf_counter() - t0, status))
            finally:
                conn.close()

        reader = threading.Thread(target=read_loop, name="bench-reader")
        reader.start()
        try:
            t_zero = time.perf_counter() + 0.05
            for index, body in enumerate(bodies):
                due = t_zero + index / RATE
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                if trace and index == half:
                    server.signal(signal.SIGUSR1)
                if index == len(measured):
                    timed.clear()
                    measured_s = time.perf_counter() - t_zero
                    if trace:
                        server.signal(signal.SIGUSR2)
                    memory.start()
                if index >= len(measured):
                    memory.take()
                sent = time.perf_counter()
                status, reply = request(writer, "POST", "/ingest", body)
                finished = time.perf_counter()
                if index >= len(measured):
                    peaks.append(memory.take())
                ingests.append(
                    {
                        "lag_s": finished - due,
                        "late_s": sent - due,
                        "traced": trace and half <= index < len(measured),
                        "timed": index < len(measured),
                        "status": status,
                    }
                )
                if status != 200:
                    failures.append(f"ingest {index}: {status} {reply[:200]!r}")
                if (index + 1) % SNAPSHOT_EVERY == 0:
                    t0 = time.perf_counter()
                    status, reply = request(writer, "POST", "/snapshot", b"{}")
                    snapshots.append(time.perf_counter() - t0)
                    if status != 200:
                        failures.append(f"snapshot after {index}: {status} {reply[:200]!r}")
        finally:
            done.set()
            reader.join(timeout=60)
            memory.stop()

        status, reply = request(writer, "GET", f"/top?k={len(known)}")
        served_scores = {
            entry["user"]: entry["score"] for entry in json.loads(reply)["users"] if entry["score"]
        }
        writer.close()
    finally:
        exit_code = server.stop()

    from repro.ensemble import IncrementalEnsemFDet

    state = IncrementalEnsemFDet.load(workdir / f"state{BOOTS - 1}.npz")
    served = vote_fingerprint(state.vote_table.user_votes, state.vote_table.merchant_votes)
    expected, expected_users = reference_votes(
        users, merchants, prefill + measured + memory_ops, size["window"], state.config
    )
    checks = {
        "state_matches_cold_fit_window": served == expected,
        "served_scores_match_cold_fit_window": served_scores == {k: float(v) for k, v in expected_users.items() if v},
        "server_exit_code_zero": exit_code == 0,
    }
    out = {
        "boots_s": boots,
        "prefill_s": prefill_s,
        "measured_s": measured_s,
        "ingests": ingests,
        "snapshots_s": snapshots,
        "reads": reads,
        "peaks_mb": peaks,
        "failures": failures,
        "checks": checks,
        "fingerprint": served,
        "n_known_users": len(known),
    }
    if trace:
        with (workdir / "spans.json").open() as handle:
            out["spans"] = json.load(handle)
    return out

"""End-to-end chaos: kills, attach failures and torn writes must converge.

The headline invariant of the fault-tolerance layer: a watch lifecycle
driven through worker crashes, store-file mapping failures, a mid-write
SIGKILL and snapshot corruption ends with a vote table **bitwise
identical** to the fault-free run's, and zero leaked ``repro_gs_*`` spill
directories. Rounds run the real CLI in subprocesses (the only honest way to
exercise SIGKILL faults); crashed rounds are re-run fault-free, emulating
an operator restart.
"""

from __future__ import annotations

import pytest

from repro.datasets import uniform_bipartite
from repro.faults.chaos import (
    ChaosRound,
    delta_batches,
    leaked_spills,
    run_chaos_cycle,
    vote_fingerprint,
)

WATCH_FLAGS = (
    "--ratio",
    "0.3",
    "--samples",
    "6",
    "--stripe",
    "64",
    "--max-blocks",
    "6",
    "--executor",
    "process",
    "--seed",
    "0",
)


@pytest.fixture(scope="module")
def graph():
    return uniform_bipartite(100, 50, 600, rng=0)


@pytest.fixture(scope="module")
def batches():
    return delta_batches(100, 50, sizes=[40, 40, 40, 40], seed=1)


def _rounds(batches, faults: list[str]) -> list[ChaosRound]:
    rounds = [ChaosRound(faults=faults[0])]  # cold fit
    for edges, plan in zip(batches, faults[1:]):
        rounds.append(ChaosRound(edges=edges, faults=plan))
    return rounds


def test_chaos_cycle_converges_bitwise(tmp_path, graph, batches):
    quiet = ["", "", "", "", ""]
    noisy = [
        "",  # clean cold fit: the state both cycles start from is identical
        "crash:point=member.detect,index=2",  # worker (or in-parent CLI) dies
        "raise:point=mmap.open",  # store-file transport fails, pickled fallback
        "crash:point=state.write,stage=backup_done",  # SIGKILL mid-commit
        "corrupt:point=state.write,stage=committed,offset=485",  # torn bytes
    ]
    # one extra fault-free settle round so the corrupted final snapshot is
    # recovered from .bak and re-ingested before fingerprints are compared
    settle = ((10, 5), (11, 6), (12, 7))

    reference = run_chaos_cycle(
        tmp_path / "reference",
        graph,
        _rounds(batches, quiet) + [ChaosRound(edges=settle)],
        watch_flags=WATCH_FLAGS,
    )
    chaos = run_chaos_cycle(
        tmp_path / "chaos",
        graph,
        _rounds(batches, noisy) + [ChaosRound(edges=settle)],
        watch_flags=WATCH_FLAGS,
    )

    assert reference.crashes == 0 and reference.restarts == 0
    # the mid-commit SIGKILL guarantees at least one real crash + restart
    assert chaos.crashes >= 1
    assert chaos.restarts >= 1
    assert chaos.fingerprint == reference.fingerprint, "\n".join(chaos.logs[-3:])
    assert chaos.leaked == []
    assert reference.leaked == []


def test_fingerprint_is_stable_and_content_sensitive(tmp_path, graph):
    first = run_chaos_cycle(
        tmp_path / "a", graph, [ChaosRound()], watch_flags=WATCH_FLAGS
    )
    again = vote_fingerprint(tmp_path / "a" / "state.npz")
    assert first.fingerprint == again  # re-reading the same state is stable
    grown = run_chaos_cycle(
        tmp_path / "b",
        graph,
        [ChaosRound(), ChaosRound(edges=((0, 0), (1, 1), (2, 2)))],
        watch_flags=WATCH_FLAGS,
    )
    assert grown.fingerprint != first.fingerprint


def test_delta_batches_are_deterministic():
    assert delta_batches(10, 5, sizes=[3, 2], seed=9) == delta_batches(
        10, 5, sizes=[3, 2], seed=9
    )
    assert delta_batches(10, 5, sizes=[3], seed=1) != delta_batches(
        10, 5, sizes=[3], seed=2
    )


def test_no_spills_leaked_right_now():
    # module-level hygiene: nothing earlier in the suite left a spill behind
    assert leaked_spills() == []

"""Legacy state-archive compatibility: every committed fixture keeps loading.

``tests/ensemble/fixtures/state_v<N>.npz`` are real archives written by the
historical format writers (v1: pre-checksum, v2: checksummed but
append-only, v3: windowed but wide-dtype-only). Each must load with the
current build, re-save as the current format, and reload
bitwise-identical — including through the ``.bak`` recovery path.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from repro.datasets import uniform_bipartite
from repro.ensemble import (
    EnsemFDetConfig,
    IncrementalEnsemFDet,
    load_detection_state,
    load_detection_state_with_recovery,
    save_detection_state,
    state_backup_path,
)
from repro.ensemble.results import STATE_FORMAT_VERSION, _LEGACY_FORMAT_VERSIONS
from repro.errors import StateError
from repro.fdet import FdetConfig
from repro.sampling import StableEdgeSampler

FIXTURES = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "fixtures", "state_v*.npz"))
)


def _assert_states_identical(left, right) -> None:
    assert left.config == right.config
    assert left.meta == right.meta
    assert left.window == right.window
    lg, rg = left.graph, right.graph
    assert (lg.n_users, lg.n_merchants) == (rg.n_users, rg.n_merchants)
    for name in ("edge_users", "edge_merchants", "user_labels", "merchant_labels"):
        la, ra = getattr(lg, name), getattr(rg, name)
        assert la.dtype == ra.dtype and np.array_equal(la, ra)
    if lg.edge_weights is None:
        assert rg.edge_weights is None
    else:
        assert np.array_equal(lg.edge_weights, rg.edge_weights)
    if left.edge_ids is None:
        assert right.edge_ids is None
    else:
        assert np.array_equal(left.edge_ids, right.edge_ids)
    for name in ("detected_users", "detected_merchants", "sample_users", "sample_merchants"):
        lr, rr = getattr(left, name), getattr(right, name)
        assert len(lr) == len(rr)
        for la, ra in zip(lr, rr):
            assert la.dtype == ra.dtype and np.array_equal(la, ra)


def test_fixture_inventory_covers_every_legacy_version():
    versions = {
        int(os.path.basename(p)[len("state_v") : -len(".npz")]) for p in FIXTURES
    }
    assert set(_LEGACY_FORMAT_VERSIONS) <= versions, (
        f"missing committed fixture for legacy formats "
        f"{set(_LEGACY_FORMAT_VERSIONS) - versions}"
    )


def _fixture_version(path: str) -> int:
    return int(os.path.basename(path)[len("state_v") : -len(".npz")])


@pytest.mark.parametrize("fixture", FIXTURES, ids=os.path.basename)
def test_legacy_fixture_loads_and_round_trips_as_current(fixture, tmp_path):
    state = load_detection_state(fixture)
    assert state.n_samples > 0
    if _fixture_version(fixture) < 3:  # window metadata arrived in v3
        assert state.window is None and state.edge_ids is None
    else:
        assert state.window is not None and state.edge_ids is not None

    target = tmp_path / "resaved.npz"
    save_detection_state(state, target)
    with np.load(target) as data:
        assert int(data["format_version"][0]) == STATE_FORMAT_VERSION
    _assert_states_identical(state, load_detection_state(target))


@pytest.mark.parametrize("fixture", FIXTURES, ids=os.path.basename)
def test_legacy_fixture_recovers_from_backup(fixture, tmp_path):
    state = load_detection_state(fixture)
    target = tmp_path / "state.npz"
    save_detection_state(state, target)
    save_detection_state(state, target)  # rotates the first save to .bak
    assert state_backup_path(target).exists()

    # corrupt the primary: recovery must fall back to the backup, bitwise
    target.write_bytes(b"\x00" * 128)
    recovered, recovered_from = load_detection_state_with_recovery(target)
    assert recovered_from == str(state_backup_path(target))
    _assert_states_identical(state, recovered)


@pytest.mark.parametrize("fixture", FIXTURES, ids=os.path.basename)
def test_legacy_fixture_rebuilds_a_live_detector(fixture):
    detector = IncrementalEnsemFDet.load(fixture)
    if _fixture_version(fixture) < 3:
        assert detector.window_config is None
    else:
        assert detector.window_config is not None
    # the rebuilt detector scores without error and stays consistent
    result = detector.detect(threshold=2)
    assert result.n_users >= 0


def test_unsupported_future_version_is_rejected(tmp_path):
    source = FIXTURES[-1]
    target = tmp_path / "future.npz"
    shutil.copy(source, target)
    with np.load(target) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["format_version"] = np.array([STATE_FORMAT_VERSION + 1], dtype=np.int64)
    with open(target, "wb") as fh:
        np.savez_compressed(fh, **arrays)
    with pytest.raises(StateError, match="not supported"):
        load_detection_state(target)


#: vote-table digests of each fixture, recorded with the label-keyed
#: ``Counter`` table the dense arrays replaced
FIXTURE_VOTE_DIGESTS = {
    "state_v1.npz": "dc8249191c780398",
    "state_v2.npz": "dc8249191c780398",
    "state_v3.npz": "58eeb9d11295bca3",
}


def _vote_digest(table) -> str:
    digest = hashlib.sha256()
    for view in (
        table.user_votes,
        table.merchant_votes,
        table.user_appearances,
        table.merchant_appearances,
    ):
        pairs = None if view is None else sorted((int(k), int(v)) for k, v in view.items())
        digest.update(json.dumps(pairs).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("fixture", FIXTURES, ids=os.path.basename)
def test_legacy_fixture_vote_table_is_unchanged(fixture, tmp_path):
    detector = IncrementalEnsemFDet.load(fixture)
    assert _vote_digest(detector.vote_table) == FIXTURE_VOTE_DIGESTS[os.path.basename(fixture)]
    # the per-member arrays the dense table re-derives are the stored ones
    stored, derived = load_detection_state(fixture), detector.state()
    for name in ("detected_users", "detected_merchants", "sample_users", "sample_merchants"):
        assert len(getattr(stored, name)) == len(getattr(derived, name))
        for left, right in zip(getattr(stored, name), getattr(derived, name)):
            assert left.dtype == right.dtype and np.array_equal(left, right)
    # and a v4 re-save through the detector reloads to the same table
    detector.save(tmp_path / "v4.npz")
    reloaded = IncrementalEnsemFDet.load(tmp_path / "v4.npz")
    assert _vote_digest(reloaded.vote_table) == _vote_digest(detector.vote_table)


@pytest.mark.parametrize(
    "retired",
    [{"shared_memory": False}, {"shared_memory": True, "mmap": True, "shards": 1}],
    ids=["shared_memory_false", "mmap_true_one_shard"],
)
def test_retired_transport_keys_load_and_rebuild(retired, tmp_path):
    """States saved while the ``shared_memory`` / ``mmap`` knobs existed
    still load, round-trip and rebuild the same live detector."""
    detector = IncrementalEnsemFDet(
        EnsemFDetConfig(
            sampler=StableEdgeSampler(0.3, stripe=32),
            n_samples=6,
            fdet=FdetConfig(max_blocks=4),
            seed=5,
        )
    )
    detector.fit(uniform_bipartite(80, 40, 500, rng=1))
    state = detector.state()
    assert not {"shared_memory", "mmap"} & set(state.config["ensemble"])
    config = json.loads(json.dumps(state.config))
    config["ensemble"].update(retired)
    state.config = config
    save_detection_state(state, tmp_path / "legacy.npz")

    loaded = load_detection_state(tmp_path / "legacy.npz")
    assert loaded.config == config  # stored keys survive as written
    save_detection_state(loaded, tmp_path / "again.npz")
    _assert_states_identical(loaded, load_detection_state(tmp_path / "again.npz"))

    rebuilt = IncrementalEnsemFDet.from_state(loaded)
    assert _vote_digest(rebuilt.vote_table) == _vote_digest(detector.vote_table)
    # a re-save through the rebuilt detector drops the retired keys again
    assert rebuilt.state().config == detector.state().config


@pytest.mark.parametrize(
    "stored,resumed", [("thread", "serial"), ("process", "process")], ids=["thread", "process"]
)
def test_saved_executor_resumes(stored, resumed, tmp_path):
    """States saved while the thread backend existed still load, round-trip
    and rebuild the same live detector, which then runs serially; any other
    executor resumes as saved."""
    detector = IncrementalEnsemFDet(
        EnsemFDetConfig(
            sampler=StableEdgeSampler(0.3, stripe=32),
            n_samples=6,
            fdet=FdetConfig(max_blocks=4),
            seed=5,
        )
    )
    detector.fit(uniform_bipartite(80, 40, 500, rng=1))
    state = detector.state()
    config = json.loads(json.dumps(state.config))
    config["ensemble"]["executor"] = stored
    state.config = config
    save_detection_state(state, tmp_path / "saved.npz")

    loaded = load_detection_state(tmp_path / "saved.npz")
    assert loaded.config == config  # stored as written
    save_detection_state(loaded, tmp_path / "again.npz")
    _assert_states_identical(loaded, load_detection_state(tmp_path / "again.npz"))

    rebuilt = IncrementalEnsemFDet.from_state(loaded)
    assert rebuilt.config.executor == resumed
    assert _vote_digest(rebuilt.vote_table) == _vote_digest(detector.vote_table)
    expected = detector.state().config
    expected["ensemble"]["executor"] = resumed
    assert rebuilt.state().config == expected

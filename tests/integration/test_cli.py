"""Integration tests for the command-line interface."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.datasets import load_dataset, uniform_bipartite
from repro.errors import AggregationError
from repro.graph import save_edge_list


@pytest.fixture
def edges_file(tmp_path, toy):
    path = tmp_path / "edges.tsv"
    save_edge_list(toy.graph, path)
    return path


class TestDetectCommand:
    def test_detect_prints_nodes(self, edges_file, capsys):
        code = main(
            [
                "detect",
                str(edges_file),
                "--ratio", "0.4",
                "--samples", "8",
                "--threshold", "3",
                "--executor", "serial",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# detected" in out
        assert "user\t" in out

    def test_default_threshold(self, edges_file, capsys):
        code = main(
            ["detect", str(edges_file), "--ratio", "0.4", "--samples", "8",
             "--executor", "serial"]
        )
        assert code == 0
        assert "T=2" in capsys.readouterr().out

    def test_explicit_threshold_zero_not_replaced_by_default(self, edges_file):
        # regression: `args.threshold or default` swallowed an explicit 0 and
        # silently ran with T=N//4; 0 must reach the aggregator and be rejected
        with pytest.raises(AggregationError, match="threshold"):
            main(
                ["detect", str(edges_file), "--ratio", "0.4", "--samples", "8",
                 "--threshold", "0", "--executor", "serial"]
            )

    def test_explicit_threshold_one_honoured(self, edges_file, capsys):
        code = main(
            ["detect", str(edges_file), "--ratio", "0.4", "--samples", "8",
             "--threshold", "1", "--executor", "serial"]
        )
        assert code == 0
        assert "T=1" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_engine_flag(self, edges_file, capsys, engine):
        code = main(
            ["detect", str(edges_file), "--ratio", "0.4", "--samples", "6",
             "--executor", "serial", "--engine", engine]
        )
        assert code == 0
        assert "# detected" in capsys.readouterr().out

    def test_engines_detect_identically(self, edges_file, capsys):
        outputs = []
        for engine in ("reference", "fast"):
            code = main(
                ["detect", str(edges_file), "--ratio", "0.4", "--samples", "6",
                 "--threshold", "2", "--executor", "serial", "--engine", engine]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestExecutorFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "edges.tsv"],
            ["watch", "edges.tsv", "--state", "state.npz"],
            ["serve", "edges.tsv", "--state", "state.npz"],
            ["scenario"],
        ],
        ids=["detect", "watch", "serve", "scenario"],
    )
    def test_retired_thread_executor_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--executor", "thread"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err


class TestDetectorFlag:
    @pytest.mark.parametrize(
        "spec", ["fraudar:n_blocks=3", "degree", "degree:weighted=1", "fdet:max_blocks=3"]
    )
    def test_registry_specs_run(self, edges_file, capsys, spec):
        code = main(["detect", str(edges_file), "--detector", spec, "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fitted" in out
        assert "user\t" in out

    def test_ensemble_spec_honours_flags(self, edges_file, capsys):
        code = main(
            ["detect", str(edges_file), "--detector", "ensemfdet",
             "--ratio", "0.4", "--samples", "6", "--executor", "serial", "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# ensemfdet:" in out
        # at most 3 ranked users printed
        assert sum(1 for line in out.splitlines() if line.startswith("user\t")) <= 3

    def test_unknown_spec_fails_loudly(self, edges_file):
        from repro.errors import DetectionError

        with pytest.raises(DetectionError, match="unknown detector"):
            main(["detect", str(edges_file), "--detector", "oracle"])

    def test_threshold_with_detector_rejected(self, edges_file, capsys):
        # --threshold is meaningless on the ranking path; it must fail
        # loudly instead of being silently dropped
        code = main(
            ["detect", str(edges_file), "--detector", "degree", "--threshold", "3"]
        )
        assert code == 2
        assert "--threshold has no effect" in capsys.readouterr().err

    def test_ensemble_spec_reports_sampler(self, edges_file, capsys):
        code = main(
            ["detect", str(edges_file), "--detector", "ensemfdet",
             "--ratio", "0.4", "--samples", "6", "--executor", "serial", "--top", "1"]
        )
        assert code == 0
        assert "# sampler: StableEdgeSampler" in capsys.readouterr().out


class TestDetectorsCommand:
    def test_lists_registry(self, capsys):
        from repro.detectors import DETECTOR_NAMES

        code = main(["detectors", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        for name in DETECTOR_NAMES:
            assert name in out
        assert "streaming" in out
        assert "parity=" in out


class TestDatasetCommand:
    def test_generates_loadable_dataset(self, tmp_path, capsys):
        outdir = tmp_path / "jd"
        code = main(["dataset", str(outdir), "--index", "1", "--scale", "0.08"])
        assert code == 0
        dataset = load_dataset(outdir)
        assert dataset.graph.n_edges > 0
        assert "wrote" in capsys.readouterr().out


class TestStatsCommand:
    def test_stats_output(self, edges_file, capsys):
        code = main(["stats", str(edges_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "edges" in out
        assert "avg_deg_user" in out


class TestExperimentsCommand:
    def test_runs_single_experiment(self, capsys):
        code = main(["experiments", "table1", "--scale", "tiny"])
        assert code == 0
        assert "Table I" in capsys.readouterr().out


@pytest.fixture
def stream_file(tmp_path):
    graph = uniform_bipartite(120, 60, 900, rng=0)
    path = tmp_path / "stream.tsv"
    save_edge_list(graph, path)
    return path


def _watch_args(stream_file, state, extra=()):
    return [
        "watch", str(stream_file), "--state", str(state),
        "--ratio", "0.25", "--samples", "8", "--stripe", "128",
        "--executor", "serial", "--interval", "0",
        *extra,
    ]


class TestWatchCommand:
    def test_cold_fit_creates_state(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        code = main(_watch_args(stream_file, state, ["--iterations", "0"]))
        assert code == 0
        assert state.exists()
        out = capsys.readouterr().out
        assert "# cold fit" in out
        assert "# detected" in out

    def test_incremental_update_on_appended_rows(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        capsys.readouterr()
        rng = np.random.default_rng(4)
        with stream_file.open("a") as fh:
            for u, v in zip(rng.integers(0, 120, 12), rng.integers(0, 60, 12)):
                fh.write(f"{u}\t{v}\n")
        code = main(_watch_args(stream_file, state, ["--iterations", "1"]))
        assert code == 0
        out = capsys.readouterr().out
        assert "# loaded state" in out
        assert "# update: +12 edges" in out

    def test_no_new_rows_no_update(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        capsys.readouterr()
        code = main(_watch_args(stream_file, state, ["--iterations", "2"]))
        assert code == 0
        assert "# update" not in capsys.readouterr().out


class TestUpdateCommand:
    def test_headerless_delta(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        capsys.readouterr()
        delta = tmp_path / "delta.tsv"
        delta.write_text("3\t7\n5\t9\n")
        code = main(["update", str(delta), "--state", str(state)])
        assert code == 0
        out = capsys.readouterr().out
        assert "# update: +2 edges" in out
        assert "# detected" in out

    def test_missing_state_errors(self, tmp_path, capsys):
        delta = tmp_path / "delta.tsv"
        delta.write_text("0\t0\n")
        code = main(["update", str(delta), "--state", str(tmp_path / "none.npz")])
        assert code == 2
        assert "no detection state" in capsys.readouterr().err

    def test_update_then_watch_does_not_lose_file_rows(
        self, stream_file, tmp_path, capsys
    ):
        # regression: watch used the state's edge count as its file offset,
        # so delta edges applied via 'update' made it skip freshly appended
        # file rows; the offset is tracked in the state's meta instead
        state = tmp_path / "state.npz"
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        delta = tmp_path / "delta.tsv"
        delta.write_text("1\t1\n2\t2\n3\t3\n")
        assert main(["update", str(delta), "--state", str(state)]) == 0
        capsys.readouterr()
        with stream_file.open("a") as fh:
            for row in range(5):
                fh.write(f"{row}\t{row % 3}\n")
        code = main(_watch_args(stream_file, state, ["--iterations", "1"]))
        assert code == 0
        assert "# update: +5 edges" in capsys.readouterr().out


class TestWatchGracefulShutdown:
    """Regression: a signal in the poll gap must not lose state.

    ``watch`` used to sit in a bare ``time.sleep`` between polls — SIGINT
    there raised KeyboardInterrupt (traceback, non-zero exit) and SIGTERM
    killed the process outright, in both cases skipping the state commit.
    The loop now converts both signals into a clean drain-commit-exit.
    """

    def test_sigint_exits_zero_and_commits_state(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        capsys.readouterr()
        # interrupt an infinite watch mid-sleep; the handler is installed
        # before the loop starts, so a 1s timer cannot outrun it
        timer = threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        try:
            code = main(
                _watch_args(
                    stream_file, state,
                    ["--iterations", "-1", "--interval", "0.2"],
                )
            )
        finally:
            timer.cancel()
        assert code == 0
        captured = capsys.readouterr()
        assert "# interrupted: state committed" in captured.err
        # the committed state is loadable and still append-consistent
        from repro.ensemble import IncrementalEnsemFDet

        detector, recovered_from = IncrementalEnsemFDet.load_with_recovery(state)
        assert recovered_from is None
        assert detector.meta["watch_rows"] == detector.graph.n_edges

    def test_previous_handlers_restored(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
    def test_signal_to_subprocess_commits_and_exits_zero(
        self, stream_file, tmp_path, sig
    ):
        state = tmp_path / "state.npz"
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli",
                *_watch_args(
                    stream_file, state, ["--iterations", "-1", "--interval", "0.2"]
                ),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            # wait for the reload banner so the loop (and its handlers)
            # is definitely up before signalling
            line = ""
            while "# loaded state" not in line:
                line = proc.stdout.readline()
                assert line, "watch exited before becoming ready"
            proc.send_signal(sig)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "# interrupted: state committed" in err
        assert "Traceback" not in err


class TestScenarioCommand:
    def test_list_prints_registry(self, capsys):
        from repro.scenarios import SCENARIO_NAMES

        code = main(["scenario", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        for name in SCENARIO_NAMES:
            assert name in out

    def test_grid_runs_and_writes_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "scenario",
                "--scenarios", "naive_block,staged",
                "--intensities", "1.0",
                "--detectors", "ensemfdet,incremental",
                "--scale", "0.12",
                "--samples", "6",
                "--ratio", "0.4",
                "--stripe", "32",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario_grid" in out
        assert "naive_block" in out and "staged" in out
        assert (tmp_path / "scenario_grid.json").exists()
        assert (tmp_path / "scenario_grid.csv").exists()

    def test_unknown_scenario_fails_loudly(self):
        from repro.errors import ScenarioError

        with pytest.raises(ScenarioError, match="unknown scenario"):
            main(["scenario", "--scenarios", "bogus", "--intensities", "1.0"])

    def test_registry_spec_detectors(self, capsys):
        """Parameterised specs pass through the comma-separated flag
        (params stay attached to their spec)."""
        code = main(
            [
                "scenario",
                "--scenarios", "naive_block",
                "--intensities", "1.0",
                "--detectors", "degree:weighted=1,fraudar:n_blocks=2",
                "--scale", "0.12",
                "--samples", "6",
                "--ratio", "0.4",
                "--stripe", "32",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degree:weighted=1" in out
        assert "fraudar:n_blocks=2" in out

    def test_unknown_detector_fails_loudly(self):
        from repro.errors import ScenarioError

        with pytest.raises(ScenarioError, match="unknown detectors"):
            main(["scenario", "--scenarios", "naive_block", "--detectors", "oracle"])


class TestWindowedWatch:
    def test_window_flag_round_trips_through_state(
        self, stream_file, tmp_path, capsys
    ):
        state = tmp_path / "state.npz"
        code = main(
            _watch_args(stream_file, state, ["--iterations", "0", "--window", "3"])
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rolling window (last 3 batches)" in out
        # the reloaded state still knows it is windowed — no flag needed
        code = main(_watch_args(stream_file, state, ["--iterations", "0"]))
        assert code == 0
        assert "rolling window (last 3 batches)" in capsys.readouterr().out

    def test_windowed_updates_expire_old_batches(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        assert main(
            _watch_args(stream_file, state, ["--iterations", "0", "--window", "2"])
        ) == 0
        rng = np.random.default_rng(9)
        for _ in range(3):
            with stream_file.open("a") as fh:
                for u, v in zip(rng.integers(0, 120, 10), rng.integers(0, 60, 10)):
                    fh.write(f"{u}\t{v}\n")
            capsys.readouterr()
            assert main(_watch_args(stream_file, state, ["--iterations", "1"])) == 0
        out = capsys.readouterr().out
        # by the third batch, a 2-batch window must have expired something
        assert "# update: +10 edges, expired" in out
        assert ", expired 0," not in out

    def test_horizon_flag_accepted(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.npz"
        code = main(
            _watch_args(
                stream_file, state, ["--iterations", "0", "--horizon", "3600"]
            )
        )
        assert code == 0
        assert "rolling window (horizon 3600)" in capsys.readouterr().out


class TestWindowedUpdate:
    def _windowed_state(self, stream_file, tmp_path):
        state = tmp_path / "state.npz"
        assert main(
            _watch_args(stream_file, state, ["--iterations", "0", "--window", "4"])
        ) == 0
        return state

    def test_remove_retracts_live_edges(self, stream_file, tmp_path, capsys):
        state = self._windowed_state(stream_file, tmp_path)
        graph = uniform_bipartite(120, 60, 900, rng=0)
        removals = tmp_path / "remove.tsv"
        removals.write_text(
            "".join(
                f"{u}\t{m}\n"
                for u, m in zip(
                    graph.edge_users[:4].tolist(), graph.edge_merchants[:4].tolist()
                )
            )
        )
        capsys.readouterr()
        code = main(["update", "--remove", str(removals), "--state", str(state)])
        assert code == 0
        out = capsys.readouterr().out
        assert "# update: +0 edges, -4 retracted" in out
        assert "# detected" in out

    def test_mixed_append_and_remove(self, stream_file, tmp_path, capsys):
        state = self._windowed_state(stream_file, tmp_path)
        graph = uniform_bipartite(120, 60, 900, rng=0)
        delta = tmp_path / "delta.tsv"
        delta.write_text("3\t7\n5\t9\n")
        removals = tmp_path / "remove.tsv"
        removals.write_text(
            f"{graph.edge_users[0]}\t{graph.edge_merchants[0]}\n"
        )
        capsys.readouterr()
        code = main(
            ["update", str(delta), "--remove", str(removals), "--state", str(state)]
        )
        assert code == 0
        assert "# update: +2 edges, -1 retracted" in capsys.readouterr().out

    def test_remove_on_append_only_state_is_refused(
        self, stream_file, tmp_path, capsys
    ):
        state = tmp_path / "state.npz"
        assert main(_watch_args(stream_file, state, ["--iterations", "0"])) == 0
        removals = tmp_path / "remove.tsv"
        removals.write_text("0\t0\n")
        capsys.readouterr()
        code = main(["update", "--remove", str(removals), "--state", str(state)])
        assert code == 2
        assert "windowed state" in capsys.readouterr().err

    def test_no_delta_and_no_remove_is_refused(self, stream_file, tmp_path, capsys):
        state = self._windowed_state(stream_file, tmp_path)
        capsys.readouterr()
        code = main(["update", "--state", str(state)])
        assert code == 2
        assert "nothing to apply" in capsys.readouterr().err


class TestDriftCommand:
    def test_drift_grid_runs_and_writes_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "scenario", "--drift",
                "--scale", "0.12",
                "--samples", "6",
                "--ratio", "0.4",
                "--stripe", "32",
                "--window", "6",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "drift_grid" in out
        for name in ("slow_ramp", "burst_dormant", "attack_cleanup"):
            assert name in out
        assert "latency" in out
        assert (tmp_path / "drift_grid.json").exists()
        assert (tmp_path / "drift_grid.csv").exists()

    def test_drift_takes_one_intensity(self, capsys):
        code = main(["scenario", "--drift", "--intensities", "1.0,2.0"])
        assert code == 2
        assert "single value" in capsys.readouterr().err

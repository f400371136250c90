"""End-to-end command-line workflows in temporary directories."""

import argparse
import csv
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import jumprom
from jumprom import aslip, cli, pipeline, rollout, synthetic, trajectory_data
from jumprom.cli import FLAGS, KEYS, _write_series, build_parser, main
from jumprom.errors import (DatasetLoadError, DivergenceError, NonUniformTimestepError,
                            PipelineStepError, ValidationError)
from jumprom.rollout import RolloutConfig, RolloutResult, rollout_full
from jumprom.sindy import FunctionLibrarySpec
from jumprom.trajectory_data import (Dataset, DatasetMeta, Trajectory, load_dataset,
                                     process_dataset, save_dataset)
from helpers import set_cell

README = Path(__file__).resolve().parents[1] / "README.md"


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    config = out / "gen.json"
    config.write_text(json.dumps({"n_jumps": 6, "split_counts": [3, 1, 2]}))
    code = main(["gen", "--config", str(config), "--out", str(out / "data")])
    assert code == 0
    return out / "data"


@pytest.fixture(scope="module")
def trained_dir(gen_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = main([
        "train", "--dataset", str(gen_dir), "--out", str(out),
        "--latent-dim", "2", "--seed", "0",
    ])
    assert code == 0
    return out


class TestGen:
    def test_writes_dataset_and_manifest(self, gen_dir):
        assert (gen_dir / "manifest.json").exists()
        assert (gen_dir / "ground_truth.txt").exists()
        assert (gen_dir / "run_manifest.json").exists()
        assert len(list(gen_dir.glob("jump_*.csv"))) == 6

    def test_main_runs_the_command_function_of_the_module(self, tmp_path, monkeypatch):
        # looked up when main runs, so a wrapped cmd_gen (a tracer's, say) is the one run
        calls = []
        monkeypatch.setattr(cli, "cmd_gen", lambda args: calls.append(args.out) or 0)
        assert main(["gen", "--out", str(tmp_path)]) == 0
        assert calls == [str(tmp_path)]
        assert not any(tmp_path.iterdir())

    def test_unknown_preset_fails(self, tmp_path, capsys):
        code = main(["gen", "--preset", "two_phase", "--out", str(tmp_path / "x")])
        assert code == 0
        code = main(["gen", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "y")])
        assert code == 1
        assert "ERROR E_VALIDATE" in capsys.readouterr().err

    def test_preset_flag_beats_config(self, tmp_path):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({"preset": "three_phase", "n_jumps": 3,
                                      "split_counts": [1, 1, 1]}))
        out = tmp_path / "data"
        code = main(["gen", "--preset", "two_phase", "--config", str(config), "--out", str(out)])
        assert code == 0
        resolved = json.loads((out / "run_manifest.json").read_text())["resolved_config"]
        assert resolved["preset"] == "two_phase"
        assert load_dataset(out).meta.robot == "synthetic-contact-flight"

    def test_seed_flag_beats_lift_seed_and_other_keys_ignored(self, tmp_path):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({"n_jumps": 3, "split_counts": [1, 1, 1], "lift_seed": 5,
                                      "seed": "train's key", "k_s": None, "l_values": "x"}))
        out = tmp_path / "data"
        assert main(["gen", "--seed", "7", "--config", str(config), "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["resolved_config"] == {"preset": "two_phase", "n_jumps": 3,
                                               "split_counts": [1, 1, 1], "lift_seed": 7}
        assert manifest["seeds"] == [7]

    @pytest.mark.parametrize("preset", ["two_phase", "three_phase"])
    def test_default_split_follows_jump_count(self, tmp_path, preset):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({"n_jumps": 3}))
        out = tmp_path / "data"
        assert main(["gen", "--preset", preset, "--config", str(config), "--out", str(out)]) == 0
        assert load_dataset(out).split_counts() == (1, 1, 1)

    def test_outputs_are_the_files_it_wrote(self, tmp_path):
        # a second, smaller run into the same directory deletes jumps 3 and 4
        # of the first run; the other files are this run's outputs
        out = tmp_path / "data"
        for n_jumps in (5, 3):
            config = tmp_path / f"gen{n_jumps}.json"
            config.write_text(json.dumps({"n_jumps": n_jumps}))
            assert main(["gen", "--config", str(config), "--out", str(out)]) == 0
        assert not list(out.glob("jump_003.csv*")) and not list(out.glob("jump_004.csv*"))
        jumps = [f"jump_{i:03d}.csv" for i in range(3)]
        caches = [cache.name for name in jumps for cache in out.glob(f"{name}.*.npy")]
        assert len(caches) == 3
        outputs = json.loads((out / "run_manifest.json").read_text())["outputs"]
        assert sorted(outputs) == sorted(["manifest.json", "ground_truth.txt", *jumps, *caches])
        for name, digest in outputs.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("payload", [{"n_jumps": 3, "split_counts": [1, 1, 2]},
                                         {"split_counts": [8, 2, 9]}])
    def test_bad_split_fails_before_simulating(self, tmp_path, capsys, monkeypatch, payload):
        def simulate(spec, truth, rng):
            raise AssertionError("a spec with a bad split was simulated")

        monkeypatch.setattr(synthetic, "_simulate_jumps", simulate)
        config = tmp_path / "gen.json"
        config.write_text(json.dumps(payload))
        code = main(["gen", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "ERROR E_VALIDATE: split counts" in capsys.readouterr().err

    @pytest.mark.parametrize("noise_sigma", ["x", {"q": -1.0}, {"v": 1.0}])
    def test_bad_noise_fails_before_simulating(self, tmp_path, capsys, monkeypatch,
                                               noise_sigma):
        def simulate(spec, truth, rng):
            raise AssertionError("a spec with a bad noise level was simulated")

        monkeypatch.setattr(synthetic, "_simulate_jumps", simulate)
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({"n_jumps": 3, "split_counts": [1, 1, 1],
                                      "noise_sigma": noise_sigma}))
        code = main(["gen", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "ERROR E_VALIDATE" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        {"n_jumps": "3"}, {"n_jumps": 0}, {"n_jumps": 2.0}, {"n_jumps": None},
        {"dt": -1}, {"dt": 0}, {"dt": "x"}, {"dt": float("inf")}, {"dt": float("nan")},
        {"lift_seed": "x"}, {"lift_seed": -1},
        {"n_jumps": 3, "split_counts": 5}, {"n_jumps": 3, "split_counts": ["a", 1, 1]},
        {"n_jumps": 3, "split_counts": [1, 1, 1], "noise_sigma": "x"},
        {"n_jumps": 3, "split_counts": [1, 1, 1], "noise_sigma": {"q": -1.0}},
        {"preset": ["two_phase"]}, [1, 2]])
    def test_config_value_types_validated(self, tmp_path, capsys, payload):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "out"
        code = main(["gen", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert "ERROR E_VALIDATE" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []


class TestTrain:
    def test_writes_model_and_prints_equations(self, trained_dir, capsys):
        assert (trained_dir / "model.txt").exists()
        manifest = json.loads((trained_dir / "run_manifest.json").read_text())
        assert "model.txt" in manifest["outputs"]

    def test_reproducible_model_bytes(self, gen_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(["train", "--dataset", str(gen_dir), "--out", str(out),
                         "--latent-dim", "2", "--seed", "0"])
            assert code == 0
        assert (a / "model.txt").read_bytes() == (b / "model.txt").read_bytes()

    def test_seed_changes_only_provenance(self, gen_dir, trained_dir, tmp_path):
        # stage 1 is the closed-form PCA fit, so the seed is only recorded
        out = tmp_path / "seed7"
        assert main(["train", "--dataset", str(gen_dir), "--out", str(out),
                     "--latent-dim", "2", "--seed", "7"]) == 0
        a = (trained_dir / "model.txt").read_text().splitlines()
        b = (out / "model.txt").read_text().splitlines()
        assert len(a) == len(b)
        differ = [x.split()[0] for x, y in zip(a, b) if x != y]
        assert differ == ["provenance"]

    @pytest.mark.parametrize("payload", [{"stlsq_threshold": "0.1"}, {"latent_dim": 2.5},
                                         {"stlsq_max_iters": "3"}, {"stlsq_threshold": 10**400},
                                         {"library": {"poly_degree": "2"}},
                                         {"library": {"degree": 2}}, {"seed_phase": "bogus"},
                                         {"boundary_trim": -3}, {"stlsq_ridge": 0},
                                         # "false" is truthy: accepted, it would flip the flag
                                         {"standardize": "false"}, {"standardize": 0},
                                         {"library": {"include_constant": "false"}},
                                         {"library": {"include_sin_states": "false"}},
                                         {"library": {"include_sin_velocities": "false"}},
                                         {"library": {"include_inputs": "false"}}])
    def test_config_value_types_validated(self, gen_dir, tmp_path, capsys, payload):
        config = tmp_path / "train.json"
        config.write_text(json.dumps(payload))
        code = main(["train", "--dataset", str(gen_dir), "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "ERROR E_VALIDATE" in capsys.readouterr().err

    def test_latent_dim_above_full_dim_fails_validation(self, gen_dir, tmp_path, capsys):
        # m = 12, so the latent dimension is at most 18, as in a scan
        assert main(["train", "--dataset", str(gen_dir), "--latent-dim", "19",
                     "--out", str(tmp_path / "out")]) == 1
        assert ("ERROR E_VALIDATE: latent_dim must be <= m + 6 = 18, got 19"
                in capsys.readouterr().err)
        assert not (tmp_path / "out" / "model.txt").exists()

    def test_flags_beat_config_and_other_keys_ignored(self, gen_dir, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"stlsq_threshold": 0.5, "seed": 3, "latent_dim": 1,
                                      "l_values": "scan's key", "k_s": None, "lift_seed": -1}))
        out = tmp_path / "out"
        assert main(["train", "--dataset", str(gen_dir), "--config", str(config),
                     "--threshold", "0.2", "--latent-dim", "2", "--out", str(out)]) == 0
        resolved = json.loads((out / "run_manifest.json").read_text())["resolved_config"]
        assert (resolved["stlsq_threshold"], resolved["seed"], resolved["latent_dim"]) == (0.2, 3, 2)


class TestScan:
    def test_row_count_is_cartesian(self, gen_dir, tmp_path):
        out = tmp_path / "scan"
        code = main([
            "scan", "--dataset", str(gen_dir), "--out", str(out),
            "--l-values", "2,4,6", "--seeds", "0,1",
        ])
        assert code == 0
        lines = (out / "report.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 6

    def test_parallel_matches_serial(self, gen_dir, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        for out, workers in ((serial, "1"), (parallel, "2")):
            code = main([
                "scan", "--dataset", str(gen_dir), "--out", str(out),
                "--l-values", "1,2", "--seeds", "0,1", "--parallel", workers,
            ])
            assert code == 0
        assert (serial / "report.csv").read_bytes() == (parallel / "report.csv").read_bytes()

    @pytest.mark.parametrize("l_values, seeds, workers", [
        ("1,2,3", "0", "4"),     # more workers than cells
        ("1,2,3", "0,1", "2"),   # stripes of 3 cells, each with every l
    ])
    def test_uneven_stripes_match_serial(self, gen_dir, tmp_path, l_values, seeds, workers):
        reports = []
        for parallel in ("1", workers):
            out = tmp_path / parallel
            assert main(["scan", "--dataset", str(gen_dir), "--out", str(out),
                         "--l-values", l_values, "--seeds", seeds, "--parallel", parallel]) == 0
            reports.append((out / "report.csv").read_bytes())
        assert reports[0] == reports[1]
        _assert_no_child_left()

    def test_at_most_one_worker_per_cell(self, gen_dir, tmp_path, monkeypatch):
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        for workers, l_values, seeds, expected in (
                ("8", "1", "0,1", 1),      # two cells: this process and one worker
                ("4", "1", "0", 0),        # a single cell runs in process, with no fork
                ("1", "1,2", "0,1", 0),    # --parallel 1 scans in process
                ("3", "1,2", "0,1", 2)):   # N workers: this process and N - 1 forks
            forks.clear()
            out = tmp_path / f"{workers}-{seeds}"
            code = main(["scan", "--dataset", str(gen_dir), "--out", str(out),
                         "--l-values", l_values, "--seeds", seeds, "--parallel", workers])
            assert code == 0
            assert len(forks) == expected
        _assert_no_child_left()

    @pytest.mark.parametrize("fail, raised", [
        ("raise", "stub bug at l=1$"),
        ("unpicklable", r"a scan worker raised Unpicklable\('stub bug at l=1'\), which cannot "
                        "be pickled"),
        ("exit", r"scan worker \d+ exited with status 3 without a result$")],
        ids=["raise", "unpicklable", "exit"])
    def test_worker_exception_is_raised_here(self, gen_dir, tmp_path, monkeypatch, fail, raised):
        # cells (1,0) and (2,0) on 2 workers: the worker runs (1,0), which
        # fails other than by a JumpromError, and this process (2,0)
        class Unpicklable(Exception):   # a local class, which pickle cannot find
            pass

        run_pipeline = pipeline.run_pipeline

        def failing(dataset, config):
            if config.latent_dim == 1:
                if fail == "exit":
                    os._exit(3)
                raise (RuntimeError if fail == "raise" else Unpicklable)("stub bug at l=1")
            return run_pipeline(dataset, config)

        monkeypatch.setattr(pipeline, "run_pipeline", failing)
        with pytest.raises(RuntimeError, match=f"^{raised}"):
            main(["scan", "--dataset", str(gen_dir), "--out", str(tmp_path / "scan"),
                  "--l-values", "1,2", "--seeds", "0", "--parallel", "2"])
        assert not (tmp_path / "scan" / "report.csv").exists()
        _assert_no_child_left()

    def test_manifest_records_the_workers_used(self, gen_dir, tmp_path):
        for workers, used in (("1", 1), ("8", 2)):   # at most one per cell
            out = tmp_path / workers
            assert main(["scan", "--dataset", str(gen_dir), "--out", str(out),
                         "--l-values", "1,2", "--seeds", "0", "--parallel", workers]) == 0
            assert json.loads((out / "run_manifest.json").read_text())["workers"] == used

    def test_manifest_records_one_worker_where_processes_cannot_fork(self, gen_dir, tmp_path,
                                                                     monkeypatch):
        serial = tmp_path / "serial"
        assert main(["scan", "--dataset", str(gen_dir), "--out", str(serial),
                     "--l-values", "1,2", "--seeds", "0,1", "--parallel", "1"]) == 0
        monkeypatch.delattr(os, "fork")   # a fork would now raise AttributeError
        out = tmp_path / "no_fork"
        assert main(["scan", "--dataset", str(gen_dir), "--out", str(out),
                     "--l-values", "1,2", "--seeds", "0,1", "--parallel", "3"]) == 0
        assert json.loads((out / "run_manifest.json").read_text())["workers"] == 1
        assert (out / "report.csv").read_bytes() == (serial / "report.csv").read_bytes()
        _assert_no_child_left()

    def test_default_workers_are_the_usable_cpus(self):
        args = build_parser().parse_args(["scan", "--dataset", "data"])
        assert args.parallel == cli.usable_cpus() >= 1
        if hasattr(os, "sched_getaffinity"):
            assert args.parallel == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("workers", ["1", "2", "4"])
    def test_first_failure_in_serial_order_raised(self, gen_dir, tmp_path, capsys, monkeypatch,
                                                  workers):
        # cells (l, seed) in serial order: (1,0) (2,0) (1,1) (2,1) (1,2) (2,2).  (1,0) and
        # (2,0) fail; with 2 or 4 workers (2,0) is in this process's stripe and (1,0) in a
        # worker's, which inherits the stub by fork
        run_pipeline = pipeline.run_pipeline

        def failing(dataset, config):
            if (config.latent_dim, config.seed) in ((1, 0), (2, 0)):
                raise PipelineStepError(3, ValidationError(
                    f"stub failure at l={config.latent_dim} seed={config.seed}"))
            return run_pipeline(dataset, config)

        monkeypatch.setattr(pipeline, "run_pipeline", failing)
        out = tmp_path / "scan"
        code = main(["scan", "--dataset", str(gen_dir), "--out", str(out),
                     "--l-values", "1,2", "--seeds", "0,1,2", "--parallel", workers])
        assert code == 1
        assert capsys.readouterr().err == (
            "ERROR E_PIPELINE: pipeline step 3 failed: stub failure at l=1 seed=0\n")
        assert not (out / "report.csv").exists()
        _assert_no_child_left()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_parallel_below_one_rejected(self, gen_dir, tmp_path, capsys, workers):
        code = main(["scan", "--dataset", str(gen_dir), "--out", str(tmp_path / "scan"),
                     "--l-values", "1", "--seeds", "0", "--parallel", workers])
        assert code == 1
        assert "ERROR E_VALIDATE: --parallel must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_empty_seed_list_rejected(self, gen_dir, tmp_path, capsys, workers):
        code = main(["scan", "--dataset", str(gen_dir), "--out", str(tmp_path / "scan"),
                     "--l-values", "1", "--seeds", "", "--parallel", workers])
        assert code == 1
        assert "ERROR E_VALIDATE: no seeds to scan" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_cell_without_active_term_rejected(self, gen_dir, tmp_path, capsys, workers):
        # at this threshold every coefficient is eliminated, and ln(0) would
        # score each cell L_mod = -inf
        out = tmp_path / "scan"
        code = main(["scan", "--dataset", str(gen_dir), "--out", str(out), "--threshold", "1e6",
                     "--l-values", "1,2", "--seeds", "0,1", "--parallel", workers])
        assert code == 1
        assert "ERROR E_VALIDATE: scan cell l=1 seed=0 has no active term" in capsys.readouterr().err
        assert not (out / "report.csv").exists()


class TestEval:
    def test_eval_writes_series(self, gen_dir, trained_dir, tmp_path):
        out = tmp_path / "eval"
        code = main([
            "eval", "--dataset", str(gen_dir), "--model", str(trained_dir / "model.txt"),
            "--out", str(out), "--integrator", "fixed_rk4", "--reset-interval", "50",
        ])
        assert code == 0
        assert not (out / "failures.csv").exists()
        series = sorted(out.glob("rollout_*.csv"))
        assert len(series) == 4  # 2 test jumps x (full, reset)
        header = series[0].read_text().split("\n", 1)[0].split(",")
        assert header[0] == "t" and header[-1] == "err"
        n_rows = len(series[0].read_text().strip().split("\n")) - 1
        assert n_rows == 500

    def test_config_file_sets_reset_and_integrator(self, gen_dir, trained_dir, tmp_path):
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({"reset_interval": 50, "integrator": "fixed_rk4"}))
        common = ["eval", "--dataset", str(gen_dir), "--model", str(trained_dir / "model.txt")]
        from_file, from_flags = tmp_path / "file", tmp_path / "flags"
        assert main(common + ["--config", str(config), "--out", str(from_file)]) == 0
        assert main(common + ["--reset-interval", "50", "--integrator", "fixed_rk4",
                              "--out", str(from_flags)]) == 0
        metrics = (from_file / "metrics.csv").read_bytes()
        assert b",reset," in metrics
        assert metrics == (from_flags / "metrics.csv").read_bytes()

    def test_config_file_reset_interval_must_be_integer(self, gen_dir, trained_dir, tmp_path,
                                                        capsys):
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({"reset_interval": "50"}))
        code = main(["eval", "--dataset", str(gen_dir), "--model", str(trained_dir / "model.txt"),
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "reset_interval must be an integer" in capsys.readouterr().err

    def test_missing_phase_exits_nonzero(self, gen_dir, trained_dir, tmp_path, capsys):
        path = _save_without_flight(trained_dir / "model.txt", tmp_path / "crippled.txt")
        code = main([
            "eval", "--dataset", str(gen_dir), "--model", str(path),
            "--out", str(tmp_path / "out"), "--integrator", "fixed_rk4",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "E_PHASE" in err and "flight" in err

    def test_failed_rollout_leaves_no_metrics(self, gen_dir, trained_dir, tmp_path):
        # every rollout fails: the table keeps only its header, and
        # failures.csv lists each rollout, with no time for E_PHASE
        path = _save_without_flight(trained_dir / "model.txt", tmp_path / "crippled.txt")
        out = tmp_path / "out"
        code = main(["eval", "--dataset", str(gen_dir), "--model", str(path), "--out", str(out),
                     "--integrator", "fixed_rk4", "--reset-interval", "50"])
        assert code == 1
        assert sorted(p.name for p in out.iterdir()) == ["failures.csv", "metrics.csv",
                                                         "run_manifest.json"]
        assert (out / "metrics.csv").read_text() == "jump,mode,mean_rmse\n"
        rows = list(csv.reader((out / "failures.csv").open()))
        indices = [idx for idx, _ in cli._load_test_jumps(gen_dir)[1]]
        assert [row[:4] for row in rows] == [["jump", "mode", "code", "time"]] + [
            [str(idx), mode, "E_PHASE", ""] for idx in indices for mode in ("full", "reset")]

    def test_eval_reproducible(self, gen_dir, trained_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "eval", "--dataset", str(gen_dir), "--model",
                str(trained_dir / "model.txt"), "--out", str(out),
                "--integrator", "fixed_rk4",
            ])
            assert code == 0
            outs.append(out)
        for f in sorted(p.name for p in outs[0].glob("rollout_*.csv")):
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()


@pytest.mark.parametrize("command", ["eval", "baseline"])
@pytest.mark.parametrize("key,value", [
    ("dt", 0), ("dt", -0.002), ("dt", "abc"), ("dt", "nan"), ("m", "x"), ("m", 12.7),
    ("m", 0), ("noise_sigma", "x"), ("noise_sigma", -1.0), ("m", 5), ("jumps", [{}]),
    ("jumps", 5), ("jumps", [{"file": 5}]), ("robot", None)])
def test_bad_manifest_value_fails_to_load(gen_dir, trained_dir, tmp_path, capsys, command,
                                          key, value):
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest[key] = value
    (data / "manifest.json").write_text(json.dumps(manifest))
    code = main([command, "--dataset", str(data), "--model", str(trained_dir / "model.txt"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"ERROR E_LOAD: manifest.json: manifest key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command,split", [("train", "train"), ("eval", "test"),
                                           ("baseline", "test")])
def test_dataset_without_the_split_read_fails(gen_dir, trained_dir, tmp_path, capsys, command,
                                               split):
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    manifest = json.loads((data / "manifest.json").read_text())
    for entry in manifest["jumps"]:
        if entry["split"] == split:
            entry["split"] = "val"
    (data / "manifest.json").write_text(json.dumps(manifest))
    argv = [command, "--dataset", str(data), "--out", str(tmp_path / "out")]
    if command == "eval":
        argv += ["--model", str(trained_dir / "model.txt")]
    assert main(argv) == 1
    assert f"ERROR E_VALIDATE: dataset has no {split} split" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("damage", ["no_manifest", "robot", "m", "dt", "jumps", "test_jump_file"])
def test_damaged_dataset_fails_to_load(gen_dir, trained_dir, tmp_path, capsys, command, damage):
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    manifest_path = data / "manifest.json"
    if damage == "no_manifest":
        manifest_path.unlink()
        message = f"no manifest.json in {data}"
    elif damage == "test_jump_file":   # read by both commands
        name = _split_files(data)["test"][0]
        (data / name).unlink()
        message = f"{name}: file not found"
    else:
        manifest = json.loads(manifest_path.read_text())
        del manifest[damage]
        manifest_path.write_text(json.dumps(manifest))
        message = f"manifest.json: missing manifest key {damage!r}"
    args = {"train": ["train", "--latent-dim", "2"],
            "eval": ["eval", "--model", str(trained_dir / "model.txt")]}[command]
    assert main(args + ["--dataset", str(data), "--out", str(tmp_path / "out")]) == 1
    assert f"ERROR E_LOAD: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "baseline", "finetune"])
@pytest.mark.parametrize("lines", [
    ["threshold abc"], ["threshold"], ["threshold -1"], ["threshold nan"], ["threshold inf"],
    ["autoencoder two 18"], ["W_enc x 18"], ["autoencoder -1 18", "W_enc -1 18"],
    ["provenance [1]"], ['provenance "x"'],
    ['library {"include_constant": true, "include_inputs": "false", "include_sin_states": true, '
     '"include_sin_velocities": true, "poly_degree": 2}']], ids="+".join)
def test_bad_model_value_fails_to_load(gen_dir, trained_dir, tmp_path, capsys, command, lines):
    text = (trained_dir / "model.txt").read_text()
    for line in lines:  # each replaces the first line with the same first word
        text, count = re.subn(rf"^{line.split()[0]} .*$", line, text, count=1, flags=re.M)
        assert count == 1
    model = tmp_path / "model.txt"
    model.write_text(text)
    code = main([command, "--dataset", str(gen_dir), "--model", str(model),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "ERROR E_FORMAT" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "baseline", "finetune"])
def test_repeated_phase_block_fails_to_load(gen_dir, trained_dir, tmp_path, capsys, command):
    text = (trained_dir / "model.txt").read_text()
    start, end = text.index("phase contact\n"), text.index("phase flight\n")
    text = text[:end] + text[start:end] + text[end:]  # a second contact block
    model = tmp_path / "model.txt"
    model.write_text(text)
    code = main([command, "--dataset", str(gen_dir), "--model", str(model),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert (f"ERROR E_FORMAT: malformed line: repeated phase contact (byte {end})"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", [["eval", "--integrator", "fixed_rk4"],
                                     ["eval", "--integrator", "adaptive"],
                                     ["baseline", "--integrator", "fixed_rk4"]],
                         ids=["eval_fixed_rk4", "eval_adaptive", "baseline"])
def test_ground_truth_is_a_model(gen_dir, tmp_path, command):
    # rolling out the true laws leaves only the error of holding each input over a step
    out = tmp_path / "out"
    assert main([*command, "--dataset", str(gen_dir), "--out", str(out),
                 "--model", str(gen_dir / synthetic.GROUND_TRUTH_NAME)]) == 0
    table = out / ("metrics.csv" if command[0] == "eval" else "comparison.csv")
    rows = [line.split(",") for line in table.read_text().splitlines()[1:]]
    errors = [float(x) for _, label, *values in rows if label != "aslip" for x in values]
    assert errors and max(errors) < 1e-2


def test_cli_import_loads_no_scipy():
    # no command needs scipy (see below), and nothing loads multiprocessing:
    # a scan forks its workers itself
    src = str(Path(jumprom.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import jumprom.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'), "
            "file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    assert out.stderr.strip() == "[]"


def test_no_command_loads_scipy(tmp_path):
    # every command runs on numpy alone: gen draws its input splines
    # in-house, the integrators and the sparse regression are numpy code;
    # nor does any load numpy.ma, which np.median imports
    src = str(Path(jumprom.__file__).resolve().parents[1])
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"n_jumps": 4, "split_counts": [2, 1, 1]}))
    data, model = str(tmp_path / "data"), str(tmp_path / "model" / "model.txt")
    evaluate = ["eval", "--dataset", data, "--model", model, "--reset-interval", "50"]
    commands = [
        ["gen", "--preset", "two_phase", "--config", str(config), "--out", data],
        ["train", "--dataset", data, "--latent-dim", "2", "--out", str(tmp_path / "model")],
        evaluate + ["--integrator", "fixed_rk4", "--out", str(tmp_path / "eval_fixed")],
        evaluate + ["--integrator", "adaptive", "--out", str(tmp_path / "eval_adaptive")],
        ["baseline", "--dataset", data, "--model", model, "--integrator", "fixed_rk4",
         "--out", str(tmp_path / "baseline")],
        ["scan", "--dataset", data, "--l-values", "1,2", "--seeds", "0",
         "--out", str(tmp_path / "scan")],
        ["finetune", "--dataset", data, "--model", model, "--out", str(tmp_path / "tuned")],
    ]
    code = (f"import sys; sys.path.insert(0, {src!r}); import jumprom.cli; "
            f"codes = [jumprom.cli.main(argv) for argv in {commands!r}]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.split('.')[:2] == ['numpy', 'ma']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == f"{[0] * len(commands)} []"
    assert (tmp_path / "tuned" / "model.txt").is_file()


def _split_files(data):
    """{split label: [jump file names]} of a dataset's manifest."""
    files = {}
    for entry in json.loads((data / "manifest.json").read_text())["jumps"]:
        files.setdefault(entry["split"], []).append(entry["file"])
    return files


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("column,block,value", [
    ("t", "timestamps", "nan"), ("ff_0", "foot_forces", "nan"),
    ("fp_5", "foot_positions", "-inf"), ("com_z", "com_positions", "inf")])
def test_non_finite_recorded_value_fails_to_load(gen_dir, trained_dir, tmp_path, capsys,
                                                 command, column, block, value):
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    name = _split_files(data)["test"][0]   # read by both commands
    set_cell(data / name, column, 2, value)
    args = {"train": ["train", "--latent-dim", "2"],
            "eval": ["eval", "--model", str(trained_dir / "model.txt")]}[command]
    out = tmp_path / "out"
    assert main(args + ["--dataset", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"ERROR E_LOAD: {name}: non-finite values in column block {block}" in err
    assert not (out / "model.txt").exists()


@pytest.mark.parametrize("command", ["eval", "baseline"])
class TestReadsOnlyTestJumps:
    """eval and baseline score the test split, so they open no other jump file."""

    def _run(self, command, data, trained_dir, out):
        return main([command, "--dataset", str(data), "--model", str(trained_dir / "model.txt"),
                     "--integrator", "fixed_rk4", "--out", str(out)])

    def _outputs(self, out):
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"}

    def test_other_jump_files_may_be_missing_or_garbled(self, gen_dir, trained_dir, tmp_path,
                                                        command):
        assert self._run(command, gen_dir, trained_dir, tmp_path / "intact") == 0
        intact = self._outputs(tmp_path / "intact")
        for damage in ("deleted", "garbled"):
            data = tmp_path / damage
            shutil.copytree(gen_dir, data)
            files = _split_files(data)
            for name in files["train"] + files["val"]:
                if damage == "deleted":
                    (data / name).unlink()
                else:
                    (data / name).write_text("t,q_0\nnot,a number\n")
            assert self._run(command, data, trained_dir, tmp_path / f"out_{damage}") == 0
            assert self._outputs(tmp_path / f"out_{damage}") == intact

    def test_garbled_test_jump_fails_naming_it(self, gen_dir, trained_dir, tmp_path, capsys,
                                               command):
        data = tmp_path / "data"
        shutil.copytree(gen_dir, data)
        name = _split_files(data)["test"][-1]
        set_cell(data / name, "q_3", 4, "x")
        assert self._run(command, data, trained_dir, tmp_path / "out") == 1
        assert f"ERROR E_LOAD: {name}: parse error" in capsys.readouterr().err

    def test_bad_split_label_on_any_entry_fails(self, gen_dir, trained_dir, tmp_path, capsys,
                                                command):
        data = tmp_path / "data"
        shutil.copytree(gen_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        entry = next(e for e in manifest["jumps"] if e["split"] == "train")
        entry["split"] = "holdout"
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert self._run(command, data, trained_dir, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"ERROR E_LOAD: manifest.json: bad split 'holdout' for {entry['file']}" in err

    def test_reads_exactly_the_test_jump_files(self, gen_dir, trained_dir, tmp_path,
                                               monkeypatch, command):
        read = []
        load = trajectory_data._load_jump_file

        def spy(path, m):
            read.append(path.name)
            return load(path, m)

        monkeypatch.setattr(trajectory_data, "_load_jump_file", spy)
        assert self._run(command, gen_dir, trained_dir, tmp_path / "out") == 0
        assert read == _split_files(gen_dir)["test"]


class TestForceRule:
    """The CoM wrench comes from the recorded ff_* columns alone."""

    MESSAGE = ("cannot derive the CoM wrench: recorded foot forces (ff_0..ff_11) are "
               "required while a foot is in contact")

    def _save_without_forces(self, gen_dir, path, flight_split):
        # no ff_* group at all; the jumps of ``flight_split`` have no foot down
        dataset = load_dataset(gen_dir)
        jumps = tuple(
            replace(j, foot_forces=None,
                    contact=np.zeros_like(j.contact) if label == flight_split else j.contact)
            for j, label in zip(dataset.jumps, dataset.split))
        save_dataset(Dataset(jumps=jumps, split=dataset.split, meta=dataset.meta), path)
        assert "ff_0" not in (path / "jump_000.csv").read_text().split("\n", 1)[0]

    def test_contact_without_forces_fails(self, gen_dir, tmp_path, capsys):
        data = tmp_path / "data"
        self._save_without_forces(gen_dir, data, flight_split="test")
        out = tmp_path / "out"
        assert main(["train", "--dataset", str(data), "--latent-dim", "2", "--out", str(out)]) == 1
        first = next(i for i, label in enumerate(load_dataset(data).split) if label != "test")
        assert f"ERROR E_VALIDATE: jump {first}: {self.MESSAGE}" in capsys.readouterr().err
        assert not (out / "model.txt").exists()

    def test_flight_without_forces_processes(self, gen_dir, trained_dir, tmp_path):
        # eval reads only the test jumps, which are airborne throughout
        data = tmp_path / "data"
        self._save_without_forces(gen_dir, data, flight_split="test")
        meta, jumps = trajectory_data.load_split(data, "test")
        for _, jump in jumps:
            processed = trajectory_data.process_trajectory(jump, meta.m)
            assert np.array_equal(processed.u[:, : meta.m], jump.tau)
            assert np.all(processed.u[:, meta.m :] == 0.0)
        assert main(["eval", "--dataset", str(data), "--model", str(trained_dir / "model.txt"),
                     "--integrator", "fixed_rk4", "--out", str(tmp_path / "out")]) == 0


class TestNamesTheFailingJump:
    """A jump that cannot be processed is named by its manifest index; the
    error keeps its type and code."""

    @staticmethod
    def _save_with_one_bad_jump(gen_dir, path, split, damage):
        # the last jump of ``split`` is damaged, so it is not jump 0
        dataset = load_dataset(gen_dir)
        bad = max(i for i, label in enumerate(dataset.split) if label == split)
        assert bad > 0
        jumps = tuple(damage(j) if i == bad else j for i, j in enumerate(dataset.jumps))
        save_dataset(Dataset(jumps=jumps, split=dataset.split, meta=dataset.meta), path)
        return bad

    def test_train_names_the_jump_without_forces(self, gen_dir, tmp_path, capsys):
        data = tmp_path / "data"
        bad = self._save_with_one_bad_jump(gen_dir, data, "train",
                                           lambda j: replace(j, foot_forces=None))
        out = tmp_path / "out"
        assert main(["train", "--dataset", str(data), "--latent-dim", "2", "--out", str(out)]) == 1
        assert (f"ERROR E_VALIDATE: jump {bad}: {TestForceRule.MESSAGE}"
                in capsys.readouterr().err)
        assert not (out / "model.txt").exists()

    def test_train_names_the_jump_without_foot_positions(self, gen_dir, tmp_path, capsys):
        data = tmp_path / "data"
        bad = self._save_with_one_bad_jump(gen_dir, data, "train",
                                           lambda j: replace(j, foot_positions=None))
        assert main(["train", "--dataset", str(data), "--latent-dim", "2",
                     "--out", str(tmp_path / "out")]) == 1
        assert (f"ERROR E_VALIDATE: jump {bad}: foot positions are required to compute the "
                "CoM wrench" in capsys.readouterr().err)

    def test_eval_names_the_test_jump_with_an_uneven_grid(self, gen_dir, trained_dir, tmp_path,
                                                          capsys):
        def uneven(jump):
            t = jump.timestamps.copy()
            t[5] += 0.1 * (t[6] - t[5])
            return replace(jump, timestamps=t)

        data = tmp_path / "data"
        bad = self._save_with_one_bad_jump(gen_dir, data, "test", uneven)
        assert main(["eval", "--dataset", str(data), "--model", str(trained_dir / "model.txt"),
                     "--out", str(tmp_path / "out")]) == 1
        assert f"ERROR E_TIMESTEP: jump {bad}: timestep varies" in capsys.readouterr().err
        with pytest.raises(NonUniformTimestepError, match=rf"^jump {bad}: timestep varies"):
            process_dataset(load_dataset(data))


@pytest.mark.parametrize("command", ["eval", "baseline", "finetune"])
def test_model_not_utf8_fails_to_load(gen_dir, trained_dir, tmp_path, capsys, command):
    raw = bytearray((trained_dir / "model.txt").read_bytes())
    raw[5] = 0xFF
    model = tmp_path / "model.txt"
    model.write_bytes(bytes(raw))
    code = main([command, "--dataset", str(gen_dir), "--model", str(model),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert ("ERROR E_FORMAT: not UTF-8 text (invalid start byte) (byte 5)"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["eval", "baseline", "finetune"])
def test_crlf_model_error_names_the_byte(gen_dir, trained_dir, tmp_path, capsys, command):
    # the offset counts the CR of every line before the bad one
    text = (trained_dir / "model.txt").read_text()
    raw = text.replace("threshold 0.1\n", "threshold abc\n", 1).replace("\n", "\r\n").encode()
    model = tmp_path / "model.txt"
    model.write_bytes(raw)
    code = main([command, "--dataset", str(gen_dir), "--model", str(model),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "ERROR E_FORMAT: malformed threshold" in err
    assert f"(byte {raw.index(b'threshold abc')})" in err


@pytest.mark.parametrize("command", ["eval", "baseline"])
def test_model_of_another_dimension_fails_validation(gen_dir, trained_dir, tmp_path, capsys,
                                                     command):
    # a model of d = 22 (m = 16) on the m = 12 data: four more unused dimensions
    model = pipeline.load_model(trained_dir / "model.txt")
    ae = model.autoencoder
    wide = replace(ae, W_enc=np.hstack([ae.W_enc, np.zeros((2, 4))]),
                   W_dec=np.vstack([ae.W_dec, np.zeros((4, 2))]),
                   b_dec=np.concatenate([ae.b_dec, np.zeros(4)]))
    path = tmp_path / "wide.txt"
    pipeline.save_model(replace(model, autoencoder=wide), path)
    code = main([command, "--dataset", str(gen_dir), "--model", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert ("ERROR E_VALIDATE: model dimension 22 does not match the trajectory (18)"
            in capsys.readouterr().err)


class TestNotUtf8JumpFile:
    """A jump file that is not UTF-8 text fails every loader with E_LOAD.

    Changing a byte changes the CSV's SHA-256, so its table cache no
    longer matches and cannot hide the bad byte: every case reaches the
    text.  The first 8 KB are decoded as one chunk when the header is read,
    so the places below cover the first chunk and a later one.
    """

    @pytest.fixture(params=["offset_0", "header", "first_row", "past_8k"])
    def damaged(self, request, gen_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(gen_dir, data)
        name = _split_files(data)["test"][0]
        raw = bytearray((data / name).read_bytes())
        header_end = raw.index(b"\n")
        offset = {"offset_0": 0, "header": header_end // 2, "first_row": header_end + 10,
                  "past_8k": 8192 + 100}[request.param]
        assert raw.index(b"\n", header_end + 1) < 8192 < len(raw) - 100
        raw[offset] = 0xFF
        (data / name).write_bytes(bytes(raw))
        return data, name, f"{name}: not UTF-8 text (invalid start byte at byte {offset})"

    def test_load_dataset(self, damaged):
        data, _, message = damaged
        with pytest.raises(DatasetLoadError) as err:
            load_dataset(data)
        assert str(err.value) == message

    def test_load_split(self, damaged):
        data, _, message = damaged
        with pytest.raises(DatasetLoadError) as err:
            trajectory_data.load_split(data, "test")
        assert str(err.value) == message

    def test_cli_train(self, damaged, tmp_path):
        data, _, message = damaged
        src = str(Path(jumprom.__file__).resolve().parents[1])
        argv = ["train", "--dataset", str(data), "--latent-dim", "2", "--out", str(tmp_path / "out")]
        code = (f"import sys; sys.path.insert(0, {src!r}); import jumprom.cli; "
                f"sys.exit(jumprom.cli.main({argv!r}))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 1
        assert f"ERROR E_LOAD: {message}" in out.stderr
        assert "Traceback" not in out.stderr


def test_manifest_not_utf8_fails_to_load(gen_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    (data / "manifest.json").write_bytes(b"\xff" + (data / "manifest.json").read_bytes())
    with pytest.raises(DatasetLoadError, match="manifest.json: invalid JSON"):
        load_dataset(data)


def test_series_text_is_repr_of_each_value(tmp_path):
    # values whose shortest round-trip text is easy to get wrong
    pred = np.array([[-0.0, 5e-324, 1e300], [0.1, 1 / 3, 2.0], [-7.0, 0.0, 1e-7]])
    true = np.array([[0.25, -0.0, 1e300], [1 / 3, 0.1, 3.0], [1e-7, 5e-324, -7.0]])
    result = RolloutResult(timestamps=np.array([0.0, 0.5, 1.0]), latent_pred=np.zeros((3, 0)),
                           q_pred=pred, q_true=true, phase_schedule=("flight",) * 3)
    path = tmp_path / "series.csv"
    _write_series(path, result)
    rows = np.column_stack([result.timestamps, result.q_pred, result.q_true,
                            result.error_norm])
    body = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in rows)
    assert path.read_text().split("\n", 1)[1] == body


class TestBaseline:
    def test_comparison_table(self, gen_dir, trained_dir, tmp_path):
        out = tmp_path / "baseline"
        code = main([
            "baseline", "--dataset", str(gen_dir), "--model",
            str(trained_dir / "model.txt"), "--out", str(out),
            "--integrator", "fixed_rk4",
        ])
        assert code == 0
        assert not (out / "failures.csv").exists()
        lines = (out / "comparison.csv").read_text().strip().split("\n")
        assert lines[0] == "jump,model,rmse_x,rmse_y,rmse_z"
        assert len(lines) == 1 + 2 * 2  # 2 test jumps x (aslip, learned)

        # the learned row scores the base position, q columns m..m+2
        dataset = process_dataset(load_dataset(gen_dir))
        model = pipeline.load_model(trained_dir / "model.txt")
        config = RolloutConfig(step_rate=1.0 / dataset.meta.dt, integrator="fixed_rk4")
        m = dataset.meta.m
        for jump, label, *rmse in (line.split(",") for line in lines[1:]):
            if label == "learned":
                expected = rollout_full(model, dataset.jumps[int(jump)], config).rmse[m:m + 3]
                assert [float(x) for x in rmse] == expected.tolist()

    @pytest.mark.parametrize("learned_failing, expected", [(0, "learned"), (1, "aSLIP")])
    @pytest.mark.parametrize("integrator", ["fixed_rk4", "adaptive"])
    def test_errors_are_reported_in_jump_order(self, gen_dir, trained_dir, tmp_path, capsys,
                                               monkeypatch, integrator, learned_failing,
                                               expected):
        # the aSLIP rollout of the second test jump fails, and so does the
        # learned one of the first or of the second jump: failures.csv lists
        # both and the table every other row, each in the order aSLIP 0,
        # learned 0, aSLIP 1, learned 1, and the error reported is the first
        aslip_results, rollout_jumps = cli._aslip_results, rollout.rollout_jumps
        indices = [idx for idx, _ in cli._load_test_jumps(gen_dir)[1]]
        failed = {(indices[1], "aslip"): "aSLIP", (indices[learned_failing], "learned"): "learned"}

        def failing_aslip(params, jumps, base, integrator):
            return [DivergenceError("aSLIP failed", 0.1) if (idx, "aslip") in failed else outcome
                    for (idx, _), outcome in zip(jumps, aslip_results(params, jumps, base,
                                                                      integrator))]

        def failing_learned(model, jumps, config):
            return [(idx, mode, DivergenceError("learned failed", 0.2)
                     if (idx, "learned") in failed else outcome)
                    for idx, mode, outcome in rollout_jumps(model, jumps, config)]

        monkeypatch.setattr(cli, "_aslip_results", failing_aslip)
        monkeypatch.setattr(rollout, "rollout_jumps", failing_learned)
        out = tmp_path / "baseline"
        assert main(["baseline", "--dataset", str(gen_dir), "--model",
                     str(trained_dir / "model.txt"), "--out", str(out),
                     "--integrator", integrator]) == 1
        assert capsys.readouterr().err == f"ERROR E_BLOWUP: {expected} failed\n"
        order = [(idx, model) for idx in indices for model in ("aslip", "learned")]
        times = {"aSLIP": 0.1, "learned": 0.2}
        assert (out / "failures.csv").read_text().splitlines() == [
            "jump,model,code,time,message"] + [
            f"{idx},{model},E_BLOWUP,{times[failed[idx, model]]},{failed[idx, model]} failed"
            for idx, model in order if (idx, model) in failed]
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert [tuple(row.split(",")[:2]) for row in rows] == [
            (str(idx), model) for idx, model in order if (idx, model) not in failed]

    @pytest.mark.parametrize("integrator", ["fixed_rk4", "adaptive"])
    def test_aslip_rows_are_the_jumps_alone(self, gen_dir, integrator):
        # jumps of two sample steps form two stacks; each result is the
        # jump's own, run alone
        meta, jumps = cli._load_test_jumps(gen_dir)
        idx, jump = jumps[0]
        slower = replace(jump, timestamps=jump.timestamps * (1 + 2**-40))
        jumps = [jumps[0], (idx + 100, slower), *jumps[1:]]
        base, params = slice(meta.m, meta.m + 3), aslip.AslipParams()
        together = cli._aslip_results(params, jumps, base, integrator)
        for jump, result in zip(jumps, together):
            (alone,) = cli._aslip_results(params, [jump], base, integrator)
            assert result.q_pred.tobytes() == alone.q_pred.tobytes()
        assert together[0].q_pred.tobytes() != together[1].q_pred.tobytes()

    def test_manifest_records_model(self, gen_dir, trained_dir, tmp_path):
        model_path = str(trained_dir / "model.txt")
        for args, expected in ((["--model", model_path], {"dataset": str(gen_dir),
                                                           "model": model_path}),
                               ([], {"dataset": str(gen_dir)})):
            out = tmp_path / f"baseline{len(args)}"
            assert main(["baseline", "--dataset", str(gen_dir), "--out", str(out),
                         "--integrator", "fixed_rk4"] + args) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["inputs"] == expected

    def test_unset_aslip_keys_take_the_documented_defaults(self, gen_dir, tmp_path):
        # README: k_s 2500 N/m, mass 12 kg, l0 [0, 0, 0.3] m, g 9.81 m/s^2
        tables = {}
        for name, payload in (("unset", {}),
                              ("documented", {"k_s": 2500, "mass": 12, "l0": [0, 0, 0.3],
                                              "g": 9.81}),
                              ("heavier", {"mass": 13})):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(payload))
            out = tmp_path / name
            assert main(["baseline", "--dataset", str(gen_dir), "--config", str(config),
                         "--out", str(out), "--integrator", "fixed_rk4"]) == 0
            tables[name] = (out / "comparison.csv").read_bytes()
        assert tables["unset"] == tables["documented"] != tables["heavier"]

    def test_divergence_exits_with_blowup(self, gen_dir, tmp_path, capsys):
        config = tmp_path / "stiff.json"
        config.write_text(json.dumps({"k_s": 1e9}))
        code = main(["baseline", "--dataset", str(gen_dir), "--config", str(config),
                     "--out", str(tmp_path / "baseline"), "--integrator", "fixed_rk4"])
        assert code == 1
        assert "ERROR E_BLOWUP" in capsys.readouterr().err

    @pytest.mark.parametrize("integrator", ["fixed_rk4", "adaptive"])
    def test_divergence_blowup_without_runtime_warning(self, gen_dir, tmp_path, capsys,
                                                       integrator):
        # adaptive: RK45 stops early on the stiff spring, which is a blow-up too
        config = tmp_path / "stiff.json"
        config.write_text(json.dumps({"k_s": 1e9}))
        out = tmp_path / "baseline"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["baseline", "--dataset", str(gen_dir), "--config", str(config),
                         "--out", str(out), "--integrator", integrator])
        assert code == 1
        assert "ERROR E_BLOWUP" in capsys.readouterr().err
        assert (out / "comparison.csv").read_text() == "jump,model,rmse_x,rmse_y,rmse_z\n"

    def test_divergence_leaves_no_table(self, gen_dir, tmp_path):
        # every aSLIP rollout blows up: the table keeps only its header, and
        # failures.csv lists each rollout
        config = tmp_path / "stiff.json"
        config.write_text(json.dumps({"k_s": 1e9}))
        out = tmp_path / "baseline"
        code = main(["baseline", "--dataset", str(gen_dir), "--config", str(config),
                     "--out", str(out), "--integrator", "fixed_rk4"])
        assert code == 1
        assert sorted(p.name for p in out.iterdir()) == ["comparison.csv", "failures.csv",
                                                         "run_manifest.json"]
        assert (out / "comparison.csv").read_text() == "jump,model,rmse_x,rmse_y,rmse_z\n"
        rows = list(csv.reader((out / "failures.csv").open()))[1:]
        indices = [idx for idx, _ in cli._load_test_jumps(gen_dir)[1]]
        assert [row[:3] for row in rows] == [[str(idx), "aslip", "E_BLOWUP"] for idx in indices]

    @pytest.mark.parametrize("payload", [
        {"k_s": "a"}, {"l0": "x"}, {"k_s": None}, {"l0": [0, 0.3]}, {"l0": [0, 0, "0.3"]},
        {"l0": [0, 0, 0]}, {"l0": [0, 0, float("inf")]}, {"mass": "x"}, {"mass": 0},
        {"g": None}, {"g": True}, {"integrator": 5}])
    def test_config_value_types_validated(self, gen_dir, tmp_path, capsys, payload):
        config = tmp_path / "baseline.json"
        config.write_text(json.dumps(payload))
        code = main(["baseline", "--dataset", str(gen_dir), "--config", str(config),
                     "--out", str(tmp_path / "baseline")])
        assert code == 1
        assert "ERROR E_VALIDATE" in capsys.readouterr().err

    def test_reset_interval_flag_rejected(self, gen_dir, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["baseline", "--dataset", str(gen_dir), "--out", str(tmp_path / "baseline"),
                  "--reset-interval", "7"])
        assert err.value.code == 2


def _save_without_flight(model_path, path):
    """Save a copy of a model with its flight phase removed; return its path."""
    model = pipeline.load_model(model_path)
    crippled = pipeline.MultiPhaseModel(
        autoencoder=model.autoencoder,
        phases=tuple(pm for pm in model.phases if pm.phase.value != "flight"),
        provenance=model.provenance,
    )
    pipeline.save_model(crippled, path)
    return path


@pytest.fixture(scope="module")
def failing_model(gen_dir, tmp_path_factory):
    """The truth of ``gen_dir`` with dxi_1' = 30 dxi_1^2 added in flight: the
    full rollout of each test jump blows up, the second's sooner, and each
    rollout with resets every 50 steps finishes."""
    truth = pipeline.load_model(gen_dir / synthetic.GROUND_TRUTH_NAME)
    phases = []
    for pm in truth.phases:
        Xi = pm.coefficients.Xi.copy()
        if pm.phase.value == "flight":
            Xi[truth.library.term_names(2).index("dxi_1^2"), 0] += 30.0
        phases.append(replace(pm, coefficients=replace(pm.coefficients, Xi=Xi)))
    path = tmp_path_factory.mktemp("failing") / "model.txt"
    pipeline.save_model(replace(truth, phases=tuple(phases)), path)
    return path


@pytest.mark.parametrize("integrator", ["fixed_rk4", "adaptive"])
class TestFailingRollouts:
    """eval and baseline write every rollout that finishes, list the others
    in failures.csv, and exit 1 with the first failure's ERROR line."""

    def _alone(self, gen_dir, failing_model, integrator):
        """Each test jump's full and reset rollouts, each run alone."""
        meta, jumps = cli._load_test_jumps(gen_dir)
        model = pipeline.load_model(failing_model)
        config = RolloutConfig(step_rate=1.0 / meta.dt, integrator=integrator, reset_interval=50)
        full = []
        for _, jump in jumps:
            with pytest.raises(DivergenceError) as err:
                rollout_full(model, jump, config)
            full.append(err.value)
        assert full[1].time < full[0].time
        return meta, jumps, full, [rollout.rollout_with_reset(model, jump, config)
                                   for _, jump in jumps]

    def _check_failures(self, out, label, rows):
        manifest = json.loads((out / "run_manifest.json").read_text())
        digest = hashlib.sha256((out / "failures.csv").read_bytes()).hexdigest()
        assert manifest["outputs"]["failures.csv"] == digest
        assert list(csv.reader((out / "failures.csv").open())) == [
            ["jump", label, "code", "time", "message"]] + [
            [str(idx), model, error.code, repr(error.time), str(error)]
            for idx, model, error in rows]

    def test_eval(self, gen_dir, failing_model, tmp_path, capsys, integrator):
        _, jumps, full, reset = self._alone(gen_dir, failing_model, integrator)
        out = tmp_path / "eval"
        assert main(["eval", "--dataset", str(gen_dir), "--model", str(failing_model),
                     "--out", str(out), "--integrator", integrator,
                     "--reset-interval", "50"]) == 1
        # the first failure in jump order, not in time
        assert capsys.readouterr().err == f"ERROR E_BLOWUP: {full[0]}\n"
        assert (out / "metrics.csv").read_text().splitlines() == ["jump,mode,mean_rmse"] + [
            f"{idx},reset," + trajectory_data.format_row([r.rmse.mean()])
            for (idx, _), r in zip(jumps, reset)]
        assert sorted(p.name for p in out.glob("rollout_*.csv")) == [
            f"rollout_{idx:03d}_reset.csv" for idx, _ in jumps]
        for (idx, _), r in zip(jumps, reset):
            expected = tmp_path / "alone.csv"
            _write_series(expected, r)
            assert (out / f"rollout_{idx:03d}_reset.csv").read_bytes() == expected.read_bytes()
        self._check_failures(out, "mode", [(idx, "full", e) for (idx, _), e in zip(jumps, full)])

    def test_baseline(self, gen_dir, failing_model, tmp_path, capsys, integrator):
        meta, jumps, full, _ = self._alone(gen_dir, failing_model, integrator)
        out = tmp_path / "baseline"
        assert main(["baseline", "--dataset", str(gen_dir), "--model", str(failing_model),
                     "--out", str(out), "--integrator", integrator]) == 1
        assert capsys.readouterr().err == f"ERROR E_BLOWUP: {full[0]}\n"
        base = slice(meta.m, meta.m + 3)
        aslip_rows = cli._aslip_results(aslip.AslipParams(), jumps, base, integrator)
        assert (out / "comparison.csv").read_text().splitlines() == [
            "jump,model,rmse_x,rmse_y,rmse_z"] + [
            f"{idx},aslip," + trajectory_data.format_row(r.rmse)
            for (idx, _), r in zip(jumps, aslip_rows)]
        self._check_failures(out, "model",
                             [(idx, "learned", e) for (idx, _), e in zip(jumps, full)])

    @pytest.mark.parametrize("command", ["eval", "baseline"])
    @pytest.mark.parametrize("failing_first", [True, False], ids=["failing_first", "clean_first"])
    def test_a_rerun_leaves_no_stale_output(self, gen_dir, trained_dir, failing_model, tmp_path,
                                            command, failing_first, integrator):
        # the failing set fails every full rollout, the clean set none; run
        # one after the other into one directory, the last run's files are
        # exactly those its manifest lists
        out = tmp_path / command
        models = [(failing_model, 1), (trained_dir / "model.txt", 0)]
        for model, code in models if failing_first else models[::-1]:
            assert main([command, "--dataset", str(gen_dir), "--model", str(model),
                         "--out", str(out), "--integrator", integrator]
                        + (["--reset-interval", "50"] if command == "eval" else [])) == code
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["run_manifest.json", *manifest["outputs"]])
        assert (out / "failures.csv").exists() == (not failing_first)


@pytest.fixture(scope="module")
def fast_rate_dirs(tmp_path_factory):
    """A dataset recorded at 1000 Hz instead of the default 500 Hz, and a model."""
    out = tmp_path_factory.mktemp("fast_rate")
    config = out / "gen.json"
    config.write_text(json.dumps({"n_jumps": 6, "split_counts": [4, 1, 1], "dt": 0.001}))
    assert main(["gen", "--config", str(config), "--out", str(out / "data")]) == 0
    assert main(["train", "--dataset", str(out / "data"), "--out", str(out / "model"),
                 "--latent-dim", "2", "--seed", "0"]) == 0
    return out / "data", out / "model" / "model.txt"


class TestNonDefaultRate:
    """eval and baseline take their step rate from the dataset's dt."""

    def test_eval(self, fast_rate_dirs, tmp_path):
        data, model = fast_rate_dirs
        out = tmp_path / "eval"
        code = main(["eval", "--dataset", str(data), "--model", str(model),
                     "--out", str(out), "--integrator", "fixed_rk4"])
        assert code == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 1  # one test jump, full rollout only

    def test_baseline(self, fast_rate_dirs, tmp_path):
        data, model = fast_rate_dirs
        out = tmp_path / "baseline"
        code = main(["baseline", "--dataset", str(data), "--model", str(model),
                     "--out", str(out), "--integrator", "fixed_rk4"])
        assert code == 0
        lines = (out / "comparison.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2  # one test jump x (aslip, learned)


class TestFinetune:
    def test_finetune_writes_model(self, gen_dir, trained_dir, tmp_path):
        out = tmp_path / "tuned"
        code = main([
            "finetune", "--dataset", str(gen_dir), "--model",
            str(trained_dir / "model.txt"), "--out", str(out), "--seed", "0",
        ])
        assert code == 0
        tuned = pipeline.load_model(out / "model.txt")
        assert "parent_hash" in tuned.provenance

    def test_latent_dim_flag_rejected(self, gen_dir, trained_dir, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["finetune", "--dataset", str(gen_dir), "--model",
                  str(trained_dir / "model.txt"), "--out", str(tmp_path / "tuned"),
                  "--latent-dim", "5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["train", "finetune"])
    def test_retired_keys_ignored(self, gen_dir, trained_dir, tmp_path, command):
        # keys of earlier versions' stage-1 descent and encoder start
        config = tmp_path / "old.json"
        config.write_text(json.dumps({"epochs": 300, "learning_rate": 2e-4, "momentum": 0.9,
                                      "encoder_init": "random", "fine_tune_lr_scale": 0.1}))
        out = tmp_path / "out"
        argv = [command, "--dataset", str(gen_dir), "--config", str(config), "--out", str(out)]
        if command == "finetune":
            argv += ["--model", str(trained_dir / "model.txt")]
        assert main(argv) == 0
        resolved = json.loads((out / "run_manifest.json").read_text())["resolved_config"]
        assert resolved == pipeline.config_to_dict(pipeline.TrainingConfig())

    def test_manifest_records_model_latent_dim(self, gen_dir, trained_dir, tmp_path):
        config = tmp_path / "finetune.json"
        config.write_text(json.dumps({"latent_dim": 5}))
        out = tmp_path / "tuned"
        code = main(["finetune", "--dataset", str(gen_dir), "--model",
                     str(trained_dir / "model.txt"), "--out", str(out),
                     "--config", str(config)])
        assert code == 0
        resolved = json.loads((out / "run_manifest.json").read_text())["resolved_config"]
        assert resolved["latent_dim"] == 2
        tuned = pipeline.load_model(out / "model.txt")
        assert tuned.autoencoder.latent_dim == 2
        assert tuned.provenance["config_hash"] == pipeline.config_from_dict(resolved).hash()

    def test_library_is_the_models(self, gen_dir, tmp_path):
        # a model trained on a linear library, fine-tuned with no config
        config = tmp_path / "linear.json"
        config.write_text(json.dumps({"library": {"poly_degree": 1}}))
        assert main(["train", "--dataset", str(gen_dir), "--config", str(config),
                     "--out", str(tmp_path / "model")]) == 0
        out = tmp_path / "tuned"
        assert main(["finetune", "--dataset", str(gen_dir), "--model",
                     str(tmp_path / "model" / "model.txt"), "--out", str(out)]) == 0
        linear = FunctionLibrarySpec(poly_degree=1)
        resolved = json.loads((out / "run_manifest.json").read_text())["resolved_config"]
        assert resolved["library"] == vars(linear)
        tuned = pipeline.load_model(out / "model.txt")
        assert [pm.coefficients.library for pm in tuned.phases] == [linear, linear]
        assert tuned.provenance["config_hash"] == pipeline.config_from_dict(resolved).hash()

    def test_library_key_ignored(self, gen_dir, trained_dir, tmp_path):
        # a default-library model fine-tuned with a config naming another library
        config = tmp_path / "linear.json"
        config.write_text(json.dumps({"library": {"poly_degree": 1}}))
        out = tmp_path / "tuned"
        assert main(["finetune", "--dataset", str(gen_dir), "--model",
                     str(trained_dir / "model.txt"), "--config", str(config),
                     "--out", str(out)]) == 0
        resolved = json.loads((out / "run_manifest.json").read_text())["resolved_config"]
        assert resolved["library"] == vars(FunctionLibrarySpec())
        tuned = pipeline.load_model(out / "model.txt")
        assert {pm.coefficients.library for pm in tuned.phases} == {FunctionLibrarySpec()}


class TestOutRoot:
    def test_env_var_fallback(self, gen_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("JUMPROM_OUT_ROOT", str(tmp_path / "root"))
        code = main(["train", "--dataset", str(gen_dir), "--latent-dim", "2"])
        assert code == 0
        assert (tmp_path / "root" / "train" / "model.txt").exists()

    def test_out_that_is_a_file_fails_with_io_error(self, gen_dir, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["train", "--dataset", str(gen_dir), "--out", str(out)]) == 1
        assert f"ERROR E_IO: [Errno 17] File exists: '{out}'" in capsys.readouterr().err

    def test_missing_out_and_env_fails(self, gen_dir, monkeypatch, capsys):
        monkeypatch.delenv("JUMPROM_OUT_ROOT", raising=False)
        code = main(["train", "--dataset", str(gen_dir), "--latent-dim", "2"])
        assert code == 1
        assert "E_VALIDATE" in capsys.readouterr().err


class TestSettings:
    """One resolver serves every command: defaults < config file < flags."""

    @pytest.mark.parametrize("command", ["gen", "train", "scan", "eval", "baseline", "finetune"])
    def test_config_read_once(self, gen_dir, trained_dir, tmp_path, monkeypatch, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_jumps": 3, "split_counts": [1, 1, 1], "l_values": [1],
                                      "seeds": [0], "integrator": "fixed_rk4"}))
        reads = []
        read_text = Path.read_text

        def counting(path, *args, **kwargs):
            reads.append(path == config)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command != "gen":
            argv += ["--dataset", str(gen_dir)]
        if command in ("eval", "finetune"):
            argv += ["--model", str(trained_dir / "model.txt")]
        assert main(argv) == 0
        assert sum(reads) == 1

    @pytest.mark.parametrize("command", ["scan", "eval", "baseline"])
    def test_seed_flag_rejected(self, gen_dir, trained_dir, tmp_path, command):
        argv = [command, "--dataset", str(gen_dir), "--out", str(tmp_path / "out"),
                "--seed", "7"]
        if command == "eval":
            argv += ["--model", str(trained_dir / "model.txt")]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", list(KEYS))
def test_options_are_the_flags_of_the_keys_read(command):
    options = _subparsers()[command]._option_string_actions
    expected = {"-h", "--help", "--config", "--out"} | {FLAGS[k][0] for k in KEYS[command]
                                                         if k in FLAGS}
    if command != "gen":
        expected.add("--dataset")
    if command in ("eval", "baseline", "finetune"):
        expected.add("--model")
        assert options["--model"].required == (command != "baseline")
    if command == "scan":
        expected.add("--parallel")
    assert set(options) == expected


class TestReadme:
    def test_quick_start_commands_parse(self):
        block = README.read_text().split("## Quick start", 1)[1].split("```bash", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in block.splitlines()
                    if line.startswith("jumprom ")]
        assert {argv[0] for argv in commands} == set(KEYS)
        for argv in commands:
            build_parser().parse_args(argv)  # a stale flag exits with code 2

    def test_config_table_lists_keys_and_flags(self):
        rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", README.read_text(), re.M))
        training = {f.name for f in fields(pipeline.TrainingConfig)}
        parsers = _subparsers()
        assert set(rows) == set(KEYS)
        for command, keys in KEYS.items():
            options = parsers[command]._option_string_actions
            for key in keys:
                flag = FLAGS.get(key, (None,))[0]
                if flag is not None:
                    assert flag in options, (command, flag)
                    assert f"`{key}` (`{flag}`" in rows[command], (command, key)
                elif key not in training:
                    assert f"`{key}`" in rows[command], (command, key)

    def test_dataset_format_matches_written_header(self, tmp_path):
        # expand the documented header at m = 12 (q_0..q_{m+5} -> prefix q,
        # indices 0..17) and compare it with what save_dataset writes for a
        # jump carrying every optional block
        m, T = 12, 3
        block = README.read_text().split("## Dataset format", 1)[1].split("```", 2)[1]
        documented = []
        for item in re.findall(r"[^\s,\[\]]+", block):
            first, _, last = item.partition("..")
            if not last:
                documented.append(item)
                continue
            prefix, start = first.rsplit("_", 1)
            assert last.startswith(prefix + "_"), item
            end = last[len(prefix) + 1:].strip("{}")
            end = int(end) if end.isdigit() else m + int(end[1:] or 0)
            documented += [f"{prefix}_{i}" for i in range(int(start), end + 1)]
        jump = Trajectory(timestamps=np.arange(T) * 0.1, q=np.zeros((T, m + 6)),
                          dq=np.zeros((T, m + 6)), tau=np.zeros((T, m)),
                          contact=np.ones((T, 4)), foot_forces=np.zeros((T, 12)),
                          foot_positions=np.zeros((T, 12)), com_positions=np.zeros((T, 3)))
        dataset = Dataset(jumps=(jump,), split=("train",),
                          meta=DatasetMeta(robot="readme", m=m, dt=0.1))
        root = save_dataset(dataset, tmp_path)
        assert documented == (root / "jump_000.csv").read_text().splitlines()[0].split(",")

    def test_key_value_references_name_config_keys(self):
        # a `name: value` example in the prose must name a key some command reads
        keys = {key for command_keys in KEYS.values() for key in command_keys}
        named = re.findall(r"`(\w+): [^`]*`", README.read_text())
        assert set(named) <= keys, set(named) - keys

    def test_model_file_lists_default_term_names(self):
        block = README.read_text().split("## Model file", 1)[1].split("```", 4)[3]
        assert block.split() == FunctionLibrarySpec().term_names(2)

    def test_model_file_lists_written_line_heads(self, trained_dir):
        # one phase, so the documented per-phase lines appear once; rows excluded
        block = README.read_text().split("## Model file", 1)[1].split("```", 2)[1]
        documented = [line.split()[0] for line in block.splitlines()
                      if line.strip() and not line.startswith(" ")]
        model = pipeline.load_model(trained_dir / "model.txt")
        model = pipeline.MultiPhaseModel(autoencoder=model.autoencoder, phases=model.phases[:1],
                                         provenance=model.provenance)
        written = [line.split()[0] for line in pipeline.serialize_model(model).splitlines()
                   if not re.match(r"[-\d]", line)]
        assert documented == written

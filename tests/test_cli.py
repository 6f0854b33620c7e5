import csv
import io
import json
import math
import os
import time

import numpy as np
import pytest

from ulln import read_dataset
from ulln.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


SMOKE_EXPERIMENT = {
    "command": "experiment",
    "p": 50,
    "n": 40,
    "n_test": 40,
    "beta": 1000.0,
    "R": 1.0,
    "replications": 2,
    "base_seed": 3,
    "solver": {"max_iters": 300, "grad_map_tol": 1e-6},
}


class TestExperimentCommand:
    def test_smoke_run_writes_tables(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", SMOKE_EXPERIMENT)
        out = tmp_path / "out"
        assert main(["experiment", cfg, str(out), "--threads", "1"]) == 0
        rows1 = list(csv.reader((out / "table1.csv").open()))
        rows2 = list(csv.reader((out / "table2.csv").open()))
        reps = list(csv.reader((out / "replications.csv").open()))
        assert len(rows1) == 1 + 3
        assert len(rows2) == 1 + 5
        assert len(reps) == 1 + 2 * 2
        assert rows1[0] == ["metric", "sigma_rec", "identity"]

    def test_deterministic_output(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", SMOKE_EXPERIMENT)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", cfg, str(out1), "--threads", "1"]) == 0
        assert main(["experiment", cfg, str(out2), "--threads", "2"]) == 0
        assert (out1 / "table1.csv").read_bytes() == (out2 / "table1.csv").read_bytes()
        assert (out1 / "replications.csv").read_bytes() == (out2 / "replications.csv").read_bytes()

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["experiment", str(bad), str(tmp_path / "x")]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        payload = dict(SMOKE_EXPERIMENT, banana=1)
        cfg = write_json(tmp_path / "cfg.json", payload)
        assert main(["experiment", cfg, str(tmp_path / "x")]) == 2

    def test_removed_solver_key_exits_2(self, tmp_path, capsys):
        solver = dict(SMOKE_EXPERIMENT["solver"], armijo_const=1e-4)
        cfg = write_json(tmp_path / "cfg.json", dict(SMOKE_EXPERIMENT, solver=solver))
        assert main(["experiment", cfg, str(tmp_path / "x")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown solver keys: ['armijo_const']" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("key, value", [
        ("max_iters", 1.5), ("max_iters", True), ("max_iters", "x"),
        ("grad_map_tol", True), ("grad_map_tol", "x"), ("grad_map_tol", 0),
        ("grad_map_tol", math.nan), ("grad_map_tol", math.inf),
    ])
    def test_mistyped_solver_value_exits_2_before_any_output(self, tmp_path, capsys, key, value):
        solver = dict(SMOKE_EXPERIMENT["solver"], **{key: value})
        cfg = write_json(tmp_path / "cfg.json", dict(SMOKE_EXPERIMENT, solver=solver))
        assert main(["experiment", cfg, str(tmp_path / "x")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err
        assert "Traceback" not in captured.err

    def test_wrong_command_field_exits_2(self, tmp_path):
        payload = dict(SMOKE_EXPERIMENT, command="bounds")
        cfg = write_json(tmp_path / "cfg.json", payload)
        assert main(["experiment", cfg, str(tmp_path / "x")]) == 2

    def test_unwritable_out_dir_exits_3(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", SMOKE_EXPERIMENT)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["experiment", cfg, str(blocker)]) == 3

    def test_single_replication_full_size_under_60s(self, tmp_path):
        payload = {
            "command": "experiment", "p": 3000, "n": 1000, "n_test": 1000,
            "beta": 1000.0, "R": 1.0, "replications": 1, "base_seed": 1,
        }
        cfg = write_json(tmp_path / "full.json", payload)
        start = time.monotonic()
        assert main(["experiment", cfg, str(tmp_path / "out"), "--threads", "1"]) == 0
        assert time.monotonic() - start < 60.0


class TestBoundsCommand:
    def test_three_bound_table(self, capsys):
        assert main([
            "bounds", "--n", "100", "--R", "0", "--K", "1.4142135623730951",
            "--delta", "0.1", "--trace", "1", "--norm", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "theorem" in out and "classical" in out and "extended" in out
        assert "20.9271" in out

    def test_delta_one_classical_zero(self, capsys):
        assert main(["bounds", "--n", "50", "--R", "0", "--delta", "1", "--trace", "1", "--norm", "1"]) == 0
        out = capsys.readouterr().out
        assert "classical  total=0 " in out
        assert "n/a (delta > 1/6)" in out  # theorem row unavailable

    def test_theorem_alone_with_large_delta_exits_2(self):
        assert main(["bounds", "--n", "50", "--delta", "0.5", "--trace", "1", "--norm", "1",
                     "--bound", "theorem"]) == 2

    def test_missing_parameters_exit_2(self):
        assert main(["bounds", "--n", "50"]) == 2

    def test_sweep_vanishing_vs_stagnant(self, capsys):
        assert main([
            "bounds", "--R", "1", "--K", "1.4142135623730951", "--norm", "1",
            "--n", "1000", "--delta", "0.01", "--trace", "1000",
            "--sweep", "n=1000:100000000:12",
            "--trace-rule", "n_over_log_n", "--delta-rule", "inverse_n_squared",
        ]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][:4] == ["n", "trace", "delta", "theorem_total"]
        theorem = [float(r[3]) for r in rows[1:]]
        classical = [float(r[4]) for r in rows[1:]]
        assert all(b < a for a, b in zip(theorem, theorem[1:]))  # marches toward zero
        assert all(c > 1.0 for c in classical)  # does not vanish

    @pytest.mark.parametrize("bound", ("theorem", "classical", "extended"))
    def test_sweep_emits_only_the_selected_bound(self, capsys, bound):
        assert main([
            "bounds", "--R", "1", "--norm", "1", "--n", "1000", "--delta", "0.01", "--trace", "10",
            "--sweep", "n=1000:100000:3", "--bound", bound,
        ]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["n", "trace", "delta", f"{bound}_total"]
        assert len(rows) == 4 and all(len(row) == 4 for row in rows)

    def test_config_file_variant(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "b.json", {
            "command": "bounds", "n": 100, "R": 0.0, "K": 1.4142135623730951,
            "delta": 0.1, "trace": 1.0, "norm": 1.0,
        })
        assert main(["bounds", cfg]) == 0
        assert "20.9271" in capsys.readouterr().out


class TestVerifyCommand:
    def test_hermite_suite(self, capsys):
        assert main(["verify", "hermite"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 18
        assert "18/18 checks passed" in out

    def test_moments_suite_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "report.csv"
        assert main(["verify", "moments", "--csv", str(csv_path)]) == 0
        rows = list(csv.reader(csv_path.open()))
        assert rows[0] == ["name", "lhs", "rhs", "residual", "tolerance", "passed"]
        assert all(row[5] == "1" for row in rows[1:])

    def test_threads_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "hermite", "--threads", "2"])
        assert exc.value.code == 2

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2


class TestDeviationCommand:
    def test_p1_grid_column_agrees(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "d.json", {
            "command": "deviation", "p": 1, "n": 20, "cov_kind": "identity", "beta": 2.0,
            "R": 1.0, "delta": 0.05, "replicates": 3, "starts": 4, "budget": 500,
            "base_seed": 3, "grid_resolution": 20000,
        })
        assert main(["deviation", cfg]) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out.split("holding_frequency")[0])))
        assert rows[0][-1] == "grid_estimate"
        for row in rows[1:]:
            if not row:
                continue
            assert abs(float(row[1]) - float(row[5])) < 1e-3
        assert "holding_frequency=1.00000" in out

    def test_radius_zero_all_hold(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "d0.json", {
            "command": "deviation", "p": 3, "n": 15, "cov_kind": "reciprocal", "beta": 1.0,
            "R": 0.0, "delta": 0.05, "replicates": 2, "starts": 1, "budget": 200, "base_seed": 1,
        })
        assert main(["deviation", cfg]) == 0
        out = capsys.readouterr().out
        rows = [r for r in csv.reader(io.StringIO(out.split("holding_frequency")[0])) if r]
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(0.0, abs=1e-12)
            assert row[4] == "1"
        assert "holding_frequency=1.00000" in out

    @pytest.mark.parametrize("key, value", [
        ("p", 0), ("n", 0), ("replicates", 0), ("starts", 0), ("budget", 0), ("grid_resolution", 1),
        ("R", -0.5), ("beta", -1.0), ("beta", float("inf")), ("delta", 0.0), ("delta", 1.5),
    ])
    def test_bad_value_exits_2_before_any_output(self, tmp_path, capsys, key, value):
        payload = {"command": "deviation", "p": 1, "n": 10, "replicates": 1, "starts": 1, "budget": 50}
        cfg = write_json(tmp_path / "bad.json", dict(payload, **{key: value}))
        assert main(["deviation", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err


    def test_out_key_exits_2_before_any_output(self, tmp_path, capsys):
        payload = {"command": "deviation", "p": 1, "n": 10, "replicates": 1, "out": "dev.csv"}
        cfg = write_json(tmp_path / "out.json", payload)
        assert main(["deviation", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown config keys: ['out']" in captured.err
        assert "Traceback" not in captured.err


class TestGenerateCommand:
    def test_roundtrip(self, tmp_path):
        out_file = tmp_path / "d.ulln"
        cfg = write_json(tmp_path / "g.json", {
            "command": "generate", "p": 6, "n": 25, "cov_kind": "reciprocal",
            "beta": 5.0, "seed": 11, "out": str(out_file),
        })
        assert main(["generate", cfg]) == 0
        data, theta_star = read_dataset(out_file)
        assert (data.n, data.p) == (25, 6)
        assert np.linalg.norm(theta_star) == pytest.approx(1.0, abs=1e-12)

    def test_missing_out_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "g.json", {"command": "generate", "p": 4, "n": 5})
        assert main(["generate", cfg]) == 2


def test_bundled_config_is_schema_valid():
    import importlib.resources as resources

    from ulln.cli import _EXPERIMENT_SCHEMA, _load_config

    path = resources.files("ulln") / "configs" / "table_reproduction.json"
    cfg = _load_config(str(path), "experiment", _EXPERIMENT_SCHEMA)
    assert cfg["p"] == 3000 and cfg["n"] == 1000
    assert cfg["replications"] == 100


def test_thread_env_is_ignored(monkeypatch):
    from ulln.cli import _thread_count
    import argparse

    monkeypatch.setenv("ULLN_THREADS", "3")
    assert _thread_count(argparse.Namespace(threads=7)) == 7
    assert _thread_count(argparse.Namespace(threads=None)) == len(os.sched_getaffinity(0))

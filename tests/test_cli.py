import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import ulln
from ulln import read_dataset
from ulln.cli import main
from ulln.quadrature import gauss_hermite_tensor


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

    @pytest.mark.parametrize("solver, expected", [
        (None, (1500, 1e-7)), ({}, (1500, 1e-7)), ({"max_iters": 300}, (300, 1e-7)),
        ({"grad_map_tol": 1e-6}, (1500, 1e-6)),
    ])
    def test_missing_solver_keys_take_the_study_defaults(self, tmp_path, monkeypatch, solver, expected):
        import ulln.cli

        seen = []
        real_run_studies = ulln.cli.run_studies

        def spy(cfg, **kwargs):
            studies = real_run_studies(cfg, **kwargs)
            seen.extend((s.config.solver_opts.max_iters, s.config.solver_opts.grad_map_tol) for s in studies.values())
            return studies

        monkeypatch.setattr(ulln.cli, "run_studies", spy)
        payload = {k: v for k, v in SMOKE_EXPERIMENT.items() if k != "solver"}
        if solver is not None:
            payload["solver"] = solver
        cfg = write_json(tmp_path / "cfg.json", payload)
        assert main(["experiment", cfg, str(tmp_path / "out"), "--threads", "1"]) == 0
        assert seen == [expected, expected]

    @pytest.mark.parametrize("key", ["R", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_exits_2_before_any_output(self, tmp_path, capsys, key, value):
        cfg = write_json(tmp_path / "cfg.json", dict(SMOKE_EXPERIMENT, **{key: value}))
        assert main(["experiment", cfg, str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err
        assert not (tmp_path / "out").exists()

    def test_wrong_command_field_exits_2(self, tmp_path):
        payload = dict(SMOKE_EXPERIMENT, command="bounds")
        cfg = write_json(tmp_path / "cfg.json", payload)
        assert main(["experiment", cfg, str(tmp_path / "x")]) == 2

    def test_unwritable_out_dir_exits_3(self, tmp_path, capsys, monkeypatch):
        import ulln.cli

        studies = []
        monkeypatch.setattr(ulln.cli, "run_studies", lambda *args, **kwargs: studies.append(args))
        cfg = write_json(tmp_path / "cfg.json", SMOKE_EXPERIMENT)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["experiment", cfg, str(blocker)]) == 3
        assert studies == []
        out, err = capsys.readouterr()
        assert out == ""
        assert "cannot create output directory" in err

    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys, threads):
        cfg = write_json(tmp_path / "cfg.json", SMOKE_EXPERIMENT)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", cfg, str(tmp_path / "out"), "--threads", threads])
        assert exc.value.code == 2
        assert "must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", dict(SMOKE_EXPERIMENT, p=300, n=100, n_test=100))
        src = os.path.dirname(os.path.dirname(ulln.__file__))
        outputs = []
        for blas_threads in ("1", "2"):
            out = tmp_path / f"blas{blas_threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "ulln.cli", "experiment", cfg, str(out)], env=env,
                           capture_output=True, check=True, timeout=300)
            outputs.append([(out / name).read_bytes() for name in ("table1.csv", "table2.csv", "replications.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_out_of_memory_request_exits_2(self, tmp_path, capsys, threads):
        # numpy refuses a 21.8 TiB test set before touching any memory
        cfg = write_json(tmp_path / "cfg.json", dict(SMOKE_EXPERIMENT, p=3, n_test=10**12))
        assert main(["experiment", cfg, str(tmp_path / "out"), "--threads", threads]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: out of memory:")
        assert "Traceback" not in err

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

    def test_theorem_alone_in_a_sweep_with_large_delta_exits_2(self, capsys):
        # asked for alone, the theorem bound needs delta <= 1/6 in every row
        assert main(["bounds", "--n", "100", "--delta", "0.5", "--trace", "1", "--norm", "1",
                     "--bound", "theorem", "--sweep", "n=10:1000:3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "1/6" in err

    def test_each_bound_above_its_delta_limit_reads_n_a(self, capsys):
        assert main(["bounds", "--n", "100", "--delta", "0.5", "--trace", "1", "--norm", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "theorem    n/a (delta > 1/6)"
        assert lines[1].startswith("classical  total=0.235482  confidence=0.5 ")
        assert lines[2] == "extended   n/a (delta > 1/3)"

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "n=10:1000:3"]])
    def test_extended_alone_with_large_delta_exits_2(self, capsys, sweep):
        assert main(["bounds", "--n", "100", "--delta", "0.5", "--trace", "1", "--norm", "1",
                     "--bound", "extended", *sweep]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "1/3" in err

    def test_extended_beside_the_others_in_a_sweep_reads_nan(self, capsys):
        assert main(["bounds", "--n", "100", "--delta", "0.5", "--trace", "1", "--norm", "1",
                     "--sweep", "n=10:1000:3"]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header[-1] == "extended_total"
        assert [row[-1] for row in rows] == ["nan"] * 3
        assert all(float(row[header.index("classical_total")]) > 0 for row in rows)

    def test_extended_at_delta_one_third_has_zero_confidence(self, capsys):
        assert main(["bounds", "--n", "100", "--delta", repr(1 / 3), "--trace", "1", "--norm", "1",
                     "--bound", "extended"]) == 0
        assert "confidence=0 " in capsys.readouterr().out

    def test_missing_parameters_exit_2(self):
        assert main(["bounds", "--n", "50"]) == 2

    @pytest.mark.parametrize("flags", [
        "--n 1 --R 1e200 --trace 1 --norm 1",
        "--n 1 --K 1e200 --trace 1 --norm 1",
        "--n 10 --a 1e308 --trace 1 --norm 1",
        "--n 10 --trace 1e308 --norm 1e308",
    ])
    def test_overflowing_bound_exits_2(self, capsys, flags):
        # finite parameters whose bound is not: rejected, never printed as inf
        assert main(["bounds", "--delta", "0.05", *flags.split()]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1 and "not finite" in err
        # named as --bound names it; only the extended bound reads a
        assert f"the {'extended' if '--a' in flags else 'theorem'} bound" in err

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

    @pytest.mark.parametrize("sweep", ["n=10:1e400:5", "n=1e400:10:5", "n=10:1000:1e400", "n=10:1e300:5"])
    def test_unrepresentable_sweep_flag_exits_2(self, capsys, sweep):
        assert main(["bounds", "--n", "100", "--delta", "0.1", "--trace", "1", "--norm", "1",
                     "--sweep", sweep]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("key,value", [
        ("n_start", None), ("n_stop", None), ("steps", None), ("n_stop", 1e400), ("n_start", 1e400),
        ("n_stop", 1e300), ("n_stop", "many"), ("steps", [5]),
    ])
    def test_bad_sweep_value_in_config_exits_2(self, tmp_path, capsys, key, value):
        sweep = dict({"n_start": 10, "n_stop": 1000, "steps": 5}, **{key: value})
        path = tmp_path / "b.json"
        # json.dumps writes 1e400 (inf) as Infinity; write it as the literal 1e400, which loads as inf
        path.write_text(json.dumps({"command": "bounds", "n": 100, "delta": 0.1, "trace": 1.0, "norm": 1.0,
                                    "sweep": sweep}).replace("Infinity", "1e400"))
        assert main(["bounds", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--R", "--trace", "--norm", "--K", "--a"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_exits_2(self, capsys, flag, value):
        argv = {"--n": "100", "--R": "1", "--delta": "0.1", "--trace": "2", "--norm": "1", flag: value}
        assert main(["bounds"] + [f"{key}={text}" for key, text in argv.items()]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("path", ["s.csv", os.path.join("missing", "s.csv")])
    @pytest.mark.parametrize("sweep", ["n=10:1000:1000001", "n=10:1000:10000000"])
    def test_sweep_steps_above_the_cap_exit_2(self, tmp_path, capsys, sweep, path):
        # the sweep is checked before --out is opened: no file is made, and a missing directory is not reached
        assert main(["bounds", "--n", "100", "--delta", "0.1", "--trace", "1", "--norm", "1",
                     "--sweep", sweep, "--out", str(tmp_path / path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "steps <= 1e+06" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key,value", [("n_start", "10"), ("steps", 3.9)])
    def test_loose_sweep_value_in_config_exits_2(self, tmp_path, capsys, key, value):
        sweep = dict({"n_start": 10, "n_stop": 1000, "steps": 3}, **{key: value})
        cfg = write_json(tmp_path / "b.json", {"command": "bounds", "n": 100, "delta": 0.1, "trace": 1.0,
                                               "norm": 1.0, "sweep": sweep})
        assert main(["bounds", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"sweep key {key!r} must be int" in err and "Traceback" not in err

    def test_fractional_sweep_flag_exits_2(self, capsys):
        assert main(["bounds", "--n", "100", "--delta", "0.1", "--trace", "1", "--norm", "1",
                     "--sweep", "n=10.9:1000:3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "sweep key 'n_start' must be int" in err and "Traceback" not in err

    def test_sweep_flag_in_float_notation(self, capsys):
        assert main(["bounds", "--n", "100", "--delta", "0.1", "--trace", "1", "--norm", "1",
                     "--sweep", "n=1e1:1e3:3"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [row[0] for row in rows] == ["n", "10", "100", "1000"]

    @pytest.mark.parametrize("flag", [
        ["--n", "5"], ["--R", "3"], ["--K", "1"], ["--delta", "0.2"], ["--trace", "2"], ["--norm", "1"],
        ["--a", "2"], ["--sweep", "n=10:1000:3"], ["--trace-rule", "n_over_log_n"],
        ["--delta-rule", "inverse_n_squared"],
    ])
    def test_parameter_flag_with_config_exits_2(self, tmp_path, capsys, flag):
        cfg = write_json(tmp_path / "b.json", {"command": "bounds", "n": 100, "delta": 0.1, "trace": 1.0,
                                               "norm": 1.0})
        assert main(["bounds", cfg] + flag) == 2
        out, err = capsys.readouterr()
        assert out == "" and "cannot be combined with a config" in err and flag[0] in err

    def test_bound_and_out_flags_apply_to_a_config(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "b.json", {"command": "bounds", "n": 100, "delta": 0.1, "trace": 1.0,
                                               "norm": 1.0, "sweep": {"n_start": 10, "n_stop": 1000,
                                                                      "steps": 3}})
        sweep_csv = tmp_path / "sweep.csv"
        assert main(["bounds", cfg, "--bound", "classical", "--out", str(sweep_csv)]) == 0
        assert capsys.readouterr().out == ""
        rows = list(csv.reader(sweep_csv.open()))
        assert rows[0] == ["n", "trace", "delta", "classical_total"] and len(rows) == 4

    @pytest.mark.parametrize("flag", [["--trace-rule", "n_over_log_n"], ["--delta-rule", "inverse_n_squared"],
                                      ["--out", "x.csv"]])
    def test_sweep_flag_without_a_sweep_exits_2(self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.chdir(tmp_path)
        assert main(["bounds", "--n", "100", "--delta", "0.1", "--trace", "1", "--norm", "1"] + flag) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and flag[0] in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_out_flag_with_a_config_without_a_sweep_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "b.json", {"command": "bounds", "n": 100, "delta": 0.1, "trace": 1.0,
                                               "norm": 1.0})
        assert main(["bounds", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "--out" in err
        assert not (tmp_path / "x.csv").exists()

    def test_unwritable_sweep_out_exits_3_before_any_bound(self, tmp_path, capsys, monkeypatch):
        import ulln.bounds

        calls = []
        real = ulln.bounds.evaluate
        monkeypatch.setattr(ulln.bounds, "evaluate", lambda *args: calls.append(args) or real(*args))
        assert main(["bounds", "--n", "100", "--delta", "0.1", "--trace", "1", "--norm", "1",
                     "--sweep", "n=10:1000:3", "--out", str(tmp_path / "missing" / "s.csv")]) == 3
        assert calls == []
        out, err = capsys.readouterr()
        assert out == ""
        assert "cannot write sweep CSV" in err

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

    def test_unwritable_csv_exits_3_before_any_suite(self, tmp_path, capsys, monkeypatch):
        import ulln.cli

        suites = []
        monkeypatch.setattr(ulln.cli.theory_checks, "run_suite", lambda name: suites.append(name) or [])
        assert main(["verify", "all", "--csv", str(tmp_path / "missing" / "x.csv")]) == 3
        assert suites == []
        out, err = capsys.readouterr()
        assert out == ""
        assert "cannot write CSV" in err

    def test_threads_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "hermite", "--threads", "2"])
        assert exc.value.code == 2

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2

    def test_identity_checks_do_not_depend_on_the_cpu_count(self, tmp_path):
        # one child runs on a single CPU from before numpy loads, so its BLAS and the
        # replicate pool of the g suite both get one thread; the others may use every
        # CPU, with the inherited BLAS setting, one BLAS thread and two
        src = os.path.dirname(os.path.dirname(ulln.__file__))
        run = ("import os, sys\n"
               "if sys.argv[2] == 'one':\n"
               "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
               "from ulln import cli\n"
               "sys.exit(cli.main(['verify', 'all', '--csv', sys.argv[1]]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs = []
        for cpus, blas in (("one", {}), ("all", {}), ("all", {"OPENBLAS_NUM_THREADS": "1"}),
                           ("all", {"OPENBLAS_NUM_THREADS": "2"})):
            out = tmp_path / f"{cpus}{len(outputs)}.csv"
            subprocess.run([sys.executable, "-c", run, str(out), cpus], env=dict(env, **blas), capture_output=True,
                           check=True, timeout=300)
            outputs.append(out.read_bytes())
        assert outputs[1:] == outputs[:1] * 3


class TestDeviationCommand:
    @pytest.mark.parametrize("p,radius", [(5, 1e200), (1, 1e308)])
    def test_overflowing_bound_exits_2(self, tmp_path, capsys, p, radius):
        cfg = write_json(tmp_path / "d.json", {"command": "deviation", "p": p, "R": radius})
        assert main(["deviation", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1 and "not finite" in err and "the theorem bound" in err

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
        ("delta", 0.2),  # every row is compared with the theorem bound, which needs delta <= 1/6
    ])
    def test_bad_value_exits_2_before_any_output(self, tmp_path, capsys, monkeypatch, key, value):
        import ulln.experiments

        # rows print only at the end, so an empty stdout alone would not show that no replicate ran
        drawn, real = [], ulln.experiments.generate_dataset
        monkeypatch.setattr(ulln.experiments, "generate_dataset", lambda *args: drawn.append(args) or real(*args))
        payload = {"command": "deviation", "p": 1, "n": 10, "replicates": 1, "starts": 1, "budget": 50}
        cfg = write_json(tmp_path / "bad.json", dict(payload, **{key: value}))
        assert main(["deviation", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err
        assert drawn == []

    def test_out_of_memory_request_exits_2_with_empty_stdout(self, tmp_path):
        # numpy refuses a 21.8 TiB Monte Carlo sample before touching any memory; with
        # 3 replicates the error is raised on a pool thread
        src = os.path.dirname(os.path.dirname(ulln.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for replicates in (1, 3):
            payload = {"command": "deviation", "p": 3, "n": 10, "replicates": replicates, "starts": 1,
                       "budget": 10**12}
            result = subprocess.run([sys.executable, "-m", "ulln.cli", "deviation",
                                     write_json(tmp_path / "oom.json", payload)],
                                    env=env, capture_output=True, text=True, timeout=120)
            assert result.returncode == 2, replicates
            assert result.stdout == ""
            assert result.stderr.startswith("error: out of memory:")
            assert "Traceback" not in result.stderr

    def test_output_does_not_depend_on_the_cpu_count(self, tmp_path):
        # as for `verify all`: one child runs on a single CPU from before numpy loads, so
        # its BLAS and the replicate pool both get one thread; the others may use every
        # CPU, with the inherited BLAS setting, one BLAS thread and two.  Every child holds
        # replicate 0 back for a moment, so on two or more threads it finishes last; a child
        # whose hold-back never ran exits 4, so a patch on a name nothing calls cannot pass
        configs = [
            {"command": "deviation", "p": 5, "n": 200, "replicates": 3, "starts": 2, "budget": 1000,
             "base_seed": 11},
            {"command": "deviation", "p": 1, "n": 40, "cov_kind": "identity", "beta": 2.0, "replicates": 3,
             "starts": 2, "budget": 200, "base_seed": 3, "grid_resolution": 2000},
        ]
        src = os.path.dirname(os.path.dirname(ulln.__file__))
        run = ("import os, sys\n"
               "if sys.argv[2] == 'one':\n"
               "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
               "import time\n"
               "from ulln import cli, experiments\n"
               "seed, held = experiments.derive_seed, []\n"
               "def derive_seed(*parts):\n"
               "    if parts[1:] == (0, 0):\n"
               "        held.append(time.sleep(0.5))\n"
               "    return seed(*parts)\n"
               "experiments.derive_seed = derive_seed\n"
               "code = cli.main(['deviation', sys.argv[1]])\n"
               "sys.exit(code or (0 if held else 4))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for k, payload in enumerate(configs):
            cfg = write_json(tmp_path / f"d{k}.json", payload)
            outputs = [subprocess.run([sys.executable, "-c", run, cfg, cpus], env=dict(env, **blas),
                                      capture_output=True, check=True, timeout=300).stdout
                       for cpus, blas in (("one", {}), ("all", {}), ("all", {"OPENBLAS_NUM_THREADS": "1"}),
                                          ("all", {"OPENBLAS_NUM_THREADS": "2"}))]
            assert outputs[0].startswith(b"replicate,")
            assert outputs[1:] == outputs[:1] * 3, payload

    def test_quadrature_rule_is_built_once_for_all_replicates(self, tmp_path, capsys):
        payload = {"command": "deviation", "p": 2, "n": 30, "beta": 5.0, "replicates": 3, "starts": 1,
                   "budget": 100}
        cfg = write_json(tmp_path / "p2.json", payload)
        gauss_hermite_tensor.cache_clear()
        assert main(["deviation", cfg]) == 0
        assert gauss_hermite_tensor.cache_info().misses == 1
        assert capsys.readouterr().out.count("\n") == 5


    def test_unknown_cov_kind_exits_2_before_any_output(self, tmp_path, capsys):
        payload = {"command": "deviation", "p": 1, "n": 10, "replicates": 1, "cov_kind": "diagonal"}
        cfg = write_json(tmp_path / "bad.json", payload)
        assert main(["deviation", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown covariance kind: 'diagonal'" in captured.err

    def test_omitted_keys_take_the_documented_defaults(self, tmp_path, capsys):
        payload = {"command": "deviation", "p": 1, "n": 20, "replicates": 2, "starts": 2, "budget": 200}
        defaults = {"cov_kind": "reciprocal", "beta": 1000.0, "R": 1.0, "delta": 0.05, "base_seed": 0,
                    "grid_resolution": 20000}
        assert main(["deviation", write_json(tmp_path / "short.json", payload)]) == 0
        short = capsys.readouterr().out
        assert main(["deviation", write_json(tmp_path / "full.json", dict(payload, **defaults))]) == 0
        assert capsys.readouterr().out == short
        assert short.startswith("replicate,") and "grid_estimate" in short

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

    @pytest.mark.parametrize("key", ["p", "n", "out"])
    def test_missing_required_key_exits_2(self, tmp_path, capsys, key):
        payload = {"command": "generate", "p": 4, "n": 5, "out": str(tmp_path / "d.ulln")}
        del payload[key]
        assert main(["generate", write_json(tmp_path / "g.json", payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"config requires {key!r}" in captured.err
        assert not (tmp_path / "d.ulln").exists()


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


def test_every_schema_default_passes_its_own_check():
    import ulln.cli as cli

    schemas = {name: value for name, value in vars(cli).items() if name.startswith("_") and name.endswith("_SCHEMA")}
    assert {"_EXPERIMENT_SCHEMA", "_SOLVER_SCHEMA", "_BOUNDS_SCHEMA", "_SWEEP_SCHEMA",
            "_DEVIATION_SCHEMA", "_GENERATE_SCHEMA"} <= set(schemas)
    for name, schema in schemas.items():
        for key, entry in schema.items():
            if isinstance(entry, tuple) and entry[1] is not cli.REQUIRED:
                typed = cli._typed({key: entry[1]}, {key: entry}, name)[key]
                assert typed == entry[1] and type(typed) is type(entry[1]), (name, key)

import csv
import io
import json
import math
import multiprocessing
import os
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit, ndtr

from ulln import (
    Dataset,
    GenerativeConfig,
    generate_dataset,
    make_covariance,
    prediction_precision,
    run_replication,
    run_studies,
    sign_recovery,
)
from ulln import cli, datagen, experiments
from ulln.datagen import derive_seed, sample_theta_star
from ulln.experiments import (
    COV_KINDS,
    StudyConfig,
    write_replications,
    write_table1,
    write_table2,
)
from ulln.solver import SolverOptions


def small_config(**kw):
    base = dict(p=40, n=30, n_test=30, beta=1e3, R=1.0,
                replications=4, base_seed=17,
                solver_opts=SolverOptions(max_iters=400, grad_map_tol=1e-7))
    base.update(kw)
    return StudyConfig(**base)


class TestPredictionPrecision:
    def test_zero_estimate_predicts_all_ones(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((50, 3)), rng.integers(0, 2, 50))
        assert prediction_precision(np.zeros(3), data) == pytest.approx(data.labels.mean())

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.standard_normal((40, 4)), rng.integers(0, 2, 40))
        theta = rng.standard_normal(4)
        assert prediction_precision(theta, data) == prediction_precision(2.0 * theta, data)

    def test_noiseless_limit(self):
        gen = GenerativeConfig(
            p=2, n=10_000, cov=make_covariance("identity", 2), beta=1e6, seed=5,
        )
        data, theta_star = generate_dataset(gen)
        assert prediction_precision(theta_star, data) >= 0.999

    def test_dimension_mismatch(self):
        data = Dataset(np.eye(2), np.array([1, 0]))
        with pytest.raises(ValueError):
            prediction_precision(np.zeros(3), data)


class TestSignRecovery:
    def test_perfect_recovery(self):
        rng = np.random.default_rng(2)
        theta = rng.standard_normal(600)
        assert sign_recovery(theta, theta) == 1.0
        assert sign_recovery(theta, theta, head=10) == 1.0
        assert sign_recovery(theta, theta, weights=np.abs(theta)) == 1.0

    def test_flipped_recovery(self):
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(100)
        assert sign_recovery(-theta, theta) == 0.0

    def test_independent_estimate_is_a_coin_flip(self):
        rng = np.random.default_rng(4)
        p = 4000
        theta_star = rng.standard_normal(p)
        theta_hat = rng.standard_normal(p)
        rate = sign_recovery(theta_hat, theta_star)
        assert abs(rate - 0.5) <= 3 * np.sqrt(0.25 / p)

    def test_zero_coordinate_never_recovered(self):
        theta_star = np.array([1.0, -1.0, 1.0])
        theta_hat = np.array([1.0, -1.0, 0.0])
        assert sign_recovery(theta_hat, theta_star) == pytest.approx(2.0 / 3.0)

    def test_uniform_weights_match_unweighted(self):
        rng = np.random.default_rng(5)
        theta_star = rng.standard_normal(50)
        theta_hat = rng.standard_normal(50)
        unweighted = sign_recovery(theta_hat, theta_star)
        weighted = sign_recovery(theta_hat, theta_star, weights=np.ones(50))
        assert weighted == pytest.approx(unweighted, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            sign_recovery(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            sign_recovery(np.ones(3), np.ones(3), head=4)
        with pytest.raises(ValueError):
            sign_recovery(np.ones(3), np.ones(3), weights=np.array([1.0, -1.0, 0.0]))


class TestReplication:
    def test_bit_identical_rerun(self):
        cfg = small_config()
        assert run_replication(cfg, 2) == run_replication(cfg, 2)

    def test_distinct_indices_differ(self):
        cfg = small_config()
        first, second = run_replication(cfg, 0), run_replication(cfg, 1)
        for kind in COV_KINDS:
            assert first[kind] != second[kind]

    def test_abs_diff_consistency(self):
        for result in run_replication(small_config(), 0).values():
            assert result.abs_diff == pytest.approx(abs(result.train_precision - result.test_precision))


class TestStudy:
    def test_thread_count_does_not_change_results(self):
        # test sets of 1 and 7 rows, and 100 rows, which end in a part block
        for n_test, replications in ((30, 6), (1, 3), (7, 3), (100, 3), (30, 1)):
            cfg = small_config(n_test=n_test, replications=replications)
            serial = run_studies(cfg, threads=1)
            for threads in (2, 3):
                assert run_studies(cfg, threads=threads) == serial, (n_test, replications, threads)

    def test_pool_never_outgrows_the_cpus(self, tmp_path, monkeypatch):
        # the pool is only sized here: its stand-in runs the replicates on the calling thread
        sizes = []

        class SizedPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns):
                return map(fn, *columns)

        monkeypatch.setattr(datagen, "ThreadPoolExecutor", SizedPool)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "experiment", "p": 20, "n": 10, "n_test": 10, "replications": 3}))
        assert cli.main(["experiment", str(cfg), str(tmp_path / "out"), "--threads", "1000000"]) == 0
        workers = min(len(os.sched_getaffinity(0)), 3)
        assert sizes == ([workers] if workers > 1 else [])

    def test_study_starts_no_child_process(self, monkeypatch):
        # progress lines are printed while the study runs, so each write sees its live children
        children = []

        class Probe(io.StringIO):
            def write(self, text):
                children.extend(multiprocessing.active_children())
                return super().write(text)

        monkeypatch.setattr(sys, "stderr", Probe())
        run_studies(small_config(replications=2), threads=2, progress=True)
        assert sys.stderr.getvalue().count("done") == 2
        assert children == []

    def test_progress_counts_the_replicates_a_pool_finishes(self, capsys):
        # the count and its line are one step, even with the interpreter switching threads often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_studies(small_config(replications=8), threads=2, progress=True)
        finally:
            sys.setswitchinterval(interval)
        assert capsys.readouterr().err.splitlines() == [f"replicate {k}/8 done" for k in range(1, 9)]

    def test_means_are_plain_averages(self):
        for study in run_studies(small_config(), threads=1).values():
            by_hand = np.mean([r.test_precision for r in study.replications])
            assert study.mean("test_precision") == pytest.approx(by_hand)

    def test_reaches_each_replicate_through_the_module_attribute(self, monkeypatch):
        # a wrapper set on experiments.run_replication must see every replicate
        indices = []
        real_run_replication = experiments.run_replication

        def spy(cfg, index):
            indices.append(index)
            return real_run_replication(cfg, index)

        monkeypatch.setattr(experiments, "run_replication", spy)
        run_studies(small_config(replications=3), threads=3)
        # a pool finishes the replicates in any order
        assert sorted(indices) == [0, 1, 2]

    def test_csv_layout(self, tmp_path):
        studies = run_studies(small_config(), threads=1)
        study_rec, study_id = studies["reciprocal"], studies["identity"]

        t1 = tmp_path / "table1.csv"
        t2 = tmp_path / "table2.csv"
        reps = tmp_path / "replications.csv"
        write_table1(t1, study_rec, study_id)
        write_table2(t2, study_rec, study_id)
        write_replications(reps, studies)

        rows1 = list(csv.reader(t1.open()))
        assert rows1[0] == ["metric", "sigma_rec", "identity"]
        assert len(rows1) == 1 + 3
        for row in rows1[1:]:
            for cell in row[1:]:
                assert len(cell.split(".")[1]) == 5  # five decimals

        rows2 = list(csv.reader(t2.open()))
        assert rows2[0] == ["metric", "definition", "sigma_rec", "identity"]
        assert len(rows2) == 1 + 5

        rep_rows = list(csv.reader(reps.open()))
        assert len(rep_rows) == 1 + 2 * 4
        # the reciprocal rows come first
        assert [row[:2] for row in rep_rows[1:]] == [[kind, str(i)] for kind in COV_KINDS for i in range(4)]

        # frozen seeds make re-emission byte-identical
        t1b = tmp_path / "table1_again.csv"
        write_table1(t1b, study_rec, study_id)
        assert t1.read_bytes() == t1b.read_bytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(replications=0)
        with pytest.raises(ValueError):
            StudyConfig(beta=-2.0)
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                StudyConfig(beta=value)
            with pytest.raises(ValueError):
                StudyConfig(R=value)


class TestJointStudies:
    def test_datasets_match_generate_dataset(self, monkeypatch):
        # a test set of 150 rows comes in blocks of 64, 64 and 22
        cfg = small_config(replications=2, n_test=150)
        seen = []
        real_label_rows = experiments.label_rows

        def spy(x, u, theta_star, beta):
            data = real_label_rows(x, u, theta_star, beta)
            # the driver scales Z in place after a kind is scored, so keep copies
            seen.append((theta_star.copy(), data.inputs.copy(), data.labels.copy()))
            return data

        monkeypatch.setattr(experiments, "label_rows", spy)
        run_studies(cfg, threads=2)
        assert len(seen) == 2 * cfg.replications * (1 + 3)
        for i in range(cfg.replications):
            theta_star = sample_theta_star(cfg.p, derive_seed(cfg.base_seed, i, 0))
            # a replicate's calls run on one thread: the training set of each kind, the
            # identity kind first, then each test block of the identity and reciprocal kinds
            mine = [(inputs, labels) for theta, inputs, labels in seen if np.array_equal(theta, theta_star)]
            assert len(mine) == 2 * (1 + 3)
            for k, kind in enumerate(("identity", "reciprocal")):
                blocks = mine[2 + k::2]
                assert [len(labels) for _, labels in blocks] == [64, 64, 22]
                test = tuple(np.concatenate(parts) for parts in zip(*blocks))
                for (inputs, labels), n, tag in ((mine[k], cfg.n, 1), (test, cfg.n_test, 2)):
                    gen = GenerativeConfig(p=cfg.p, n=n, cov=make_covariance(kind, cfg.p), beta=cfg.beta,
                                           theta_star=theta_star, seed=derive_seed(cfg.base_seed, i, tag))
                    data, _ = generate_dataset(gen)
                    assert inputs.tobytes() == data.inputs.tobytes()
                    assert np.array_equal(labels, data.labels)

    def test_identity_training_precision_reads_z_as_drawn(self):
        # both kinds share one Z, scaled in place for the reciprocal kind only after the
        # identity kind is fitted and scored on it
        cfg = small_config(replications=1)
        theta_star = sample_theta_star(cfg.p, derive_seed(cfg.base_seed, 0, 0))
        for kind, result in run_replication(cfg, 0).items():
            gen = GenerativeConfig(p=cfg.p, n=cfg.n, cov=make_covariance(kind, cfg.p), beta=cfg.beta,
                                   theta_star=theta_star, seed=derive_seed(cfg.base_seed, 0, 1))
            train, _ = generate_dataset(gen)
            fit = experiments.fit_constrained(train, cfg.R, cfg.solver_opts)
            assert result.train_precision == prediction_precision(fit.theta_hat, train), kind

    def test_replicate_streams_its_test_set(self):
        # a whole test set would be 2000 x 2000 float64, 32 MB; the blocks are 1 MB each
        cfg = StudyConfig(p=2000, n=20, n_test=2000, replications=1, base_seed=3)
        tracemalloc.start()
        try:
            run_replication(cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak

    def test_progress_prints_one_line_per_replicate(self, capsys):
        run_studies(small_config(replications=2), progress=True)
        assert capsys.readouterr().err.splitlines() == ["replicate 1/2 done", "replicate 2/2 done"]

    @pytest.mark.parametrize("p, n, replications, base_seeds, expected", [
        (300, 100, 2, (20260808, 20260809), [31, 55, 30, 27, 28, 28, 29, 11]),
        # the paper-scale input whose first fit takes 33 iterations, not 34,
        # when the risk and its gradient are summed as dot products with 1/n weights
        (3000, 1000, 1, (20260859,), [34, 59]),
    ])
    def test_solver_iteration_counts_are_pinned(self, monkeypatch, p, n, replications, base_seeds, expected):
        # fit_constrained stops at grad_map_tol within last-ulp noise, so any
        # change to a kernel's rounding or summation order can move these counts
        iterations = []
        real_fit = experiments.fit_constrained

        def spy(*args, **kwargs):
            fit = real_fit(*args, **kwargs)
            iterations.append(fit.iterations)
            return fit

        monkeypatch.setattr(experiments, "fit_constrained", spy)
        for base_seed in base_seeds:
            run_studies(StudyConfig(p=p, n=n, n_test=n, replications=replications, base_seed=base_seed))
        assert iterations == expected


def _expected_precision(theta_hat, theta_star, eigenvalues, beta):
    """P(1(<x, theta_hat> >= 0) = y) for a fresh row x ~ N(0, Lambda), y ~ Ber(sigma(beta <x, theta*>)).

    (U, V) = (<x, theta_hat>, <x, theta*>) is a zero-mean Gaussian pair, and
    U given V is N(c V / b, a - c^2 / b); so P(U >= 0 | V) = Phi(m V) and the
    precision is a 1-D integral over V ~ N(0, b), split where sigma(beta V)
    turns from 0 to 1.
    """
    a, b, c = (u @ (eigenvalues * v) for u, v in ((theta_hat, theta_hat), (theta_star, theta_star),
                                                   (theta_hat, theta_star)))
    m = (c / b) / math.sqrt(a - c * c / b)

    def integrand(v):
        agree, label = ndtr(m * v), expit(beta * v)
        density = math.exp(-0.5 * v * v / b) / math.sqrt(2.0 * math.pi * b)
        return (agree * label + (1.0 - agree) * (1.0 - label)) * density

    edge = 40.0 / beta
    pieces = ((-math.inf, -edge), (-edge, edge), (edge, math.inf))
    return sum(integrate.quad(integrand, lo, hi)[0] for lo, hi in pieces)


def test_test_precision_matches_the_gaussian_pair_integral(monkeypatch):
    # an oracle independent of the data pipeline: given the fit, a test row's precision is
    # an exact integral, so each kind's mean test precision must meet the mean of the
    # exact values within 3 binomial standard errors
    cfg = StudyConfig(replications=10, base_seed=20260808)
    fits = []
    real_fit = experiments.fit_constrained

    def fit_spy(*args, **kwargs):
        fit = real_fit(*args, **kwargs)
        fits.append(fit.theta_hat)
        return fit

    monkeypatch.setattr(experiments, "fit_constrained", fit_spy)
    studies = run_studies(cfg, threads=1)
    # serially, per replicate the identity kind is fitted first
    for kind, theta_hats in (("identity", fits[0::2]), ("reciprocal", fits[1::2])):
        eig = make_covariance(kind, cfg.p).eigenvalues
        theta_stars = [sample_theta_star(cfg.p, derive_seed(cfg.base_seed, i, 0)) for i in range(cfg.replications)]
        exact = np.array([_expected_precision(th, ts, eig, cfg.beta) for th, ts in zip(theta_hats, theta_stars)])
        sample = np.array([r.test_precision for r in studies[kind].replications])
        stderr = math.sqrt(np.sum(exact * (1.0 - exact)) / cfg.n_test) / cfg.replications
        assert abs(sample.mean() - exact.mean()) <= 3.0 * stderr, (kind, sample.mean(), exact.mean(), stderr)

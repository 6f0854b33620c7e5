import csv
import io
import multiprocessing
import sys

import numpy as np
import pytest

from ulln import (
    Dataset,
    GenerativeConfig,
    generate_dataset,
    make_covariance,
    prediction_precision,
    run_replication,
    run_study,
    sign_recovery,
)
from ulln.experiments import (
    StudyConfig,
    write_replications,
    write_table1,
    write_table2,
)
from ulln.solver import SolverOptions


def small_config(**kw):
    base = dict(p=40, n=30, n_test=30, cov_kind="reciprocal", beta=1e3, R=1.0,
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
        assert run_replication(cfg, 0) != run_replication(cfg, 1)

    def test_abs_diff_consistency(self):
        result = run_replication(small_config(), 0)
        assert result.abs_diff == pytest.approx(abs(result.train_precision - result.test_precision))


class TestStudy:
    def test_thread_count_does_not_change_results(self):
        cfg = small_config(replications=6)
        serial = run_study(cfg, threads=1)
        pooled = run_study(cfg, threads=2)
        assert serial.replications == pooled.replications

    def test_identity_covariance_matches_across_thread_counts(self):
        cfg = small_config(cov_kind="identity")
        assert run_study(cfg, threads=1).replications == run_study(cfg, threads=2).replications

    def test_study_starts_no_child_process(self, monkeypatch):
        # progress lines are printed while the study runs, so each write sees its live children
        children = []

        class Probe(io.StringIO):
            def write(self, text):
                children.extend(multiprocessing.active_children())
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Probe())
        run_study(small_config(replications=2), threads=2, progress=True)
        assert sys.stdout.getvalue().count("done") == 2
        assert children == []

    def test_means_are_plain_averages(self):
        study = run_study(small_config(), threads=1)
        by_hand = np.mean([r.test_precision for r in study.replications])
        assert study.mean("test_precision") == pytest.approx(by_hand)

    def test_csv_layout(self, tmp_path):
        study_rec = run_study(small_config(), threads=1)
        study_id = run_study(small_config(cov_kind="identity"), threads=1)

        t1 = tmp_path / "table1.csv"
        t2 = tmp_path / "table2.csv"
        reps = tmp_path / "replications.csv"
        write_table1(t1, study_rec, study_id)
        write_table2(t2, study_rec, study_id)
        write_replications(reps, {"reciprocal": study_rec, "identity": study_id})

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

        # frozen seeds make re-emission byte-identical
        t1b = tmp_path / "table1_again.csv"
        write_table1(t1b, study_rec, study_id)
        assert t1.read_bytes() == t1b.read_bytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(cov_kind="diagonal")
        with pytest.raises(ValueError):
            StudyConfig(replications=0)
        with pytest.raises(ValueError):
            StudyConfig(beta=-2.0)

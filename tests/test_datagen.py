import dataclasses
import os
import struct
import time
import warnings

import numpy as np
import pytest

from ulln import (
    CovarianceSpec,
    Dataset,
    GenerativeConfig,
    generate_dataset,
    make_covariance,
    read_dataset,
    sample_theta_star,
    sigmoid,
    write_dataset,
)
from ulln.bounds import effective_rank
from ulln import datagen
from ulln.datagen import UNIFORM_SPHERE, draw_latent, draw_latent_chunks, map_replicates


class TestMakeCovariance:
    def test_reciprocal_3000(self):
        cov = make_covariance("reciprocal", 3000)
        assert cov.trace == pytest.approx(8.5838, abs=5e-4)
        assert cov.spectral_norm == 1.0

    def test_identity_3000(self):
        cov = make_covariance("identity", 3000)
        assert cov.trace == 3000.0
        assert effective_rank(cov.trace, cov.spectral_norm) == 3000.0

    def test_custom_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            CovarianceSpec(np.array([1.0, -0.5]))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_covariance("whatever", 3)


class TestSampleThetaStar:
    def test_unit_norm(self):
        for p, seed in [(1, 0), (5, 1), (200, 2)]:
            assert np.linalg.norm(sample_theta_star(p, seed)) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = sample_theta_star(17, 123)
        b = sample_theta_star(17, 123)
        np.testing.assert_array_equal(a, b)

    def test_zero_sphere(self):
        assert sample_theta_star(1, 7)[0] in (-1.0, 1.0)


class TestGenerateDataset:
    def test_beta_zero_labels_are_fair_coins(self):
        gen = GenerativeConfig(p=2, n=100_000, cov=make_covariance("identity", 2), beta=0.0, seed=13)
        data, _ = generate_dataset(gen)
        assert abs(data.labels.mean() - 0.5) < 0.005

    def test_identity_second_moment(self):
        gen = GenerativeConfig(p=2, n=100_000, cov=make_covariance("identity", 2), beta=1.0, seed=5)
        data, _ = generate_dataset(gen)
        second = data.inputs.T @ data.inputs / data.n
        np.testing.assert_allclose(second, np.eye(2), atol=0.02)

    def test_reciprocal_axis_variance(self):
        gen = GenerativeConfig(p=3, n=100_000, cov=make_covariance("reciprocal", 3), beta=1.0, seed=6)
        data, _ = generate_dataset(gen)
        assert data.inputs[:, 1].var() == pytest.approx(0.5, abs=0.02)

    def test_bit_identical_given_seed(self):
        gen = GenerativeConfig(p=4, n=50, cov=make_covariance("reciprocal", 4), beta=3.0, seed=99)
        d1, t1 = generate_dataset(gen)
        d2, t2 = generate_dataset(gen)
        np.testing.assert_array_equal(d1.inputs, d2.inputs)
        np.testing.assert_array_equal(d1.labels, d2.labels)
        np.testing.assert_array_equal(t1, t2)

    @pytest.mark.parametrize("kind", ["reciprocal", "identity"])
    def test_in_place_scaling_matches_out_of_place_reference(self, kind):
        gen = GenerativeConfig(p=7, n=13, cov=make_covariance(kind, 7), beta=3.0, seed=2026)
        data, _ = generate_dataset(gen)
        # the inputs come from the second of the three spawned Philox streams
        x_stream = np.random.Generator(np.random.Philox(np.random.SeedSequence(2026).spawn(3)[1]))
        reference = gen.cov.transform(x_stream.standard_normal((13, 7)))
        assert data.inputs.tobytes() == reference.tobytes()

    def test_directive_theta_star_comes_from_the_first_stream(self):
        gen = GenerativeConfig(p=7, n=13, cov=make_covariance("reciprocal", 7), beta=3.0, seed=2026)
        # drawn when the config is built, from the first of the three spawned Philox streams
        theta_stream = np.random.Generator(np.random.Philox(np.random.SeedSequence(2026).spawn(3)[0]))
        g = theta_stream.standard_normal(7)
        assert gen.theta_star.tobytes() == (g / np.linalg.norm(g)).tobytes()

    def test_generated_theta_star_is_the_configs(self):
        gen = GenerativeConfig(p=5, n=8, cov=make_covariance("identity", 5), beta=1.0, seed=4)
        np.testing.assert_array_equal(generate_dataset(gen)[1], gen.theta_star)

    def test_replaced_directive_is_a_vector(self):
        gen = GenerativeConfig(p=4, n=6, cov=make_covariance("identity", 4), beta=1.0,
                               theta_star=np.array([1.0, 0.0, 0.0, 0.0]), seed=8)
        redrawn = dataclasses.replace(gen, theta_star=UNIFORM_SPHERE)
        assert redrawn.theta_star.dtype == np.float64 and redrawn.theta_star.shape == (4,)
        drawn = GenerativeConfig(p=4, n=6, cov=gen.cov, beta=1.0, seed=8).theta_star
        assert redrawn.theta_star.tobytes() == drawn.tobytes()

    def test_label_law_tracks_link(self):
        # p=1: empirical P(Y=1 | score in bin) should follow sigmoid(beta * center)
        beta = 2.0
        gen = GenerativeConfig(
            p=1, n=200_000, cov=make_covariance("identity", 1), beta=beta,
            theta_star=np.array([1.0]), seed=21,
        )
        data, theta_star = generate_dataset(gen)
        scores = data.inputs[:, 0] * theta_star[0]
        edges = np.linspace(-2.0, 2.0, 9)
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (scores >= lo) & (scores < hi)
            count = int(mask.sum())
            assert count > 1000
            rate = data.labels[mask].mean()
            center = 0.5 * (lo + hi)
            expected = sigmoid(beta * center)
            # binomial error plus within-bin curvature slack
            tol = 3 * np.sqrt(expected * (1 - expected) / count) + 0.25 * beta * (hi - lo)
            assert abs(rate - expected) < tol

    def test_labels_at_the_largest_beta_follow_the_sign_without_a_warning(self):
        # beta * score overflows to +/-inf, where sigma is exactly 1 or 0
        gen = GenerativeConfig(p=3, n=400, cov=make_covariance("reciprocal", 3), beta=1e308, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data, theta_star = generate_dataset(gen)
        scores = data.inputs @ theta_star
        nonzero = scores != 0
        assert nonzero.sum() == 400
        np.testing.assert_array_equal(data.labels[nonzero], scores[nonzero] > 0)

    def test_theta_star_resolved_once(self):
        gen = GenerativeConfig(p=6, n=10, cov=make_covariance("identity", 6), beta=1.0, seed=3)
        _, theta_star = generate_dataset(gen)
        fixed = GenerativeConfig(p=6, n=10, cov=gen.cov, beta=1.0, theta_star=theta_star, seed=3)
        _, again = generate_dataset(fixed)
        np.testing.assert_array_equal(theta_star, again)


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        gen = GenerativeConfig(p=5, n=12, cov=make_covariance("reciprocal", 5), beta=2.0, seed=4)
        data, theta_star = generate_dataset(gen)
        path = tmp_path / "dump.ulln"
        write_dataset(path, data, theta_star)
        loaded, theta_loaded = read_dataset(path)
        np.testing.assert_array_equal(loaded.inputs, data.inputs)
        np.testing.assert_array_equal(loaded.labels, data.labels)
        np.testing.assert_array_equal(theta_loaded, theta_star)

    def test_header_layout(self, tmp_path):
        data_x = np.arange(6, dtype=float).reshape(2, 3)
        data = Dataset(data_x, np.array([1, 0]))
        theta = np.array([0.5, -0.5, 0.25])
        path = tmp_path / "layout.ulln"
        write_dataset(path, data, theta)
        blob = path.read_bytes()
        assert blob[:4] == b"ULLN"
        version, n, p = struct.unpack_from("<IQQ", blob, 4)
        assert (version, n, p) == (1, 2, 3)
        offset = 4 + struct.calcsize("<IQQ")
        x = np.frombuffer(blob, dtype="<f8", count=6, offset=offset).reshape(2, 3)
        np.testing.assert_array_equal(x, data_x)
        assert blob[offset + 48 : offset + 50] == bytes([1, 0])
        tail = np.frombuffer(blob, dtype="<f8", count=3, offset=offset + 50)
        np.testing.assert_array_equal(tail, theta)
        assert len(blob) == offset + 48 + 2 + 24

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ulln"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError):
            read_dataset(path)

    @pytest.mark.parametrize("cut, expected", ((1, 98), (71, 98), (80, 24)))
    def test_rejects_truncated_file(self, tmp_path, cut, expected):
        path = tmp_path / "short.ulln"
        write_dataset(path, Dataset(np.ones((2, 3)), np.array([1, 0])), np.zeros(3))
        blob = path.read_bytes()
        assert len(blob) == 98
        path.write_bytes(blob[:-cut])
        with pytest.raises(ValueError, match=f"expected {expected} bytes, got {98 - cut}"):
            read_dataset(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.ulln"
        write_dataset(path, Dataset(np.ones((2, 3)), np.array([1, 0])), np.zeros(3))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="expected 98 bytes, got 99"):
            read_dataset(path)


def test_config_validation():
    cov = make_covariance("identity", 3)
    with pytest.raises(ValueError):
        GenerativeConfig(p=2, n=5, cov=cov, beta=1.0)  # cov dimension mismatch
    with pytest.raises(ValueError):
        GenerativeConfig(p=3, n=5, cov=cov, beta=-1.0)
    with pytest.raises(ValueError):
        GenerativeConfig(p=3, n=5, cov=cov, beta=1.0, theta_star="banana")
    with pytest.raises(ValueError):
        GenerativeConfig(p=3, n=5, cov=cov, beta=1.0, theta_star=np.ones(2))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="theta_star must be finite"):
            GenerativeConfig(p=3, n=5, cov=cov, beta=1.0, theta_star=[bad, 0.0, 0.0])


def test_replicate_map_keeps_the_replicate_order():
    # with two or more threads the first replicate finishes last
    delays = [0.2, 0.0, 0.0, 0.0]
    got = map_replicates(lambda i, delay: time.sleep(delay) or float(i), range(4), delays)
    assert got == [0.0, 1.0, 2.0, 3.0]


def test_latent_chunks_concatenate_to_the_whole_draw():
    z, u = draw_latent(11, 150, 7)
    blocks = list(draw_latent_chunks(11, 150, 7, 64))
    assert [len(bu) for _, bu in blocks] == [64, 64, 22]
    assert np.concatenate([bz for bz, _ in blocks]).tobytes() == z.tobytes()
    assert np.concatenate([bu for _, bu in blocks]).tobytes() == u.tobytes()


@pytest.mark.skipif(datagen._openblas() is None, reason="numpy's bundled OpenBLAS thread control is absent")
class TestBlasThreads:
    @pytest.fixture
    def blas(self):
        # two BLAS threads going in, whatever the environment set; the old count comes back after
        lib = datagen._openblas()
        old = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(2)
        yield lib.scipy_openblas_get_num_threads64_
        lib.scipy_openblas_set_num_threads64_(old)

    @pytest.fixture
    def two_cpus(self):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("a pool of two workers needs two CPUs")

    def test_a_pool_runs_one_blas_thread_and_restores_the_count(self, blas, two_cpus):
        assert map_replicates(lambda i: blas(), range(2)) == [1, 1]
        assert blas() == 2

    def test_the_count_is_restored_when_a_replicate_raises(self, blas, two_cpus):
        def fail(i):
            raise RuntimeError(f"replicate {i}")

        with pytest.raises(RuntimeError):
            map_replicates(fail, range(2))
        assert blas() == 2

    def test_a_nested_pool_finds_one_blas_thread_and_leaves_it(self, blas, two_cpus):
        def outer(i):
            return map_replicates(lambda j: (i, j, blas()), range(3))

        assert map_replicates(outer, range(2)) == [[(i, j, 1) for j in range(3)] for i in range(2)]
        assert blas() == 2

    def test_one_worker_keeps_the_count(self, blas):
        assert map_replicates(lambda i: blas(), range(2), threads=1) == [2, 2]

    def test_without_the_library_the_pool_runs_unchanged(self, blas, two_cpus, monkeypatch):
        monkeypatch.setattr(datagen, "_openblas", lambda: None)
        assert map_replicates(lambda i: (i, blas()), range(3)) == [(0, 2), (1, 2), (2, 2)]

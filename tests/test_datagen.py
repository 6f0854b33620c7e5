import struct

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

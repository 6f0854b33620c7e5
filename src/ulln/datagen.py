"""Anisotropic Gaussian data generation for constrained logistic regression.

Inputs are X_i = Lambda^{1/2} Z_i with Z_i standard normal, labels
Y_i ~ Ber(sigma(beta <X_i, theta*>)).  Sigma = Lambda is diagonal: the
bounds see it only through tr(Sigma) and ||Sigma||, which a rotation
leaves unchanged.  All randomness flows through
counter-based Philox streams keyed by integer seeds, so generation is
bit-reproducible and independent of thread schedule; per-replicate
streams are derived by hashing (seed, index, ...) tuples.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .model import Dataset, sigmoid

MAGIC = b"ULLN"
FORMAT_VERSION = 1

UNIFORM_SPHERE = "uniform_sphere"


def derive_seed(*parts: int) -> int:
    """Deterministically hash integer parts into one 64-bit stream key."""
    masked = [int(p) & 0xFFFFFFFFFFFFFFFF for p in parts]
    return int(np.random.SeedSequence(masked).generate_state(1, np.uint64)[0])


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for the given stream key."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF)))


@dataclass(frozen=True)
class CovarianceSpec:
    """Diagonal covariance Sigma = diag(lambda), given by its eigenvalue spectrum."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float).reshape(-1)
        object.__setattr__(self, "eigenvalues", eig)
        if eig.size < 1:
            raise ValueError("eigenvalue spectrum must be non-empty")
        if not np.all(np.isfinite(eig)) or np.any(eig < 0):
            raise ValueError("eigenvalues must be finite and >= 0")

    @property
    def p(self) -> int:
        return self.eigenvalues.size

    @property
    def trace(self) -> float:
        return float(np.sum(self.eigenvalues))

    @property
    def spectral_norm(self) -> float:
        return float(np.max(self.eigenvalues))

    def transform(self, z: np.ndarray) -> np.ndarray:
        """Map rows of isotropic z (or a single vector) through Lambda^{1/2}."""
        return np.asarray(z, dtype=float) * np.sqrt(self.eigenvalues)


def make_covariance(kind: str, p: int) -> CovarianceSpec:
    """Build a named spectrum: reciprocal (1, 1/2, ..., 1/p) or identity."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if kind == "reciprocal":
        return CovarianceSpec(1.0 / np.arange(1, p + 1))
    if kind == "identity":
        return CovarianceSpec(np.ones(p))
    raise ValueError(f"unknown covariance kind: {kind!r}")


def _unit_sphere(p: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal(p)
    return g / np.linalg.norm(g)


def sample_theta_star(p: int, seed: int) -> np.ndarray:
    """Uniform draw from the unit sphere S^{p-1}, deterministic given seed."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return _unit_sphere(p, make_rng(seed))


@dataclass(frozen=True)
class GenerativeConfig:
    """Sampling law: n draws of X = Lambda^{1/2} Z, Y ~ Ber(sigma(beta <X, theta*>))."""

    p: int
    n: int
    cov: CovarianceSpec
    beta: float
    theta_star: np.ndarray | str = UNIFORM_SPHERE
    seed: int = 0

    def __post_init__(self):
        if self.p < 1 or self.n < 1:
            raise ValueError("p and n must be >= 1")
        if self.cov.p != self.p:
            raise ValueError("covariance dimension does not match p")
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ValueError("beta must be finite and >= 0")
        if isinstance(self.theta_star, str):
            if self.theta_star != UNIFORM_SPHERE:
                raise ValueError(f"unknown theta_star directive: {self.theta_star!r}")
        else:
            ts = np.asarray(self.theta_star, dtype=float).reshape(-1)
            object.__setattr__(self, "theta_star", ts)
            if ts.size != self.p:
                raise ValueError("theta_star dimension does not match p")

    def concrete_theta_star(self) -> np.ndarray:
        if isinstance(self.theta_star, str):
            raise ValueError("theta_star has not been resolved to a vector")
        return self.theta_star


def generate_dataset(gen: GenerativeConfig) -> tuple[Dataset, np.ndarray]:
    """Draw (Dataset, theta_star) from the config; bit-deterministic given seed."""
    root = np.random.SeedSequence(int(gen.seed) & 0xFFFFFFFFFFFFFFFF)
    theta_stream, x_stream, y_stream = (np.random.Generator(np.random.Philox(s)) for s in root.spawn(3))

    if isinstance(gen.theta_star, str):
        theta_star = _unit_sphere(gen.p, theta_stream)
    else:
        theta_star = gen.theta_star

    # Lambda^{1/2} applied in place: no second n x p array
    x = x_stream.standard_normal((gen.n, gen.p))
    x *= np.sqrt(gen.cov.eigenvalues)
    label_probs = sigmoid(gen.beta * (x @ theta_star))
    y = (y_stream.random(gen.n) < label_probs).astype(np.int64)
    return Dataset(x, y), theta_star


def write_dataset(path, data: Dataset, theta_star: np.ndarray) -> None:
    """Flat binary dump: little-endian header (magic "ULLN", version u32,
    n u64, p u64), row-major float64 X, Y as bytes, theta_star as float64."""
    theta_star = np.asarray(theta_star, dtype=float).reshape(-1)
    if theta_star.size != data.p:
        raise ValueError("theta_star dimension does not match data")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQQ", FORMAT_VERSION, data.n, data.p))
        fh.write(np.ascontiguousarray(data.inputs, dtype="<f8").tobytes())
        fh.write(data.labels.astype(np.uint8).tobytes())
        fh.write(theta_star.astype("<f8").tobytes())


def read_dataset(path) -> tuple[Dataset, np.ndarray]:
    """Inverse of write_dataset; validates magic, version and file size."""
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = len(MAGIC) + struct.calcsize("<IQQ")
    if blob[:4] != MAGIC:
        raise ValueError("not a ULLN dataset file (bad magic)")
    if len(blob) < offset:
        raise ValueError(f"truncated ULLN header: expected {offset} bytes, got {len(blob)}")
    version, n, p = struct.unpack_from("<IQQ", blob, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    x_bytes = 8 * n * p
    expected = offset + x_bytes + n + 8 * p
    if len(blob) != expected:
        raise ValueError(f"ULLN file size mismatch for n={n}, p={p}: expected {expected} bytes, got {len(blob)}")
    x = np.frombuffer(blob, dtype="<f8", count=n * p, offset=offset).reshape(n, p)
    offset += x_bytes
    y = np.frombuffer(blob, dtype=np.uint8, count=n, offset=offset).astype(np.int64)
    offset += n
    theta_star = np.frombuffer(blob, dtype="<f8", count=p, offset=offset)
    return Dataset(x.copy(), y), theta_star.copy()

"""Anisotropic Gaussian data generation for constrained logistic regression.

Inputs are X_i = Lambda^{1/2} Z_i with Z_i standard normal, labels
Y_i ~ Ber(sigma(beta <X_i, theta*>)).  Sigma = Lambda is diagonal: the
bounds see it only through tr(Sigma) and ||Sigma||, which a rotation
leaves unchanged.  All randomness flows through
counter-based Philox streams keyed by integer seeds, so generation is
bit-reproducible and independent of thread schedule; per-replicate
streams are derived by hashing (seed, index, ...) tuples.  A seed spawns
three streams: theta* (drawn when a `GenerativeConfig` is built), Z and
the label uniforms.

A stream key leaves the covariance out on purpose: one draw of Z and
the label uniforms (`draw_latent`, or `draw_latent_chunks` a block of rows
at a time) serves every spectrum, which pairs the reciprocal and
identity columns of the study tables.

`map_replicates` is the one thread policy of every subcommand: the
replicates run on a pool of min(CPUs, replicates, threads) workers, and
while a pool of two or more runs, numpy's bundled OpenBLAS runs one
thread, so the workers do not share the cores with BLAS threads.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it on first use otherwise, inside the first draw

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


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS through ctypes, which hands back the library
    numpy already loaded, or None where it or its thread control is absent."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for name in os.listdir(libs) if os.path.isdir(libs) else ():
        if not name.startswith("libscipy_openblas64_"):
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return lib
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with one OpenBLAS thread, restoring the old count after;
    without the bundled OpenBLAS, run it unchanged."""
    lib = _openblas()
    old = lib.scipy_openblas_get_num_threads64_() if lib is not None else 1
    if old == 1:
        yield
        return
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


def map_replicates(fn, *columns, threads: int | None = None) -> list:
    """``fn`` over the zipped ``columns`` on a pool of min(CPUs, replicates,
    ``threads``) threads, with the results in replicate order.

    A pool of one is the calling thread, and starts no thread.  While a
    pool of two or more runs, BLAS runs one thread (`_one_blas_thread`),
    so the workers do not contend with BLAS threads for the cores.  A call
    made inside a pool worker (the `g` suite's checks under `verify all`)
    finds one BLAS thread and leaves it, and the outer pool restores the
    count when it ends.  Calls that overlap from unrelated threads may
    restore each other's count.

    The contract: ``fn`` depends only on its arguments, and any state the
    threads share (a config, say) is read-only.  Then each result is the
    same for any thread count, and the order makes every reduction over
    them the same bit for bit.
    """
    count = len(columns[0])
    workers = min(len(os.sched_getaffinity(0)), count, count if threads is None else threads)
    if workers < 2:
        return list(map(fn, *columns))
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *columns))


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


def _streams(seed: int) -> list[np.random.Generator]:
    """The theta*, Z and label-uniform streams of a stream key."""
    root = np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF)
    return [np.random.Generator(np.random.Philox(s)) for s in root.spawn(3)]


@dataclass(frozen=True)
class GenerativeConfig:
    """Sampling law: n draws of X = Lambda^{1/2} Z, Y ~ Ber(sigma(beta <X, theta*>)).

    A "uniform_sphere" theta* is drawn when the config is built, from the
    first stream of `seed`, so `theta_star` is always a vector of length p;
    `dataclasses.replace` keeps it unless given the directive again.
    """

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
            ts = _unit_sphere(self.p, _streams(self.seed)[0])
        else:
            ts = np.asarray(self.theta_star, dtype=float).reshape(-1)
            if ts.size != self.p:
                raise ValueError("theta_star dimension does not match p")
            if not np.all(np.isfinite(ts)):
                raise ValueError("theta_star must be finite")
        object.__setattr__(self, "theta_star", ts)


def draw_latent(seed: int, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic rows Z (n x p) and label uniforms U (n,) of a stream key, n >= 1:
    the one block of `draw_latent_chunks`."""
    (block,) = draw_latent_chunks(seed, n, p, n)
    return block


def draw_latent_chunks(seed: int, n: int, p: int, rows: int):
    """The isotropic rows Z and label uniforms U of a stream key in
    consecutive blocks of at most ``rows`` rows.  Z and U come from separate
    streams, so the blocks concatenate to the whole draw bit for bit for any
    ``rows``.  U (n floats) is drawn whole first, so an n too large for
    memory fails before any block is drawn."""
    _, z_stream, u_stream = _streams(seed)
    u = u_stream.random(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        yield z_stream.standard_normal((stop - start, p)), u[start:stop]


def label_probabilities(x: np.ndarray, theta_star: np.ndarray, beta: float) -> np.ndarray:
    """sigma(beta <x_i, theta*>) for each row.  At a large finite beta the
    product may overflow to +/-inf, where sigma is exactly 1 or 0, so the
    overflow raises no warning."""
    with np.errstate(over="ignore"):
        return sigmoid(beta * (x @ theta_star))


def label_rows(x: np.ndarray, u: np.ndarray, theta_star: np.ndarray, beta: float) -> Dataset:
    """Rows ``x`` with labels Y_i = 1(U_i < sigma(beta <x_i, theta*>)); ``x`` is not copied."""
    return Dataset(x, (u < label_probabilities(x, theta_star, beta)).astype(np.int64))


def generate_dataset(gen: GenerativeConfig) -> tuple[Dataset, np.ndarray]:
    """Draw (Dataset, theta_star) from the config; bit-deterministic given seed."""
    z, u = draw_latent(gen.seed, gen.n, gen.p)
    # Lambda^{1/2} applied in place: no second n x p array
    z *= np.sqrt(gen.cov.eigenvalues)
    return label_rows(z, u, gen.theta_star, gen.beta), gen.theta_star


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

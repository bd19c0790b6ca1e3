"""Seeded input generation owned by the benchmark.

The benchmark never asks the package to make its inputs, so a change to the
package cannot change what is measured: every op receives plain complex
arrays and a weight vector built here from the run's seed.
"""

from __future__ import annotations

import numpy as np


def op_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """One independent stream per (run seed, workload stream, op index)."""
    return np.random.default_rng([int(seed), int(stream), int(index)])


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phases fixed."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_pd(rng: np.random.Generator, dim: int, spread: float) -> np.ndarray:
    """Positive definite matrix U diag(e) U* with spectrum spanning [e^-spread, e^spread].

    The two extreme eigenvalues sit exactly at the ends of the interval and the
    rest are log-uniform inside it, so every matrix of a grid cell has the same
    condition number e^(2 spread); only the eigenbasis and interior spectrum vary.
    """
    logs = rng.uniform(-spread, spread, size=dim)
    if dim >= 2:
        logs[0], logs[1] = -spread, spread
    U = haar_unitary(rng, dim)
    mat = (U * np.exp(logs)) @ U.conj().T
    return (mat + mat.conj().T) / 2


def random_ensemble(rng: np.random.Generator, dim: int, size: int, spread: float):
    """`size` matrices from random_pd and Dirichlet(1) weights summing to 1."""
    mats = [random_pd(rng, dim, spread) for _ in range(size)]
    weights = rng.dirichlet(np.ones(size))
    return mats, weights / weights.sum()

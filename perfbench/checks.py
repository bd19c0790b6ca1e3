"""Independent correctness checks.

Each check recomputes the quantity a solver claims to have driven to zero by a
different route than the solver's own, using only public package functions:

* barycenter: the stationarity gradient through the divided-difference
  `frechet_derivative`, with no quadrature gradient involved;
* fixed point: one application of the map through `kubo_ando_mean`.

Both generators the workloads use are f(x) = x^t (the arcsine measure
represents the square root), so the checks use that closed form.
"""

from __future__ import annotations

import numpy as np

from qhmeans import GeometricGenerator, frechet_derivative, inv_sqrt_pd, kubo_ando_mean

# A report claiming convergence whose independent residual exceeds this
# multiple of the requested tolerance is counted as falsely converged.
FALSE_CONVERGENCE_FACTOR = 10.0


def barycenter_residual(mats, weights, X: np.ndarray, t: float) -> float:
    """||G||_F with G = c I - sum_j w_j A_j^{-1/2} Df(M_j)[A_j] A_j^{-1/2}.

    Here f(x) = x^t, c = f'(1) = t and M_j = A_j^{-1/2} X A_j^{-1/2}.
    """
    G = t * np.eye(X.shape[0], dtype=np.complex128)
    for A, w in zip(mats, weights):
        R = inv_sqrt_pd(A).mat
        M = R @ X @ R
        M = (M + M.conj().T) / 2
        D = frechet_derivative(lambda x: x**t, lambda x: t * x ** (t - 1), M, A).mat
        G -= w * (R @ D @ R)
    return float(np.linalg.norm(G))


def fixed_point_residual(mats, weights, X: np.ndarray, s: float) -> float:
    """||T(X) - X||_F / ||X||_F for T(X) = sum_j w_j X #_s A_j."""
    gen = GeometricGenerator(s)
    T = sum(w * kubo_ando_mean(X, A, gen).mat for A, w in zip(mats, weights))
    return float(np.linalg.norm(T - X) / np.linalg.norm(X))

"""Shared fixtures and independent oracles.

The 2x2 helpers below are deliberate re-derivations: adjugate inverse and
Cayley-Hamilton square root, no eigendecomposition.  They exist so the
library's spectral path can be checked against arithmetic that shares none
of its code.
"""

from __future__ import annotations

import importlib.util

import mpmath as mp
import numpy as np
import pytest

from qhmeans import PositiveDefiniteMatrix, pd

# scipy is a test dependency only: it backs the Beta-type Gauss rules that
# `quadrature` builds and the independent QAWS, brentq and block-power
# oracles.  Every other test runs on the package's declared dependencies.
needs_scipy = pytest.mark.skipif(
    importlib.util.find_spec("scipy") is None, reason="calls scipy, a test-only dependency"
)

REF_A1 = np.diag([4.0, 1.0])
REF_A2 = 0.5 * np.array([[5.0, 3.0], [3.0, 5.0]])
REF_BARYCENTER = np.array([[2.99035, 0.634419], [0.634419, 1.72151]])
REF_ONE_STEP = np.array([[3.02915, 0.673215], [0.673215, 1.68272]])
# A third member, weights (0.3, 0.3, 0.4): with two members the fixed-point
# solvers' first step is exact, so only three make them take Newton steps.
REF_A3 = np.array([[1.0, 0.5], [0.5, 3.0]])
REF_THREE_WEIGHTS = [0.3, 0.3, 0.4]

# Frozen against the Cayley-Hamilton oracle below.
REF_PHI_A1_A2 = 0.5827389570061385
REF_OBJECTIVE_AT_I = 0.5

# Two members of condition 1.6e5, weights (0.01, 0.99): from the arithmetic
# mean, Newton under harmonic:0.3 or harmonic:0.5 runs X to the cone's
# boundary, where the M_j cone test passes points whose smallest eigenvalue
# the PositiveDefiniteMatrix floor refuses.
BOUNDARY_MATS = [
    np.diag([0.0025, 400.0]),
    np.array([[1.001661, -19.966559], [-19.966559, 399.000839]]),
]
BOUNDARY_WEIGHTS = [0.01, 0.99]


def inv2(M):
    """Adjugate inverse of a 2x2 matrix."""
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det


def sqrt2(M):
    """Cayley-Hamilton principal square root of a 2x2 PSD matrix."""
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    s = np.sqrt(det)
    return (M + s * np.eye(2)) / np.sqrt(tr + 2 * s)


def geomean2(A, B):
    """Geometric mean of 2x2 PD matrices via the closed-form square root."""
    r = sqrt2(A)
    ri = inv2(r)
    return r @ sqrt2(ri @ B @ ri) @ r


def hellinger_phi2(A, B):
    """phi with the square-root generator on 2x2 inputs, oracle path."""
    return np.trace(0.5 * (A + B) - geomean2(A, B)).real


def random_pd_np(rng, dim, spread=1.0):
    """Well-conditioned random PD matrix as a plain complex array."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    eigs = np.exp(rng.uniform(-spread, spread, size=dim))
    return (q * eigs) @ q.conj().T


def mp_phi(A, B, f, c, dps=40):
    """phi(A, B) = Tr((1-c) A + c B - A sigma B) carried at dps digits: the
    mean formed as A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} from mpmath's
    Hermitian eigensolver.  f maps an mpf to an mpf."""
    with mp.workdps(dps):
        A, B = mp.matrix(np.asarray(A).tolist()), mp.matrix(np.asarray(B).tolist())
        w, U = mp.eighe(A)
        root = U * mp.diag([mp.sqrt(x) for x in w]) * U.H
        inv_root = U * mp.diag([1 / mp.sqrt(x) for x in w]) * U.H
        middle = inv_root * B * inv_root
        mu, V = mp.eighe((middle + middle.H) / 2)
        mean = root * V * mp.diag([f(x) for x in mu]) * V.H * root
        value = sum((1 - c) * A[i, i] + c * B[i, i] - mean[i, i] for i in range(A.rows))
        return mp.re(value)


def mp_power_mean2(A1, A2, w1, t, dps=50):
    """The weighted power mean of order s = 1 - t of two positive definite
    matrices, the solution of X = w1 X #_s A1 + w2 X #_s A2, carried at dps
    digits.  Congruence by A1^{-1/2} makes that solution commute with
    M = A1^{-1/2} A2 A1^{-1/2}, so it is A1^{1/2} (w1 I + w2 M^s)^{1/s} A1^{1/2},
    formed from mpmath's Hermitian eigensolver; returned as a complex ndarray."""
    with mp.workdps(dps):
        s, w1 = 1 - mp.mpf(t), mp.mpf(w1)
        A1, A2 = mp.matrix(np.asarray(A1).tolist()), mp.matrix(np.asarray(A2).tolist())
        w, U = mp.eighe(A1)
        root = U * mp.diag([mp.sqrt(x) for x in w]) * U.H
        inv_root = U * mp.diag([1 / mp.sqrt(x) for x in w]) * U.H
        middle = inv_root * A2 * inv_root
        mu, V = mp.eighe((middle + middle.H) / 2)
        inner = V * mp.diag([(w1 + (1 - w1) * x**s) ** (1 / s) for x in mu]) * V.H
        mean = root * inner * root
        return np.array([[complex(mean[i, j]) for j in range(mean.cols)] for i in range(mean.rows)])


def mp_barycenter(mats, weights, f, f_prime, c, start, dps=50, steps=3):
    """The weighted barycenter, argmin_X sum_j w_j phi(A_j, X), carried at dps
    digits, and its stationarity residual ||G||_F; the solution is returned
    as a complex ndarray.

    G(X) = c I - sum_j w_j R_j Df(M_j)[A_j] R_j, with R_j = A_j^{-1/2} and
    M_j = R_j X R_j = V diag(e) V*, takes Df(M_j)[A_j] = V (f^[1](e) o V* A_j V) V*
    from the divided differences of f on mpmath's Hermitian eigenpairs.
    Newton on the d^2 real coordinates of a Hermitian X (the diagonal, then
    the real and imaginary parts of the strict upper triangle), with a
    forward-difference Jacobian of step 10^(-dps/2), starts at `start`, a
    double-precision solution, and takes `steps` steps.  f and f_prime map
    an mpf to an mpf."""
    d = len(start)
    upper = [(i, k) for i in range(d) for k in range(i + 1, d)]
    with mp.workdps(dps):
        mats = [mp.matrix(np.asarray(A).tolist()) for A in mats]
        weights, c = [mp.mpf(float(w)) for w in weights], mp.mpf(c)
        inv_roots = []
        for A in mats:
            lam, U = mp.eighe(A)
            inv_roots.append(U * mp.diag([1 / mp.sqrt(x) for x in lam]) * U.H)

        def coordinates(H):
            return ([mp.re(H[i, i]) for i in range(d)] + [mp.re(H[i, k]) for i, k in upper]
                    + [mp.im(H[i, k]) for i, k in upper])

        def hermitian(x):
            H = mp.diag(x[:d])
            for n, (i, k) in enumerate(upper):
                H[i, k] = mp.mpc(x[d + n], x[d + len(upper) + n])
                H[k, i] = mp.conj(H[i, k])
            return H

        def gradient(x):
            X, G = hermitian(x), c * mp.eye(d)
            for w, A, R in zip(weights, mats, inv_roots):
                M = R * X * R
                e, V = mp.eighe((M + M.H) / 2)
                K = V.H * A * V
                for i in range(d):
                    for k in range(d):
                        gap = e[i] - e[k]
                        K[i, k] *= f_prime(e[i]) if gap == 0 else (f(e[i]) - f(e[k])) / gap
                G -= w * R * V * K * V.H * R
            return coordinates(G)

        x, h = coordinates(mp.matrix(np.asarray(start).tolist())), mp.mpf(10) ** (-dps // 2)
        for _ in range(steps):
            g = gradient(x)
            J = mp.matrix(d * d, d * d)
            for n in range(d * d):
                shifted = gradient([v + h if m == n else v for m, v in enumerate(x)])
                for r in range(d * d):
                    J[r, n] = (shifted[r] - g[r]) / h
            step = mp.lu_solve(J, mp.matrix([-v for v in g]))
            x = [v + step[n] for n, v in enumerate(x)]
        X = hermitian(x)
        res = float(mp.mnorm(hermitian(gradient(x)), "f"))
        return np.array([[complex(X[i, k]) for k in range(d)] for i in range(d)]), res


def mp_map_residual(mats, weights, f_prime, X, dps=50):
    """The mean-equation map residual ||T(X) - X||_F / ||X||_F carried at dps
    digits, for T(X) = sum_j w_j X^{1/2} f'(M_j^{-1}) X^{1/2} / f'(1) with
    M_j = X^{-1/2} A_j X^{-1/2}, through the square root of X from mpmath's
    Hermitian eigensolver.  f_prime maps an mpf to an mpf."""
    with mp.workdps(dps):
        X = mp.matrix(np.asarray(X).tolist())
        x, U = mp.eighe(X)
        root = U * mp.diag([mp.sqrt(v) for v in x]) * U.H
        inv_root = U * mp.diag([1 / mp.sqrt(v) for v in x]) * U.H
        image = mp.matrix(X.rows, X.cols)
        for w, A in zip(weights, mats):
            M = inv_root * mp.matrix(np.asarray(A).tolist()) * inv_root
            e, V = mp.eighe((M + M.H) / 2)
            image += mp.mpf(float(w)) * root * V * mp.diag([f_prime(1 / v) for v in e]) * V.H * root
        return float(mp.mnorm(image / f_prime(mp.mpf(1)) - X, "f") / mp.mnorm(X, "f"))


def pinned_spectrum_ensemble_np(rng, dim, size, spread):
    """`size` matrices U diag(e) U* with Haar U and Dirichlet(1) weights.

    Each spectrum has its two extreme eigenvalues pinned at e^-spread and
    e^spread and the rest log-uniform between them, so every member has
    condition number e^(2 spread).  The draw order is that of the benchmark's
    ensembles: per member the log-spectrum, then U; the weights last.
    """
    mats = []
    for _ in range(size):
        logs = rng.uniform(-spread, spread, size=dim)
        if dim >= 2:
            logs[0], logs[1] = -spread, spread
        U = random_unitary_np(rng, dim)
        mat = (U * np.exp(logs)) @ U.conj().T
        mats.append((mat + mat.conj().T) / 2)
    weights = rng.dirichlet(np.ones(size))
    return mats, weights / weights.sum()


def random_hermitian_np(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    return h / np.linalg.norm(h)


def random_unitary_np(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def ref_pair():
    return pd(REF_A1), pd(REF_A2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def assert_pd(M) -> PositiveDefiniteMatrix:
    return pd(M)


def assembled_gradient(ens, X, c, derivative):
    """Barycenter gradient built member by member from a Frechet derivative.

    G = c I - sum_j w_j A_j^{-1/2} derivative(M_j, A_j) A_j^{-1/2} with
    M_j = A_j^{-1/2} X A_j^{-1/2}; the inverse roots come from plain numpy.
    """
    G = c * np.eye(X.dim, dtype=np.complex128)
    for w, A in zip(ens.weights, ens.matrices):
        lam, U = np.linalg.eigh(A.mat)
        R = (U / np.sqrt(lam)) @ U.conj().T
        M = R @ X.mat @ R
        G -= w * (R @ derivative((M + M.conj().T) / 2, A.mat) @ R)
    return (G + G.conj().T) / 2


def power_derivative(M, A, t):
    """Df(M)[A] for f(x) = x^t from the block-triangular identity
    f([[M, A], [0, M]]) = [[f(M), Df(M)[A]], [0, f(M)]], with scipy's
    fractional_matrix_power, which shares no code with the library."""
    from scipy.linalg import fractional_matrix_power

    block = np.block([[M, A], [np.zeros_like(M), M]])
    return fractional_matrix_power(block, t)[: len(M), len(M):]

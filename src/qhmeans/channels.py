"""CPTP quantum channels and the divergence property harness.

Channels are held as Kraus operators with the trace-preserving constraint
checked at construction.  The harness functions return signed slacks rather
than booleans so property campaigns can report the worst margin seen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import _phi_batch
from .errors import DegenerateTrialError, DimensionMismatchError, DomainError
from .generators import DivergenceSpec
from .hermitian import (
    PD_REL_FLOOR,
    HermitianMatrix,
    MatrixLike,
    PositiveDefiniteMatrix,
    _mat,
)

TP_ATOL = 1e-10
# Outputs of PD inputs can brush the cone boundary; they are nudged back by
# this relative amount before divergence evaluation.
REGULARIZATION_SCALE = 1e-12
MAX_REGULARIZATION = 1e-6


def kraus_defect(kraus) -> float:
    """Frobenius distance of sum K_i* K_i from the identity."""
    ks = [np.asarray(K, dtype=np.complex128) for K in kraus]
    d_in = ks[0].shape[1]
    acc = sum(K.conj().T @ K for K in ks)
    return float(np.linalg.norm(acc - np.eye(d_in)))


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """A completely positive trace preserving map given by Kraus operators."""

    kraus: tuple

    def __post_init__(self):
        ks = tuple(np.asarray(K, dtype=np.complex128) for K in self.kraus)
        if not ks:
            raise DomainError("a channel needs at least one Kraus operator")
        shape = ks[0].shape
        if len(shape) != 2 or any(K.shape != shape for K in ks):
            raise DomainError("all Kraus operators must share one (d_out, d_in) shape")
        defect = kraus_defect(ks)
        if defect > TP_ATOL:
            raise DomainError(
                f"Kraus operators are not trace preserving: defect {defect:.3e}"
            )
        for K in ks:
            K.setflags(write=False)
        object.__setattr__(self, "kraus", ks)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]


def apply_channel(T: QuantumChannel, A: MatrixLike) -> HermitianMatrix:
    """Channel action sum_i K_i A K_i*; preserves the trace."""
    a = _mat(A)
    if a.shape[0] != T.dim_in:
        raise DimensionMismatchError(
            f"channel expects dimension {T.dim_in}, got {a.shape[0]}"
        )
    out = sum(K @ a @ K.conj().T for K in T.kraus)
    return HermitianMatrix(out)


def pinching_channel(d: int) -> QuantumChannel:
    """Projection onto the diagonal subalgebra: Kraus operators e_i e_i*."""
    if d < 1:
        raise DomainError("dimension must be at least 1")
    ks = []
    for i in range(d):
        K = np.zeros((d, d), dtype=np.complex128)
        K[i, i] = 1.0
        ks.append(K)
    return QuantumChannel(tuple(ks))


def random_cptp(d_in: int, d_out: int, env_dim: int, seed) -> QuantumChannel:
    """Random channel from a Haar-like isometry into C^{d_out} x C^{env_dim}.

    A seeded complex Gaussian matrix is orthonormalized by QR; slicing the
    environment index yields env_dim Kraus operators.  Deterministic for a
    fixed seed; the seed may be an integer or a sequence (campaign, trial).
    """
    if min(d_in, d_out, env_dim) < 1:
        raise DomainError("dimensions must be at least 1")
    if d_out * env_dim < d_in:
        raise DomainError(
            f"no isometry exists: d_out*env_dim = {d_out * env_dim} < d_in = {d_in}"
        )
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d_out * env_dim, d_in)) + 1j * rng.standard_normal(
        (d_out * env_dim, d_in)
    )
    V, _ = np.linalg.qr(g)
    blocks = V.reshape(d_out, env_dim, d_in)
    return QuantumChannel(tuple(blocks[:, i, :] for i in range(env_dim)))


def choi_matrix(T: QuantumChannel) -> HermitianMatrix:
    """Choi matrix sum_ij e_i e_j* (x) T(e_i e_j*); PSD iff T is completely positive."""
    d = T.dim_in
    out = np.zeros((d * T.dim_out, d * T.dim_out), dtype=np.complex128)
    for K in T.kraus:
        vec = K.reshape(-1, order="F")  # stacking consistent with e_i (x) K e_i
        out += np.outer(vec, vec.conj())
    # Equivalent closed form: Choi = sum_K vec(K) vec(K)*, with the basis
    # ordering fixed by the reshape above.
    return HermitianMatrix(out)


def _regularize_pd(H: HermitianMatrix) -> PositiveDefiniteMatrix:
    mat = H.mat
    d = mat.shape[0]
    w = np.linalg.eigvalsh(mat)
    eps = REGULARIZATION_SCALE * max(float(np.trace(mat).real), 0.0) / d
    # The shift must also clear the PD constructor's relative floor, with
    # margin, when the output sits exactly on the cone boundary.
    floor = 4.0 * PD_REL_FLOOR * max(abs(w[-1]), 0.0)
    shift = max(eps, floor - w[0])
    if shift > MAX_REGULARIZATION:
        raise DegenerateTrialError(
            f"channel output needs eigenvalue shift {shift:.3e} > {MAX_REGULARIZATION:.0e}"
        )
    return PositiveDefiniteMatrix(mat + shift * np.eye(d))


def check_dpi(
    spec: DivergenceSpec,
    T: QuantumChannel,
    A: MatrixLike,
    B: MatrixLike,
) -> float:
    """Data processing slack phi(A,B) - phi(T(A),T(B)); nonnegative for CPTP T.

    Raises DegenerateTrialError when a channel output is too singular to
    regularize honestly; such trials are discarded, not failed.
    """
    TA = _regularize_pd(apply_channel(T, A))
    TB = _regularize_pd(apply_channel(T, B))
    before, after = _phi_batch([(A, B), (TA, TB)], spec)
    return float(before - after)


def check_joint_convexity(
    spec: DivergenceSpec,
    pair_one: tuple,
    pair_two: tuple,
    s: float,
) -> float:
    """Convexity slack s phi(A1,B1) + (1-s) phi(A2,B2) - phi(mix_A, mix_B)."""
    return _joint_convexity_slacks(spec, pair_one, pair_two, (s,))[0]


def _joint_convexity_slacks(spec: DivergenceSpec, pair_one, pair_two, weights) -> list:
    """check_joint_convexity at each s in weights, from one batched phi over
    the two pairs and their len(weights) mixtures."""
    a1, b1 = (_mat(M) for M in pair_one)
    a2, b2 = (_mat(M) for M in pair_two)
    mixtures = []
    for s in weights:
        if not 0.0 < s < 1.0:
            raise DomainError(f"mixing parameter s={s} must lie in (0,1)")
        mixtures.append((
            PositiveDefiniteMatrix(s * a1 + (1 - s) * a2),
            PositiveDefiniteMatrix(s * b1 + (1 - s) * b2),
        ))
    one, two, *mixed = _phi_batch([pair_one, pair_two, *mixtures], spec)
    return [float(s * one + (1 - s) * two - m) for s, m in zip(weights, mixed)]

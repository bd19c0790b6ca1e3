"""CPTP quantum channels and the divergence property harness.

Channels are held as Kraus operators with the trace-preserving constraint
checked at construction.  The harness functions return signed slacks rather
than booleans so property campaigns can report the worst margin seen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import _phi_batch, _trace
from .errors import DegenerateTrialError, DimensionMismatchError, DomainError
from .generators import DivergenceSpec
from .hermitian import (
    PD_REL_FLOOR,
    HermitianMatrix,
    MatrixLike,
    _check_same_dim,
    _hermitian_part,
    _mat,
    _require_pd,
    pd,
)

TP_ATOL = 1e-10
# Outputs of PD inputs can brush the cone boundary; they are nudged back by
# this relative amount before divergence evaluation.
REGULARIZATION_SCALE = 1e-12
MAX_REGULARIZATION = 1e-6


def _adjoint(M: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(M, -1, -2))


def _kraus_defects(kraus: np.ndarray) -> np.ndarray:
    """kraus_defect of each channel in a stack (..., r, d_out, d_in) of Kraus
    families."""
    acc = (_adjoint(kraus) @ kraus).sum(-3)
    return np.linalg.norm(acc - np.eye(kraus.shape[-1]), axis=(-2, -1))


def kraus_defect(kraus) -> float:
    """Frobenius distance of sum K_i* K_i from the identity."""
    return float(_kraus_defects(np.asarray(kraus, dtype=np.complex128)))


def _apply_kraus(kraus: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Hermitian part of sum_i K_i A K_i* for Kraus families (..., r, d_out, d_in)
    and inputs (..., d_in, d_in), the leading axes broadcast."""
    return _hermitian_part((kraus @ a[..., None, :, :] @ _adjoint(kraus)).sum(-3))


def _check_input_dim(T: QuantumChannel, a: np.ndarray) -> None:
    if a.shape[0] != T.dim_in:
        raise DimensionMismatchError(
            f"channel expects dimension {T.dim_in}, got {a.shape[0]}"
        )


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
    _check_input_dim(T, a)
    return HermitianMatrix(_apply_kraus(np.array(T.kraus), a))


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
    g = _complex_gaussian(np.random.default_rng(seed), (d_out * env_dim, d_in))
    return QuantumChannel(tuple(_kraus_stack(g[None], d_out, env_dim)[0]))


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _kraus_stack(g: np.ndarray, d_out: int, env_dim: int) -> np.ndarray:
    """Kraus families (n, env_dim, d_out, d_in) of the isometries that QR makes
    of a stack g (n, d_out * env_dim, d_in) of complex Gaussian matrices: the
    environment index of each isometry's rows labels its Kraus operators."""
    V = np.linalg.qr(g)[0]
    return V.reshape(len(V), d_out, env_dim, V.shape[-1]).swapaxes(1, 2)


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


def _regularization_shift(w: np.ndarray, trace: float) -> float:
    """The eigenvalue shift that nudges one channel output, of ascending
    spectrum w, into the cone: REGULARIZATION_SCALE of its mean eigenvalue, or
    more where the output sits on the cone boundary.  Raises
    DegenerateTrialError when the shift would exceed MAX_REGULARIZATION."""
    eps = REGULARIZATION_SCALE * max(trace, 0.0) / len(w)
    # The shift must also clear the PD constructor's relative floor, with
    # margin, when the output sits exactly on the cone boundary.
    floor = 4.0 * PD_REL_FLOOR * max(abs(w[-1]), 0.0)
    shift = max(eps, floor - w[0])
    if shift > MAX_REGULARIZATION:
        raise DegenerateTrialError(
            f"channel output needs eigenvalue shift {shift:.3e} > {MAX_REGULARIZATION:.0e}"
        )
    return shift


def _dpi_slacks(spec: DivergenceSpec, kraus: np.ndarray, a: np.ndarray, b: np.ndarray) -> list:
    """check_dpi over stacks: Kraus families kraus (n, r, d_out, d_in) and
    positive definite a, b (n, d_in, d_in).

    Returns, per member, its slack, or the DegenerateTrialError that
    regularizing one of its two outputs raised.  One batched eigvalsh gives
    every output's spectrum; the regularized spectra w + shift are held to the
    positive definite predicate, and one phi pass over the inputs and one
    over the outputs give the slacks.
    """
    n = len(a)
    outputs = _apply_kraus(np.concatenate((kraus, kraus)), np.concatenate((a, b)))
    w = np.linalg.eigvalsh(outputs)
    traces = _trace(outputs).real.tolist()
    shifts = np.zeros(2 * n)
    errors = [None] * n
    for k in range(n):
        try:
            for j in (k, n + k):
                shifts[j] = _regularization_shift(w[j], traces[j])
        except DegenerateTrialError as exc:
            errors[k] = exc
    kept = [k for k in range(n) if errors[k] is None]
    both = kept + [n + k for k in kept]
    _require_pd(w[both] + shifts[both, None], "channel output")
    regularized = outputs[both] + shifts[both, None, None] * np.eye(w.shape[-1])
    before = _phi_batch(a[kept], b[kept], spec)
    after = _phi_batch(regularized[: len(kept)], regularized[len(kept):], spec)
    slacks = iter((before - after).tolist())
    return [next(slacks) if exc is None else exc for exc in errors]


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
    a, b = pd(A).mat, pd(B).mat
    _check_input_dim(T, a)
    _check_same_dim(a, b)
    (slack,) = _dpi_slacks(spec, np.array(T.kraus)[None], a[None], b[None])
    if isinstance(slack, DegenerateTrialError):
        raise slack
    return slack


def check_joint_convexity(
    spec: DivergenceSpec,
    pair_one: tuple,
    pair_two: tuple,
    s: float,
) -> float:
    """Convexity slack s phi(A1,B1) + (1-s) phi(A2,B2) - phi(mix_A, mix_B)."""
    a1, b1, a2, b2 = (pd(M).mat for M in (*pair_one, *pair_two))
    for m in (b1, a2, b2):
        _check_same_dim(a1, m)
    return float(_joint_convexity_slacks(spec, a1[None], b1[None], a2[None], b2[None], (s,))[0, 0])


def _joint_convexity_slacks(spec: DivergenceSpec, a1, b1, a2, b2, weights) -> np.ndarray:
    """check_joint_convexity over positive definite stacks (n, d, d) at each s
    in weights, as an (n, len(weights)) array: one batched eigvalsh holds
    every mixture to the positive definite predicate, and one phi pass covers
    the n pairs (A1, B1), the n pairs (A2, B2) and their n len(weights)
    mixtures."""
    for s in weights:
        if not 0.0 < s < 1.0:
            raise DomainError(f"mixing parameter s={s} must lie in (0,1)")
    n, d = a1.shape[:2]
    s = np.array(weights)[:, None]
    m = s[..., None, None]
    mix_a = (m * a1 + (1 - m) * a2).reshape(-1, d, d)
    mix_b = (m * b1 + (1 - m) * b2).reshape(-1, d, d)
    _require_pd(np.linalg.eigvalsh(np.concatenate((mix_a, mix_b))))
    values = _phi_batch(np.concatenate((a1, a2, mix_a)), np.concatenate((b1, b2, mix_b)), spec)
    one, two, mixed = values[:n], values[n : 2 * n], values[2 * n :].reshape(-1, n)
    return (s * one + (1 - s) * two - mixed).T

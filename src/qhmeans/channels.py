"""CPTP quantum channels and the divergence property harness.

Channels are held as Kraus operators with the trace-preserving constraint
checked at construction.  The harness functions return signed slacks rather
than booleans so property campaigns can report the worst margin seen.  The
data processing check evaluates phi on the channel outputs as they are; a
trial whose output has a condition number above MAX_OUTPUT_CONDITION, a
rank-deficient one included, is degenerate at every scale and is discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import _phi_batch
from .errors import DegenerateTrialError, DimensionMismatchError, DomainError
from .generators import DivergenceSpec
from .hermitian import (
    HermitianMatrix,
    MatrixLike,
    _check_same_dim,
    _hermitian_part,
    _mat,
    _require_count,
    _require_finite,
    _require_pd,
    pd,
)

TP_ATOL = 1e-10
# The largest condition number of a channel output that check_dpi evaluates:
# phi's rounding error grows with it, to about 2e-12 at 2.6e8 and 7e-10 at
# 2.6e12, where it would reach the campaigns' slack floor of -1e-9.
MAX_OUTPUT_CONDITION = 1e8


def _kraus_defects(kraus: np.ndarray) -> np.ndarray:
    """kraus_defect of each channel in a stack (..., r, d_out, d_in) of Kraus
    families."""
    acc = (kraus.mT.conj() @ kraus).sum(-3)
    return np.linalg.norm(acc - np.eye(kraus.shape[-1]), axis=(-2, -1))


def _kraus_array(kraus) -> np.ndarray:
    """A new complex128 array of a Kraus family: an (r, d_out, d_in) stack
    with every size at least 1."""
    try:
        ks = np.array(kraus, dtype=np.complex128)
    except ValueError as exc:
        raise DomainError("all Kraus operators must share one (d_out, d_in) shape") from exc
    if ks.ndim != 3 or 0 in ks.shape:
        raise DomainError(
            f"Kraus operators must form an (r, d_out, d_in) stack with every size >= 1, "
            f"got shape {ks.shape}"
        )
    return ks


def kraus_defect(kraus) -> float:
    """Frobenius distance of sum K_i* K_i from the identity."""
    return float(_kraus_defects(_kraus_array(kraus)))


def _apply_kraus(kraus: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Hermitian part of sum_i K_i A K_i* for Kraus families (..., r, d_out, d_in)
    and inputs (..., d_in, d_in), the leading axes broadcast."""
    return _hermitian_part((kraus @ a[..., None, :, :] @ kraus.mT.conj()).sum(-3))


def _check_input_dim(T: QuantumChannel, a: np.ndarray) -> None:
    if a.shape[0] != T.dim_in:
        raise DimensionMismatchError(
            f"channel expects dimension {T.dim_in}, got {a.shape[0]}"
        )


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """A completely positive trace preserving map, its Kraus operators held as
    one read-only complex128 array (r, d_out, d_in): the stack the batched DPI
    pass takes.  It takes any sequence of (d_out, d_in) matrices."""

    kraus: np.ndarray

    def __post_init__(self):
        ks = _kraus_array(self.kraus)
        _require_finite(ks, "a Kraus operator")
        defect = float(_kraus_defects(ks))
        if not defect <= TP_ATOL:
            raise DomainError(
                f"Kraus operators are not trace preserving: defect {defect:.3e}"
            )
        ks.setflags(write=False)
        object.__setattr__(self, "kraus", ks)

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]


def apply_channel(T: QuantumChannel, A: MatrixLike) -> HermitianMatrix:
    """Channel action sum_i K_i A K_i*; preserves the trace."""
    a = _mat(A)
    _check_input_dim(T, a)
    return HermitianMatrix(_apply_kraus(T.kraus, a))


def pinching_channel(d: int) -> QuantumChannel:
    """Projection onto the diagonal subalgebra: Kraus operators e_i e_i*."""
    eye = np.eye(_require_count("dimension", d))
    return QuantumChannel(eye[:, :, None] * eye[:, None, :])


def random_cptp(d_in: int, d_out: int, env_dim: int, seed) -> QuantumChannel:
    """Random channel from a Haar-like isometry into C^{d_out} x C^{env_dim}.

    A seeded complex Gaussian matrix is orthonormalized by QR; slicing the
    environment index yields env_dim Kraus operators.  Deterministic for a
    fixed seed; the seed may be an integer or a sequence (campaign, trial).
    """
    d_in, d_out, env_dim = (_require_count("dimension", d) for d in (d_in, d_out, env_dim))
    if d_out * env_dim < d_in:
        raise DomainError(
            f"no isometry exists: d_out*env_dim = {d_out * env_dim} < d_in = {d_in}"
        )
    g = _complex_gaussian(np.random.default_rng(seed), (d_out * env_dim, d_in))
    return QuantumChannel(_kraus_stack(g[None], d_out, env_dim)[0])


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Real part, then imaginary part, from one draw of the rng."""
    return _complex(rng.standard_normal((2, *shape)), 0)


def _complex(raw: np.ndarray, axis: int = -3) -> np.ndarray:
    """re + 1j*im of raw standard normal draws whose axis of length 2 holds
    the real parts, then the imaginary parts; by default that of a stack
    (..., 2, rows, cols) of matrix draws."""
    re, im = np.moveaxis(raw, axis, 0)
    return re + 1j * im


def _kraus_stack(g: np.ndarray, d_out: int, env_dim: int) -> np.ndarray:
    """Kraus families (n, env_dim, d_out, d_in) of the isometries that QR makes
    of a stack g (n, d_out * env_dim, d_in) of complex Gaussian matrices: the
    environment index of each isometry's rows labels its Kraus operators."""
    V = np.linalg.qr(g)[0]
    return V.reshape(len(V), d_out, env_dim, V.shape[-1]).swapaxes(1, 2)


def choi_matrix(T: QuantumChannel) -> HermitianMatrix:
    """Choi matrix sum_ij e_i e_j* (x) T(e_i e_j*); PSD iff T is completely
    positive.  Row k of V is K_k column-stacked, so Choi = V^T conj(V)."""
    V = T.kraus.swapaxes(1, 2).reshape(len(T.kraus), -1)
    return HermitianMatrix(V.T @ V.conj())


def _dpi_slacks(spec: DivergenceSpec, kraus: np.ndarray, a: np.ndarray, b: np.ndarray) -> list:
    """check_dpi over stacks: Kraus families kraus (n, r, d_out, d_in) and
    positive definite a, b (n, d_in, d_in).

    Returns, per member, its slack, or the DegenerateTrialError that one of
    its two outputs raises when its condition number exceeds
    MAX_OUTPUT_CONDITION.  One batched eigvalsh gives every output's spectrum
    for that test, and one phi pass over the inputs and one over the kept
    outputs, as they are, give the slacks.
    """
    n = len(a)
    outputs = _apply_kraus(np.concatenate((kraus, kraus)), np.concatenate((a, b)))
    w = np.linalg.eigvalsh(outputs)
    # The positive form fails w_0 <= 0 and NaN; a kept output clears the
    # positive definite floor, PD_REL_FLOOR, by seven decades.
    sound = MAX_OUTPUT_CONDITION * w[:, 0] >= w[:, -1]
    kept = sound[:n] & sound[n:]
    before = _phi_batch(a[kept], b[kept], spec)
    after = _phi_batch(outputs[:n][kept], outputs[n:][kept], spec)
    slacks = iter((before - after).tolist())
    failing = np.where(sound[:n], np.arange(n, 2 * n), np.arange(n))
    return [
        next(slacks) if kept[k] else DegenerateTrialError(
            f"channel output is too ill-conditioned: eigenvalues {w[j, 0]:.3e} to "
            f"{w[j, -1]:.3e}, condition bound {MAX_OUTPUT_CONDITION:.0e}"
        )
        for k, j in enumerate(failing.tolist())
    ]


def check_dpi(
    spec: DivergenceSpec,
    T: QuantumChannel,
    A: MatrixLike,
    B: MatrixLike,
) -> float:
    """Data processing slack phi(A,B) - phi(T(A),T(B)); nonnegative for CPTP T.

    phi is evaluated on T(A) and T(B) as they are.  Raises
    DegenerateTrialError when either has a condition number above
    MAX_OUTPUT_CONDITION (a rank-deficient output, at any scale); such
    trials are discarded, not failed.
    """
    a, b = pd(A).mat, pd(B).mat
    _check_input_dim(T, a)
    _check_same_dim(a, b)
    (slack,) = _dpi_slacks(spec, T.kraus[None], a[None], b[None])
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

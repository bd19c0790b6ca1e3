"""Complex Hermitian / positive definite matrix types and spectral calculus.

All matrix functions go through a single primitive, the eigendecomposition:
dimensions here are small enough that correctness and auditability beat
Pade or scaling-and-squaring schemes.  The private helpers _hermitian_part,
_spectral and _roots are the package's one route for (M + M*)/2,
U diag(f(w)) U* and A^{1/2} with A^{-1/2}, on one matrix or a stack of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ComputationError, DimensionMismatchError, DomainError

HERMITIAN_ATOL = 1e-12
# Scale-aware positivity floor: min eigenvalue must exceed this fraction of
# the largest one, so well-conditioned matrices are never spuriously rejected
# whatever their overall scale.  The floor sits below the conditioning-warning
# threshold so near-singular (but numerically positive) inputs are accepted
# with a warning rather than silently rejected.
PD_REL_FLOOR = 1e-15
COND_WARN_THRESHOLD = 1e14


class ConditioningWarning(UserWarning):
    """The input is close to singular; the result may have lost precision."""


MatrixLike = Union["HermitianMatrix", np.ndarray, list]


def _as_square_complex(entries) -> np.ndarray:
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M*)/2 of a matrix or a stack of them (leading axes broadcast)."""
    return (M + np.conj(np.swapaxes(M, -1, -2))) / 2


def _spectral(U: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """U diag(fw) U* for eigenvectors U and values fw, one or a stack of them."""
    return (U * fw[..., None, :]) @ np.conj(np.swapaxes(U, -1, -2))


def _mat(x: MatrixLike) -> np.ndarray:
    """Raw complex ndarray behind a matrix wrapper (or array-like)."""
    if isinstance(x, HermitianMatrix):
        return x.mat
    return _as_square_complex(x)


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A d x d complex matrix, symmetrized to (M + M*)/2 on construction.

    Symmetrizing instead of rejecting absorbs the floating-point drift that
    iterative matrix algebra accumulates.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = _hermitian_part(_as_square_complex(self.mat))
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.mat, dtype=dtype)

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


@dataclass(frozen=True, eq=False)
class PositiveDefiniteMatrix(HermitianMatrix):
    """Hermitian matrix whose smallest eigenvalue is strictly positive."""

    def __post_init__(self):
        super().__post_init__()
        _require_pd(np.linalg.eigvalsh(self.mat))


def _extremes(w: np.ndarray) -> list:
    """(smallest, largest) eigenvalue, as floats, of each ascending spectrum in
    w, one (d,) or a stack (n, d)."""
    return [(row[0], row[-1]) for row in w.reshape(-1, w.shape[-1]).tolist()]


def _require_pd(w: np.ndarray, what: str = "matrix") -> None:
    """The positive definiteness predicate on ascending spectra, one (d,) or a
    stack (n, d): every w_0 > 0 and w_0 > PD_REL_FLOOR |w_max|.  The DomainError
    names the first member that fails it."""
    for k, (low, high) in enumerate(_extremes(w)):
        if low <= 0 or low <= PD_REL_FLOOR * abs(high):
            where = f"{what} {k} of a stack of {len(w)}" if w.ndim > 1 else what
            raise DomainError(
                f"{where} is not positive definite: min eigenvalue {low:.3e}, "
                f"max eigenvalue {high:.3e}"
            )


def herm(entries: MatrixLike) -> HermitianMatrix:
    """Construct a HermitianMatrix from any square array-like."""
    if isinstance(entries, HermitianMatrix):
        return entries
    return HermitianMatrix(np.asarray(entries))


def pd(entries: MatrixLike) -> PositiveDefiniteMatrix:
    """Construct a PositiveDefiniteMatrix from any square array-like."""
    if isinstance(entries, PositiveDefiniteMatrix):
        return entries
    return PositiveDefiniteMatrix(_mat(entries))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues in ascending order plus the unitary of eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reassemble(self) -> np.ndarray:
        return _spectral(self.eigenvectors, self.eigenvalues)


def eig_hermitian(H: MatrixLike) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, eigenvalues ascending."""
    mat = _mat(herm(H))
    try:
        w, U = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(
            f"eigendecomposition failed to converge for\n{mat!r}"
        ) from exc
    return SpectralDecomposition(eigenvalues=w, eigenvectors=U)


def _apply_spectral_raw(mat: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """U diag(fn(w)) U* of a matrix or a stack, without wrapper overhead; fn must
    be finite on every spectrum w.  fn may add leading axes to w's shape
    (several functions of each spectrum); the result keeps them."""
    w, U = np.linalg.eigh(mat)
    with np.errstate(all="ignore"):
        fw = np.asarray(fn(w), dtype=np.float64)
    bad = ~np.isfinite(fw)
    if bad.any():
        raise DomainError(
            f"function is not finite at eigenvalue(s) {np.broadcast_to(w, fw.shape)[bad].tolist()}"
        )
    return _spectral(U, fw)


def apply_spectral(A: MatrixLike, fn: Callable) -> HermitianMatrix:
    """Apply a scalar function to a matrix through its eigendecomposition.

    Args:
        A: positive definite matrix (the spectrum must lie in fn's domain).
        fn: real scalar function, vectorized over a 1-d eigenvalue array.

    Returns:
        HermitianMatrix U diag(fn(lambda)) U*; commutes with A.
    """
    return HermitianMatrix(_apply_spectral_raw(_mat(A), fn))


def _warn_if_ill_conditioned(w: np.ndarray) -> None:
    """One ConditioningWarning per ill-conditioned spectrum in w, (d,) or (n, d)."""
    for k, (low, high) in enumerate(_extremes(w)):
        if low > 0 and high / low > COND_WARN_THRESHOLD:
            where = f"member {k} of a stack: " if w.ndim > 1 else ""
            warnings.warn(
                f"{where}condition number {high / low:.3e} exceeds "
                f"{COND_WARN_THRESHOLD:.0e}; spectral results may lose precision",
                ConditioningWarning,
                stacklevel=3,
            )


def _pd_spectral(A: MatrixLike, fn: Callable) -> PositiveDefiniteMatrix:
    w, U = np.linalg.eigh(_mat(pd(A)))
    _warn_if_ill_conditioned(w)
    return PositiveDefiniteMatrix(_spectral(U, fn(w)))


def _roots(mat: np.ndarray, warn: bool = False):
    """A^{1/2} and A^{-1/2} of a positive definite matrix or stack, from one eigh;
    warn=True warns on each ill-conditioned member, as sqrt_pd does."""
    w, U = np.linalg.eigh(mat)
    if warn:
        _warn_if_ill_conditioned(w)
    r = np.sqrt(w)
    return _spectral(U, r), _spectral(U, 1.0 / r)


def sqrt_pd(A: MatrixLike) -> PositiveDefiniteMatrix:
    """Principal matrix square root of a positive definite matrix."""
    return _pd_spectral(A, np.sqrt)


def inv_sqrt_pd(A: MatrixLike) -> PositiveDefiniteMatrix:
    """Inverse matrix square root of a positive definite matrix."""
    return _pd_spectral(A, lambda w: 1.0 / np.sqrt(w))


def inv_pd(A: MatrixLike) -> PositiveDefiniteMatrix:
    """Inverse of a positive definite matrix."""
    return _pd_spectral(A, lambda w: 1.0 / w)


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape} vs {b.shape}"
        )


def loewner_leq(A: MatrixLike, B: MatrixLike, tol: float = 1e-10) -> bool:
    """True iff A <= B in the Loewner order, i.e. min eig(B - A) >= -tol."""
    a, b = _mat(A), _mat(B)
    _check_same_dim(a, b)
    return bool(np.linalg.eigvalsh(_hermitian_part(b - a))[0] >= -tol)


def frobenius_dist(A: MatrixLike, B: MatrixLike) -> float:
    """Frobenius distance ||A - B||_F."""
    a, b = _mat(A), _mat(B)
    _check_same_dim(a, b)
    return float(np.linalg.norm(a - b))


def thompson_dist(A: MatrixLike, B: MatrixLike) -> float:
    """Thompson metric max_i |log lambda_i(A^{-1/2} B A^{-1/2})|."""
    a, b = pd(A), pd(B)
    _check_same_dim(a.mat, b.mat)
    s = _roots(a.mat, warn=True)[1]
    w = np.linalg.eigvalsh(_hermitian_part(s @ b.mat @ s))
    if w[0] <= 0:
        raise DomainError("Thompson metric requires positive definite inputs")
    return float(np.max(np.abs(np.log(w))))


def is_positive_definite(H: MatrixLike, tol: float = 1e-12) -> bool:
    """True iff the smallest eigenvalue of a Hermitian matrix exceeds tol."""
    return bool(np.linalg.eigvalsh(_mat(herm(H)))[0] > tol)


def _power_divided_differences(w: np.ndarray, t: float) -> np.ndarray:
    """First divided differences of x^t over the last axis of a positive spectrum.

    For a <= b, (b^t - a^t) / (b - a) = a^(t-1) expm1(t L) / expm1(L) with
    L = log1p((b - a) / a) >= 0, and t a^(t-1) where L == 0: no difference of
    close numbers is formed, so near-ties keep full relative accuracy.
    """
    a = np.minimum(w[..., :, None], w[..., None, :])
    b = np.maximum(w[..., :, None], w[..., None, :])
    L = np.log1p((b - a) / a)
    tie = L == 0
    ratio = np.where(tie, t, np.expm1(t * L) / np.where(tie, 1.0, np.expm1(L)))
    return a ** (t - 1) * ratio


# Relative eigenvalue separation below which divided differences take their
# tie limits.  A second difference formed from the first-order table loses
# about eps / sep (relative) and its tie limit about sep, which balance near
# eps^(1/3); a first difference loses eps / sep against sep^2 for the mean of
# f', so the same threshold keeps it near eps^(2/3).
_TIE_RTOL = 1e-5


def _tied(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) <= _TIE_RTOL * np.maximum(np.abs(a), np.abs(b))


def _divided_differences(w: np.ndarray, fw: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """First divided differences (fn(w_a) - fn(w_b)) / (w_a - w_b) over the last axis.

    Pairs tied to relative separation _TIE_RTOL take the average of fn'
    at the two points.  Leading axes broadcast, so a stack of spectra gives a
    stack of tables.
    """
    den = w[..., :, None] - w[..., None, :]
    tie = _tied(w[..., :, None], w[..., None, :])
    ratio = (fw[..., :, None] - fw[..., None, :]) / np.where(tie, 1.0, den)
    return np.where(tie, (dw[..., :, None] + dw[..., None, :]) / 2, ratio)


def _second_divided_differences(
    w: np.ndarray, table: np.ndarray, dw: np.ndarray, d2w: np.ndarray
) -> np.ndarray:
    """Second divided differences f^[2](w_i, w_k, w_l), shape (..., d, d, d).

    Built from the first-order table of _divided_differences as
    (f^[1](w_i, w_k) - f^[1](w_k, w_l)) / (w_i - w_l).  Where w_i and w_l are
    tied it is (f'(w_i) - f^[1](w_i, w_k)) / (w_i - w_k), and where w_k is
    tied with them too, f''(w_i) / 2; dw and d2w hold f' and f'' on w.
    Leading axes broadcast.
    """
    wi, wk, wl = w[..., :, None, None], w[..., None, :, None], w[..., None, None, :]
    t_ik = table[..., :, :, None]
    tie_il, tie_ik = _tied(wi, wl), _tied(wi, wk)
    general = (t_ik - table[..., None, :, :]) / np.where(tie_il, 1.0, wi - wl)
    near = (dw[..., :, None, None] - t_ik) / np.where(tie_ik, 1.0, wi - wk)
    return np.where(tie_il, np.where(tie_ik, d2w[..., :, None, None] / 2, near), general)


def frechet_derivative(
    fn: Callable,
    fn_prime: Callable,
    X: MatrixLike,
    Y: MatrixLike,
) -> HermitianMatrix:
    """Derivative of the matrix function fn at X in direction Y.

    Uses the divided-difference (Daleckii-Krein) formula in the eigenbasis
    of X, with fn'(lambda) on near-degenerate eigenvalue pairs.
    """
    x, y = _mat(X), _mat(Y)
    _check_same_dim(x, y)
    w, U = np.linalg.eigh(_hermitian_part(x))
    fw = np.asarray(fn(w), dtype=np.float64)
    dw = np.asarray(fn_prime(w), dtype=np.float64)
    if not (np.isfinite(fw).all() and np.isfinite(dw).all()):
        raise DomainError("function or derivative not finite on the spectrum")
    table = _divided_differences(w, fw, dw)
    inner = U.conj().T @ y @ U
    return HermitianMatrix(U @ (table * inner) @ U.conj().T)

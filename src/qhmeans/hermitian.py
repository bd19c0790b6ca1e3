"""Complex Hermitian / positive definite matrix types and spectral calculus.

HermitianMatrix keeps the read-only Hermitian part of a square array-like,
and PositiveDefiniteMatrix (built by pd) one whose spectrum passes _require_pd;
every function here reads either type or a raw array through _mat.  All matrix
functions go through a single primitive, the eigendecomposition: dimensions
here are small enough that correctness and auditability beat Pade or
scaling-and-squaring schemes.  The private helpers _hermitian_part, _spectral
and _inv_root are the package's one route for (M + M*)/2, U diag(f(w)) U* and
A^{-1/2}, on one matrix or a stack of them; A^{1/2} is _spectral of the
eigenpairs _inv_root returns with it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ComputationError, DimensionMismatchError, DomainError

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
    _require_count("matrix dimension", mat.shape[0])
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
        mat = _as_square_complex(self.mat)
        _require_finite(mat)
        mat = _hermitian_part(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.mat, dtype=dtype, copy=copy)


@dataclass(frozen=True, eq=False)
class PositiveDefiniteMatrix(HermitianMatrix):
    """Hermitian matrix whose smallest eigenvalue is strictly positive."""

    def __post_init__(self):
        super().__post_init__()
        _require_pd(np.linalg.eigvalsh(self.mat))


def _validated_pd(mat: np.ndarray) -> PositiveDefiniteMatrix:
    """A PositiveDefiniteMatrix around a read-only Hermitian array whose
    spectrum the caller has already held to _require_pd, without a second check."""
    A = object.__new__(PositiveDefiniteMatrix)
    object.__setattr__(A, "mat", mat)
    return A


def _extremes(w: np.ndarray) -> list:
    """(smallest, largest) eigenvalue, as floats, of each ascending spectrum in
    w, one (d,) or a stack (n, d)."""
    return [(row[0], row[-1]) for row in w.reshape(-1, w.shape[-1]).tolist()]


def _require_finite(a: np.ndarray, what: str = "matrix") -> None:
    """Every entry of a matrix, or of a stack of them, is finite: one test of
    the whole array, made before any arithmetic on it can warn about inf or NaN."""
    if not np.isfinite(a).all():
        raise DomainError(f"{what} has a non-finite entry")


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


def _require_count(name: str, value, minimum: int = 1) -> int:
    """value as an int if it is an int or numpy integer, not a bool, >= minimum."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= minimum):
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def pd(entries: MatrixLike) -> PositiveDefiniteMatrix:
    """Construct a PositiveDefiniteMatrix from any square array-like."""
    if isinstance(entries, PositiveDefiniteMatrix):
        return entries
    return PositiveDefiniteMatrix(_mat(entries))


def eig_hermitian(H: MatrixLike):
    """np.linalg.eigh of the Hermitian part of H: NumPy's EighResult, whose
    fields eigenvalues (ascending) and eigenvectors also unpack as (w, U)."""
    mat = HermitianMatrix(_mat(H)).mat
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(
            f"eigendecomposition failed to converge for\n{mat!r}"
        ) from exc


def _apply_spectral_raw(mat: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """U diag(fn(w)) U* of a matrix or a stack, without wrapper overhead; fn must
    be finite on every spectrum w.  fn may add leading axes to w's shape
    (several functions of each spectrum); the result keeps them."""
    w, U = np.linalg.eigh(mat)
    return _spectral(U, _finite_values(fn, w))


def _finite_values(fn: Callable[[np.ndarray], np.ndarray], w: np.ndarray) -> np.ndarray:
    """fn(w) as float64; a DomainError names the eigenvalues where it is not finite."""
    with np.errstate(all="ignore"):
        fw = np.asarray(fn(w), dtype=np.float64)
    bad = ~np.isfinite(fw)
    if bad.any():
        raise DomainError(
            f"function is not finite at eigenvalue(s) {np.broadcast_to(w, fw.shape)[bad].tolist()}"
        )
    return fw


def _inv_root(mat: np.ndarray):
    """A^{-1/2} of a positive definite matrix or stack from one eigh, with its
    vectors U and root spectrum r = w^{1/2} (_spectral(U, r) is A^{1/2});
    warns at the caller once per ill-conditioned member."""
    w, U = np.linalg.eigh(mat)
    for k, (low, high) in enumerate(_extremes(w)):
        if low > 0 and high / low > COND_WARN_THRESHOLD:
            where = f"member {k} of a stack: " if w.ndim > 1 else ""
            warnings.warn(
                f"{where}condition number {high / low:.3e} exceeds "
                f"{COND_WARN_THRESHOLD:.0e}; spectral results may lose precision",
                ConditioningWarning,
                stacklevel=2,
            )
    r = np.sqrt(w)
    return _spectral(U, 1.0 / r), U, r


def sqrt_pd(A: MatrixLike) -> PositiveDefiniteMatrix:
    """Principal matrix square root of a positive definite matrix."""
    _, U, r = _inv_root(pd(A).mat)
    return PositiveDefiniteMatrix(_spectral(U, r))


def inv_sqrt_pd(A: MatrixLike) -> PositiveDefiniteMatrix:
    """Inverse matrix square root of a positive definite matrix."""
    return PositiveDefiniteMatrix(_inv_root(pd(A).mat)[0])


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape} vs {b.shape}"
        )


def frobenius_dist(A: MatrixLike, B: MatrixLike) -> float:
    """Frobenius distance ||A - B||_F."""
    a, b = _mat(A), _mat(B)
    _check_same_dim(a, b)
    return float(np.linalg.norm(a - b))


def thompson_dist(A: MatrixLike, B: MatrixLike) -> float:
    """Thompson metric max_i |log lambda_i(A^{-1/2} B A^{-1/2})|."""
    a, b = pd(A), pd(B)
    _check_same_dim(a.mat, b.mat)
    s = _inv_root(a.mat)[0]
    w = np.linalg.eigvalsh(_hermitian_part(s @ b.mat @ s))
    if w[0] <= 0:
        raise DomainError("Thompson metric requires positive definite inputs")
    return float(np.max(np.abs(np.log(w))))


# Relative eigenvalue separation below which divided differences take their
# tie limits.  A second difference formed from the first-order table loses
# about eps / sep (relative) and its tie limit about sep, which balance near
# eps^(1/3); a first difference loses eps / sep against sep^2 for the mean of
# f', so the same threshold keeps it near eps^(2/3).
_TIE_RTOL = 1e-5


def _pair_denominators(w: np.ndarray):
    """The differences w_a - w_b over the last axis, shape (..., d, d), with the
    pairs tied to relative separation _TIE_RTOL marked and their denominators
    set to 1: (tie, den)."""
    diff = w[..., :, None] - w[..., None, :]
    size = np.abs(w)
    tie = np.abs(diff) <= _TIE_RTOL * np.maximum(size[..., :, None], size[..., None, :])
    return tie, np.where(tie, 1.0, diff)


def _divided_differences(w: np.ndarray, fw: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """First divided differences (fn(w_a) - fn(w_b)) / (w_a - w_b) over the last axis.

    Pairs tied to relative separation _TIE_RTOL take the average of fn'
    at the two points.  Leading axes broadcast, so a stack of spectra gives a
    stack of tables.
    """
    tie, den = _pair_denominators(w)
    ratio = (fw[..., :, None] - fw[..., None, :]) / den
    return np.where(tie, (dw[..., :, None] + dw[..., None, :]) / 2, ratio)


def _second_divided_differences(
    w: np.ndarray, table: np.ndarray, dw: np.ndarray, d2w: np.ndarray
) -> np.ndarray:
    """Second divided differences f^[2](w_i, w_k, w_l), shape (..., d, d, d).

    Built from the first-order table of _divided_differences as
    (f^[1](w_i, w_k) - f^[1](w_k, w_l)) / (w_i - w_l).  Where w_i and w_l are
    tied it is (f'(w_i) - f^[1](w_i, w_k)) / (w_i - w_k), and where w_k is
    tied with them too, f''(w_i) / 2; dw and d2w hold f' and f'' on w.
    Ties and denominators are decided once per pair, on (..., d, d), and
    broadcast to the triples.  Leading axes broadcast.
    """
    tie, den = _pair_denominators(w)
    general = (table[..., :, :, None] - table[..., None, :, :]) / den[..., :, None, :]
    near = np.where(tie, d2w[..., :, None] / 2, (dw[..., :, None] - table) / den)
    return np.where(tie[..., :, None, :], near[..., :, :, None], general)


def frechet_derivative(
    fn: Callable,
    fn_prime: Callable,
    X: MatrixLike,
    Y: MatrixLike,
) -> HermitianMatrix:
    """Derivative of the matrix function fn at X in direction Y.

    Uses the divided-difference (Daleckii-Krein) formula in the eigenbasis
    of X, with fn'(lambda) on near-degenerate eigenvalue pairs.  X and Y are
    read through their Hermitian parts: the derivative is along (Y + Y*)/2.
    """
    x, y = _mat(X), _mat(Y)
    _check_same_dim(x, y)
    w, U = np.linalg.eigh(_hermitian_part(x))
    table = _divided_differences(w, _finite_values(fn, w), _finite_values(fn_prime, w))
    inner = U.conj().T @ y @ U
    return HermitianMatrix(U @ (table * inner) @ U.conj().T)

"""Kubo-Ando means and the divergences built from them.

The central quantity is phi(A, B) = Tr((1-c) A + c B - A sigma B) for a mean
sigma with weight c.  Three algebraically equivalent evaluation paths are
provided (direct, through g, through an operator Bregman divergence); tests
hold them to pairwise agreement, so a regression in any one path is caught
by the others.  The direct path evaluates stacks of pairs in one batched
pass (_means, _phi_batch), and phi and kubo_ando_mean are its one-pair
calls; the g and Bregman paths keep their own unbatched route.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import CommutativityError, DimensionMismatchError, DomainError
from .generators import DivergenceSpec, Generator, _require_mean_normalized
from .hermitian import (
    HermitianMatrix,
    MatrixLike,
    PositiveDefiniteMatrix,
    _apply_spectral_raw,
    _check_same_dim,
    _hermitian_part,
    _mat,
    _require_pd,
    _roots,
    frechet_derivative,
    pd,
)

COMMUTE_RTOL = 1e-8


def _middle_term(A: PositiveDefiniteMatrix, B: MatrixLike):
    """A^{1/2} and A^{-1/2} B A^{-1/2}, the congruence that normalizes the
    first slot, from one eigendecomposition of A."""
    root, s = _roots(A.mat, warn=True)
    b = _mat(B)
    _check_same_dim(s, b)
    return root, _hermitian_part(s @ b @ s)


def _means(a: np.ndarray, b: np.ndarray, f: Callable, check_pd: bool = True) -> np.ndarray:
    """Hermitian parts of A_k sigma B_k over stacks a, b of shape (n, d, d).

    f is the mean's generator, applied to the (n, d) spectra of the middles
    A^{-1/2} B A^{-1/2}; it may return shape (..., n, d), several generators
    per pair, for a (..., n, d, d) stack of means.  One batched eigh of the A
    stack gives A^{+-1/2} (warning on each ill-conditioned member), one of the
    middles gives their spectra, and one batched eigvalsh holds every mean to
    the PositiveDefiniteMatrix predicate; check_pd=False leaves that test to
    the caller.  f is not checked for f(1) = 1.
    """
    root, s = _roots(a, warn=True)
    means = _hermitian_part(root @ _apply_spectral_raw(_hermitian_part(s @ b @ s), f) @ root)
    if check_pd:
        _require_pd(np.linalg.eigvalsh(means).reshape(-1, means.shape[-1]), "mean")
    return means


def kubo_ando_mean(A: MatrixLike, B: MatrixLike, gen: Generator) -> PositiveDefiniteMatrix:
    """Operator mean A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}.

    Args:
        A, B: positive definite matrices of equal dimension.
        gen: a mean-normalized generator (f(1) = 1, weight in (0,1)).
    """
    a, b = pd(A).mat, pd(B).mat
    _check_same_dim(a, b)
    _require_mean_normalized(gen)
    # The PositiveDefiniteMatrix constructor applies the predicate _means skips.
    return PositiveDefiniteMatrix(_means(a[None], b[None], gen.f, check_pd=False)[0])


def _phi_batch(a: np.ndarray, b: np.ndarray, spec: DivergenceSpec) -> np.ndarray:
    """phi(A_k, B_k) over stacks a, b of shape (n, d, d), from one _means call.

    The caller holds every member to the positive definite predicate.
    """
    mean = _means(a, b, spec.generator.f)
    return ((1 - spec.c) * _trace(a) + spec.c * _trace(b) - _trace(mean)).real


def _trace(stack: np.ndarray) -> np.ndarray:
    return stack.diagonal(0, -2, -1).sum(-1)


def phi(A: MatrixLike, B: MatrixLike, spec: DivergenceSpec) -> float:
    """Divergence Tr((1-c) A + c B - A sigma B); nonnegative, zero iff A = B."""
    a, b = pd(A).mat, pd(B).mat
    _check_same_dim(a, b)
    return float(_phi_batch(a[None], b[None], spec)[0])


def g_of(spec: DivergenceSpec, x):
    """Scalar g(x) = (1-c) + c x - f(x); vanishes at 1, nonnegative on (0,inf)."""
    xs = np.asarray(x, dtype=np.float64)
    if np.any(xs <= 0):
        raise DomainError("g is only defined on (0, infinity)")
    vals = (1 - spec.c) + spec.c * xs - spec.generator.f(xs)
    return float(vals) if xs.ndim == 0 else vals


def phi_via_g(A: MatrixLike, B: MatrixLike, spec: DivergenceSpec) -> float:
    """Evaluate phi as Tr[A g(A^{-1/2} B A^{-1/2})]."""
    return maximal_f_divergence(A, B, lambda w: g_of(spec, w))


def maximal_f_divergence(A: MatrixLike, B: MatrixLike, f: Callable) -> float:
    """Tr A f(A^{-1/2} B A^{-1/2}) for an arbitrary scalar f.

    No sign guarantee: with f(x) = x log x this is negative at (I, I/e), and
    with f(x) = x^2 it is Tr A > 0 on the diagonal, so it only becomes a
    genuine divergence for f of the g form above.
    """
    A = pd(A)
    fmat = _apply_spectral_raw(_middle_term(A, pd(B))[1], f)
    return float(np.trace(A.mat @ fmat).real)


def operator_bregman(
    h: Callable,
    h_prime: Callable,
    X: MatrixLike,
    Y: MatrixLike,
) -> HermitianMatrix:
    """Operator-valued Bregman divergence h(X) - h(Y) - Dh(Y)[X - Y].

    Dh(Y) is evaluated by divided differences in the eigenbasis of Y; the
    result is positive semidefinite for operator convex h.
    """
    X, Y = pd(X), pd(Y)
    _check_same_dim(X.mat, Y.mat)
    hX = _apply_spectral_raw(X.mat, h)
    hY = _apply_spectral_raw(Y.mat, h)
    dh = frechet_derivative(h, h_prime, Y, X.mat - Y.mat).mat
    return HermitianMatrix(hX - hY - dh)


def phi_via_bregman(A: MatrixLike, B: MatrixLike, spec: DivergenceSpec) -> float:
    """Evaluate phi as Tr[A H_h(A^{-1/2} B A^{-1/2}, I)] with h = -f."""
    A = pd(A)
    gen = spec.generator
    middle = PositiveDefiniteMatrix(_middle_term(A, pd(B))[1])
    eye = PositiveDefiniteMatrix(np.eye(A.dim))
    breg = operator_bregman(
        lambda w: -np.asarray(gen.f(w), dtype=np.float64),
        lambda w: -np.asarray(gen.f_prime(w), dtype=np.float64),
        middle,
        eye,
    )
    return float(np.trace(A.mat @ breg.mat).real)


def commutative_phi(A: MatrixLike, B: MatrixLike, gen: Generator) -> float:
    """Divergence Tr[(f(1)-f'(1)) A + f'(1) B - A f(A^{-1} B)] for commuting
    positive definite A, B and a strictly concave C^1 generator.

    For the log generator this is the relative entropy
    Tr(A (log A - log B) + B - A).
    """
    A, B = pd(A), pd(B)
    _check_same_dim(A.mat, B.mat)
    comm = np.linalg.norm(A.mat @ B.mat - B.mat @ A.mat)
    bound = COMMUTE_RTOL * np.linalg.norm(A.mat) * np.linalg.norm(B.mat)
    if comm > bound:
        raise CommutativityError(
            f"inputs do not commute: ||AB - BA||_F = {comm:.3e} exceeds {bound:.3e}"
        )
    f1 = float(np.asarray(gen.f(1.0), dtype=np.float64))
    fp1 = float(np.asarray(gen.f_prime(1.0), dtype=np.float64))
    val = (f1 - fp1) * np.trace(A.mat) + fp1 * np.trace(B.mat)
    # For commuting arguments A^{-1} B equals the Hermitian congruence
    # A^{-1/2} B A^{-1/2}, so Tr A f(A^{-1} B) is the maximal f-divergence.
    return float(val.real) - maximal_f_divergence(A, B, gen.f)


def classical_hellinger(p, q) -> float:
    """Squared Hellinger distance (1/2) sum (sqrt(p_i) - sqrt(q_i))^2."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise DimensionMismatchError("probability vectors must be equal-length 1-d")
    if np.any(p < 0) or np.any(q < 0):
        raise DomainError("probability vectors must be nonnegative")
    for name, v in (("p", p), ("q", q)):
        if abs(v.sum() - 1.0) > 1e-10:
            raise DomainError(f"{name} sums to {v.sum()!r}, expected 1")
    return float(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))

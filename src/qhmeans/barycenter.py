"""Barycenters on the positive definite cone and the associated mean equations.

The barycenter of matrices A_1..A_m with weights w under the divergence phi
is the unique minimizer of X -> sum_j w_j phi(A_j, X).  Its gradient and
Hessian are the exact first and second Daleckii-Krein (divided-difference)
derivatives of f in the eigenbasis of each M_j = C_j^{-1} X C_j^{-*}, with
A_j = C_j C_j* the member's Cholesky factorization (congruent to
A_j^{-1/2} X A_j^{-1/2}).  So the damped Newton solver takes one spectral
pass per point, one batched eigh of the M_j, for the cone test (X is
positive definite exactly when every M_j is), objective, gradient and
Hessian, and the stationarity residual differentiates exactly the objective
it minimizes.  The power-mean equation and the noncommutative mean equation
share one batched fixed-point map,
T(X) = L S L* with S = sum_j w_j f'(M_j^{-1}) / f'(1) and
M_j = L^{-1} A_j L^{-*}, where X = L L* is the Cholesky factorization of the
iterate.  Kubo-Ando means are congruence-invariant (the transformer
equality), so this is the map X^{1/2} S' X^{1/2} on M'_j = X^{-1/2} A_j X^{-1/2}
without a square root.  The solver tests the plain map's residual
||T(X) - X|| / ||X||.  Each step proposes at most one point and falls back
to the plain map T(X): first X #_beta T(X) = L S^beta L* with
beta = 1/(1-t) when f = x^t, which solves commuting and two-member
ensembles in one step, and later Newton points in the frame of L, on the
map's Jacobian, a first Daleckii-Krein derivative built from the same
eigendecompositions of the M_j.  For commuting inputs all of these agree,
and the gap between the barycenter and the mean-equation solution
quantifies noncommutativity.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonConvergenceError
from .generators import DivergenceSpec, GeometricGenerator, Generator, LogGenerator, MeasureGenerator
from .hermitian import (
    HermitianMatrix,
    MatrixLike,
    PositiveDefiniteMatrix,
    _apply_spectral_raw,
    _hermitian_part,
    _mat,
    _require_count,
    _require_finite,
    _require_pd,
    _validated_pd,
    frobenius_dist,
    pd,
    thompson_dist,
)
from .measures import (
    _first_differences, _map_differences, _second_differences, f_mu, power_exponent
)

# Newton step search: the smallest step tried and the factor each rejected
# trial shrinks the step by.  2^-40 is the smallest power of two at which
# 1 - 1e-4 s is still below 1 in float64 (at 2^-41 it rounds to 1), so every
# step tried demands a strict decrease of the residual.
_MIN_STEP = 2.0**-40
_SHRINK = 0.5


@dataclass(frozen=True, eq=False)
class WeightedEnsemble:
    """Positive definite matrices A_1..A_m with positive weights summing to 1.

    The members, any square array-likes, are validated together: one
    Hermitian part and one eigvalsh of their (m, d, d) stack.  That read-only
    stack is the ensemble's one copy of them: stack[j] is A_j's Hermitian part.
    """

    matrices: InitVar[Sequence[MatrixLike]]
    weights: np.ndarray
    stack: np.ndarray = field(init=False)

    def __post_init__(self, matrices):
        arrays = [_mat(A) for A in matrices]
        if not arrays:
            raise DomainError("an ensemble needs at least one matrix")
        dim = arrays[0].shape[0]
        if any(a.shape[0] != dim for a in arrays):
            raise DimensionMismatchError("all ensemble matrices must share a dimension")
        stack = np.stack(arrays)
        _require_finite(stack, "an ensemble member")
        stack = _hermitian_part(stack)
        _require_pd(np.linalg.eigvalsh(stack), "member")
        stack.setflags(write=False)
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(stack),):
            raise DimensionMismatchError(
                f"{len(stack)} matrices but weight vector of shape {w.shape}"
            )
        # Positive forms, so a NaN weight fails them.
        if not (w > 0).all():
            raise DomainError("ensemble weights must be strictly positive")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise DomainError(f"ensemble weights sum to {w.sum()!r}, expected 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "stack", stack)

    @property
    def dim(self) -> int:
        return self.stack.shape[-1]

    def arithmetic_mean(self) -> PositiveDefiniteMatrix:
        return PositiveDefiniteMatrix(self._mean_array())

    def _mean_array(self) -> np.ndarray:
        """sum_j w_j A_j of the stack, summed in member order.

        lambda_min of the sum is at least sum_j w_j lambda_min(A_j) and its
        lambda_max at most sum_j w_j lambda_max(A_j), so its
        lambda_min / lambda_max is at least the smallest such ratio of a
        member: it passes the positive definite test whenever the validated
        members do.
        """
        return sum(w * A for w, A in zip(self.weights, self.stack))


def ensemble(matrices: Sequence[MatrixLike], weights: Sequence[float]) -> WeightedEnsemble:
    """Convenience constructor accepting raw arrays."""
    return WeightedEnsemble(tuple(matrices), np.asarray(weights, dtype=np.float64))


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 500
    residual_tol: float = 1e-8
    initial_guess: Optional[PositiveDefiniteMatrix] = None

    def __post_init__(self):
        # Positive forms, so a NaN tolerance fails them.
        _require_count("max_iterations", self.max_iterations)
        if not 0 < self.residual_tol < np.inf:
            raise DomainError("residual_tol must be finite and positive")


@dataclass(frozen=True, eq=False)
class SolverReport:
    """Outcome of a solver run.

    objective_trace holds per-iteration objective values for the Newton
    solver and relative map residuals ||T(X) - X||_F / ||X||_F for the
    fixed-point solvers.
    """

    solution: PositiveDefiniteMatrix
    iterations: int
    final_residual: float
    objective_trace: list
    converged: bool


class _Point(NamedTuple):
    """A point X and its spectral pass (_Workspace.evaluate)."""

    X: np.ndarray
    e: np.ndarray  # (m, d) spectra of the M_j = C_j^{-1} X C_j^{-*} = V_j diag(e_j) V_j*
    Wh: np.ndarray  # W_j* = V_j* C_j^{-1}
    Wc: np.ndarray  # conj(W_j*) = W_j^T
    K: np.ndarray  # K_j = (C_j V_j)* (C_j V_j)
    table: np.ndarray  # f^[1](e_ji, e_jk)
    G: np.ndarray  # the gradient
    res: float  # ||G||_F


class _Workspace:
    """Per-solve precomputation shared by objective, gradient and Hessian.

    The members are factored once, A_j = C_j C_j*.  Each evaluate call is one
    spectral pass: the batched eigh of the M_j and from it the cone test, the
    gradient and its norm.  The workspace keeps no point: the solver holds its
    _Point and hands it to objective, ray_start and hessian, which read its pass.
    """

    def __init__(self, ens: WeightedEnsemble, spec: DivergenceSpec):
        self.mu = spec.generator.mu
        self.power = power_exponent(self.mu)
        self.weights = np.ascontiguousarray(ens.weights)
        C = np.linalg.cholesky(ens.stack)
        inv = np.linalg.inv(C)
        self.inv_rows = inv.reshape(-1, ens.dim)  # the C_j^{-1} X as one product
        self.inv_factors_h = np.conj(np.swapaxes(inv, -1, -2))
        # [C_j^{-1} | C_j*]: V_j* times it is [W_j* | (C_j V_j)*], one product
        self.frames = np.concatenate((inv, np.conj(np.swapaxes(C, -1, -2))), axis=-1)
        self.const = (1 - spec.c) * float(self.weights @ ens.stack.trace(0, 1, 2).real)
        self.c = spec.c
        self.c_eye = spec.c * np.eye(ens.dim, dtype=np.complex128)

    def evaluate(self, X: np.ndarray) -> Optional[_Point]:
        """The spectral pass at a Hermitian X, or None if X fails the cone test,
        e_j0 > 0: by congruence X is positive definite exactly when every M_j
        is.  eigh reads one triangle of M_j, so no Hermitian part is taken."""
        m, d, _ = self.inv_factors_h.shape
        e, V = np.linalg.eigh((self.inv_rows @ X).reshape(m, d, d) @ self.inv_factors_h)
        if not (e[:, 0] > 0).all():  # the positive form fails NaN
            return None
        R = np.conj(V.swapaxes(-1, -2)) @ self.frames
        Wh, CVh = R[..., :d], R[..., d:]
        K = CVh @ np.conj(CVh.swapaxes(-1, -2))
        return self._with_gradient(X, e, Wh, K, _first_differences(self.mu, e))

    def _with_gradient(self, X, e, Wh, K, table) -> _Point:
        """The point with G = c I - sum_j w_j W_j (table_j o K_j) W_j* and ||G||_F."""
        Wc = np.conj(Wh)
        acc = _member_sum(Wc, ((self.weights[:, None, None] * table) * K) @ Wh)
        G = _hermitian_part(self.c_eye - acc)
        return _Point(X, e, Wh, Wc, K, table, G, float(np.sqrt(np.vdot(G, G).real)))

    def point(self, X: np.ndarray) -> _Point:
        """evaluate(X), raising DomainError if X fails the cone test."""
        p = self.evaluate(X)
        if p is None:
            raise DomainError("the point fails the cone test: some M_j has an eigenvalue <= 0")
        return p

    def _mean_traces(self, p: _Point) -> float:
        """sum_j w_j Tr(A_j sigma X), with A_j sigma X = C_j f(M_j) C_j*, so
        Tr(A_j sigma X) = Tr f(M_j) C_j* C_j = sum_i f(e_ji) (K_j)_ii."""
        means = (f_mu(self.mu, p.e) * p.K.diagonal(0, 1, 2).real).sum(axis=1)
        return float(self.weights @ means)

    def objective(self, p: _Point) -> float:
        return self.const + self.c * float(np.trace(p.X).real) - self._mean_traces(p)

    def ray_start(self, p: _Point) -> _Point:
        """The minimizer a* X of the objective on the ray {a X, a > 0} through
        X = p.X, for f = x^t.

        x^t makes sigma homogeneous, A sigma (a X) = a^t (A sigma X), so along
        the ray F(a X) = const + t a Tr X - a^t S with S = sum_j w_j Tr(A_j sigma X)
        (c = t for x^t), smallest at a* = (S / Tr X)^(1/(1-t)).  For proportional
        members A_j = l_j A and X their arithmetic mean, a* X is the barycenter
        (sum_j w_j l_j^(1-t))^(1/(1-t)) A.  M_j(a X) = a M_j(X), so the pass at X
        carries over: e scales by a, the f^[1] table by a^(t-1), and W_j and
        K_j are unchanged.
        """
        t = self.power
        a = (self._mean_traces(p) / float(np.trace(p.X).real)) ** (1 / (1 - t))
        return self._with_gradient(a * p.X, a * p.e, p.Wh, p.K, a ** (t - 1) * p.table)

    def hessian(self, pt: _Point) -> np.ndarray:
        """The d^2 x d^2 matrix of H -> DG(X)[H] on row-major vec(H).

        DG(X)[H] = -sum_j w_j W_j D^2f[K_j, W_j* H W_j] W_j* with
        D^2f[K, L]_il = sum_k f^[2](e_i, e_k, e_l) (K_ik L_kl + L_ik K_kl).
        Entry ((p, q), (a, b)) of the first term's matrix is
        sum_{j,l} w_j (Y_jl)_pa (Z_jl)_qb, with Y_jl = W_j (f^[2](., ., e_l) o K_j) W_j*
        and (Z_jl)_qb = conj(W_ql) W_bl: one product over the stacked (j, l).
        The second term's entry is the conjugate of the first's at ((q, p), (b, a)).
        Y_jl for every l takes two (d x d)(d x d^2) products per member.
        """
        m, d = pt.e.shape
        # Two (m, d, d, d) buffers, A and B, take the products in turn: with a
        # fresh block per product a d = 16, m = 4 solve took 2210 minor page
        # faults, against 2018.
        # A: F[j, i, l, k] = f^[2](e_i, e_k, e_l) (K_j)_ik, so W_j F_j is one
        # product over i, and its result read as (d^2, d) one product over k.
        f2 = _second_differences(self.mu, pt.e, pt.table)
        A = np.multiply(f2.swapaxes(-1, -2), pt.K[:, :, None, :], order="C")
        B = pt.Wc.swapaxes(-1, -2) @ A.reshape(m, d, d * d)
        np.matmul(B.reshape(m, d * d, d), pt.Wh, out=A.reshape(m, d * d, d))
        # B: -w_j Y_jl as [j, l, p, a], so T's product reads a view (T is the
        # first term's negative); then A: Z
        Y, Z = B.reshape(m, d, d, d), A.reshape(m, d, d, d)
        np.multiply(Z.swapaxes(1, 2), -self.weights[:, None, None, None], out=Y)
        np.multiply(pt.Wh[..., :, None], pt.Wc[..., None, :], out=Z)
        T = (Y.reshape(m * d, d * d).T @ Z.reshape(m * d, d * d)).reshape(d, d, d, d)
        H = np.conjugate(T.transpose(2, 0, 3, 1), order="C")
        H += T.transpose(0, 2, 1, 3)
        return H.reshape(d * d, d * d)


def objective(ens: WeightedEnsemble, X: MatrixLike, spec: DivergenceSpec) -> float:
    """Weighted divergence sum F(X) = sum_j w_j phi(A_j, X)."""
    ws = _Workspace(ens, spec)
    return ws.objective(ws.point(_as_state(ens, X)))


def _as_state(ens: WeightedEnsemble, X: MatrixLike) -> np.ndarray:
    Xm = _mat(pd(X))
    if Xm.shape[0] != ens.dim:
        raise DimensionMismatchError(
            f"ensemble dimension {ens.dim} vs argument dimension {Xm.shape[0]}"
        )
    return np.ascontiguousarray(Xm.astype(np.complex128))


def euclidean_gradient(
    ens: WeightedEnsemble,
    X: MatrixLike,
    spec: DivergenceSpec,
    quad_order: Optional[int] = None,
) -> HermitianMatrix:
    """Euclidean gradient G of the barycenter objective at X.

    G = c I - sum_j w_j A_j^{-1/2} Df(M_j)[A_j] A_j^{-1/2} with
    M_j = A_j^{-1/2} X A_j^{-1/2}, evaluated exactly (_Workspace) through the
    divided-difference table of f on its spectrum: in closed form for x^t (the
    geometric, arcsine and Beta-type generators) and as a finite sum over the
    atoms of any other representing measure.  quad_order is ignored and
    accepted only for callers that still pass it positionally.
    The directional derivative in any Hermitian direction Y is Tr(G Y).
    """
    return HermitianMatrix(_Workspace(ens, spec).point(_as_state(ens, X)).G)


def _report(points: list, iterations: int, trace: list, tol: float) -> SolverReport:
    """The report on the latest of a solver's points (X, res), each exactly
    Hermitian and past its cone test (or a start without a pass, with
    res = inf), whose X passes the PositiveDefiniteMatrix
    predicate on one eigvalsh (DomainError if none does); X is wrapped
    read-only, without the constructor's copy and Hermitian part.  Near the
    cone's boundary the cone test can pass an X that the predicate refuses.
    A solver moves on only from a point with res > tol, so an earlier point
    reports unconverged."""
    for k, (X, res) in reversed(list(enumerate(points))):
        try:
            _require_pd(np.linalg.eigvalsh(X))
        except DomainError:
            if k:
                continue
            raise
        X.setflags(write=False)
        return SolverReport(_validated_pd(X), iterations, res, trace, res <= tol)


def _initial_state(ens: WeightedEnsemble, opts: SolverOptions) -> np.ndarray:
    if opts.initial_guess is not None:
        return _as_state(ens, opts.initial_guess)
    return ens._mean_array()


def solve_barycenter(
    ens: WeightedEnsemble,
    spec: DivergenceSpec,
    opts: Optional[SolverOptions] = None,
) -> SolverReport:
    """Minimize sum_j w_j phi(A_j, X) by damped Newton on the stationarity equation.

    The solve starts at opts.initial_guess when one is given.  Otherwise it
    starts at the arithmetic mean A of the members, or, when f = x^t, at the
    multiple of A that minimizes the objective on the ray through it
    (_Workspace.ray_start), which is the barycenter when the members are
    proportional and costs no eigendecomposition beyond the one at A.
    Each iteration solves H P = -G for the exact Hessian H and gradient G at
    X, then halves the step s from 1 down to 2^-40 until X + sP passes the
    cone test of its spectral pass (_Workspace.evaluate) and
    ||G(X + sP)|| <= (1 - 1e-4 s) ||G(X)||; along P the squared gradient norm
    falls at rate 2 ||G||^2, so that search ends short of rounding level.
    At every s tried the factor is below 1 in float64, so the test demands a
    strict decrease.  Steps are judged on the gradient, not on the
    objective, whose rounding floor lies far above the gradient's.
    Convergence is declared on the stationarity residual; a singular Hessian,
    a step that is not finite or an exhausted step search ends the solve
    unconverged.  Non-convergence is reported, not raised; a solve that runs
    X to the cone's boundary reports its latest point that passes the
    PositiveDefiniteMatrix predicate, unconverged (_report).  A start that
    fails the cone test is reported at once, with an infinite residual.
    """
    opts = opts or SolverOptions()
    ws = _Workspace(ens, spec)
    start = _initial_state(ens, opts)
    point = ws.evaluate(start)
    if point is None:
        return _report([(start, np.inf)], 0, [], opts.residual_tol)
    if opts.initial_guess is None and ws.power is not None:
        point = ws.ray_start(point)
    trace = [ws.objective(point)]
    points = [(point.X, point.res)]
    for _ in range(opts.max_iterations):
        if point.res <= opts.residual_tol:
            break
        try:
            P = np.linalg.solve(ws.hessian(point), -point.G.reshape(-1))
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(P).all():
            break
        P = _hermitian_part(P.reshape(point.G.shape))
        s = 1.0
        while s >= _MIN_STEP:
            trial = ws.evaluate(point.X + s * P)
            if trial is not None and trial.res <= (1 - 1e-4 * s) * point.res:
                break
            s *= _SHRINK
        else:
            break
        point = trial
        points.append((point.X, point.res))
        trace.append(ws.objective(point))
    return _report(points, len(trace) - 1, trace, opts.residual_tol)


def _half_power(S: np.ndarray, beta: float) -> np.ndarray:
    """S^(beta/2) of a positive definite S: by products when beta/2 is a whole
    number (beta = 2 at t = 1/2, beta = 4 at t = 3/4), else from one eigh."""
    k = beta / 2
    if k.is_integer():
        return np.linalg.matrix_power(S, int(k))
    return _apply_spectral_raw(S, lambda w: w**k)


def _member_sum(Vc: np.ndarray, R: np.ndarray) -> np.ndarray:
    """sum_j V_j R_j as one (d, m d) @ (m d, d) product, from C-contiguous
    (m, d, d) stacks of the V_j^T (Vc) and of the R_j."""
    m, d, _ = Vc.shape
    return Vc.reshape(m * d, d).T @ R.reshape(m * d, d)


def _map_pass(X: np.ndarray, stack: np.ndarray, weights: np.ndarray, f_prime):
    """The map's pass at X: (X, L, S, y, Vc, Vh, T(X), ||T(X) - X||_F / ||X||_F)
    with X = L L* (Cholesky) and S = sum_j weights_j f'(M_j^{-1}) for
    M_j = L^{-1} A_j L^{-*} = V_j diag(e_j) V_j*, from one batched eigh, with
    y = 1/e and the C-contiguous stacks of the V_j^T (Vc) and V_j* (Vh).
    weights is (m, 1) and carries the 1/f'(1) factor.  None if X fails the
    Cholesky test or some e_j0 <= 0 (the positive form fails NaN)."""
    try:
        L = np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        return None
    Li = np.linalg.inv(L)
    e, V = np.linalg.eigh(Li @ stack @ np.conj(Li.T))
    if not (e[:, 0] > 0).all():
        return None
    y = 1.0 / e
    Vc = np.ascontiguousarray(np.swapaxes(V, -1, -2))
    Vh = np.conj(Vc)
    S = _member_sum(Vc, (weights * np.asarray(f_prime(y), dtype=np.float64))[..., None] * Vh)
    U = _hermitian_part(L @ S @ np.conj(L.T))
    return X, L, S, y, Vc, Vh, U, float(np.linalg.norm(U - X) / max(np.linalg.norm(X), 1e-300))


def _map_jacobian(Vc: np.ndarray, Vh: np.ndarray, table: np.ndarray):
    """Z -> sum_j V_j (table_j o (V_j* Z V_j)) V_j*, the Daleckii-Krein operator;
    Z is shared, so the V_j* Z are one (m d, d) @ (d, d) product."""
    m, d, _ = Vh.shape
    V = np.swapaxes(Vc, -1, -2)
    rows = Vh.reshape(m * d, d)
    return lambda Z: _member_sum(Vc, (table * ((rows @ Z).reshape(m, d, d) @ V)) @ Vh)


def _newton_point(X: np.ndarray, L: np.ndarray, S: np.ndarray, D) -> Optional[np.ndarray]:
    """X + L E L* for the E in span{r, (I - D) r}, r = S - I, that minimizes
    ||r - (I - D) E||_F; None if that space is degenerate."""
    r = S - np.eye(S.shape[0])
    p1 = r - D(r)
    p2 = p1 - D(p1)
    (g11, g12, c1), (_, g22, c2) = [[np.vdot(p, q).real for q in (p1, p2, r)] for p in (p1, p2)]
    det = g11 * g22 - g12 * g12
    if det > 1e-12 * g11 * g22:
        E = ((c1 * g22 - c2 * g12) * r + (c2 * g11 - c1 * g12) * p1) / det
    elif g11 > 0:  # p2 parallel to p1, as for 1x1 members: the 1-D solve
        E = (c1 / g11) * r
    else:
        return None
    return _hermitian_part(X + L @ E @ np.conj(L.T))


def solve_power_mean(
    ens: WeightedEnsemble,
    t: float,
    opts: Optional[SolverOptions] = None,
) -> SolverReport:
    """Weighted power mean of order 1-t: the fixed point of
    X = sum_j w_j (X #_{1-t} A_j).

    This is the mean equation of GeometricGenerator(t), solved by
    solve_mean_equation; GeometricGenerator(t) refuses t outside (0,1).
    """
    return solve_mean_equation(ens, GeometricGenerator(t), opts)


def solve_mean_equation(
    ens: WeightedEnsemble,
    spec: DivergenceSpec | Generator,
    opts: Optional[SolverOptions] = None,
) -> SolverReport:
    """Solve X = (1/c) sum_j w_j X^{1/2} f'((X^{-1/2} A_j X^{-1/2})^{-1}) X^{1/2}.

    This is the commutative stationarity equation read noncommutatively; for
    the square-root generator it reduces to the order-1/2 power mean equation.
    Accepts a DivergenceSpec, whose c is f'(1), or the LogGenerator, whose
    equation collapses to the weighted arithmetic mean (c = f'(1) = 1).  Any
    other generator is wrapped in a DivergenceSpec, so a duck-typed one raises
    UnsupportedGeneratorError, and a MeasureGenerator with f affine to rounding
    (whose map is the identity, solved by every X) DomainError.  The Cholesky
    factor L of X = L L* stands in for X^{1/2}, which leaves the right side
    unchanged: T(X) = L S L*.  A point has a pass (_map_pass) when it passes
    the Cholesky test and every M_j = L^{-1} A_j L^{-*} is positive definite.

    Iteration k stops once ||T(X_k) - X_k||_F / ||X_k||_F <= residual_tol or
    at the iteration cap, and returns X_k either way; objective_trace holds
    that residual per iteration.  Otherwise it proposes at most one point:
    at k = 1 when f = x^t, X_1 #_beta T(X_1) = G G* with G = L S^(beta/2),
    beta = 1/(1-t), the power mean of order 1-t of the M_j carried back by L,
    exact for commuting members and so, by congruence with A_1^{-1/2}, for
    any two; later, for a MeasureGenerator, the Newton point X_k + L E L* for
    (I - D) E = S - I (_newton_point), with D the map's Jacobian in the frame
    of L: T(L (I + Z) L*) = L (S + D[Z]) L* + O(Z^2), where
    D[Z] = sum_j w_j V_j (Phi_j o (V_j* Z V_j)) V_j* (_map_jacobian) takes
    the V_j of the same eigh and Phi_j the divided differences
    h^[1](1/e_ji, 1/e_jk) of h(y) = y f'(y) / f'(1), which is f for x^t.
    The next point is the first of (the proposal, the plain T(X_k)) that has
    a pass; the plain map contracts (by t in the Thompson metric for x^t)
    where a proposal can overshoot.  If neither has one, the solve ends
    unconverged at X_k.  A start without a pass is reported at once,
    unconverged, with an infinite residual.
    """
    opts = opts or SolverOptions()
    if isinstance(spec, LogGenerator):
        gen, c = spec, float(spec.f_prime(1.0))
    else:
        spec = spec if isinstance(spec, DivergenceSpec) else DivergenceSpec(spec)
        gen, c = spec.generator, spec.c
    mu = gen.mu if isinstance(gen, MeasureGenerator) else None
    t = power_exponent(mu)
    weights = ens.weights[:, None] / c  # the 1/f'(1) factor folded in
    member_weights = ens.weights[:, None, None]  # _map_differences divides by f'(1)
    start = _initial_state(ens, opts)
    point = _map_pass(start, ens.stack, weights, gen.f_prime)
    if point is None:
        return _report([(start, np.inf)], 0, [], opts.residual_tol)
    trace: list = []
    while True:
        X, L, S, y, Vc, Vh, U, res = point
        trace.append(res)
        if res <= opts.residual_tol or len(trace) == opts.max_iterations:
            break
        proposal = None
        if len(trace) == 1 and t is not None:
            G = L @ _half_power(S, 1.0 / (1.0 - t))
            proposal = _hermitian_part(G @ np.conj(G.T))
        elif len(trace) > 1 and mu is not None:
            D = _map_jacobian(Vc, Vh, member_weights * _map_differences(mu, y))
            proposal = _newton_point(X, L, S, D)
        for Y in (proposal, U):
            point = None if Y is None else _map_pass(Y, ens.stack, weights, gen.f_prime)
            if point is not None:
                break
        else:  # neither point has a pass
            break
    return _report([(X, res)], len(trace), trace, opts.residual_tol)


def noncommutativity_measure(
    ens: WeightedEnsemble,
    spec: DivergenceSpec,
    metric: str = "frobenius",
    opts: Optional[SolverOptions] = None,
) -> float:
    """Distance between the barycenter and the mean-equation solution.

    Vanishes (up to solver tolerance) on pairwise commuting ensembles; a
    strictly positive value witnesses noncommutativity.
    """
    if metric not in ("frobenius", "thompson"):
        raise DomainError(f"unknown metric {metric!r}; use 'frobenius' or 'thompson'")
    bary = solve_barycenter(ens, spec, opts)
    if not bary.converged:
        raise NonConvergenceError(
            f"solve_barycenter did not converge (residual {bary.final_residual:.3e})"
        )
    mean = solve_mean_equation(ens, spec, opts)
    if not mean.converged:
        raise NonConvergenceError(
            f"solve_mean_equation did not converge (residual {mean.final_residual:.3e})"
        )
    dist = frobenius_dist if metric == "frobenius" else thompson_dist
    return float(dist(bary.solution, mean.solution))

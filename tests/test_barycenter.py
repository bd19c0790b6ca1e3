import warnings
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from qhmeans import (
    ArcsineMeasure,
    ArithmeticGenerator,
    BetaTypeMeasure,
    DimensionMismatchError,
    DiscreteMeasure,
    DivergenceSpec,
    DomainError,
    GeometricGenerator,
    HarmonicGenerator,
    HermitianMatrix,
    LogGenerator,
    MeasureGenerator,
    NonConvergenceError,
    PositiveDefiniteMatrix,
    SolverOptions,
    UnsupportedGeneratorError,
    arcsine_generator,
    dirac,
    ensemble,
    euclidean_gradient,
    frechet_derivative,
    f_mu,
    f_mu_prime,
    kubo_ando_mean,
    noncommutativity_measure,
    objective,
    pd,
    solve_barycenter,
    solve_mean_equation,
    solve_power_mean,
)
from qhmeans import barycenter
from qhmeans.hermitian import _spectral
from qhmeans.measures import _map_differences

from conftest import (
    BOUNDARY_MATS,
    BOUNDARY_WEIGHTS,
    REF_A1,
    REF_A2,
    REF_A3,
    REF_BARYCENTER,
    REF_OBJECTIVE_AT_I,
    REF_ONE_STEP,
    REF_THREE_WEIGHTS,
    assembled_gradient,
    gradient_norm,
    mp_barycenter,
    mp_map_residual,
    mp_power_mean2,
    needs_scipy,
    pinned_spectrum_ensemble_np,
    power_derivative,
    random_hermitian_np,
    random_pd_np,
    random_unitary_np,
)

ARCSINE_SPEC = DivergenceSpec(arcsine_generator())
# Generators with f = x^t, whose Newton solves start on the ray through the
# arithmetic mean.
POWER_GENERATORS = [arcsine_generator(), GeometricGenerator(0.25), GeometricGenerator(0.75)]
POWER_IDS = ["arcsine", "geometric:0.25", "geometric:0.75"]


def ref_ensemble():
    return ensemble([REF_A1, REF_A2], [0.5, 0.5])


def random_ensemble(rng, dim, m, spread=0.8):
    mats = [random_pd_np(rng, dim, spread) for _ in range(m)]
    w = rng.dirichlet(np.ones(m))
    return ensemble(mats, w)


def spread_ensemble(seed, dim, m, spread):
    return ensemble(*pinned_spectrum_ensemble_np(np.random.default_rng(seed), dim, m, spread))


def diagonal_ensemble(rng, dim, m):
    mats = [np.diag(np.exp(rng.uniform(-1, 1, size=dim))) for _ in range(m)]
    w = rng.dirichlet(np.ones(m))
    return ensemble(mats, w)


def scalar_power_barycenter(a, w, t):
    """Entrywise solution of x = sum_j w_j a_j^(1-t) x^t, in closed form."""
    return (np.sum(w[:, None] * a ** (1 - t), axis=0)) ** (1.0 / (1.0 - t))


def scalar_mean_equation(a, w, gen):
    """Solve sum_j w_j f'(x / a_j) = f'(1) per entry by bracketing."""
    from scipy.optimize import brentq

    c = float(np.asarray(gen.f_prime(1.0)))

    def solve_one(col):
        fn = lambda x: float(np.sum(w * np.asarray(gen.f_prime(x / col)))) - c
        lo, hi = 0.5 * col.min(), 2.0 * col.max()
        return brentq(fn, lo, hi, xtol=1e-13)

    return np.array([solve_one(a[:, i]) for i in range(a.shape[1])])


def _near_commuting_pair(rng):
    # the second member's eigenbasis is the first's turned by about 1e-6
    U = random_unitary_np(rng, 3)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    V = U @ np.linalg.qr(np.eye(3) + 1e-6 * G)[0]
    a, b = np.exp(rng.uniform(-1, 1, 3)), np.exp(rng.uniform(-1, 1, 3))
    return [(U * a) @ U.conj().T, (V * b) @ V.conj().T], [0.4, 0.6]


_T, _L = mp.mpf(0.75), mp.mpf(0.3)
# Hard cases at d = 3 for the 50-digit oracle: the generator, its f and f' in
# mpmath, the draw of the ensemble, the pinned seed, and K, the bound on
# error / final_residual.  Measured over the draws of seeds 0-11 at the
# default tolerance, error / final_residual was at most 2.13 (x^0.75, three
# members at spread 6), 1.49 (harmonic:0.3, three members at spread 1, the
# atom sum) and 2.74 (arcsine, the near-commuting pair); K rounds these up.
ORACLE_CASES = {
    "x^0.75-spread-6": (
        GeometricGenerator(0.75), lambda x: x**_T, lambda x: _T * x ** (_T - 1),
        lambda rng: pinned_spectrum_ensemble_np(rng, 3, 3, 6.0), 1, 2.5,
    ),
    "harmonic:0.3": (
        HarmonicGenerator(0.3), lambda x: x / ((1 - _L) * x + _L),
        lambda x: _L / ((1 - _L) * x + _L) ** 2,
        lambda rng: ([random_pd_np(rng, 3) for _ in range(3)], rng.dirichlet(np.ones(3))), 0, 2.0,
    ),
    "near-commuting": (
        arcsine_generator(), mp.sqrt, lambda x: 1 / (2 * mp.sqrt(x)), _near_commuting_pair, 4, 3.0,
    ),
}


class TestEnsemble:
    def test_weight_sum_validation(self):
        with pytest.raises(DomainError):
            ensemble([np.eye(2), np.eye(2)], [0.5, 0.6])

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatchError):
            ensemble([np.eye(2), np.eye(3)], [0.5, 0.5])

    def test_positive_weights(self):
        with pytest.raises(DomainError):
            ensemble([np.eye(2), np.eye(2)], [1.0, 0.0])

    def test_one_weight_per_member(self):
        with pytest.raises(DimensionMismatchError, match="weight vector of shape"):
            ensemble([np.eye(2), np.eye(2)], [1.0])

    @pytest.mark.parametrize("weights", [[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5]])
    def test_non_finite_weights(self, weights):
        with pytest.raises(DomainError):
            ensemble([np.eye(2), np.eye(2)], weights)

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_member(self, rng, entry):
        mats = [random_pd_np(rng, 3) for _ in range(4)]
        mats[2][0, 0] = entry
        with pytest.raises(DomainError, match="ensemble member has a non-finite entry"):
            ensemble(mats, np.full(4, 0.25))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            ensemble([], [])

    def test_rejects_zero_dimension(self):
        with pytest.raises(DomainError, match="dimension must be an integer >= 1"):
            ensemble([np.zeros((0, 0))], [1.0])

    def test_arithmetic_mean(self):
        ens = ensemble([np.diag([2.0, 2.0]), np.diag([4.0, 4.0])], [0.25, 0.75])
        assert np.allclose(ens.arithmetic_mean().mat, 3.5 * np.eye(2))

    def test_members_are_validated_as_one_stack(self, rng, monkeypatch):
        mats = [random_pd_np(rng, 3) for _ in range(8)]
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        ens = ensemble(mats, np.full(8, 0.125))
        assert calls == [(8, 3, 3)]
        assert ens.stack.shape == (8, 3, 3) and not ens.stack.flags.writeable
        for A, S in zip(mats, ens.stack):
            assert np.array_equal(S, (A + A.conj().T) / 2)

    def test_non_positive_member_is_named(self, rng):
        mats = [random_pd_np(rng, 3) for _ in range(8)]
        mats[5] = np.diag([1.0, 0.5, -1e-3])
        with pytest.raises(DomainError, match="member 5 of a stack of 8 is not positive definite"):
            ensemble(mats, np.full(8, 0.125))

    def test_members_of_every_matrix_type_give_one_stack(self, rng):
        # the stack is the ensemble's one copy of its members, whatever their type
        raw = [random_pd_np(rng, 3) for _ in range(3)]
        ens = ensemble([pd(raw[0]), HermitianMatrix(raw[1]), raw[2]], [0.2, 0.5, 0.3])
        assert np.array_equal(ens.stack, ensemble(raw, [0.2, 0.5, 0.3]).stack)
        assert ens.dim == 3 and not hasattr(ens, "matrices")


class TestSolverOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"max_iterations": 2.5},
            {"max_iterations": 3.0},
            {"residual_tol": 0.0},
            {"residual_tol": -1e-8},
            {"residual_tol": float("inf")},
            {"residual_tol": float("nan")},
            {"max_iterations": True},
            {"max_iterations": np.True_},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(DomainError):
            SolverOptions(**kwargs)

    def test_accepts_numpy_integers(self):
        opts = SolverOptions(max_iterations=np.int64(3), residual_tol=np.float64(1e-6))
        assert solve_barycenter(ref_ensemble(), ARCSINE_SPEC, opts).iterations <= 3


class TestObjective:
    def test_single_matrix_at_itself(self, rng):
        A = random_pd_np(rng, 3)
        ens = ensemble([A], [1.0])
        assert abs(objective(ens, pd(A), ARCSINE_SPEC)) <= 1e-12

    def test_reference_value_at_identity(self):
        # frozen via the Cayley-Hamilton oracle: both terms equal 1/2
        val = objective(ref_ensemble(), pd(np.eye(2)), ARCSINE_SPEC)
        assert val == pytest.approx(REF_OBJECTIVE_AT_I, abs=1e-12)

    def test_argument_of_another_dimension(self):
        with pytest.raises(DimensionMismatchError, match="argument dimension 3"):
            objective(ref_ensemble(), np.eye(3), ARCSINE_SPEC)

    def test_solution_beats_arithmetic_mean(self):
        ens = ref_ensemble()
        report = solve_barycenter(ens, ARCSINE_SPEC)
        at_mean = objective(ens, ens.arithmetic_mean(), ARCSINE_SPEC)
        assert objective(ens, report.solution, ARCSINE_SPEC) <= at_mean


class TestGradient:
    def test_zero_at_single_member(self, rng):
        A = random_pd_np(rng, 3)
        ens = ensemble([A], [1.0])
        G = euclidean_gradient(ens, pd(A), ARCSINE_SPEC)
        assert np.linalg.norm(G.mat) <= 1e-12

    def test_matches_finite_differences(self, rng):
        t = 1e-5
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            m = int(rng.integers(1, 5))
            ens = random_ensemble(rng, dim, m)
            X = pd(random_pd_np(rng, dim, 0.5))
            Y = random_hermitian_np(rng, dim)
            G = euclidean_gradient(ens, X, ARCSINE_SPEC)
            directional = float(np.trace(G.mat @ Y).real)
            fwd = objective(ens, pd(X.mat + t * Y), ARCSINE_SPEC)
            bwd = objective(ens, pd(X.mat - t * Y), ARCSINE_SPEC)
            fd = (fwd - bwd) / (2 * t)
            assert directional == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_residual_small_at_published_solution(self):
        # the published 6-digit matrix is itself near-stationary
        assert gradient_norm(ref_ensemble(), pd(REF_BARYCENTER), ARCSINE_SPEC) <= 1e-6

    def test_residual_positive_at_identity(self):
        assert gradient_norm(ref_ensemble(), pd(np.eye(2)), ARCSINE_SPEC) > 1e-2


class TestMeasureFrechetDerivative:
    @needs_scipy
    @pytest.mark.parametrize("mu", [ArcsineMeasure(), BetaTypeMeasure(0.3)], ids=["arcsine", "beta0.3"])
    def test_divided_differences_vs_block_identity(self, rng, mu):
        t = mu.t if isinstance(mu, BetaTypeMeasure) else 0.5
        for _ in range(10):
            X = pd(random_pd_np(rng, 4))
            Y = HermitianMatrix(random_hermitian_np(rng, 4))
            dk_path = frechet_derivative(
                lambda w: f_mu(mu, w), lambda w: f_mu_prime(mu, w), X, Y
            )
            assert np.linalg.norm(power_derivative(X.mat, Y.mat, t) - dk_path.mat) <= 1e-8


class TestSolveBarycenter:
    def test_single_member(self, rng):
        A = random_pd_np(rng, 3)
        report = solve_barycenter(ensemble([A], [1.0]), ARCSINE_SPEC)
        assert report.converged
        assert np.linalg.norm(report.solution.mat - A) <= 1e-8

    def test_reference_problem(self):
        report = solve_barycenter(ref_ensemble(), ARCSINE_SPEC)
        assert report.converged
        assert report.final_residual <= 1e-6
        assert np.max(np.abs(report.solution.mat.real - REF_BARYCENTER)) <= 1e-3
        assert np.max(np.abs(report.solution.mat.imag)) <= 1e-8

    def test_reference_problem_to_full_precision(self):
        # the paper's example; the gradient norm at this point, in 50-digit
        # arithmetic, is 5e-18
        expected = np.array(
            [[2.9903525506641248, 0.63441938448559737], [0.63441938448559737, 1.7215137816929301]]
        )
        report = solve_barycenter(ref_ensemble(), ARCSINE_SPEC, SolverOptions(residual_tol=1e-12))
        assert report.converged
        X = report.solution.mat
        assert np.linalg.norm(X - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_against_the_50_digit_oracle(self, case):
        gen, f, f_prime, draw, seed, K = ORACLE_CASES[case]
        spec = DivergenceSpec(gen)
        ens = ensemble(*draw(np.random.default_rng([seed, 7])))
        report = solve_barycenter(ens, spec)
        assert report.converged
        exact, res = mp_barycenter(
            ens.stack, ens.weights, f, f_prime, spec.c, report.solution.mat
        )
        assert res <= 1e-40
        error = np.linalg.norm(report.solution.mat - exact) / np.linalg.norm(exact)
        assert error <= K * report.final_residual + 4 * np.finfo(float).eps

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_commuting_ensemble_scalar_oracle(self, rng, t):
        ens = diagonal_ensemble(rng, 4, 3)
        spec = DivergenceSpec(GeometricGenerator(t))
        report = solve_barycenter(ens, spec)
        assert report.converged
        a = np.diagonal(ens.stack, axis1=1, axis2=2).real
        oracle = scalar_power_barycenter(a, ens.weights, t)
        assert np.max(np.abs(np.diag(report.solution.mat).real - oracle)) <= 1e-6

    @pytest.mark.parametrize("t", [0.1, 0.25, 0.75])
    def test_beta_type_barycenter_is_the_geometric_one(self, rng, t):
        # Both generators are x^t with c = t; a c taken from a Gauss rule's
        # first moment (0.1 + 2.1e-10 at t = 0.1) moved the barycenter by 8.8e-9
        spec = DivergenceSpec(MeasureGenerator(BetaTypeMeasure(t)))
        assert spec.c == t
        opts = SolverOptions(residual_tol=1e-12)
        for ens in (ref_ensemble(), random_ensemble(rng, 3, 3)):
            beta = solve_barycenter(ens, spec, opts)
            geometric = solve_barycenter(ens, DivergenceSpec(GeometricGenerator(t)), opts)
            assert beta.converged and geometric.converged
            assert np.linalg.norm(beta.solution.mat - geometric.solution.mat) <= 1e-12

    @pytest.mark.parametrize("case", ["reference", "spread-3"])
    def test_objective_trace_non_increasing(self, case):
        # Newton steps are accepted on the gradient norm alone; on these
        # problems the objective still never rises beyond rounding
        if case == "reference":
            ens, spec = ref_ensemble(), ARCSINE_SPEC
        else:
            ens, spec = spread_ensemble(0, 4, 2, 3.0), DivergenceSpec(GeometricGenerator(0.5))
        report = solve_barycenter(ens, spec)
        assert report.converged
        trace = np.asarray(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    @pytest.mark.parametrize(
        "gen", [arcsine_generator(), GeometricGenerator(0.5)], ids=["arcsine", "geometric:0.5"]
    )
    def test_reference_iteration_bound(self, gen):
        report = solve_barycenter(ref_ensemble(), DivergenceSpec(gen))
        assert report.converged
        assert report.iterations <= 11

    @pytest.mark.parametrize("gen", POWER_GENERATORS, ids=POWER_IDS)
    def test_proportional_members_start_at_the_power_mean(self, rng, gen):
        # for A_j = l_j A the ray-stationary start is the commuting-case
        # barycenter (sum_j w_j l_j^(1-t))^(1/(1-t)) A, so no Newton step is taken
        A = random_pd_np(rng, 3)
        lam, w = np.array([1.0, 4.0, 0.5]), np.array([0.2, 0.5, 0.3])
        ens = ensemble([l * A for l in lam], w)
        spec = DivergenceSpec(gen)
        t = spec.c
        report = solve_barycenter(ens, spec)
        assert report.converged and report.iterations == 0
        expected = (w @ lam ** (1 - t)) ** (1 / (1 - t)) * A
        scale = np.linalg.norm(expected)
        assert np.linalg.norm(report.solution.mat - expected) <= 1e-13 * scale
        fresh = gradient_norm(ens, report.solution, spec)
        assert abs(report.final_residual - fresh) <= 64 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("gen", POWER_GENERATORS, ids=POWER_IDS)
    def test_start_minimizes_the_objective_on_the_mean_ray(self, rng, gen):
        spec = DivergenceSpec(gen)
        t = spec.c
        for _ in range(3):
            ens = random_ensemble(rng, 3, 4, spread=1.0)
            mean = ens.arithmetic_mean()
            S = sum(
                w * np.trace(kubo_ando_mean(A, mean, gen).mat).real
                for w, A in zip(ens.weights, ens.stack)
            )
            alpha = (S / np.trace(mean.mat).real) ** (1 / (1 - t))
            at = lambda a: objective(ens, a * mean.mat, spec)
            report = solve_barycenter(ens, spec)
            start = report.objective_trace[0]
            assert start == pytest.approx(at(alpha), rel=1e-12)
            assert start < at(0.99 * alpha) and start < at(1.01 * alpha)
            # a tolerance the start already meets returns it: the residual read
            # from the rescaled eigendecompositions matches a fresh evaluation
            stop = solve_barycenter(ens, spec, SolverOptions(residual_tol=1e3))
            assert stop.iterations == 0
            point = alpha * mean.mat
            assert np.linalg.norm(stop.solution.mat - point) <= 1e-12 * np.linalg.norm(point)
            fresh = gradient_norm(ens, stop.solution, spec)
            assert stop.final_residual == pytest.approx(fresh, rel=1e-10)

    def test_atom_sum_generators_and_given_guesses_start_as_given(self, rng):
        ens = random_ensemble(rng, 3, 4, spread=1.0)
        mean = ens.arithmetic_mean()
        harmonic = DivergenceSpec(HarmonicGenerator(0.3))
        report = solve_barycenter(ens, harmonic)
        assert report.objective_trace[0] == objective(ens, mean, harmonic)
        geometric = DivergenceSpec(GeometricGenerator(0.5))
        report = solve_barycenter(ens, geometric, SolverOptions(initial_guess=mean))
        assert report.objective_trace[0] == objective(ens, mean, geometric)

    def test_reference_problem_newton_iterations(self):
        for gen in (arcsine_generator(), GeometricGenerator(0.5)):
            report = solve_barycenter(ref_ensemble(), DivergenceSpec(gen))
            assert report.converged
            assert report.iterations <= 3

    @pytest.mark.parametrize("dim, seed", [(4, 0), (4, 5), (2, 22), (2, 24), (2, 26), (4, 28)])
    def test_converges_on_spread_3_pairs(self, dim, seed):
        # two members with spectra pinned at e^-3 and e^3; near the optimum
        # the objective is flat to rounding, and a line search that trusts
        # only objective differences stalls above the tolerance
        gen = GeometricGenerator(0.5)
        spec = DivergenceSpec(gen)
        ens = spread_ensemble(seed, dim, 2, 3.0)
        opts = SolverOptions()
        report = solve_barycenter(ens, spec, opts)
        assert report.converged
        G = assembled_gradient(
            ens, report.solution, spec.c,
            lambda M, A: frechet_derivative(gen.f, gen.f_prime, M, A).mat,
        )
        assert np.linalg.norm(G) <= opts.residual_tol * (1 + 1e-4)

    @pytest.mark.parametrize("seed", range(4))
    def test_converges_on_spread_6_ensembles(self, seed):
        # four 4x4 members with spectra pinned at e^-6 and e^6: gradient
        # descent stalled on all of them; arcsine and geometric:0.5 are both
        # f(x) = sqrt(x), so their barycenters coincide
        ens = spread_ensemble(seed, 4, 4, 6.0)
        opts = SolverOptions()
        solutions = []
        for gen in (arcsine_generator(), GeometricGenerator(0.5)):
            spec = DivergenceSpec(gen)
            report = solve_barycenter(ens, spec, opts)
            assert report.converged
            G = assembled_gradient(
                ens, report.solution, spec.c,
                lambda M, A: frechet_derivative(np.sqrt, lambda x: 0.5 / np.sqrt(x), M, A).mat,
            )
            assert np.linalg.norm(G) <= opts.residual_tol * (1 + 1e-4)
            solutions.append(report.solution.mat)
        assert np.linalg.norm(solutions[0] - solutions[1]) <= 1e-8

    def test_uniqueness_probe(self, rng):
        ens = random_ensemble(rng, 3, 3)
        a = solve_barycenter(ens, ARCSINE_SPEC)
        b = solve_barycenter(
            ens,
            ARCSINE_SPEC,
            SolverOptions(initial_guess=pd(ens.stack[0])),
        )
        assert a.converged and b.converged
        assert np.linalg.norm(a.solution.mat - b.solution.mat) <= 1e-6

    def test_permutation_invariance_of_objective_and_gradient(self, rng):
        # the defining quantities are symmetric in the (A_j, w_j) pairs
        mats = [random_pd_np(rng, 3) for _ in range(3)]
        w = [0.5, 0.3, 0.2]
        fwd, rev = ensemble(mats, w), ensemble(mats[::-1], w[::-1])
        X = pd(random_pd_np(rng, 3))
        assert objective(fwd, X, ARCSINE_SPEC) == pytest.approx(
            objective(rev, X, ARCSINE_SPEC), abs=1e-12
        )
        g_fwd = euclidean_gradient(fwd, X, ARCSINE_SPEC).mat
        g_rev = euclidean_gradient(rev, X, ARCSINE_SPEC).mat
        assert np.linalg.norm(g_fwd - g_rev) <= 1e-12

    def test_permutation_equivariance_of_solver(self, rng):
        # two independent runs each stop within solver accuracy of the unique
        # optimum, so they agree at that level (not at machine precision)
        mats = [random_pd_np(rng, 3) for _ in range(3)]
        w = [0.5, 0.3, 0.2]
        fwd = solve_barycenter(ensemble(mats, w), ARCSINE_SPEC)
        rev = solve_barycenter(ensemble(mats[::-1], w[::-1]), ARCSINE_SPEC)
        assert fwd.converged and rev.converged
        assert np.linalg.norm(fwd.solution.mat - rev.solution.mat) <= 1e-6

    def test_unitary_covariance(self, rng):
        ens = random_ensemble(rng, 3, 2)
        U = random_unitary_np(rng, 3)
        base = solve_barycenter(ens, ARCSINE_SPEC).solution.mat
        rotated_ens = ensemble(
            [U @ A @ U.conj().T for A in ens.stack], ens.weights
        )
        rotated = solve_barycenter(rotated_ens, ARCSINE_SPEC).solution.mat
        assert np.linalg.norm(rotated - U @ base @ U.conj().T) <= 1e-7

    def test_masa_closure_diagonal(self, rng):
        ens = diagonal_ensemble(rng, 4, 3)
        report = solve_barycenter(ens, ARCSINE_SPEC)
        off = report.solution.mat - np.diag(np.diag(report.solution.mat))
        assert np.max(np.abs(off)) <= 1e-8

    def test_optimality_against_perturbations(self, rng):
        ens = random_ensemble(rng, 3, 3)
        report = solve_barycenter(ens, ARCSINE_SPEC)
        base = objective(ens, report.solution, ARCSINE_SPEC)
        eps = 1e-2
        for _ in range(50):
            Y = random_hermitian_np(rng, 3)
            trial = report.solution.mat + eps * Y
            w = np.linalg.eigvalsh(trial)
            if w[0] <= 1e-10:  # project back into the cone if needed
                trial = trial + (1e-10 - w[0]) * np.eye(3)
            assert objective(ens, pd(trial), ARCSINE_SPEC) >= base

    def test_non_convergence_reported_not_raised(self):
        report = solve_barycenter(
            ref_ensemble(), ARCSINE_SPEC, SolverOptions(max_iterations=2)
        )
        assert not report.converged
        assert report.final_residual > 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_reported_residual_is_honest_on_wide_spectra(self, seed):
        # spectra in [e^-6, e^6]: the residual ending the solve must be the
        # true stationarity defect, whether or not the solve converged
        rng = np.random.default_rng(seed)
        gen = GeometricGenerator(0.5)
        spec = DivergenceSpec(gen)
        ens = ensemble([random_pd_np(rng, 4, 6.0) for _ in range(4)], rng.dirichlet(np.ones(4)))
        report = solve_barycenter(ens, spec, SolverOptions(max_iterations=50))
        G = assembled_gradient(
            ens, report.solution, spec.c,
            lambda M, A: frechet_derivative(gen.f, gen.f_prime, M, A).mat,
        )
        assert report.final_residual == pytest.approx(np.linalg.norm(G), rel=1e-4)

    def test_arithmetic_mean_limit_of_power_family(self, rng):
        # for commuting ensembles the t -> 0 barycenter approaches sum w_j A_j
        ens = diagonal_ensemble(rng, 3, 3)
        spec = DivergenceSpec(GeometricGenerator(1e-3))
        report = solve_barycenter(ens, spec, SolverOptions(residual_tol=1e-10))
        target = ens.arithmetic_mean().mat
        rel = np.linalg.norm(report.solution.mat - target) / np.linalg.norm(target)
        assert rel <= 1e-2


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; returns the record."""
    inner, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestNewtonSpectralPass:
    @pytest.mark.parametrize("gen", POWER_GENERATORS + [HarmonicGenerator(0.3)])
    def test_one_eigh_per_point_and_no_cholesky_after_setup(self, rng, monkeypatch, gen):
        # the start takes one eigh and each trial one more; on these inputs
        # every Newton step is taken whole, so no trial is rejected
        cases = [ref_ensemble()] + [random_ensemble(rng, d, m, 1.0) for d, m in ((2, 2), (4, 8))]
        eigh = _counting(monkeypatch, np.linalg, "eigh")
        cholesky = _counting(monkeypatch, np.linalg, "cholesky")
        for ens in cases:
            eigh.clear()
            cholesky.clear()
            report = solve_barycenter(ens, DivergenceSpec(gen))
            assert report.converged and report.iterations >= 2
            assert len(eigh) == 1 + report.iterations
            assert len(cholesky) == 1 and cholesky[0][0] is ens.stack

    def test_step_leaving_the_cone_is_halved(self, monkeypatch):
        # the first Newton step is stretched 1024-fold: its trial at s = 1
        # leaves the cone, the spectral test rejects it without an exception,
        # and the halved steps reach the same barycenter
        exact = solve_barycenter(ref_ensemble(), ARCSINE_SPEC)
        solve, steps = np.linalg.solve, []

        def stretched(H, b):
            steps.append(solve(H, b) * (1024.0 if not steps else 1.0))
            return steps[-1]

        monkeypatch.setattr(np.linalg, "solve", stretched)
        evaluate, passes = barycenter._Workspace.evaluate, []

        def recorded(ws, X):
            # each call is one pass: the workspace keeps no point
            passes.append((X, evaluate(ws, X)))
            return passes[-1][1]

        monkeypatch.setattr(barycenter._Workspace, "evaluate", recorded)
        eigh = _counting(monkeypatch, np.linalg, "eigh")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve_barycenter(ref_ensemble(), ARCSINE_SPEC)
        assert report.converged
        assert np.linalg.norm(report.solution.mat - exact.solution.mat) <= 1e-9
        # the arithmetic mean, then the stretched trial, outside the cone
        Xt, point = passes[1]
        assert point is None
        assert np.linalg.eigvalsh(Xt)[0] < 0  # an independent test agrees
        assert len(eigh) == len(passes)
        assert len(passes) - 1 - report.iterations >= 2  # rejected trials

    def test_non_finite_step_ends_the_solve_unconverged(self, monkeypatch):
        # a LAPACK solve that returns NaN without raising: the solve stops at
        # its start before any trial, reports it, and warns of nothing
        ens = ref_ensemble()
        ws = barycenter._Workspace(ens, ARCSINE_SPEC)
        start = ws.ray_start(ws.point(ens._mean_array())).X
        monkeypatch.setattr(np.linalg, "solve", lambda H, b: np.full_like(b, np.nan))
        eigh = _counting(monkeypatch, np.linalg, "eigh")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve_barycenter(ens, ARCSINE_SPEC)
        assert not report.converged
        assert report.iterations == 0
        assert len(eigh) == 1  # the start's pass only
        assert np.array_equal(report.solution.mat, start)

    def test_singular_hessian_ends_the_solve_unconverged(self, monkeypatch):
        # a LAPACK solve that finds H singular: the solve stops at its start
        # and reports it
        ens = ref_ensemble()
        ws = barycenter._Workspace(ens, ARCSINE_SPEC)
        start = ws.ray_start(ws.point(ens._mean_array()))

        def singular(H, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        report = solve_barycenter(ens, ARCSINE_SPEC)
        assert not report.converged
        assert report.iterations == 0
        assert report.final_residual == start.res
        assert np.array_equal(report.solution.mat, start.X)

    @pytest.mark.parametrize(
        "gen",
        [arcsine_generator(), HarmonicGenerator(0.3), MeasureGenerator(BetaTypeMeasure(0.9))],
        ids=["arcsine", "harmonic:0.3", "x^0.9"],
    )
    def test_start_without_a_pass_is_reported(self, gen):
        # members of condition e^34 = 5.8e14, under the 1e15 floor: at their
        # arithmetic mean (condition 1.2e8) one triangle of some M_j reads a
        # negative eigenvalue, though its Hermitian part is positive definite,
        # so the start fails the cone test; the solve reports the start
        ens = spread_ensemble(1, 8, 3, 17.0)
        report = solve_barycenter(ens, DivergenceSpec(gen))
        assert not report.converged
        assert report.iterations == 0 and report.objective_trace == []
        assert report.final_residual == np.inf
        assert np.array_equal(report.solution.mat, ens.arithmetic_mean().mat)

    def test_search_at_the_residual_floor_ends_the_solve(self, monkeypatch):
        # members of condition e^24 = 2.6e10: the residual reaches its rounding
        # floor, about 1e-4, within 20 iterations.  There every trial down to
        # the smallest step must still decrease it strictly, so the search
        # exhausts and the solve ends unconverged instead of repeating a null
        # step X + sP == X to the cap.
        ens = spread_ensemble(1, 8, 3, 12.0)
        passes = _counting(monkeypatch, barycenter._Workspace, "evaluate")
        report = solve_barycenter(ens, ARCSINE_SPEC)
        assert not report.converged
        assert report.iterations <= 20
        assert len(passes) <= 300
        assert report.final_residual == pytest.approx(
            gradient_norm(ens, report.solution, ARCSINE_SPEC), rel=1e-12
        )

    def test_smallest_step_still_demands_a_strict_decrease(self):
        # 1 - 1e-4 s is below 1 at every step tried, and rounds to 1 at half
        # the smallest
        assert 1 - 1e-4 * barycenter._MIN_STEP < 1
        assert 1 - 1e-4 * (barycenter._MIN_STEP / 2) == 1

    @pytest.mark.parametrize(
        "ens, gen, max_iterations",
        [
            (ensemble(BOUNDARY_MATS, BOUNDARY_WEIGHTS), HarmonicGenerator(0.3), 500),
            (ensemble(BOUNDARY_MATS, BOUNDARY_WEIGHTS), HarmonicGenerator(0.5), 500),
            (spread_ensemble([7, 62, 22], 2, 2, 6.0), HarmonicGenerator(0.3), 60),
        ],
        ids=["2x2-harmonic:0.3", "2x2-harmonic:0.5", "spread-6-harmonic:0.3"],
    )
    def test_solve_at_the_cone_boundary_reports_unconverged(self, ens, gen, max_iterations):
        # the Newton iterate's smallest eigenvalue runs toward 0: its last
        # accepted points pass the M_j cone test but not the predicate, so the
        # report carries the latest point that passes it, instead of raising
        spec = DivergenceSpec(gen)
        report = solve_barycenter(ens, spec, SolverOptions(max_iterations=max_iterations))
        assert not report.converged
        PositiveDefiniteMatrix(report.solution.mat)  # the predicate holds
        assert report.final_residual == pytest.approx(
            gradient_norm(ens, report.solution, spec), rel=1e-10
        )

    def test_report_refuses_when_no_point_passes_the_predicate(self):
        # every solver's first point passes it, so this is the report's own
        # guard: condition 1e17 is beyond the PositiveDefiniteMatrix floor
        X = np.diag([1.0, 1e-17]).astype(np.complex128)
        with pytest.raises(DomainError):
            barycenter._report([(X, 1.0)], 0, [], 1e-8)

    def test_point_outside_the_cone(self, rng):
        ws = barycenter._Workspace(random_ensemble(rng, 3, 2), ARCSINE_SPEC)
        X = -np.eye(3, dtype=np.complex128)
        assert ws.evaluate(X) is None
        with pytest.raises(DomainError, match="cone test"):
            ws.point(X)

    def test_each_evaluate_call_is_one_pass(self, monkeypatch):
        # the workspace keeps no point, so the same X evaluated twice takes
        # two batched eigh calls, with the same bits
        ens = ref_ensemble()
        ws = barycenter._Workspace(ens, ARCSINE_SPEC)
        X = ens._mean_array()
        eigh = _counting(monkeypatch, np.linalg, "eigh")
        first, second = ws.evaluate(X), ws.evaluate(X)
        assert len(eigh) == 2
        assert first is not second
        assert np.array_equal(first.G, second.G) and first.res == second.res

    @pytest.mark.parametrize("gen", POWER_GENERATORS + [HarmonicGenerator(0.3)])
    def test_report_traces_one_objective_per_point(self, rng, gen):
        # the start's objective, then one per accepted step, the last at the
        # returned point: a fresh evaluation there has the same bits, except
        # at an unmoved ray start, whose pass is the rescaled one at the mean
        spec = DivergenceSpec(gen)
        A = random_pd_np(rng, 3)
        proportional = ensemble([A, 4.0 * A, 0.5 * A], [0.2, 0.5, 0.3])
        cases = [ref_ensemble(), proportional] + [
            random_ensemble(rng, d, m, 1.0) for d, m in ((1, 3), (2, 2), (4, 8))
        ]
        for ens in cases:
            report = solve_barycenter(ens, spec)
            assert report.converged
            assert len(report.objective_trace) == report.iterations + 1
            fresh = objective(ens, report.solution, spec)
            if report.iterations >= 1:
                assert report.objective_trace[-1] == fresh
            else:
                assert abs(report.objective_trace[-1] - fresh) <= 1e-14 * np.trace(report.solution.mat).real


class TestSolvePowerMean:
    def test_all_equal(self, rng):
        A = random_pd_np(rng, 3)
        report = solve_power_mean(ensemble([A, A], [0.5, 0.5]), 0.5)
        assert report.converged
        assert np.linalg.norm(report.solution.mat - A) <= 1e-7

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_commuting_scalar_oracle(self, rng, t):
        ens = diagonal_ensemble(rng, 4, 3)
        report = solve_power_mean(ens, t, SolverOptions(residual_tol=1e-12))
        assert report.iterations == 2  # one extrapolated step is exact
        a = np.diagonal(ens.stack, axis1=1, axis2=2).real
        oracle = scalar_power_barycenter(a, ens.weights, t)
        assert np.max(np.abs(np.diag(report.solution.mat).real - oracle)) <= 1e-8

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75, 0.95])
    @pytest.mark.parametrize("d", [2, 3])
    def test_two_members_against_the_closed_form(self, d, t):
        # The map X -> sum_j w_j X #_{1-t} A_j contracts by t near its fixed
        # point, so a map residual, and the map's own rounding of a few eps,
        # move the fixed point by 1/(1 - t) of their size: the error is at most
        # K (residual + eps) / (1 - t).  Measured K per (d, t) over these
        # pairs: 1.21, 0.75, 0.39, 1.04 at d = 2 and 0.92, 0.79, 0.72, 0.67 at
        # d = 3 (1.65 at most over 240 further pairs), beside errors of 1.5e-16
        # to 1.1e-14 and residuals of at most 1.3e-15.
        rng = np.random.default_rng([d, round(100 * t)])
        eps = np.finfo(float).eps
        for _ in range(5):
            A1, A2 = random_pd_np(rng, d, 2.0), random_pd_np(rng, d, 2.0)
            w1 = rng.uniform(0.2, 0.8)
            report = solve_power_mean(ensemble([A1, A2], [w1, 1 - w1]), t, SolverOptions(residual_tol=1e-13))
            assert report.converged and report.iterations == 2
            exact = mp_power_mean2(A1, A2, w1, t)
            error = np.linalg.norm(report.solution.mat - exact) / np.linalg.norm(exact)
            assert error <= 2 * (report.final_residual + eps) / (1 - t)

    def test_order_validation(self):
        # GeometricGenerator(t) is the one range check
        for t in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError, match="must lie in"):
                solve_power_mean(ref_ensemble(), t)

    def test_ill_conditioned_members_do_not_warn(self):
        # the batched map takes its roots without the conditioning check
        ens = ensemble([np.diag([5e14, 1.0]), np.diag([4e14, 2.0])], [0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_power_mean(ens, 0.5).converged

    def test_reference_fixed_point_and_one_step_map(self):
        # the fixed point P satisfies (A1 # P + A2 # P)/2 = P; applying the
        # map to the barycenter instead moves it to the published image
        ens = ref_ensemble()
        gen = GeometricGenerator(0.5)
        pm = solve_power_mean(ens, 0.5, SolverOptions(residual_tol=1e-12))
        P = pm.solution
        image = 0.5 * (
            kubo_ando_mean(ens.stack[0], P, gen).mat
            + kubo_ando_mean(ens.stack[1], P, gen).mat
        )
        assert np.linalg.norm(image - P.mat) <= 1e-9

        bary = solve_barycenter(ens, ARCSINE_SPEC).solution
        bary_image = 0.5 * (
            kubo_ando_mean(ens.stack[0], bary, gen).mat
            + kubo_ando_mean(ens.stack[1], bary, gen).mat
        )
        assert np.max(np.abs(bary_image.real - REF_ONE_STEP)) <= 1e-3
        assert np.linalg.norm(bary_image - bary.mat) >= 0.03


class TestSolveMeanEquation:
    def test_duck_typed_generator_is_refused(self):
        # the weight 1/f'(1) is read as DivergenceSpec.c, so a generator
        # without a measure (other than LogGenerator) has none: f = 1, with
        # f'(1) = 0, is refused for its type, as DivergenceSpec refuses it
        flat = SimpleNamespace(f=np.ones_like, f_prime=np.zeros_like)
        with pytest.raises(UnsupportedGeneratorError, match="SimpleNamespace is not a MeasureGenerator"):
            solve_mean_equation(ref_ensemble(), flat)

    @pytest.mark.parametrize(
        "gen",
        [
            ArithmeticGenerator(0.3),
            MeasureGenerator(dirac(1.0)),
            MeasureGenerator(dirac(0.0)),
            MeasureGenerator(DiscreteMeasure(((0.0, 0.5), (1.0, 0.5), (0.5, 1e-300)))),
        ],
        ids=["arithmetic:0.3", "dirac-1", "dirac-0", "inner-1e-300"],
    )
    def test_bare_generator_affine_to_rounding_is_refused(self, gen):
        # for an affine f the map is the identity, so every X would solve the
        # equation: a bare measure generator meets DivergenceSpec's rule
        with pytest.raises(DomainError, match="affine to rounding"):
            solve_mean_equation(ref_ensemble(), gen)

    def test_single_member(self, rng):
        A = random_pd_np(rng, 3)
        report = solve_mean_equation(ensemble([A], [1.0]), ARCSINE_SPEC)
        assert report.converged
        assert np.linalg.norm(report.solution.mat - A) <= 1e-7

    @needs_scipy
    def test_commuting_scalar_oracle(self, rng):
        ens = diagonal_ensemble(rng, 3, 3)
        report = solve_mean_equation(
            ens, ARCSINE_SPEC, SolverOptions(residual_tol=1e-12)
        )
        assert report.iterations == 2  # one extrapolated step is exact
        a = np.diagonal(ens.stack, axis1=1, axis2=2).real
        oracle = scalar_mean_equation(a, ens.weights, ARCSINE_SPEC.generator)
        assert np.max(np.abs(np.diag(report.solution.mat).real - oracle)) <= 1e-8

    def test_agrees_with_power_mean_for_square_root(self):
        ens = ref_ensemble()
        me = solve_mean_equation(ens, ARCSINE_SPEC, SolverOptions(residual_tol=1e-10))
        pm = solve_power_mean(ens, 0.5, SolverOptions(residual_tol=1e-10))
        assert np.linalg.norm(me.solution.mat - pm.solution.mat) <= 1e-6

    def test_log_generator_gives_arithmetic_mean(self, rng):
        ens = diagonal_ensemble(rng, 3, 4)
        report = solve_mean_equation(ens, LogGenerator())
        assert report.converged
        assert np.linalg.norm(
            report.solution.mat - ens.arithmetic_mean().mat
        ) <= 1e-8


def map_gradient_norm(ens, X, s):
    """||sum_j w_j X #_s A_j - X||_F / ||X||_F through kubo_ando_mean."""
    gen = GeometricGenerator(s)
    image = sum(w * kubo_ando_mean(X, A, gen).mat for w, A in zip(ens.weights, ens.stack))
    return float(np.linalg.norm(image - X.mat) / np.linalg.norm(X.mat))


def harmonic_map_gradient_norm(ens, X, lam):
    """The mean-equation map residual of HarmonicGenerator(lam) through kubo_ando_mean.

    f'(1/m) / f'(1) = h(m)^2 for h(m) = m / (lam m + 1 - lam), the generator of
    HarmonicGenerator(1 - lam), so each member's term X^{1/2} h(M_j)^2 X^{1/2}
    is K_j X^{-1} K_j with K_j = X sigma_h A_j.
    """
    gen = HarmonicGenerator(1.0 - lam)
    Xi = np.linalg.inv(X.mat)
    image = 0
    for w, A in zip(ens.weights, ens.stack):
        K = kubo_ando_mean(X, A, gen).mat
        image = image + w * (K @ Xi @ K)
    return float(np.linalg.norm(image - X.mat) / np.linalg.norm(X.mat))


def fixed_point_solve(ens, solver, opts):
    """solve_power_mean at t for "power:t", solve_mean_equation with
    HarmonicGenerator(lam) for "harmonic:lam"."""
    family, _, arg = solver.partition(":")
    if family == "power":
        return solve_power_mean(ens, float(arg), opts)
    return solve_mean_equation(ens, HarmonicGenerator(float(arg)), opts)


def large_exponent_ensemble():
    """Eight 2x2 members at spread 3, on which the plain map contracts by only
    0.95 per step at t = 0.95."""
    return ensemble(*pinned_spectrum_ensemble_np(np.random.default_rng([0, 2, 8, 3]), 2, 8, 3))


def mean_map(ens, X, gen):
    """T(X) = (1/c) sum_j w_j X^{1/2} f'((X^{-1/2} A_j X^{-1/2})^{-1}) X^{1/2},
    through the square root of X and one eigh per member."""
    x, U = np.linalg.eigh(X)
    root, iroot = _spectral(U, np.sqrt(x)), _spectral(U, 1 / np.sqrt(x))
    c = float(gen.f_prime(1.0))
    image = 0
    for w, A in zip(ens.weights, ens.stack):
        e, V = np.linalg.eigh(iroot @ A @ iroot)
        image = image + w * root @ _spectral(V, gen.f_prime(1 / e) / c) @ root
    return image


JACOBIAN_GENERATORS = {
    "geometric:0.25": GeometricGenerator(0.25),
    "arcsine": arcsine_generator(),
    "harmonic:0.3": HarmonicGenerator(0.3),
    "three-atom": MeasureGenerator(DiscreteMeasure(((0.1, 0.3), (0.45, 0.5), (0.8, 0.2)))),
}


def two_member_power_mean(A, B, w, t):
    """The fixed point of X = (1-w) X #_p A + w X #_p B, p = 1-t, in closed form:
    A^{1/2} ((1-w) I + w C^p)^{1/p} A^{1/2} with C = A^{-1/2} B A^{-1/2}."""
    p = 1.0 - t
    a, U = np.linalg.eigh(A)
    root = (U * np.sqrt(a)) @ U.conj().T
    iroot = (U / np.sqrt(a)) @ U.conj().T
    c, V = np.linalg.eigh(iroot @ B @ iroot)
    middle = (V * ((1 - w) + w * c**p) ** (1 / p)) @ V.conj().T
    return root @ middle @ root


class TestFixedPointMap:
    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_reference_iteration_bound(self, t):
        # two members: the extrapolated step solves the equation exactly, so
        # iteration 2 measures a residual at rounding level (the plain map,
        # which contracts by a factor t per step, needs 52 at t = 0.75)
        report = solve_power_mean(ref_ensemble(), t)
        assert report.converged
        assert report.iterations == 2

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_two_members_match_the_closed_form(self, dim, t):
        # A_1^{-1/2} A_2 A_1^{-1/2} commutes with the arithmetic-mean start
        # carried by the same congruence, so one extrapolated step is exact
        ens = spread_ensemble(dim, dim, 2, 3.0)
        report = solve_power_mean(ens, t, SolverOptions(residual_tol=1e-12))
        assert report.converged
        assert report.iterations == 2
        A, B = ens.stack
        exact = two_member_power_mean(A, B, ens.weights[1], t)
        err = np.linalg.norm(report.solution.mat - exact) / np.linalg.norm(exact)
        assert err <= 1e-10

    def test_large_exponent_does_not_stall(self):
        # t = 0.95: the plain map contracts by only 0.95 per step
        ens = large_exponent_ensemble()
        opts = SolverOptions()
        report = solve_power_mean(ens, 0.95, opts)
        assert report.converged
        assert report.iterations <= 30
        assert map_gradient_norm(ens, report.solution, 0.05) <= 10 * opts.residual_tol

    @pytest.mark.parametrize("solver", ["power:0.25", "power:0.75", "harmonic:0.3"])
    def test_report_traces_one_residual_per_iteration(self, rng, solver):
        # one map residual per iteration, the last the reported one
        cases = [ref_ensemble(), large_exponent_ensemble()] + [
            random_ensemble(rng, d, m, 1.0) for d, m in ((1, 3), (2, 2), (4, 8))
        ]
        for ens in cases:
            report = fixed_point_solve(ens, solver, SolverOptions())
            assert report.converged
            assert len(report.objective_trace) == report.iterations
            assert report.objective_trace[-1] == report.final_residual

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("solver", ["power:0.25", "power:0.5", "power:0.75", "mean:arcsine"])
    def test_solution_satisfies_map_through_kubo_ando_mean(self, seed, solver):
        # noncommuting members with spectra in [e^-3, e^3]; the map
        # X -> sum_j w_j X #_{1-t} A_j is recomputed outside the solver
        rng = np.random.default_rng(seed)
        ens = ensemble([random_pd_np(rng, 4, 3.0) for _ in range(4)], rng.dirichlet(np.ones(4)))
        opts = SolverOptions()
        family, _, arg = solver.partition(":")
        if family == "power":
            t = float(arg)
            report = solve_power_mean(ens, t, opts)
        else:
            t = 0.5  # the arcsine measure represents the square root
            report = solve_mean_equation(ens, ARCSINE_SPEC, opts)
        assert report.converged
        assert map_gradient_norm(ens, report.solution, 1.0 - t) <= 10 * opts.residual_tol

    @pytest.mark.parametrize("seed", [0, 1])
    def test_extrapolation_outside_the_cone_falls_back(self, seed):
        # two members with spectrum {e^-6, e^6}: the extrapolated first step
        # is exact here and its point passes the Cholesky test, so no fallback
        # is taken; test_newton_point_outside_the_cone_* and
        # test_extrapolated_point_that_fails_cholesky_* cover the fallback
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(2):
            U = random_unitary_np(rng, 2)
            mats.append((U * np.exp([-6.0, 6.0])) @ U.conj().T)
        ens = ensemble(mats, rng.dirichlet(np.ones(2)))
        opts = SolverOptions()
        report = solve_power_mean(ens, 0.75, opts)
        assert report.converged
        assert map_gradient_norm(ens, report.solution, 0.25) <= 10 * opts.residual_tol

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_scalar_ensemble_matches_closed_form(self, rng, t):
        # 1x1 members commute, so the extrapolated first step is exact
        a = np.exp(rng.uniform(-3, 3, size=(5, 1)))
        ens = ensemble([np.diag(row) for row in a], rng.dirichlet(np.ones(5)))
        report = solve_power_mean(ens, t, SolverOptions(residual_tol=1e-12))
        assert report.converged
        oracle = scalar_power_barycenter(a, ens.weights, t)
        assert report.solution.mat[0, 0].real == pytest.approx(oracle[0], rel=1e-10)

    @needs_scipy
    def test_scalar_ensemble_newton_steps(self, rng):
        # 1x1 members: the Krylov vectors r and (I - D) r of a Newton step are
        # collinear, so its 2x2 least-squares system is singular and the
        # one-dimensional solve is taken.  The harmonic generator is not a
        # power, so its first step is the plain map and Newton steps follow.
        a = np.exp(rng.uniform(-3, 3, size=(5, 1)))
        ens = ensemble([np.diag(row) for row in a], rng.dirichlet(np.ones(5)))
        gen = HarmonicGenerator(0.3)
        report = solve_mean_equation(ens, gen, SolverOptions(residual_tol=1e-12))
        assert report.converged and report.iterations > 2
        oracle = scalar_mean_equation(a, ens.weights, gen)
        assert report.solution.mat[0, 0].real == pytest.approx(oracle[0], rel=1e-10)

    @pytest.mark.parametrize(
        "dim, m, t, seed", [(2, 2, 0.75, 0), (2, 8, 0.75, 2), (4, 2, 0.5, 1), (16, 2, 0.5, 1)]
    )
    def test_converged_solution_passes_its_own_test(self, dim, m, t, seed):
        # spread 6, at the map's own rounding floor: the eigh of M_j (condition
        # number up to about 1e7) puts the floor between 1e-15 and 1e-13, at a
        # value that depends on the BLAS kernel, so the tolerance is the
        # smallest residual this input reaches, not a fixed number.  The
        # returned point must itself satisfy the test that declared convergence.
        ens = spread_ensemble(seed, dim, m, 6.0)
        probe = solve_power_mean(ens, t, SolverOptions(max_iterations=200, residual_tol=1e-300))
        floor = min(probe.objective_trace)
        assert floor <= 1e-13
        report = solve_power_mean(ens, t, SolverOptions(max_iterations=200, residual_tol=floor))
        assert report.converged
        assert report.final_residual == floor
        again = solve_power_mean(
            ens, t, SolverOptions(max_iterations=1, initial_guess=report.solution)
        )
        assert again.final_residual <= floor

    @pytest.mark.parametrize("name", JACOBIAN_GENERATORS)
    def test_jacobian_matches_central_differences(self, rng, name):
        # with L fixed, L^{-1} T(L (I + Z) L*) L^{-*} = S + D[Z] + O(Z^2); the
        # map is recomputed outside the solver, through the square root of X
        gen = JACOBIAN_GENERATORS[name]
        ens = random_ensemble(rng, 4, 5, 1.5)
        L = np.linalg.cholesky(random_pd_np(rng, 4, 1.0))
        Li = np.linalg.inv(L)
        Z = random_hermitian_np(rng, 4)
        Z /= np.linalg.norm(Z)
        fp1 = float(gen.f_prime(1.0))
        weights = ens.weights[:, None] / fp1
        # the pass at X = L L* recovers L to rounding: the Cholesky factor is unique
        _, L_pass, S, y, Vc, Vh, _, _ = barycenter._map_pass(
            L @ L.conj().T, ens.stack, weights, gen.f_prime
        )
        assert np.linalg.norm(L_pass - L) <= 1e-14 * np.linalg.norm(L)
        table = ens.weights[:, None, None] * _map_differences(gen.mu, y)
        jacobian = barycenter._map_jacobian(Vc, Vh, table)

        def frame(h):
            X = L @ (np.eye(4) + h * Z) @ L.conj().T
            return Li @ mean_map(ens, X, gen) @ Li.conj().T

        assert np.linalg.norm(S - frame(0.0)) <= 1e-12 * np.linalg.norm(S)
        h = 1e-5  # rounding, amplified by L^{-1}, outweighs truncation below this
        fd = (frame(h) - frame(-h)) / (2 * h)
        assert np.linalg.norm(jacobian(Z) - fd) <= 1e-7 * np.linalg.norm(fd)

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_newton_iteration_bound_at_spread_3(self, t):
        # eight members at spread 3, where the plain map contracts by only t
        # per step: Newton steps take at most 8 iterations on these inputs
        for seed in range(20):
            report = solve_power_mean(spread_ensemble(seed, 4, 8, 3.0), t)
            assert report.converged
            assert report.iterations <= 9

    def test_newton_point_outside_the_cone_falls_back(self, monkeypatch):
        # every Newton point is moved outside the cone, so it fails the
        # Cholesky test and every step after the first is the plain map's,
        # and the solve still converges
        newton = barycenter._newton_point
        refused = []

        def newton_outside(*args):
            Y = newton(*args)
            if Y is None:
                return None
            refused.append(Y)
            return -Y

        monkeypatch.setattr(barycenter, "_newton_point", newton_outside)
        ens = spread_ensemble(3, 4, 8, 1.0)
        opts = SolverOptions()
        report = solve_power_mean(ens, 0.5, opts)
        assert report.converged
        assert len(refused) == report.iterations - 2  # iterations 2 .. k-1
        assert map_gradient_norm(ens, report.solution, 0.5) <= 10 * opts.residual_tol

    @pytest.mark.parametrize("t", [0.75, 0.9])
    def test_newton_point_outside_the_cone_at_spread_6(self, monkeypatch, t):
        # three 4x4 members at spread 6: after the first step the L-frame
        # residual S - I is still of order 1, the early Newton points leave the
        # cone, and the plain map carries the solve (the extrapolated map,
        # taken instead, overshoots further at every step and never converges)
        newton, map_pass = barycenter._newton_point, barycenter._map_pass
        proposals, refused = [], []

        def proposing(*args):
            proposals.append(newton(*args))
            return proposals[-1]

        def passing(Y, *args):
            point = map_pass(Y, *args)
            if point is None and proposals and Y is proposals[-1]:
                refused.append(Y)  # a Newton point without a pass
            return point

        monkeypatch.setattr(barycenter, "_newton_point", proposing)
        monkeypatch.setattr(barycenter, "_map_pass", passing)
        ens = spread_ensemble(0, 4, 3, 6.0)
        opts = SolverOptions()
        report = solve_power_mean(ens, t, opts)
        assert report.converged
        assert refused or any(Y is None for Y in proposals)
        assert map_gradient_norm(ens, report.solution, 1.0 - t) <= 10 * opts.residual_tol

    def test_pass_refuses_a_spectrum_at_or_below_zero(self):
        # X = I passes the Cholesky test, but M_2 = A_2 is indefinite: f' is
        # undefined there, so X has no pass
        stack = np.array([np.eye(2), np.diag([1.0, -1e-12])], dtype=np.complex128)
        weights = np.array([[0.5], [0.5]])
        f_prime = HarmonicGenerator(0.3).f_prime
        eye = np.eye(2, dtype=np.complex128)
        assert barycenter._map_pass(eye, stack[:1], weights[:1], f_prime) is not None
        assert barycenter._map_pass(eye, stack, weights, f_prime) is None

    def test_converges_at_spread_12_against_the_50_digit_map(self):
        # members of condition e^24 = 2.6e10.  Depending on the BLAS kernel, a
        # Newton point that passes the Cholesky test can give an M_j whose
        # eigh returns an eigenvalue <= 0; its pass refuses it like a point
        # that fails Cholesky, the plain map is taken, and the solve
        # converges, by a residual that the 50-digit map, formed through
        # X^{1/2}, confirms.
        ens = spread_ensemble(1, 8, 3, 12.0)
        opts = SolverOptions()
        report = solve_mean_equation(ens, HarmonicGenerator(0.3), opts)
        assert report.converged
        lam = mp.mpf(0.3)
        true = mp_map_residual(
            ens.stack, ens.weights, lambda x: lam / ((1 - lam) * x + lam) ** 2, report.solution.mat
        )
        assert true <= opts.residual_tol
        assert true == pytest.approx(report.final_residual, rel=0.01)

    def test_reports_non_convergence(self):
        report = solve_power_mean(ref_ensemble(), 0.75, SolverOptions(max_iterations=1))
        assert not report.converged
        assert report.iterations == 1 == len(report.objective_trace)
        assert report.final_residual == report.objective_trace[-1]
        assert report.final_residual > SolverOptions().residual_tol

    @pytest.mark.parametrize("t, iterations", [(0.75, 1), (0.95, 3)], ids=["reference", "large-exponent"])
    def test_unconverged_solve_returns_the_point_it_reports(self, t, iterations):
        # the returned solution is X_k, where final_residual was measured, not
        # the next point the solver would have tried
        ens = ref_ensemble() if t == 0.75 else large_exponent_ensemble()
        report = solve_power_mean(ens, t, SolverOptions(max_iterations=iterations))
        assert not report.converged
        assert report.iterations == iterations
        again = solve_power_mean(
            ens, t, SolverOptions(max_iterations=1, initial_guess=report.solution)
        )
        assert again.final_residual == report.final_residual
        assert map_gradient_norm(ens, report.solution, 1.0 - t) == pytest.approx(
            report.final_residual, rel=1e-10
        )

    def test_fallback_that_fails_cholesky_ends_the_solve_unconverged(self, monkeypatch):
        # only the start has a pass: the extrapolated point and then the plain
        # map's T(X_0) "fail" theirs, so the solve stops at X_0 and reports
        # it, with no exception
        map_pass = barycenter._map_pass
        calls = []

        def start_only(X, *args):
            calls.append(X)
            return map_pass(X, *args) if len(calls) == 1 else None

        monkeypatch.setattr(barycenter, "_map_pass", start_only)
        ens = ref_ensemble()
        report = solve_power_mean(ens, 0.75)
        assert len(calls) == 3  # the start, the proposal and the plain map
        assert not report.converged
        assert report.iterations == 1
        assert np.array_equal(report.solution.mat, ens.arithmetic_mean().mat)

    @pytest.mark.parametrize("solver", ["power:0.5", "harmonic:0.3"])
    def test_start_without_a_pass_is_reported(self, monkeypatch, solver):
        # whether a start near the members' condition floor has a pass depends
        # on the BLAS kernel's rounding, so the refusal is forced here
        monkeypatch.setattr(barycenter, "_map_pass", lambda X, *args: None)
        ens = ref_ensemble()
        report = fixed_point_solve(ens, solver, SolverOptions())
        assert not report.converged
        assert report.iterations == 0 and report.objective_trace == []
        assert report.final_residual == np.inf
        assert np.array_equal(report.solution.mat, ens.arithmetic_mean().mat)

    def test_extrapolated_point_that_fails_cholesky_falls_back_to_the_plain_map(
        self, monkeypatch
    ):
        # only the extrapolated point (the second pass) "fails": the first
        # step is the plain map's, and the solve goes on to converge
        map_pass = barycenter._map_pass
        calls = []

        def refuse_second(X, *args):
            calls.append(X)
            return None if len(calls) == 2 else map_pass(X, *args)

        monkeypatch.setattr(barycenter, "_map_pass", refuse_second)
        ens = ref_ensemble()
        opts = SolverOptions()
        report = solve_power_mean(ens, 0.75, opts)
        assert report.converged
        assert map_gradient_norm(ens, report.solution, 0.25) <= 10 * opts.residual_tol
        assert len(calls) > 2  # the refused proposal was taken

    @pytest.mark.parametrize(
        "solver, per_iteration",
        [("power:0.25", 1), ("power:0.5", 1), ("power:0.75", 1), ("harmonic:0.3", 1)],
    )
    def test_eigh_calls_per_iteration(self, monkeypatch, solver, per_iteration):
        # the M_j stack takes one batched eigh, and the Newton step only
        # products; S^(beta/2), one more eigh at beta = 4/3 (t = 1/4), is taken
        # only by the extrapolated first step
        ens = spread_ensemble(3, 4, 8, 1.0)
        eigh = np.linalg.eigh
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        counts = []
        for n in (2, 3):
            calls.clear()
            opts = SolverOptions(max_iterations=n, residual_tol=1e-300)
            assert fixed_point_solve(ens, solver, opts).iterations == n
            counts.append(len(calls))
        assert counts[1] - counts[0] == per_iteration

    @pytest.mark.parametrize("solver", ["power:0.25", "power:0.5", "power:0.75", "harmonic:0.3"])
    def test_first_residual_is_the_map_residual(self, rng, solver):
        # the Cholesky congruence L^{-1} A_j L^{-*} gives the map of the square
        # root congruence X^{-1/2} A_j X^{-1/2}
        ens = random_ensemble(rng, 4, 5, 1.5)
        X = pd(random_pd_np(rng, 4, 1.0))
        report = fixed_point_solve(ens, solver, SolverOptions(max_iterations=1, initial_guess=X))
        family, _, arg = solver.partition(":")
        if family == "power":
            expected = map_gradient_norm(ens, X, 1.0 - float(arg))
        else:
            expected = harmonic_map_gradient_norm(ens, X, float(arg))
        assert expected >= 0.01  # X is not the mean
        assert report.objective_trace[0] == pytest.approx(expected, rel=1e-12)

    def test_degenerate_newton_space_proposes_no_point(self, rng):
        # r = S - I = 0 spans nothing, so there is no Newton point
        X = random_pd_np(rng, 3)
        L = np.linalg.cholesky(X)
        assert barycenter._newton_point(X, L, np.eye(3), lambda Z: Z) is None

    def test_no_newton_point_falls_back_to_the_plain_map(self, monkeypatch):
        ens = ensemble([REF_A1, REF_A2, REF_A3], REF_THREE_WEIGHTS)
        gen = HarmonicGenerator(0.3)
        newton = solve_mean_equation(ens, gen)
        monkeypatch.setattr(barycenter, "_newton_point", lambda *args: None)
        plain = solve_mean_equation(ens, gen)
        assert newton.converged and plain.converged
        assert plain.iterations > newton.iterations
        assert np.linalg.norm(plain.solution.mat - newton.solution.mat) <= 1e-7

    @pytest.mark.parametrize("beta", [2.0, 4.0])
    def test_half_power_by_products_matches_the_spectral_power(self, rng, beta):
        S = random_pd_np(rng, 6, 1.0)
        e, V = np.linalg.eigh(S)
        spectral = _spectral(V, e ** (beta / 2))
        products = barycenter._half_power(S, beta)
        assert np.linalg.norm(products - spectral) <= 1e-13 * np.linalg.norm(spectral)


class TestNoncommutativityMeasure:
    def test_single_member_vanishes(self, rng):
        A = random_pd_np(rng, 2)
        val = noncommutativity_measure(ensemble([A], [1.0]), ARCSINE_SPEC)
        assert val <= 1e-7

    def test_commuting_ensemble_vanishes(self, rng):
        ens = diagonal_ensemble(rng, 3, 3)
        val = noncommutativity_measure(ens, ARCSINE_SPEC)
        assert val <= 1e-6

    def test_reference_ensemble_is_noncommutative(self):
        val = noncommutativity_measure(ref_ensemble(), ARCSINE_SPEC)
        assert val >= 0.03

    def test_thompson_metric_variant(self):
        val = noncommutativity_measure(ref_ensemble(), ARCSINE_SPEC, metric="thompson")
        assert val > 0.0

    def test_start_without_a_pass_is_a_nonconvergence(self):
        with pytest.raises(NonConvergenceError, match="residual inf"):
            noncommutativity_measure(spread_ensemble(1, 8, 3, 17.0), ARCSINE_SPEC)

    def test_unknown_metric(self):
        with pytest.raises(DomainError):
            noncommutativity_measure(ref_ensemble(), ARCSINE_SPEC, metric="spectral")

    def test_nonconvergence_names_failing_solver(self):
        with pytest.raises(NonConvergenceError, match="solve_barycenter"):
            noncommutativity_measure(
                ref_ensemble(), ARCSINE_SPEC, opts=SolverOptions(max_iterations=2)
            )

    def test_nonconvergence_names_the_mean_equation_solver(self):
        # in 3 iterations the Newton solve converges and the fixed point does not
        ens = ensemble([REF_A1, REF_A2, REF_A3], REF_THREE_WEIGHTS)
        with pytest.raises(NonConvergenceError, match="solve_mean_equation"):
            noncommutativity_measure(ens, ARCSINE_SPEC, opts=SolverOptions(max_iterations=3))

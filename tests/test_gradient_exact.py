"""The divided-difference barycenter gradient and Hessian against independent assemblies.

Each reference builds G = c I - sum_j w_j A_j^{-1/2} Df(M_j)[A_j] A_j^{-1/2}
one member at a time, from the block-triangular identity for x^t (the
arcsine and Beta-type densities) and from `frechet_derivative` for discrete
measures and closed forms.  The Hessian is checked against
central differences of the gradient.
"""

from decimal import Decimal, localcontext
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from qhmeans import (
    ArcsineMeasure,
    ArithmeticGenerator,
    BetaTypeMeasure,
    DiscreteMeasure,
    DivergenceSpec,
    GeometricGenerator,
    HarmonicGenerator,
    MeasureGenerator,
    arcsine_generator,
    center_of_mass,
    ensemble,
    euclidean_gradient,
    f_mu,
    f_mu_prime,
    frechet_derivative,
    pd,
)

from qhmeans.barycenter import _as_state, _Workspace
from qhmeans.measures import _first_differences

from conftest import assembled_gradient, needs_scipy, power_derivative, random_hermitian_np, random_pd_np


def _random_problem(rng, dim, m, spread):
    mats = [random_pd_np(rng, dim, spread) for _ in range(m)]
    ens = ensemble(mats, rng.dirichlet(np.ones(m)))
    return ens, pd(random_pd_np(rng, dim, spread))


@pytest.mark.parametrize(
    "mu",
    [
        pytest.param(ArcsineMeasure(), marks=needs_scipy, id="arcsine"),
        pytest.param(BetaTypeMeasure(0.3), marks=needs_scipy, id="beta0.3"),
        pytest.param(DiscreteMeasure(((0.2, 0.5), (0.5, 0.3), (0.9, 0.2))), id="discrete3"),
    ],
)
@pytest.mark.parametrize("spread", [1.0, 4.0])
def test_measure_generators_match_independent_derivatives(rng, mu, spread):
    spec = DivergenceSpec(MeasureGenerator(mu))
    if isinstance(mu, DiscreteMeasure):
        def derivative(M, A):
            return frechet_derivative(
                lambda x: f_mu(mu, x), lambda x: f_mu_prime(mu, x), M, A
            ).mat
    else:
        t = mu.t if isinstance(mu, BetaTypeMeasure) else 0.5

        def derivative(M, A):
            return power_derivative(M, A, t)
    for _ in range(3):
        ens, X = _random_problem(rng, 4, 3, spread)
        exact = euclidean_gradient(ens, X, spec).mat
        reference = assembled_gradient(ens, X, spec.c, derivative)
        assert np.linalg.norm(exact - reference) <= 1e-10 * max(1.0, np.linalg.norm(reference))


@pytest.mark.parametrize(
    "gen",
    [GeometricGenerator(0.25), GeometricGenerator(0.5), HarmonicGenerator(0.3), ArithmeticGenerator(0.3)],
    ids=["geometric0.25", "geometric0.5", "harmonic0.3", "arithmetic0.3"],
)
def test_closed_form_generators_match_frechet_derivative(rng, gen):
    # DivergenceSpec rejects the affine arithmetic generator (its divergence is
    # identically zero), so the gradient is checked on the bare (generator, c).
    spec = SimpleNamespace(generator=gen, c=center_of_mass(gen.mu))
    for spread in (1.0, 4.0):
        ens, X = _random_problem(rng, 4, 3, spread)
        exact = euclidean_gradient(ens, X, spec).mat
        reference = assembled_gradient(
            ens, X, spec.c, lambda M, A: frechet_derivative(gen.f, gen.f_prime, M, A).mat
        )
        assert np.linalg.norm(exact - reference) <= 1e-11 * max(1.0, np.linalg.norm(reference))


@pytest.mark.parametrize("s", [0.3, 1.0, 7.0])
def test_all_ties_oracle(rng, s):
    # One member A at X = sA gives M = sI: every eigenvalue pair is a tie, and
    # G = (c - f'(s)) I exactly.
    A = random_pd_np(rng, 4, 1.0)
    ens = ensemble([A], [1.0])
    geometric = GeometricGenerator(0.3)
    cases = [
        (DivergenceSpec(geometric), float(geometric.f_prime(s))),
        (DivergenceSpec(arcsine_generator()), f_mu_prime(ArcsineMeasure(), s)),
    ]
    for spec, fprime in cases:
        G = euclidean_gradient(ens, pd(s * A), spec).mat
        assert np.linalg.norm(G - (spec.c - fprime) * np.eye(4)) <= 1e-12


def _exact_power_difference(t, a, b):
    """f^[1](a, b) of x^t in 50-digit decimal arithmetic, t a^(t-1) at a tie."""
    with localcontext() as ctx:
        ctx.prec = 50
        t, a, b = Decimal(t), Decimal(float(a)), Decimal(float(b))
        return float(t * a ** (t - 1) if a == b else (a**t - b**t) / (a - b))


@pytest.mark.parametrize("sep", [10.0**k for k in range(-12, -1)])
@pytest.mark.parametrize("t", [0.3, 0.5])
def test_power_table_near_ties_against_exact_arithmetic(t, sep):
    # The gradient's f^[1] table of x^t on clustered spectra; forming
    # (b^t - a^t) / (b - a) directly loses about eps / sep (relative) there.
    mu = GeometricGenerator(t).mu
    for base in (1e-3, 1.0, 37.3):
        w = base * np.array([1.0, 1.0 + sep, 1.0 + 2 * sep, 5.0])
        table = _first_differences(mu, w[None])[0]
        for i, k in np.ndindex(4, 4):
            ref = _exact_power_difference(t, w[i], w[k])
            assert abs(table[i, k] - ref) <= 1e-13 * abs(ref)


def _mp_power_difference(t, a, b):
    """f^[1](a, b) of x^t at the exact float arguments in 40-digit mpmath
    arithmetic, t a^(t-1) at a tie."""
    with mpmath.workdps(40):
        t, a, b = mpmath.mpf(t), mpmath.mpf(float(a)), mpmath.mpf(float(b))
        return float(t * a ** (t - 1) if a == b else (b**t - a**t) / (b - a))


@pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
def test_power_table_across_separations_and_scales(t):
    # The table in the log domain: u = log e_k - log e_i is rounded by about
    # eps |log e|, up to 20 eps here, and the ratio's slope in u is at most
    # t (1 - t) / 2.  The worst error measured over these cases is 2.9e-15.
    mu = BetaTypeMeasure(t)
    for scale in (-20, -7, 0, 3, 20):
        for sep in np.logspace(-14, 0, 15):
            w = np.exp(scale) * np.array([1.0, 1.0 + sep, 1.0 + 2 * sep, 5.0])
            w = np.concatenate((w, [np.exp(-20), np.exp(20)]))
            table = _first_differences(mu, w)
            for i, k in np.ndindex(6, 6):
                ref = _mp_power_difference(t, w[i], w[k])
                assert abs(table[i, k] - ref) <= 1e-14 * ref


def test_repeated_calls_bitwise_identical(rng):
    ens, X = _random_problem(rng, 4, 3, 1.0)
    for spec in (DivergenceSpec(arcsine_generator()), DivergenceSpec(GeometricGenerator(0.5))):
        a = euclidean_gradient(ens, X, spec).mat
        b = euclidean_gradient(ens, X, spec).mat
        assert np.array_equal(a, b)


HESSIAN_GENERATORS = [
    GeometricGenerator(0.25),
    GeometricGenerator(0.5),
    HarmonicGenerator(0.3),
    arcsine_generator(),
    MeasureGenerator(DiscreteMeasure(((0.2, 0.5), (0.5, 0.3), (0.9, 0.2)))),
]
HESSIAN_IDS = ["geometric0.25", "geometric0.5", "harmonic0.3", "arcsine", "discrete3"]


def test_workspace_setup_takes_no_eigh(rng, monkeypatch):
    # the members enter through their Cholesky factors; the first point takes
    # the one batched eigh of the M_j stack
    ens, X = _random_problem(rng, 4, 3, 1.0)
    X = _as_state(ens, X)
    specs = [DivergenceSpec(gen) for gen in HESSIAN_GENERATORS]
    eigh = np.linalg.eigh
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    for spec in specs:
        ws = _Workspace(ens, spec)
        assert calls == []
        point = ws.point(X)  # its gradient is point.G
        ws.objective(point)
        ws.hessian(point)
        assert len(calls) == 1
        calls.clear()


def _hessian_problem(rng, gen, dim=4):
    ens, X = _random_problem(rng, dim, 3, 1.0)
    ws = _Workspace(ens, DivergenceSpec(gen))
    return ws, _as_state(ens, X)


# d = 1 has one index pair, so only larger d can tell the index transposes of
# the assembly apart; d = 8 is the largest in the benchmark's solver mix.
@pytest.mark.parametrize("dim", [1, 2, 4, 8])
@pytest.mark.parametrize("gen", HESSIAN_GENERATORS, ids=HESSIAN_IDS)
def test_hessian_matches_gradient_differences(rng, gen, dim):
    h = 1e-6
    for _ in range(3):
        ws, X = _hessian_problem(rng, gen, dim)
        H = random_hermitian_np(rng, dim)
        applied = (ws.hessian(ws.point(X)) @ H.reshape(-1)).reshape(dim, dim)
        central = (ws.point(X + h * H).G - ws.point(X - h * H).G) / (2 * h)
        assert np.linalg.norm(applied - central) <= 1e-8 * np.linalg.norm(central)


@pytest.mark.parametrize("gen", HESSIAN_GENERATORS, ids=HESSIAN_IDS)
def test_hessian_is_positive_on_hermitian_directions(rng, gen):
    # the objective is strictly convex, so Re Tr(H DG[H]) > 0 for H != 0
    ws, X = _hessian_problem(rng, gen)
    hess = ws.hessian(ws.point(X))
    for _ in range(20):
        H = random_hermitian_np(rng, 4)
        assert np.vdot(H.reshape(-1), hess @ H.reshape(-1)).real > 0

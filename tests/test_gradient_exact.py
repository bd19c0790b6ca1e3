"""The divided-difference barycenter gradient against independent assemblies.

Each reference builds G = c I - sum_j w_j A_j^{-1/2} Df(M_j)[A_j] A_j^{-1/2}
one member at a time, from `frechet_derivative_fmu` (resolvent quadrature)
for measure generators and from `frechet_derivative` for closed forms.
"""

from types import SimpleNamespace

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
    ensemble,
    euclidean_gradient,
    f_mu_prime,
    frechet_derivative,
    frechet_derivative_fmu,
    pd,
)

from conftest import assembled_gradient, random_pd_np

REFERENCE_ORDER = 4096


def _random_problem(rng, dim, m, spread):
    mats = [random_pd_np(rng, dim, spread) for _ in range(m)]
    ens = ensemble(mats, rng.dirichlet(np.ones(m)))
    return ens, pd(random_pd_np(rng, dim, spread))


@pytest.mark.parametrize(
    "mu",
    [ArcsineMeasure(), BetaTypeMeasure(0.3), DiscreteMeasure(((0.2, 0.5), (0.5, 0.3), (0.9, 0.2)))],
    ids=["arcsine", "beta0.3", "discrete3"],
)
@pytest.mark.parametrize("spread", [1.0, 4.0])
def test_measure_generators_match_resolvent_quadrature(rng, mu, spread):
    spec = DivergenceSpec(MeasureGenerator(mu))
    for _ in range(3):
        ens, X = _random_problem(rng, 4, 3, spread)
        exact = euclidean_gradient(ens, X, spec, REFERENCE_ORDER).mat
        reference = assembled_gradient(
            ens, X, spec.c,
            lambda M, A: frechet_derivative_fmu(mu, M, A, REFERENCE_ORDER).mat,
        )
        assert np.linalg.norm(exact - reference) <= 1e-10 * max(1.0, np.linalg.norm(reference))


@pytest.mark.parametrize(
    "gen",
    [GeometricGenerator(0.25), GeometricGenerator(0.5), HarmonicGenerator(0.3), ArithmeticGenerator(0.3)],
    ids=["geometric0.25", "geometric0.5", "harmonic0.3", "arithmetic0.3"],
)
def test_closed_form_generators_match_frechet_derivative(rng, gen):
    # DivergenceSpec rejects the affine arithmetic generator (its divergence is
    # identically zero), so the gradient is checked on the bare (generator, c).
    spec = SimpleNamespace(generator=gen, c=gen.weight)
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


def test_repeated_calls_bitwise_identical(rng):
    ens, X = _random_problem(rng, 4, 3, 1.0)
    for spec in (DivergenceSpec(arcsine_generator()), DivergenceSpec(GeometricGenerator(0.5))):
        a = euclidean_gradient(ens, X, spec).mat
        b = euclidean_gradient(ens, X, spec).mat
        assert np.array_equal(a, b)

"""Acceptance suite: one test per criterion, one printed line per criterion.

Run as `pytest tests/test_acceptance.py -v -s` for line-per-criterion output.
All tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from qhmeans import (
    DivergenceSpec,
    GeometricGenerator,
    HermitianMatrix,
    LogGenerator,
    SolverOptions,
    arcsine_generator,
    ensemble,
    euclidean_gradient,
    f_mu,
    f_mu_prime,
    frechet_derivative,
    kubo_ando_mean,
    maximal_f_divergence,
    noncommutativity_measure,
    objective,
    pd,
    quadrature,
    solve_barycenter,
    solve_mean_equation,
    MeasureGenerator,
    ArcsineMeasure,
    BetaTypeMeasure,
)
from qhmeans.properties import run_campaigns

from conftest import (
    REF_A1,
    REF_A2,
    REF_BARYCENTER,
    REF_ONE_STEP,
    convex_order_leq,
    loewner_leq,
    needs_scipy,
    power_derivative,
    random_convex_order_pair,
    random_hermitian_np,
    random_pd_np,
)

ARCSINE_SPEC = DivergenceSpec(arcsine_generator())


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2} PASS  {detail}", flush=True)


@pytest.fixture(scope="module")
def warm_solver():
    # Pay the first-call costs once, so criterion 1 times only the solve.
    ens = ensemble([np.eye(2) * 2.0], [1.0])
    solve_barycenter(ens, ARCSINE_SPEC, SolverOptions(max_iterations=3))
    return True


@pytest.fixture(scope="module")
def reference_solution(warm_solver):
    ens = ensemble([REF_A1, REF_A2], [0.5, 0.5])
    t0 = time.perf_counter()
    rep = solve_barycenter(ens, ARCSINE_SPEC)
    elapsed = time.perf_counter() - t0
    return ens, rep, elapsed


def test_criterion_01_reference_barycenter(reference_solution):
    ens, rep, elapsed = reference_solution
    assert rep.converged
    delta = np.max(np.abs(rep.solution.mat.real - REF_BARYCENTER))
    assert delta <= 1e-3
    res = float(
        np.linalg.norm(euclidean_gradient(ens, rep.solution, ARCSINE_SPEC).mat)
    )
    assert res <= 1e-6
    assert elapsed < 5.0
    report(1, f"barycenter delta {delta:.2e}, residual {res:.2e}, {elapsed:.2f}s")


def test_criterion_02_non_coincidence(reference_solution):
    ens, rep, _ = reference_solution
    gen = GeometricGenerator(0.5)
    X = rep.solution
    image = 0.5 * (
        kubo_ando_mean(ens.stack[0], X, gen).mat
        + kubo_ando_mean(ens.stack[1], X, gen).mat
    )
    delta = np.max(np.abs(image.real - REF_ONE_STEP))
    gap = np.linalg.norm(image - X.mat)
    assert delta <= 1e-3
    assert gap >= 0.03
    report(2, f"one-step image delta {delta:.2e}, frobenius gap {gap:.3f}")


def test_criterion_03_maximal_divergence_pathologies():
    worst = 0.0
    for d in (1, 2, 5):
        val = maximal_f_divergence(
            pd(np.eye(d)), pd(np.exp(-1.0) * np.eye(d)), lambda w: w * np.log(w)
        )
        worst = max(worst, abs(val + d * np.exp(-1.0)))
        assert abs(val + d * np.exp(-1.0)) <= 1e-10
    rng = np.random.default_rng(3)
    for d in (1, 2, 5):
        A = pd(random_pd_np(rng, d))
        val = maximal_f_divergence(A, A, lambda w: w**2)
        trace = np.trace(A.mat).real
        worst = max(worst, abs(val - trace))
        assert abs(val - trace) <= 1e-10
    report(3, f"worst deviation {worst:.2e} across d in (1, 2, 5)")


def test_criterion_04_commutative_power_mean_theorem():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        diag = np.exp(rng.uniform(-1.0, 1.0, size=(m, dim)))
        w = rng.dirichlet(np.ones(m))
        ens = ensemble([np.diag(row) for row in diag], w)
        for t in (0.25, 0.5, 0.75):
            rep = solve_barycenter(ens, DivergenceSpec(GeometricGenerator(t)))
            assert rep.converged
            oracle = np.sum(w[:, None] * diag ** (1 - t), axis=0) ** (1 / (1 - t))
            err = np.max(np.abs(np.diag(rep.solution.mat).real - oracle))
            worst = max(worst, err)
            assert err <= 1e-6
    report(4, f"20 diagonal ensembles x 3 orders, worst error {worst:.2e}")


def test_criterion_05_relative_entropy_barycenter():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        mats = [np.diag(np.exp(rng.uniform(-1, 1, size=dim))) for _ in range(m)]
        w = rng.dirichlet(np.ones(m))
        ens = ensemble(mats, w)
        rep = solve_mean_equation(ens, LogGenerator())
        assert rep.converged
        err = np.linalg.norm(rep.solution.mat - ens.arithmetic_mean().mat)
        worst = max(worst, err)
        assert err <= 1e-8
    report(5, f"log-generator barycenter vs weighted sum, worst error {worst:.2e}")


@needs_scipy
def test_criterion_06_gradient_correctness():
    rng = np.random.default_rng(6)
    t = 1e-5
    worst_rel = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        mats = [random_pd_np(rng, dim, 0.7) for _ in range(m)]
        w = rng.dirichlet(np.ones(m))
        ens = ensemble(mats, w)
        X = pd(random_pd_np(rng, dim, 0.5))
        Y = random_hermitian_np(rng, dim)
        G = euclidean_gradient(ens, X, ARCSINE_SPEC)
        directional = float(np.trace(G.mat @ Y).real)
        fd = (
            objective(ens, pd(X.mat + t * Y), ARCSINE_SPEC)
            - objective(ens, pd(X.mat - t * Y), ARCSINE_SPEC)
        ) / (2 * t)
        rel = abs(directional - fd) / max(abs(fd), 1e-12)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-6

    worst_dual = 0.0
    mu = ArcsineMeasure()
    for _ in range(20):
        X = pd(random_pd_np(rng, 4))
        Y = HermitianMatrix(random_hermitian_np(rng, 4))
        block_path = power_derivative(X.mat, Y.mat, 0.5)
        dk_path = frechet_derivative(
            lambda v: f_mu(mu, v), lambda v: f_mu_prime(mu, v), X, Y
        )
        err = np.linalg.norm(block_path - dk_path.mat)
        worst_dual = max(worst_dual, err)
        assert err <= 1e-8
    report(6, f"worst FD rel error {worst_rel:.2e}, worst dual-path {worst_dual:.2e}")


def test_criterion_07_property_campaigns():
    clean = run_campaigns(ARCSINE_SPEC, seed=42, trials=200, dim=3)
    assert clean.all_passed
    worst = min(c.worst_slack for c in clean.campaigns)
    assert worst >= -1e-9
    corrupted = run_campaigns(
        ARCSINE_SPEC, seed=42, trials=5, dim=3, corrupt_channel=True
    )
    assert not corrupted.all_passed
    dpi = next(c for c in corrupted.campaigns if c.name == "dpi")
    assert dpi.violations >= 1
    report(7, f"4 x 200-trial campaigns pass, worst slack {worst:.2e}; "
              "corrupted channel detected")


@needs_scipy
def test_criterion_08_generator_measure_consistency():
    xs = np.logspace(-3, 3, 121)
    err = np.max(np.abs(f_mu(quadrature(ArcsineMeasure(), 256), xs) - np.sqrt(xs)))
    assert err <= 1e-10
    worst_beta = 0.0
    for t in (0.25, 0.5, 0.75):
        rule = quadrature(BetaTypeMeasure(t), 64)
        mass_err = abs(float(rule.masses.sum()) - 1.0)
        mean_err = abs(float(np.dot(rule.masses, rule.locations)) - t)
        worst_beta = max(worst_beta, mass_err, mean_err)
        assert mass_err <= 1e-8
        assert mean_err <= 1e-8
    report(8, f"arcsine vs sqrt {err:.2e}, beta moment error {worst_beta:.2e}")


def test_criterion_09_convex_order_monotonicity():
    rng = np.random.default_rng(9)
    worst = np.inf
    for i in range(50):
        mu, nu = random_convex_order_pair(rng)
        assert convex_order_leq(mu, nu)
        A = pd(random_pd_np(rng, 3))
        B = pd(random_pd_np(rng, 3))
        low = kubo_ando_mean(A, B, MeasureGenerator(mu))
        high = kubo_ando_mean(A, B, MeasureGenerator(nu))
        slack = float(np.linalg.eigvalsh(high.mat - low.mat)[0])
        worst = min(worst, slack)
        assert loewner_leq(low, high, 1e-9)
    report(9, f"50 ordered pairs, worst Loewner slack {worst:.2e}")


def test_criterion_10_noncommutativity_measure(warm_solver):
    rng = np.random.default_rng(10)
    commuting = ensemble(
        [np.diag(np.exp(rng.uniform(-1, 1, size=3))) for _ in range(3)],
        rng.dirichlet(np.ones(3)),
    )
    small = noncommutativity_measure(commuting, ARCSINE_SPEC)
    assert small <= 1e-6
    ref = ensemble([REF_A1, REF_A2], [0.5, 0.5])
    large = noncommutativity_measure(ref, ARCSINE_SPEC)
    assert large >= 0.03
    report(10, f"commuting {small:.2e} <= 1e-6, reference {large:.3f} >= 0.03")

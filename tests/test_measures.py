from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhmeans import (
    ArcsineMeasure,
    BetaTypeMeasure,
    DiscreteMeasure,
    DivergenceSpec,
    DomainError,
    MeasureGenerator,
    UnsupportedVariantError,
    center_of_mass,
    convex_order_leq,
    dirac,
    f_mu,
    f_mu_prime,
    kubo_ando_mean,
    quadrature,
)
from qhmeans.measures import (
    _check_positive,
    _convex_order_holds,
    _first_differences,
    _map_differences,
    _second_differences,
)

from conftest import needs_scipy

X_GRID = np.logspace(-3, 3, 61)

SAMPLE_MEASURES = [
    ArcsineMeasure(),
    BetaTypeMeasure(0.25),
    BetaTypeMeasure(0.75),
    DiscreteMeasure(((0.2, 0.5), (0.8, 0.5))),
    dirac(0.3),
]


def beta_moment_oracle(t: float, k: int) -> float:
    """k-th moment of the Beta-type density by adaptive quadrature.

    Independent of the Gauss-Jacobi path: scipy's QAWS handles the algebraic
    endpoint singularities l^(t-1) (1-l)^(-t) directly.
    """
    from scipy.integrate import quad

    val, err = quad(lambda l: l**k, 0.0, 1.0, weight="alg", wvar=(t - 1.0, -t))
    assert err < 1e-10
    return val * np.sin(t * np.pi) / np.pi


def beta_integral(t: float, g) -> float:
    """Integral of g against the Beta-type density by QAWS, to 1e-10 relative:
    the resolvent integrands of f_mu and f_mu' span e^-9 to e^9."""
    from scipy.integrate import quad

    val, err = quad(g, 0.0, 1.0, weight="alg", wvar=(t - 1.0, -t), epsabs=0.0, epsrel=1e-10, limit=500)
    assert err < 1e-10 * abs(val)
    return val * np.sin(t * np.pi) / np.pi


class TestConstruction:
    def test_discrete_validates_mass(self):
        with pytest.raises(DomainError):
            DiscreteMeasure(((0.5, 0.7),))

    def test_discrete_needs_an_atom(self):
        with pytest.raises(DomainError, match="at least one atom"):
            DiscreteMeasure(())

    def test_discrete_validates_location(self):
        with pytest.raises(DomainError):
            DiscreteMeasure(((1.5, 1.0),))

    def test_discrete_rejects_nan_mass(self):
        with pytest.raises(DomainError):
            DiscreteMeasure(((0.3, np.nan), (0.6, 1.0)))

    def test_discrete_rejects_nonpositive_mass(self):
        with pytest.raises(DomainError):
            DiscreteMeasure(((0.2, 0.0), (0.4, 1.0)))

    def test_mass_sum_within_tolerance_generates_a_mean(self):
        # masses off by 5e-11 pass the constructor, so the generator they make
        # must be mean-normalized: f(1) = 1 to rounding
        mu = DiscreteMeasure(((0.3, 0.5), (0.6, 0.5 + 5e-11)))
        assert mu.atoms == ((0.3, 0.5), (0.6, 0.5 + 5e-11))
        assert abs(f_mu(mu, 1.0) - 1.0) <= 1e-15
        gen = MeasureGenerator(mu)
        spec = DivergenceSpec(gen)
        assert spec.c == pytest.approx(0.45, abs=1e-10)
        A, B = np.diag([4.0, 1.0]), np.array([[2.5, 1.5], [1.5, 2.5]])
        assert np.isfinite(kubo_ando_mean(A, B, gen).mat).all()

    def test_mass_sum_beyond_tolerance_is_rejected(self):
        with pytest.raises(DomainError, match="sum to"):
            DiscreteMeasure(((0.3, 0.5), (0.6, 0.5 + 1e-9)))

    def test_arrays_are_built_once_and_read_only(self):
        mu = DiscreteMeasure(((0.2, 0.5), (0.8, 0.5)))
        assert mu.locations is mu.locations and mu.masses is mu.masses
        assert not mu.locations.flags.writeable and not mu.masses.flags.writeable
        assert mu == DiscreteMeasure(((0.2, 0.5), (0.8, 0.5)))

    def test_beta_range(self):
        with pytest.raises(DomainError):
            BetaTypeMeasure(1.0)
        with pytest.raises(DomainError):
            BetaTypeMeasure(0.0)


class TestCenterOfMass:
    def test_dirac(self):
        for lam in (0.0, 0.3, 1.0):
            assert center_of_mass(dirac(lam)) == pytest.approx(lam, abs=1e-15)

    def test_arcsine_symmetric(self):
        assert center_of_mass(ArcsineMeasure()) == pytest.approx(0.5, abs=1e-14)

    def test_two_atom_mixture(self):
        c = 0.7
        mu = DiscreteMeasure(((0.0, 1 - c), (1.0, c)))
        assert center_of_mass(mu) == pytest.approx(c, abs=1e-15)

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_beta_mean_is_t(self, t):
        # exactly t, as f_mu'(1) = t for f_mu(x) = x^t; a Gauss rule's first
        # moment is off by up to 2e-10
        assert center_of_mass(BetaTypeMeasure(t)) == t


class TestQuadrature:
    def test_discrete_unchanged(self):
        mu = dirac(0.5)
        assert quadrature(mu, 64) is mu

    @needs_scipy
    def test_arcsine_normalization(self):
        rule = quadrature(ArcsineMeasure(), 64)
        assert abs(rule.masses.sum() - 1.0) <= 1e-12

    @needs_scipy
    @pytest.mark.parametrize("order", [2, 8, 64, 512])
    def test_arcsine_rule_is_gauss_chebyshev(self, order):
        # The Gauss rule of the arcsine density in closed form: nodes
        # (1 + cos((2k-1) pi / 2n)) / 2, k = 1..n, each with weight 1/n.
        k = np.arange(1, order + 1)
        nodes = np.sort((1 + np.cos((2 * k - 1) * np.pi / (2 * order))) / 2)
        rule = quadrature(ArcsineMeasure(), order)
        np.testing.assert_allclose(np.sort(rule.locations), nodes, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rule.masses, 1.0 / order, rtol=0, atol=1e-14)

    @needs_scipy
    @pytest.mark.parametrize("order", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("mu", [ArcsineMeasure(), BetaTypeMeasure(0.3)], ids=["arcsine", "beta0.3"])
    def test_gauss_rules_are_discrete_measures(self, mu, order):
        # DiscreteMeasure checks every atom and the total mass on construction.
        rule = quadrature(mu, order)
        assert isinstance(rule, DiscreteMeasure) and len(rule.atoms) == order
        assert abs(rule.masses.sum() - 1.0) <= 1e-15

    def test_unknown_variant(self):
        with pytest.raises(UnsupportedVariantError, match="unknown measure variant object"):
            quadrature(object(), 8)

    @pytest.mark.parametrize("order", [1, 2.7, float("nan"), "4"])
    def test_order_validation(self, order):
        # a non-integer order is refused, not truncated to a smaller rule
        with pytest.raises(DomainError):
            quadrature(ArcsineMeasure(), order)

    @needs_scipy
    def test_numpy_integer_order(self):
        assert len(quadrature(ArcsineMeasure(), np.int64(8)).atoms) == 8

    @needs_scipy
    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_beta_mass_and_mean_vs_adaptive_oracle(self, t):
        rule = quadrature(BetaTypeMeasure(t), 64)
        assert rule.masses.sum() == pytest.approx(beta_moment_oracle(t, 0), abs=1e-8)
        mean = float(np.dot(rule.masses, rule.locations))
        assert mean == pytest.approx(beta_moment_oracle(t, 1), abs=1e-8)
        assert mean == pytest.approx(t, abs=1e-8)

    @needs_scipy
    def test_nodes_inside_unit_interval(self):
        for mu in SAMPLE_MEASURES:
            rule = quadrature(mu, 256)
            assert np.all(rule.locations >= 0) and np.all(rule.locations <= 1)
            assert np.all(rule.masses > 0)


class TestGeneratorFunction:
    def test_normalized_at_one(self):
        for mu in SAMPLE_MEASURES:
            assert f_mu(mu, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_arcsine_is_square_root(self):
        vals = f_mu(ArcsineMeasure(), X_GRID)
        assert np.max(np.abs(vals - np.sqrt(X_GRID))) <= 1e-10

    def test_dirac_closed_form(self):
        lam = 0.3
        for x in (0.1, 1.0, 7.5):
            assert f_mu(dirac(lam), x) == pytest.approx(
                x / ((1 - lam) * x + lam), abs=1e-14
            )

    def test_domain_error(self):
        with pytest.raises(DomainError):
            f_mu(ArcsineMeasure(), 0.0)
        with pytest.raises(DomainError):
            f_mu(ArcsineMeasure(), -2.0)

    def test_positivity_check(self):
        for bad in (0.0, -2.0, np.nan, [1.0, 0.0], [[3.0], [-1e-300]], [2.0, np.nan]):
            with pytest.raises(DomainError):
                _check_positive(np.asarray(bad))
        # the empty batch of a campaign and a scalar pass
        _check_positive(np.empty((0, 4)))
        _check_positive(np.asarray(2.0))

    def test_nan_argument_is_a_domain_error(self):
        with pytest.raises(DomainError):
            f_mu(ArcsineMeasure(), np.nan)
        with pytest.raises(DomainError):
            f_mu(dirac(0.3), [np.nan, 1.0])
        with pytest.raises(DomainError):
            f_mu_prime(dirac(0.3), [np.nan, 1.0])

    def test_monotone_and_concave_on_grid(self):
        for mu in SAMPLE_MEASURES:
            vals = f_mu(mu, X_GRID)
            assert np.all(np.diff(vals) > 0)
            slopes = np.diff(vals) / np.diff(X_GRID)
            assert np.all(np.diff(slopes) <= 1e-12)

    def test_arcsine_equals_beta_half(self):
        arc = f_mu(ArcsineMeasure(), X_GRID)
        beta = f_mu(BetaTypeMeasure(0.5), X_GRID)
        assert np.max(np.abs(arc - beta)) <= 1e-10

    @needs_scipy
    def test_gauss_rules_converge_to_closed_form(self):
        base = f_mu(quadrature(ArcsineMeasure(), 256), X_GRID)
        doubled = f_mu(quadrature(ArcsineMeasure(), 512), X_GRID)
        assert np.max(np.abs(base - doubled)) < 1e-9
        assert np.max(np.abs(base - f_mu(ArcsineMeasure(), X_GRID))) < 1e-9
        # Beta-type rules hit the double-precision node-placement plateau
        # (~1e-8 near the grid edges), so they get a looser bound.
        for t in (0.25, 0.75):
            base = f_mu(quadrature(BetaTypeMeasure(t), 256), X_GRID)
            doubled = f_mu(quadrature(BetaTypeMeasure(t), 512), X_GRID)
            assert np.max(np.abs(base - doubled)) < 1e-7
            assert np.max(np.abs(base - f_mu(BetaTypeMeasure(t), X_GRID))) < 1e-7

    @needs_scipy
    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_closed_forms_match_adaptive_oracle(self, t):
        # f_mu and f_mu' by their defining integrals against the Beta-type
        # density (the arcsine one at t = 1/2), across e^-12 to e^12.
        mu = ArcsineMeasure() if t == 0.5 else BetaTypeMeasure(t)
        worst = 0.0
        for x in np.exp(np.linspace(-12.0, 12.0, 9)):
            value = beta_integral(t, lambda l: x / ((1 - l) * x + l))
            slope = beta_integral(t, lambda l: l / ((1 - l) * x + l) ** 2)
            worst = max(worst, abs(f_mu(mu, x) / value - 1), abs(f_mu_prime(mu, x) / slope - 1))
        assert worst <= 1e-10


class TestGeneratorDerivative:
    def test_at_one_equals_center_of_mass(self):
        for mu in SAMPLE_MEASURES:
            assert f_mu_prime(mu, 1.0) == pytest.approx(
                center_of_mass(mu), abs=1e-10
            )

    def test_arcsine_closed_form(self):
        assert f_mu_prime(ArcsineMeasure(), 4.0) == pytest.approx(0.25, abs=1e-12)
        vals = f_mu_prime(ArcsineMeasure(), X_GRID)
        assert np.max(np.abs(vals - 0.5 / np.sqrt(X_GRID))) <= 1e-10

    def test_atom_at_one(self):
        for x in (0.2, 1.0, 9.0):
            assert f_mu_prime(dirac(1.0), x) == pytest.approx(1.0, abs=1e-15)

    def test_matches_finite_differences(self):
        h = 1e-6
        for mu in SAMPLE_MEASURES:
            for x in (0.5, 1.0, 3.0):
                fd = (f_mu(mu, x + h) - f_mu(mu, x - h)) / (2 * h)
                assert f_mu_prime(mu, x) == pytest.approx(fd, rel=1e-6)


def _exact_atom_differences(mu, a, b, c):
    """f_mu^[1](a, b) and f_mu^[2](a, b, c) of a discrete measure in 50-digit
    decimal arithmetic, from differences of f_mu and, at ties, f_mu' and f_mu''."""
    with localcontext() as ctx:
        ctx.prec = 50
        pairs = zip(mu.locations.tolist(), mu.masses.tolist())
        atoms = [(Decimal(l), Decimal(m)) for l, m in pairs]
        f = lambda x: sum(m * x / ((1 - l) * x + l) for l, m in atoms)
        f1 = lambda x: sum(m * l / ((1 - l) * x + l) ** 2 for l, m in atoms)
        d1 = lambda x, y: f1(x) if x == y else (f(x) - f(y)) / (x - y)
        first = d1(Decimal(float(a)), Decimal(float(b)))
        a, b, c = sorted(Decimal(float(v)) for v in (a, b, c))
        if a == c:
            second = -sum(m * l * (1 - l) / ((1 - l) * a + l) ** 3 for l, m in atoms)
        else:
            second = (d1(a, b) - d1(b, c)) / (a - c)
        return float(first), float(second)


class TestDividedDifferences:
    @pytest.mark.parametrize("sep", [0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2])
    def test_atom_sum_tables_against_exact_arithmetic(self, sep):
        # three clustered eigenvalues and one far away, at three scales in one
        # stack; differencing f_mu directly would lose about eps / sep
        mu = DiscreteMeasure(((0.2, 0.5), (0.5, 0.3), (0.9, 0.2)))
        w = np.array([[1e-3], [1.0], [37.3]]) * np.array([1.0, 1.0 + sep, 1.0 + 2 * sep, 5.0])
        first = _first_differences(mu, w)
        second = _second_differences(mu, w, first)
        assert first.shape == (3, 4, 4) and second.shape == (3, 4, 4, 4)
        for n, i, k, l in np.ndindex(3, 4, 4, 4):
            ref1, ref2 = _exact_atom_differences(mu, w[n, i], w[n, k], w[n, l])
            assert abs(first[n, i, k] - ref1) <= 1e-13 * abs(ref1)
            assert abs(second[n, i, k, l] - ref2) <= 1e-13 * abs(ref2)


def _exact_map_difference(mu, u, v):
    """h^[1](u, v) of h(y) = y f_mu'(y) / f_mu'(1) for a discrete measure in
    50-digit decimal arithmetic, from the difference of h and, at a tie, h'."""
    with localcontext() as ctx:
        ctx.prec = 50
        pairs = zip(mu.locations.tolist(), mu.masses.tolist())
        atoms = [(Decimal(l), Decimal(m)) for l, m in pairs]
        c = sum(m * l for l, m in atoms)
        h = lambda y: sum(m * l * y / ((1 - l) * y + l) ** 2 for l, m in atoms) / c
        u, v = Decimal(float(u)), Decimal(float(v))
        if u == v:
            slope = sum(m * l * (l - (1 - l) * u) / ((1 - l) * u + l) ** 3 for l, m in atoms)
            return float(slope / c)
        return float((h(u) - h(v)) / (u - v))


class TestMapDifferences:
    @pytest.mark.parametrize("sep", [0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2])
    def test_atom_sum_table_against_exact_arithmetic(self, sep):
        # clustered points at three scales; differencing h directly would lose
        # about eps / sep
        mu = DiscreteMeasure(((0.2, 0.5), (0.5, 0.3), (0.9, 0.2)))
        y = np.array([[1e-3], [1.0], [37.3]]) * np.array([1.0, 1.0 + sep, 1.0 + 2 * sep, 5.0])
        table = _map_differences(mu, y)
        assert table.shape == (3, 4, 4)
        for n, i, k in np.ndindex(3, 4, 4):
            ref = _exact_map_difference(mu, y[n, i], y[n, k])
            assert abs(table[n, i, k] - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize(
        "mu", [ArcsineMeasure(), BetaTypeMeasure(0.25)], ids=["arcsine", "beta0.25"]
    )
    def test_power_table_is_the_generator_table(self, mu):
        # for f = x^t, h(y) = y t y^(t-1) / t = f(y)
        y = np.array([0.3, 0.3 + 1e-9, 2.0, 40.0])
        assert np.array_equal(_map_differences(mu, y), _first_differences(mu, y))


class TestConvexOrder:
    def test_reflexive(self):
        mu = DiscreteMeasure(((0.2, 0.5), (0.8, 0.5)))
        assert convex_order_leq(mu, mu)

    def test_dirac_below_endpoint_mixture(self):
        for c in (0.25, 0.5, 0.9):
            mixture = DiscreteMeasure(((0.0, 1 - c), (1.0, c)))
            assert convex_order_leq(dirac(c), mixture)
            assert not convex_order_leq(mixture, dirac(c))

    def test_unequal_means_incomparable(self):
        assert not convex_order_leq(dirac(0.3), dirac(0.4))

    def test_rejects_continuous(self):
        with pytest.raises(UnsupportedVariantError):
            convex_order_leq(ArcsineMeasure(), dirac(0.5))

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=0.9),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_contraction_is_dominated(self, mean_shift, shrink, seed):
        rng = np.random.default_rng(seed)
        locs = rng.uniform(0.02, 0.98, size=3)
        masses = rng.dirichlet(np.ones(3))
        nu = DiscreteMeasure(tuple(zip(locs, masses)))
        m = float(np.dot(locs, masses))
        mu = DiscreteMeasure(
            tuple((m + shrink * (l - m), w) for l, w in zip(locs, masses))
        )
        assert convex_order_leq(mu, nu)

    def test_integrand_monotone_under_convex_order(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            locs = rng.uniform(0.05, 0.95, size=4)
            masses = rng.dirichlet(np.ones(4))
            nu = DiscreteMeasure(tuple(zip(locs, masses)))
            m = float(np.dot(locs, masses))
            s = rng.uniform(0, 0.9)
            mu = DiscreteMeasure(
                tuple((m + s * (l - m), w) for l, w in zip(locs, masses))
            )
            assert convex_order_leq(mu, nu)
            assert np.all(f_mu(mu, X_GRID) <= f_mu(nu, X_GRID) + 1e-10)


def _brute_force_leq(mu, nu, tol=1e-10):
    """The convex order by its definition on a dense grid of thresholds."""
    grid = np.linspace(0.0, 1.0, 100001)

    def hockey_stick(atoms):
        return sum(m * np.maximum(l - grid, 0.0) for l, m in atoms)

    mean_gap = sum(l * m for l, m in mu.atoms) - sum(l * m for l, m in nu.atoms)
    return abs(mean_gap) <= tol and bool(np.all(hockey_stick(mu.atoms) <= hockey_stick(nu.atoms) + tol))


def _merged(nu, rng):
    """mu <= nu: nu's atoms merged in random groups into their barycenters."""
    groups = rng.integers(0, len(nu.atoms), size=len(nu.atoms))
    atoms = []
    for g in np.unique(groups):
        members = [a for a, k in zip(nu.atoms, groups) if k == g]
        mass = sum(m for _, m in members)
        atoms.append((sum(l * m for l, m in members) / mass, mass))
    return DiscreteMeasure(tuple(atoms))


def _spread(nu, delta):
    """nu with its largest atom moved up by delta and the next one down, mean kept."""
    atoms = sorted(nu.atoms)
    (l1, m1), (l2, m2) = atoms[-1], atoms[-2]
    return DiscreteMeasure((*atoms[:-2], (l2 - delta * m1 / m2, m2), (l1 + delta, m1)))


def _order_cases(seed=3, n=40):
    """Ragged pairs of 1-5 atoms with their verdict: merged (ordered),
    reversed (None: ordered only when no atoms merged), means shifted by 1e-6,
    and spread just past dominance."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        k = int(rng.integers(1, 6))
        nu = DiscreteMeasure(tuple(zip(rng.uniform(0.05, 0.95, k), rng.dirichlet(np.ones(k)))))
        mu = _merged(nu, rng)
        shifted = DiscreteMeasure(tuple((l + 1e-6, m) for l, m in mu.atoms))
        cases += [(mu, nu, True), (nu, mu, None), (shifted, nu, False)]
        if k > 1:
            cases += [(_spread(nu, 1e-4), nu, False), (_spread(nu, 1e-6), nu, False)]
    return cases


class TestConvexOrderCore:
    def test_agrees_with_the_brute_force_grid(self):
        # A spread violates dominance on the whole interval between the two
        # atoms it moves, so the grid resolves even the 1e-6 spreads.
        for mu, nu, expected in _order_cases():
            verdict = convex_order_leq(mu, nu)
            assert verdict is _brute_force_leq(mu, nu)
            if expected is not None:
                assert verdict is expected

    def test_padded_batch_matches_one_pair_calls(self):
        cases = _order_cases()

        def padded(measures):
            out = np.zeros((2, len(measures), 5))
            for i, m in enumerate(measures):
                out[:, i, : len(m.atoms)] = np.array(m.atoms).T
            return out

        (mu_locs, mu_masses), (nu_locs, nu_masses) = (padded([c[j] for c in cases]) for j in (0, 1))
        batched = _convex_order_holds(mu_locs, mu_masses, nu_locs, nu_masses)
        assert batched.tolist() == [convex_order_leq(mu, nu) for mu, nu, _ in cases]

from types import SimpleNamespace

import numpy as np
import pytest

from qhmeans import (
    ArithmeticGenerator,
    ArcsineMeasure,
    BetaTypeMeasure,
    DiscreteMeasure,
    DivergenceSpec,
    DomainError,
    GeometricGenerator,
    HarmonicGenerator,
    LogGenerator,
    MeasureGenerator,
    UnsupportedGeneratorError,
    arcsine_generator,
    center_of_mass,
    dirac,
    f_mu,
    quadrature,
)

from conftest import needs_scipy

GRID = np.logspace(-2, 2, 41)

# The closed forms of the named means, (f, f') at lam: oracles for the
# measures their constructors build.
CLOSED_FORMS = {
    ArithmeticGenerator: (
        lambda lam, x: (1 - lam) + lam * x,
        lambda lam, x: np.full_like(x, lam),
    ),
    GeometricGenerator: (
        lambda lam, x: x**lam,
        lambda lam, x: lam * x ** (lam - 1),
    ),
    HarmonicGenerator: (
        lambda lam, x: x / ((1 - lam) * x + lam),
        lambda lam, x: lam / ((1 - lam) * x + lam) ** 2,
    ),
}


class TestClosedForms:
    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_normalization_and_weight(self, lam):
        for cls in (ArithmeticGenerator, GeometricGenerator, HarmonicGenerator):
            gen = cls(lam)
            assert float(gen.f(1.0)) == pytest.approx(1.0, abs=1e-15)
            assert center_of_mass(gen.mu) == pytest.approx(lam)

    def test_parameter_range(self):
        for cls in (ArithmeticGenerator, GeometricGenerator, HarmonicGenerator):
            with pytest.raises(DomainError):
                cls(0.0)
            with pytest.raises(DomainError):
                cls(1.0)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_derivative_matches_finite_differences(self, lam):
        h = 1e-6
        gens = [
            ArithmeticGenerator(lam),
            GeometricGenerator(lam),
            HarmonicGenerator(lam),
            LogGenerator(),
            MeasureGenerator(BetaTypeMeasure(lam)),
        ]
        for gen in gens:
            for x in (0.3, 1.0, 4.0):
                fd = (float(gen.f(x + h)) - float(gen.f(x - h))) / (2 * h)
                assert float(gen.f_prime(x)) == pytest.approx(fd, rel=1e-6)

    def test_log_generator(self):
        gen = LogGenerator()
        assert float(gen.f(1.0)) == 0.0
        assert float(gen.f_prime(1.0)) == 1.0
        assert not isinstance(gen, MeasureGenerator)


class TestRepresentingMeasures:
    """The named generators are their representing measures: they match the
    closed forms of their means and the Gauss rules of their densities."""

    @needs_scipy
    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_geometric_is_beta_type(self, lam):
        # 1e-8 bound: Gauss-Jacobi node placement in double precision floors
        # the error near 1e-9 for lam far from 1/2; a wrong pairing would be
        # off at order one.
        gen = GeometricGenerator(lam)
        quad_vals = f_mu(quadrature(gen.mu, 256), GRID)
        assert np.max(np.abs(quad_vals - GRID**lam)) <= 1e-8

    def test_arcsine_is_the_beta_type_half(self):
        assert ArcsineMeasure() == BetaTypeMeasure(0.5)
        assert arcsine_generator() == GeometricGenerator(0.5)
        assert DivergenceSpec(arcsine_generator()) == DivergenceSpec(GeometricGenerator(0.5))

    def test_arcsine_measure_matches_geometric_half(self):
        gen = MeasureGenerator(ArcsineMeasure())
        assert np.max(np.abs(np.asarray(gen.f(GRID)) - np.sqrt(GRID))) <= 1e-10

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_named_generators_are_their_measures(self, lam):
        assert ArithmeticGenerator(lam) == MeasureGenerator(
            DiscreteMeasure(((0.0, 1 - lam), (1.0, lam)))
        )
        assert GeometricGenerator(lam) == MeasureGenerator(BetaTypeMeasure(lam))
        assert HarmonicGenerator(lam) == MeasureGenerator(dirac(lam))

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("cls", list(CLOSED_FORMS), ids=lambda c: c.__name__)
    def test_named_generators_match_closed_forms(self, cls, lam):
        f, f_prime = CLOSED_FORMS[cls]
        gen = cls(lam)
        np.testing.assert_allclose(gen.f(GRID), f(lam, GRID), rtol=1e-14, atol=0)
        np.testing.assert_allclose(gen.f_prime(GRID), f_prime(lam, GRID), rtol=1e-14, atol=0)


class TestDivergenceSpec:
    def test_accepts_strictly_concave(self):
        for gen in (
            GeometricGenerator(0.5),
            HarmonicGenerator(0.3),
            MeasureGenerator(ArcsineMeasure()),
            GeometricGenerator(0.25),
            MeasureGenerator(DiscreteMeasure(((0.2, 0.5), (0.9, 0.5)))),
        ):
            spec = DivergenceSpec(gen)
            assert spec.c == pytest.approx(center_of_mass(gen.mu))
            assert 0 < spec.c < 1

    @pytest.mark.parametrize(
        "gen, match",
        [
            (LogGenerator(), "commutative_phi"),
            (None, "not a MeasureGenerator"),
            # strictly concave, but f(1) = 2: no operator mean
            (
                SimpleNamespace(
                    f=lambda x: 2.0 * np.sqrt(x),
                    f_prime=lambda x: 1.0 / np.sqrt(x),
                ),
                "not a MeasureGenerator",
            ),
            # strictly concave with f(1) = 1 and f'(1) = 1/2, but no measure
            (
                SimpleNamespace(
                    f=lambda x: 2.0 * np.sqrt(x) - 0.5 * (1 + x),
                    f_prime=lambda x: 1.0 / np.sqrt(x) - 0.5,
                ),
                "not a MeasureGenerator",
            ),
        ],
        ids=["log", "none", "not-normalized-at-one", "normalized-without-measure"],
    )
    def test_rejects_generator_without_measure(self, gen, match):
        with pytest.raises(UnsupportedGeneratorError, match=match):
            DivergenceSpec(gen)

    @pytest.mark.parametrize(
        "gen",
        [
            ArithmeticGenerator(0.5),
            MeasureGenerator(DiscreteMeasure(((0.0, 0.4), (1.0, 0.6)))),
            # inner mass below rounding: c == 1.0 exactly, phi is rounding noise
            # and the barycenter gradient vanishes everywhere
            MeasureGenerator(DiscreteMeasure(((1.0, 1.0), (0.5, 1e-17)))),
            MeasureGenerator(DiscreteMeasure(((0.0, 0.5), (1.0, 0.5), (0.5, 1e-300)))),
            # weight in (0,1), but f(x) = x / ((1 - 1e-17) x + 1e-17) is 1 to rounding
            HarmonicGenerator(1e-17),
        ],
        ids=["arithmetic", "endpoints-only", "inner-1e-17", "inner-1e-300", "harmonic-1e-17"],
    )
    def test_rejects_f_affine_to_rounding(self, gen):
        with pytest.raises(DomainError, match="affine to rounding"):
            DivergenceSpec(gen)

    def test_accepts_inner_moment_just_above_the_floor(self):
        # integral of l (1-l) dmu = 2.5e-15, about 3x INNER_MOMENT_FLOOR
        mu = DiscreteMeasure(((1.0, 1.0), (0.5, 1e-14)))
        assert DivergenceSpec(MeasureGenerator(mu)).c == center_of_mass(mu)

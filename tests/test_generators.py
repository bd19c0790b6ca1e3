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
    PowerGenerator,
    UnsupportedGeneratorError,
    arcsine_generator,
    dirac,
    f_mu,
    quadrature,
)

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
            assert gen.weight == pytest.approx(lam)

    def test_parameter_range(self):
        for cls in (ArithmeticGenerator, GeometricGenerator, HarmonicGenerator, PowerGenerator):
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
            PowerGenerator(lam),
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
        assert gen.weight == 1.0
        assert gen.representing_measure() is None


class TestRepresentingMeasures:
    """The named generators are their representing measures: they match the
    closed forms of their means and the Gauss rules of their densities."""

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_geometric_is_beta_type(self, lam):
        # 1e-8 bound: Gauss-Jacobi node placement in double precision floors
        # the error near 1e-9 for lam far from 1/2; a wrong pairing would be
        # off at order one.
        gen = GeometricGenerator(lam)
        quad_vals = f_mu(quadrature(gen.representing_measure(), 256), GRID)
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
        assert PowerGenerator(lam) == GeometricGenerator(lam)

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
            PowerGenerator(0.25),
            MeasureGenerator(DiscreteMeasure(((0.2, 0.5), (0.9, 0.5)))),
        ):
            spec = DivergenceSpec(gen)
            assert spec.c == pytest.approx(gen.weight)
            assert 0 < spec.c < 1

    def test_rejects_log(self):
        with pytest.raises(UnsupportedGeneratorError):
            DivergenceSpec(LogGenerator())

    def test_rejects_generator_not_normalized_at_one(self):
        # Strictly concave with weight in (0,1), but f(1) = 2: no operator mean.
        gen = SimpleNamespace(
            f=lambda x: 2.0 * np.sqrt(np.asarray(x, dtype=np.float64)),
            f_prime=lambda x: 1.0 / np.sqrt(np.asarray(x, dtype=np.float64)),
            weight=0.5,
            representing_measure=lambda: None,
        )
        with pytest.raises(UnsupportedGeneratorError, match="not mean-normalized"):
            DivergenceSpec(gen)

    def test_rejects_affine_arithmetic(self):
        with pytest.raises(DomainError):
            DivergenceSpec(ArithmeticGenerator(0.5))

    def test_rejects_endpoint_only_measure(self):
        mu = DiscreteMeasure(((0.0, 0.4), (1.0, 0.6)))
        with pytest.raises(DomainError):
            DivergenceSpec(MeasureGenerator(mu))

"""Scalar generators of operator means and the divergences they induce.

Every Kubo-Ando mean is given by a probability measure mu on [0,1] (Kubo &
Ando, Math. Ann. 246 (1980)), and MeasureGenerator evaluates its f through
f_mu and f_mu_prime: x^t in closed form for the Beta-type density (the
arcsine density is its t = 1/2), the atom sum otherwise.  The named
generators (arithmetic, geometric, harmonic) are constructors of the
MeasureGenerator of their measure; the x^t of the relaxed commutative family
is GeometricGenerator(t).  DivergenceSpec and kubo_ando_mean take a
MeasureGenerator and are validated by its measure alone.  Each fact is read one way: the measure as gen.mu, the weight as
DivergenceSpec.c, its center of mass.  The log generator belongs to the
commutative family only: it is strictly concave and C^1, not operator
monotone, and has no measure, so it has no CLI shorthand or JSON kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DomainError, UnsupportedGeneratorError
from .measures import (
    ArcsineMeasure,
    BetaTypeMeasure,
    DiscreteMeasure,
    Measure,
    center_of_mass,
    dirac,
    f_mu,
    f_mu_prime,
    power_exponent,
)

INNER_MOMENT_FLOOR = 4 * np.finfo(np.float64).eps


def _check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise DomainError(f"{name}={value} must lie in the open interval (0,1)")
    return value


@dataclass(frozen=True)
class MeasureGenerator:
    """Generator f_mu defined by a probability measure mu on [0,1], evaluated
    by f_mu and f_mu_prime.  Its weight is center_of_mass(mu), which
    DivergenceSpec keeps as c."""

    mu: Measure

    def f(self, x):
        return f_mu(self.mu, x)

    def f_prime(self, x):
        return f_mu_prime(self.mu, x)


@dataclass(frozen=True)
class LogGenerator:
    """f(x) = log x; commutative family only (f(1)=0, so not a mean)."""

    def f(self, x):
        return np.log(np.asarray(x, dtype=np.float64))

    def f_prime(self, x):
        return 1.0 / np.asarray(x, dtype=np.float64)


def ArithmeticGenerator(lam: float) -> MeasureGenerator:
    """f(x) = (1-lam) + lam x, the weighted arithmetic mean: mass 1-lam at 0
    and lam at 1."""
    lam = _check_unit_interval("lam", lam)
    return MeasureGenerator(DiscreteMeasure(((0.0, 1 - lam), (1.0, lam))))


def GeometricGenerator(lam: float) -> MeasureGenerator:
    """f(x) = x^lam, the weighted geometric mean: the Beta-type density t = lam."""
    return MeasureGenerator(BetaTypeMeasure(lam))


def HarmonicGenerator(lam: float) -> MeasureGenerator:
    """f(x) = x / ((1-lam) x + lam), the weighted harmonic mean: a unit atom at lam."""
    return MeasureGenerator(dirac(_check_unit_interval("lam", lam)))


# Each named family by its name: the one table the CLI shorthands and JSON kinds read.
_FAMILIES = {"arithmetic": ArithmeticGenerator, "geometric": GeometricGenerator,
             "harmonic": HarmonicGenerator}

Generator = Union[MeasureGenerator, LogGenerator]


def arcsine_generator() -> MeasureGenerator:
    """The square-root generator, represented by the arcsine measure: equal to
    GeometricGenerator(0.5)."""
    return MeasureGenerator(ArcsineMeasure())


def _require_measure(gen) -> Measure:
    """The representing measure of a MeasureGenerator: operator means and their
    divergences take no other generator (UnsupportedGeneratorError)."""
    if not isinstance(gen, MeasureGenerator):
        hint = "; use commutative_phi for its divergence" if isinstance(gen, LogGenerator) else ""
        raise UnsupportedGeneratorError(f"{type(gen).__name__} is not a MeasureGenerator{hint}")
    return gen.mu


@dataclass(frozen=True)
class DivergenceSpec:
    """A mean's generator f_mu with its weight c = center_of_mass(mu).

    The induced divergence is phi(A, B) = Tr((1-c) A + c B - A sigma B).  It
    needs f_mu strictly concave: f_mu''(x) = -2 integral of l (1-l) /
    ((1-l) x + l)^3 dmu(l) < 0 exactly when mu puts mass inside (0,1).  A mu
    with inner moment integral of l (1-l) dmu at most INNER_MOMENT_FLOOR = 4 eps
    gives an f affine to rounding and raises DomainError.
    """

    generator: MeasureGenerator
    c: float = field(init=False)

    def __post_init__(self):
        mu = _require_measure(self.generator)
        t = power_exponent(mu)
        inner = (t * (1 - t) / 2 if t is not None
                 else float(np.dot(mu.masses, mu.locations * (1 - mu.locations))))
        if not inner > INNER_MOMENT_FLOOR:
            raise DomainError(f"measure with inner moment {inner:.3g} <= 4 eps: f is affine to rounding")
        object.__setattr__(self, "c", center_of_mass(mu))

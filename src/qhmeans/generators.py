"""Scalar generators of operator means and the divergences they induce.

Every Kubo-Ando mean is given by a probability measure mu on [0,1] (Kubo &
Ando, Math. Ann. 246 (1980)), and MeasureGenerator evaluates its f through
f_mu and f_mu_prime: x^t in closed form for the Beta-type density (the
arcsine density is its t = 1/2), the atom sum otherwise.  The named
generators (arithmetic, geometric, harmonic) are constructors of the
MeasureGenerator of their measure; PowerGenerator, the x^t of the relaxed
commutative family, is an alias of GeometricGenerator.  The log generator
belongs to that family only: it is required to be strictly concave and C^1,
not operator monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

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
)


def _check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise DomainError(f"{name}={value} must lie in the open interval (0,1)")
    return value


@dataclass(frozen=True)
class MeasureGenerator:
    """Generator f_mu defined by a probability measure on [0,1], evaluated by
    f_mu and f_mu_prime."""

    mu: Measure

    def f(self, x):
        return f_mu(self.mu, x)

    def f_prime(self, x):
        return f_mu_prime(self.mu, x)

    @property
    def weight(self) -> float:
        return center_of_mass(self.mu)

    def representing_measure(self) -> Optional[Measure]:
        return self.mu


@dataclass(frozen=True)
class LogGenerator:
    """f(x) = log x; commutative family only (f(1)=0, so not a mean)."""

    def f(self, x):
        return np.log(np.asarray(x, dtype=np.float64))

    def f_prime(self, x):
        return 1.0 / np.asarray(x, dtype=np.float64)

    @property
    def weight(self) -> float:
        return 1.0

    def representing_measure(self) -> Optional[Measure]:
        return None


def ArithmeticGenerator(lam: float) -> MeasureGenerator:
    """f(x) = (1-lam) + lam x, the weighted arithmetic mean: mass 1-lam at 0
    and lam at 1."""
    lam = _check_unit_interval("lam", lam)
    return MeasureGenerator(DiscreteMeasure(((0.0, 1 - lam), (1.0, lam))))


def GeometricGenerator(lam: float) -> MeasureGenerator:
    """f(x) = x^lam, the weighted geometric mean: the Beta-type density t = lam."""
    return MeasureGenerator(BetaTypeMeasure(_check_unit_interval("lam", lam)))


def HarmonicGenerator(lam: float) -> MeasureGenerator:
    """f(x) = x / ((1-lam) x + lam), the weighted harmonic mean: a unit atom at lam."""
    return MeasureGenerator(dirac(_check_unit_interval("lam", lam)))


# f(x) = x^t of the relaxed commutative family is the geometric generator.
PowerGenerator = GeometricGenerator


Generator = Union[MeasureGenerator, LogGenerator]


def arcsine_generator() -> MeasureGenerator:
    """The square-root generator, represented by the arcsine measure: equal to
    GeometricGenerator(0.5)."""
    return MeasureGenerator(ArcsineMeasure())


def is_mean_normalized(gen: Generator) -> bool:
    """True iff f(1) = 1 and the weight lies in (0,1); log has f(1) = 0."""
    return abs(float(gen.f(1.0)) - 1.0) <= 1e-12 and 0.0 < gen.weight < 1.0


def _require_mean_normalized(gen: Generator) -> None:
    if not is_mean_normalized(gen):
        raise UnsupportedGeneratorError(
            f"{type(gen).__name__} is not mean-normalized; "
            "operator means need f(1) = 1 and weight in (0,1)"
        )


_CONCAVITY_GRID = np.logspace(-3, 3, 512)


def _grid_second_differences(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    first = np.diff(values) / np.diff(grid)
    return np.diff(first) / (grid[2:] - grid[:-2])


def _check_strictly_concave(gen: Generator) -> None:
    vals = np.asarray(gen.f(_CONCAVITY_GRID), dtype=np.float64)
    dd2 = _grid_second_differences(vals, _CONCAVITY_GRID)
    if not np.all(dd2 < 0):
        raise DomainError(
            f"generator {gen!r} is not strictly concave "
            f"(max second divided difference {dd2.max():.3e})"
        )


@dataclass(frozen=True)
class DivergenceSpec:
    """A strictly concave mean generator (f(1) = 1) with its weight c in (0,1).

    The induced divergence is phi(A, B) = Tr((1-c) A + c B - A sigma B).
    """

    generator: Generator
    c: float = field(init=False)

    def __post_init__(self):
        gen = self.generator
        if isinstance(gen, LogGenerator):
            raise UnsupportedGeneratorError(
                "the log generator is not mean-normalized; "
                "use the commutative divergence directly"
            )
        w = float(gen.weight)
        if not 0.0 < w < 1.0:
            raise DomainError(f"generator weight {w} must lie in (0,1)")
        _require_mean_normalized(gen)
        mu = gen.representing_measure()
        if isinstance(mu, DiscreteMeasure) and all(
            loc in (0.0, 1.0) for loc, _ in mu.atoms
        ):
            raise DomainError(
                "measure supported only on {0,1} generates an affine f; "
                "the divergence would be identically zero"
            )
        _check_strictly_concave(gen)
        object.__setattr__(self, "c", w)

"""Scalar generators of operator means and the divergences they induce.

Named generators (arithmetic, geometric, harmonic) carry closed forms for
f and f'; the measure-backed variant sums a finite measure exactly and
evaluates the arcsine and Beta-type densities as the powers they generate.
The log generator belongs to the relaxed commutative family: it is only
required to be strictly concave and C^1, not operator monotone.  PowerGenerator, the
x^t of that family, is an alias of GeometricGenerator.
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
    f_mu,
    f_mu_prime,
)


def _check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise DomainError(f"{name}={value} must lie in the open interval (0,1)")
    return value


@dataclass(frozen=True)
class ArithmeticGenerator:
    """f(x) = (1-lam) + lam x; the weighted arithmetic mean."""

    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_unit_interval("lam", self.lam))

    def f(self, x):
        return (1 - self.lam) + self.lam * np.asarray(x, dtype=np.float64)

    def f_prime(self, x):
        return np.full_like(np.asarray(x, dtype=np.float64), self.lam)

    @property
    def weight(self) -> float:
        return self.lam

    def representing_measure(self) -> Optional[Measure]:
        return DiscreteMeasure(((0.0, 1 - self.lam), (1.0, self.lam)))


@dataclass(frozen=True)
class GeometricGenerator:
    """f(x) = x^lam; the weighted geometric mean."""

    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_unit_interval("lam", self.lam))

    def f(self, x):
        return np.asarray(x, dtype=np.float64) ** self.lam

    def f_prime(self, x):
        return self.lam * np.asarray(x, dtype=np.float64) ** (self.lam - 1)

    @property
    def weight(self) -> float:
        return self.lam

    def representing_measure(self) -> Optional[Measure]:
        # x^lam is represented by the Beta-type density with t = lam
        # (arcsine at lam = 1/2); validated numerically in the test suite.
        return BetaTypeMeasure(self.lam)


@dataclass(frozen=True)
class HarmonicGenerator:
    """f(x) = x / ((1-lam) x + lam); the weighted harmonic mean."""

    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_unit_interval("lam", self.lam))

    def f(self, x):
        x = np.asarray(x, dtype=np.float64)
        return x / ((1 - self.lam) * x + self.lam)

    def f_prime(self, x):
        x = np.asarray(x, dtype=np.float64)
        den = (1 - self.lam) * x + self.lam
        return self.lam / (den * den)

    @property
    def weight(self) -> float:
        return self.lam

    def representing_measure(self) -> Optional[Measure]:
        return DiscreteMeasure(((self.lam, 1.0),))


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


# f(x) = x^t of the relaxed commutative family is the geometric generator:
# same f, f', weight and representing measure.
PowerGenerator = GeometricGenerator


Generator = Union[
    ArithmeticGenerator,
    GeometricGenerator,
    HarmonicGenerator,
    MeasureGenerator,
    LogGenerator,
]


def arcsine_generator() -> MeasureGenerator:
    """The square-root generator, represented by the arcsine measure."""
    return MeasureGenerator(ArcsineMeasure())


def is_mean_normalized(gen: Generator) -> bool:
    """True iff f(1) = 1 and the weight lies in (0,1)."""
    if isinstance(gen, LogGenerator):
        return False
    return abs(float(gen.f(1.0)) - 1.0) <= 1e-12 and 0.0 < gen.weight < 1.0


def _require_mean_normalized(gen: Generator) -> None:
    if not is_mean_normalized(gen):
        raise UnsupportedGeneratorError(
            f"{type(gen).__name__} is not mean-normalized; "
            "operator means need f(1) = 1 and weight in (0,1)"
        )


_CONCAVITY_GRID = np.logspace(-3, 3, 512)


def _second_divided_differences(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    first = np.diff(values) / np.diff(grid)
    return np.diff(first) / (grid[2:] - grid[:-2])


def _check_strictly_concave(gen: Generator) -> None:
    vals = np.asarray(gen.f(_CONCAVITY_GRID), dtype=np.float64)
    dd2 = _second_divided_differences(vals, _CONCAVITY_GRID)
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

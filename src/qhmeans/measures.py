"""Probability measures on [0,1], their generators, and the convex order.

A measure mu encodes an operator monotone generator through

    f_mu(x) = integral of x / ((1-l) x + l) dmu(l),    x > 0.

f_mu, f_mu_prime, center_of_mass and the divided-difference tables
(_first_differences, _second_differences, _map_differences) evaluate it exactly:
as the sum over the atoms of a DiscreteMeasure, and in closed form for the
Beta-type density, which generates x^t (power_exponent); the arcsine density
is its t = 1/2.  They are the package's one evaluation of a generator.
quadrature, the Gauss-Jacobi rule of a density as a DiscreteMeasure, is a
reference for tests that no evaluation path calls, and the package's only use
of scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DomainError, UnsupportedVariantError
from .hermitian import _require_count, _second_divided_differences

MASS_ATOL = 1e-10


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many atoms (location, mass) with locations in [0,1] and masses
    summing to 1 within MASS_ATOL.  locations and masses are read-only arrays
    built once; masses are divided by their sum, so f_mu(1) = 1 to rounding."""

    atoms: tuple
    locations: np.ndarray = field(init=False, repr=False, compare=False)
    masses: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = tuple((float(l), float(m)) for l, m in self.atoms)
        if not atoms:
            raise DomainError("a discrete measure needs at least one atom")
        for loc, mass in atoms:
            if not 0.0 <= loc <= 1.0:
                raise DomainError(f"atom location {loc} outside [0,1]")
            if not mass > 0.0:
                raise DomainError(f"atom mass {mass} must be positive")
        total = math.fsum(m for _, m in atoms)
        if not abs(total - 1.0) <= MASS_ATOL:
            raise DomainError(f"atom masses sum to {total}, expected 1")
        arrays = np.array([[l for l, _ in atoms], [m / total for _, m in atoms]])
        arrays.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "locations", arrays[0])
        object.__setattr__(self, "masses", arrays[1])


def dirac(location: float) -> DiscreteMeasure:
    """Unit point mass at the given location."""
    return DiscreteMeasure(((location, 1.0),))


@dataclass(frozen=True)
class BetaTypeMeasure:
    """Density (sin(t pi)/pi) l^(t-1) (1-l)^(-t) on (0,1), t in (0,1).

    Generates x^t; t = 1/2 reproduces the arcsine density.
    """

    t: float

    def __post_init__(self):
        t = float(self.t)
        if not 0.0 < t < 1.0:
            raise DomainError(f"Beta-type parameter t={t} must lie in (0,1)")
        object.__setattr__(self, "t", t)


def ArcsineMeasure() -> BetaTypeMeasure:
    """Density 1 / (pi sqrt(l (1-l))) on (0,1), the Beta-type t = 1/2;
    generates the square root."""
    return BetaTypeMeasure(0.5)


Measure = Union[DiscreteMeasure, BetaTypeMeasure]


def _jacobi_rule(t: float, order: int) -> tuple:
    # Gauss-Jacobi on [-1,1] with weight (1-x)^(-t) (1+x)^(t-1) matches the
    # Beta-type endpoint exponents after the affine map to [0,1].
    # Imported here: the package's only scipy use, and most of a process's start-up.
    from scipy.special import roots_jacobi

    with np.errstate(invalid="ignore"):
        x, w = roots_jacobi(order, -t, t - 1.0)
    return (x + 1.0) / 2.0, w * np.sin(t * np.pi) / np.pi


def _atoms(locs: np.ndarray, masses: np.ndarray) -> tuple:
    return tuple(zip(locs.tolist(), masses.tolist()))


def quadrature(mu: Measure, order: int) -> DiscreteMeasure:
    """The order-node Gauss-Jacobi rule of a Beta-type density, as a
    DiscreteMeasure; a discrete measure is returned unchanged.  A reference
    for tests: f_mu(quadrature(mu, n), x) approximates the closed form
    f_mu(mu, x).
    """
    order = _require_count("quadrature order", order, 2)
    if isinstance(mu, DiscreteMeasure):
        return mu
    if isinstance(mu, BetaTypeMeasure):
        return DiscreteMeasure(_atoms(*_jacobi_rule(mu.t, order)))
    raise UnsupportedVariantError(f"unknown measure variant {type(mu).__name__}")


def power_exponent(mu: Optional[Measure]) -> Optional[float]:
    """The t with f_mu(x) = x^t for a Beta-type density; None for a discrete
    measure, whose generator is a finite sum, and for no measure."""
    if isinstance(mu, BetaTypeMeasure):
        return mu.t
    return None


def center_of_mass(mu: Measure) -> float:
    """First moment c(mu) = integral of l dmu(l), in [0,1].

    It is f_mu'(1): t for the Beta-type density, exactly; the sum over the
    atoms otherwise.
    """
    t = power_exponent(mu)
    if t is not None:
        return t
    return float(np.dot(mu.masses, mu.locations))


def _check_positive(x: np.ndarray) -> None:
    # The array method, not np.all: no dispatch cost.  The positive form
    # fails NaN; an empty array passes.
    if not (x > 0).all():
        raise DomainError("argument must be strictly positive")


def f_mu(mu: Measure, x, order: Optional[int] = None):
    """Generator value f_mu(x) at a positive scalar or array: x^t for the
    Beta-type density, the sum of m_k x / ((1-l_k) x + l_k) over the atoms
    (l_k, m_k) of a discrete measure.  order is ignored; it is accepted for
    callers that still pass a Gauss order positionally.
    """
    xs = np.asarray(x, dtype=np.float64)
    t = power_exponent(mu)
    if t is None:
        vals = _generator_values(xs, mu.locations, mu.masses)
    else:
        _check_positive(xs)
        vals = xs ** t
    return float(vals) if xs.ndim == 0 else vals


def _generator_values(x: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum of w_k x / ((1-l_k) x + l_k) over the last axis of nodes and weights,
    which broadcast against x[..., None]: one measure's atoms for every x, or a
    stack of them (padded with zero weight) for a stack of spectra."""
    _check_positive(x)
    x = x[..., None]
    # A (1, K) by (K, 1) product per value: a dot product that broadcasts.
    return ((x / ((1 - nodes) * x + nodes))[..., None, :] @ weights[..., None])[..., 0, 0]


def f_mu_prime(mu: Measure, x, order: Optional[int] = None):
    """Generator derivative: t x^(t-1) for the Beta-type density, the sum of
    m_k l_k / ((1-l_k) x + l_k)^2 over the atoms of a discrete measure.

    At x = 1 this is the center of mass of mu.  order is ignored, as in f_mu.
    """
    xs = np.asarray(x, dtype=np.float64)
    _check_positive(xs)
    t = power_exponent(mu)
    if t is not None:
        vals = t * xs ** (t - 1)
    else:
        l = mu.locations
        den = (1 - l) * xs[..., None] + l
        vals = np.dot(l / (den * den), mu.masses)
    return float(vals) if xs.ndim == 0 else vals


def _first_differences(mu: Measure, e: np.ndarray) -> np.ndarray:
    """First divided differences f_mu^[1](e_i, e_k) over the last axis of a
    positive spectrum, one (d,) or a stack (..., d): shape (..., d, d)."""
    t = power_exponent(mu)
    if t is not None:
        # (e_k^t - e_i^t) / (e_k - e_i) = e_i^(t-1) expm1(t u) / expm1(u) with
        # u = log e_k - log e_i, and t e_i^(t-1) where u == 0.  The ratio's slope
        # in u is at most t (1 - t) / 2, so the rounding of u, eps |log e|, costs
        # as much and no more: no difference of close numbers is formed.
        log_e = np.log(e)
        u = log_e[..., None, :] - log_e[..., :, None]
        ratio = np.divide(np.expm1(t * u), np.expm1(u), out=np.full_like(u, t), where=u != 0)
        return ratio * (e ** (t - 1))[..., :, None]
    # (f(a) - f(b)) / (a - b) = sum_k q_k l_k / (((1-l_k) a + l_k)((1-l_k) b + l_k))
    # for f = f_mu: a sum of positive terms, with no cancellation at near-ties.
    l = mu.locations
    P = 1.0 / ((1 - l) * e[..., None] + l)
    return (P * (mu.masses * l)) @ np.swapaxes(P, -1, -2)


def _map_differences(mu: Measure, y: np.ndarray) -> np.ndarray:
    """h^[1](y_i, y_k) of h(y) = y f_mu'(y) / f_mu'(1) over the last axis of a
    positive spectrum, shape (..., d, d): the mean-equation map's Jacobian
    table.  h = f_mu for x^t; for atoms (l_k, m_k) and c = f_mu'(1),
    h^[1](u, v) = (1/c) sum_k m_k l_k (l_k^2 - (1-l_k)^2 u v) / (P_k(u) P_k(v))^2,
    P_k(y) = (1-l_k) y + l_k: no difference of close numbers at near-ties."""
    if power_exponent(mu) is not None:
        return _first_differences(mu, y)
    l = mu.locations
    q = mu.masses * l / center_of_mass(mu)
    P = ((1 - l) * y[..., None] + l) ** -2.0
    B = np.concatenate((P, y[..., None] * P), axis=-1)  # the l_k^2 and the u v terms
    return (B * np.concatenate((q * l * l, -q * (1 - l) ** 2))) @ np.swapaxes(B, -1, -2)


def _second_differences(mu: Measure, e: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Second divided differences f_mu^[2](e_i, e_k, e_l), shape (..., d, d, d),
    given first = _first_differences(mu, e)."""
    t = power_exponent(mu)
    if t is not None:
        # f' = t e^(t-1) is the table's diagonal, where u = 0
        dw = np.diagonal(first, axis1=-2, axis2=-1)
        return _second_divided_differences(e, first, dw, t * (t - 1) * e ** (t - 2))
    # -sum_k q_k l_k (1-l_k) / (P_a P_b P_c): same-sign terms again.
    l = mu.locations
    P = 1.0 / ((1 - l) * e[..., None] + l)
    Q = np.swapaxes(P * (mu.masses * l * (1 - l)), -1, -2)
    return -((P[..., :, None, :] * P[..., None, :, :]) @ Q[..., None, :, :])


def _padded(rows) -> np.ndarray:
    """Vectors of unequal length as the rows of one array, zero-padded."""
    lengths = np.array([len(r) for r in rows])
    out = np.zeros((len(rows), lengths.max()))
    out[np.arange(lengths.max()) < lengths[:, None]] = np.concatenate(rows)
    return out


def _convex_order_holds(mu_locs, mu_masses, nu_locs, nu_masses, tol: float = 1e-10) -> np.ndarray:
    """convex_order_leq over n pairs of discrete measures given as atom arrays
    of shape (n, K), padded with zero mass, as an (n,) boolean array.

    Equal means, and at every atom location t (padding included, which only
    adds true constraints) the hockey-stick integral of (l - t)_+ under mu at
    most that under nu.
    """
    means_equal = np.abs(np.sum(mu_masses * mu_locs, -1) - np.sum(nu_masses * nu_locs, -1)) <= tol
    t = np.concatenate((mu_locs, nu_locs), -1)[:, None, :]

    def hockey_stick(locs, masses):
        # (n, 2K): the integral at each threshold, piecewise linear in t
        return np.sum(masses[..., None] * np.maximum(locs[..., None] - t, 0.0), axis=-2)

    dominated = hockey_stick(mu_locs, mu_masses) <= hockey_stick(nu_locs, nu_masses) + tol
    return means_equal & dominated.all(-1)


def convex_order_leq(mu: Measure, nu: Measure, tol: float = 1e-10) -> bool:
    """True iff mu precedes nu in the convex order.

    Only discrete measures are compared: equal means plus dominance of the
    hockey-stick integrals at every atom location is sufficient there,
    because both integrals are piecewise linear in the threshold.
    """
    if not isinstance(mu, DiscreteMeasure) or not isinstance(nu, DiscreteMeasure):
        raise UnsupportedVariantError(
            "convex order comparison is only supported for discrete measures"
        )
    locs, masses = _padded([mu.locations, nu.locations]), _padded([mu.masses, nu.masses])
    return bool(_convex_order_holds(locs[:1], masses[:1], locs[1:], masses[1:], tol)[0])

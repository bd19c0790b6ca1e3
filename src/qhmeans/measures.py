"""Probability measures on [0,1], their quadrature rules, and the convex order.

A measure mu encodes an operator monotone generator through

    f_mu(x) = integral of x / ((1-l) x + l) dmu(l),    x > 0,

so every evaluation below reduces to a weighted sum over quadrature nodes.
Discrete measures are summed exactly; the arcsine and Beta-type densities get
Gauss rules matched to their endpoint singularities.  Those two densities
generate x^{1/2} and x^t in closed form (power_exponent), and have centers of
mass 1/2 and t, so f_mu and f_mu_prime on them serve as an independent
quadrature oracle.  Only that oracle's Beta-type rule needs scipy, which is
imported on the first quadrature, f_mu or f_mu_prime call that builds it;
everything else in the package runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .errors import DomainError, UnsupportedVariantError

MASS_ATOL = 1e-10
# Gauss rules converge geometrically, but the integrand's pole sits at
# l = x/(x-1): for x near 1e3 the convergence factor is only ~1.065 per
# node pair, so ~220 nodes are needed for 1e-10 accuracy across
# x in [1e-3, 1e3].  256 keeps a margin and is still microseconds to use.
DEFAULT_QUAD_ORDER = 256


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in [0,1] and positive weights summing to one."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise DomainError("nodes and weights must be equal-length vectors")
        if abs(weights.sum() - 1.0) > 1e-8:
            raise DomainError(f"quadrature mass {weights.sum()!r} is not 1")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many atoms (location, mass) with locations in [0,1]."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(l), float(m)) for l, m in self.atoms)
        if not atoms:
            raise DomainError("a discrete measure needs at least one atom")
        for loc, mass in atoms:
            if not 0.0 <= loc <= 1.0:
                raise DomainError(f"atom location {loc} outside [0,1]")
            if mass <= 0.0:
                raise DomainError(f"atom mass {mass} must be positive")
        total = sum(m for _, m in atoms)
        if abs(total - 1.0) > MASS_ATOL:
            raise DomainError(f"atom masses sum to {total}, expected 1")
        object.__setattr__(self, "atoms", atoms)

    @property
    def locations(self) -> np.ndarray:
        return np.array([l for l, _ in self.atoms])

    @property
    def masses(self) -> np.ndarray:
        return np.array([m for _, m in self.atoms])


def dirac(location: float) -> DiscreteMeasure:
    """Unit point mass at the given location."""
    return DiscreteMeasure(((location, 1.0),))


@dataclass(frozen=True)
class ArcsineMeasure:
    """Density 1 / (pi sqrt(l (1-l))) on (0,1); generates the square root."""


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


@dataclass(frozen=True)
class TabulatedMeasure:
    """A density given directly by a precomputed quadrature on (0,1)."""

    nodes: tuple
    weights: tuple

    def __post_init__(self):
        nodes = tuple(float(x) for x in self.nodes)
        weights = tuple(float(w) for w in self.weights)
        if len(nodes) != len(weights) or not nodes:
            raise DomainError("nodes and weights must be equal-length and nonempty")
        if not all(0.0 < x < 1.0 for x in nodes):
            raise DomainError("tabulated nodes must lie in the open interval (0,1)")
        if any(w <= 0 for w in weights):
            raise DomainError("tabulated weights must be positive")
        if abs(sum(weights) - 1.0) > MASS_ATOL:
            raise DomainError(f"tabulated weights sum to {sum(weights)}, expected 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


Measure = Union[DiscreteMeasure, ArcsineMeasure, BetaTypeMeasure, TabulatedMeasure]


def _chebyshev_rule(order: int) -> QuadratureRule:
    # Gauss-Chebyshev (first kind) mapped from [-1,1] to [0,1]; all weights
    # are equal once the 1/pi normalization of the arcsine density is folded in.
    k = np.arange(1, order + 1)
    u = np.cos((2 * k - 1) * np.pi / (2 * order))
    return QuadratureRule((1 + u) / 2, np.full(order, 1.0 / order), order)


def _jacobi_rule(t: float, order: int) -> QuadratureRule:
    # Gauss-Jacobi on [-1,1] with weight (1-x)^(-t) (1+x)^(t-1) matches the
    # Beta-type endpoint exponents after the affine map to [0,1].
    # Imported here: the package's only scipy use, and most of a process's start-up.
    from scipy.special import roots_jacobi

    with np.errstate(invalid="ignore"):
        x, w = roots_jacobi(order, -t, t - 1.0)
    nodes = (x + 1.0) / 2.0
    weights = w * np.sin(t * np.pi) / np.pi
    return QuadratureRule(nodes, weights, order)


@lru_cache(maxsize=512)
def _cached_rule(mu: Measure, order: int) -> QuadratureRule:
    if isinstance(mu, DiscreteMeasure):
        return QuadratureRule(mu.locations, mu.masses, order)
    if isinstance(mu, ArcsineMeasure):
        return _chebyshev_rule(order)
    if isinstance(mu, BetaTypeMeasure):
        return _jacobi_rule(mu.t, order)
    if isinstance(mu, TabulatedMeasure):
        return QuadratureRule(np.array(mu.nodes), np.array(mu.weights), order)
    raise UnsupportedVariantError(f"unknown measure variant {type(mu).__name__}")


def quadrature(mu: Measure, order: int = DEFAULT_QUAD_ORDER) -> QuadratureRule:
    """Quadrature rule integrating smooth functions against mu.

    Discrete and tabulated measures return their own atoms/nodes; the order
    argument only controls the Gauss rules for the continuous densities.
    """
    if order < 2:
        raise DomainError(f"quadrature order {order} must be at least 2")
    return _cached_rule(mu, int(order))


def power_exponent(mu: Measure) -> Optional[float]:
    """The t with f_mu(x) = x^t for the arcsine (t = 1/2) and Beta-type
    densities; None for discrete and tabulated measures, which are finite sums."""
    if isinstance(mu, ArcsineMeasure):
        return 0.5
    if isinstance(mu, BetaTypeMeasure):
        return mu.t
    return None


def center_of_mass(mu: Measure) -> float:
    """First moment c(mu) = integral of l dmu(l), in [0,1].

    It is f_mu'(1): 1/2 for the arcsine density and t for the Beta-type
    density, exactly; the sum over the atoms or nodes otherwise.
    """
    t = power_exponent(mu)
    if t is not None:
        return t
    rule = quadrature(mu)
    return float(np.dot(rule.weights, rule.nodes))


def _check_positive(x: np.ndarray) -> None:
    if np.any(x <= 0):
        raise DomainError("argument must be strictly positive")


def f_mu(mu: Measure, x, order: int = DEFAULT_QUAD_ORDER):
    """Generator value f_mu(x) = sum of w_k x / ((1-l_k) x + l_k).

    Accepts a positive scalar or 1-d array; f_mu(mu, 1) == 1 identically.
    """
    rule = quadrature(mu, order)
    xs = np.asarray(x, dtype=np.float64)
    vals = _generator_values(xs, rule.nodes, rule.weights)
    return float(vals) if np.isscalar(x) or xs.ndim == 0 else vals


def _generator_values(x: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum of w_k x / ((1-l_k) x + l_k) over the last axis of nodes and weights,
    which broadcast against x[..., None]: one rule for every x, or a stack of
    rules (atoms padded with zero weight) for a stack of spectra."""
    _check_positive(x)
    x = x[..., None]
    # A (1, K) by (K, 1) product per value: a dot product that broadcasts.
    return ((x / ((1 - nodes) * x + nodes))[..., None, :] @ weights[..., None])[..., 0, 0]


def f_mu_prime(mu: Measure, x, order: int = DEFAULT_QUAD_ORDER):
    """Generator derivative sum of w_k l_k / ((1-l_k) x + l_k)^2.

    At x = 1 this collapses to the center of mass of mu.
    """
    rule = quadrature(mu, order)
    xs = np.asarray(x, dtype=np.float64)
    _check_positive(xs)
    l = rule.nodes
    den = (1 - l) * xs[..., None] + l
    vals = np.dot(l / (den * den), rule.weights)
    return float(vals) if np.isscalar(x) or xs.ndim == 0 else vals


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

"""Kubo-Ando matrix means, quantum Hellinger divergences, and barycenters
on the cone of positive definite matrices."""

from types import ModuleType as _ModuleType

from .barycenter import (
    SolverOptions,
    SolverReport,
    WeightedEnsemble,
    ensemble,
    euclidean_gradient,
    noncommutativity_measure,
    objective,
    solve_barycenter,
    solve_mean_equation,
    solve_power_mean,
)
from .channels import (
    QuantumChannel,
    apply_channel,
    check_dpi,
    check_joint_convexity,
    random_cptp,
)
from .divergences import (
    commutative_phi,
    g_of,
    kubo_ando_mean,
    maximal_f_divergence,
    operator_bregman,
    phi,
    phi_via_bregman,
    phi_via_g,
)
from .errors import (
    CommutativityError,
    ComputationError,
    DegenerateTrialError,
    DimensionMismatchError,
    DomainError,
    NonConvergenceError,
    QHMeansError,
    UnsupportedGeneratorError,
    UnsupportedVariantError,
)
from .generators import (
    ArithmeticGenerator,
    DivergenceSpec,
    Generator,
    GeometricGenerator,
    HarmonicGenerator,
    LogGenerator,
    MeasureGenerator,
    arcsine_generator,
)
from .hermitian import (
    ConditioningWarning,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    eig_hermitian,
    frechet_derivative,
    frobenius_dist,
    inv_sqrt_pd,
    pd,
    sqrt_pd,
    thompson_dist,
)
from .measures import (
    ArcsineMeasure,
    BetaTypeMeasure,
    DiscreteMeasure,
    Measure,
    center_of_mass,
    dirac,
    f_mu,
    f_mu_prime,
    quadrature,
)

__version__ = "0.1.0"

# The public names bound above; the submodules that importing them binds are not among them.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

"""Kubo-Ando matrix means, quantum Hellinger divergences, and barycenters
on the cone of positive definite matrices."""

from .barycenter import (
    SolverOptions,
    SolverReport,
    WeightedEnsemble,
    ensemble,
    euclidean_gradient,
    noncommutativity_measure,
    objective,
    residual,
    solve_barycenter,
    solve_mean_equation,
    solve_power_mean,
)
from .channels import (
    QuantumChannel,
    apply_channel,
    check_dpi,
    check_joint_convexity,
    choi_matrix,
    pinching_channel,
    random_cptp,
)
from .divergences import (
    classical_hellinger,
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
    PowerGenerator,
    arcsine_generator,
)
from .hermitian import (
    ConditioningWarning,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    eig_hermitian,
    frechet_derivative,
    frobenius_dist,
    herm,
    inv_sqrt_pd,
    loewner_leq,
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
    convex_order_leq,
    dirac,
    f_mu,
    f_mu_prime,
    quadrature,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

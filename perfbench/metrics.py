"""Metric catalogue: names, units, direction, bounds and what each should move.

BENCHMARK.json lists the same end-to-end and per-layer metrics; a run prints
the end-to-end ones without tracing and the per-layer ones with it.
"""

from __future__ import annotations

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms.p50", "ms", "lower", 0.25),
    ("op_ms.tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("verify_paper_s", "s", "lower", 0.25),
)

# Printed with the end-to-end metrics and kept in the run record, but carried
# in the result line only as `attempted` and `failed`: both are 0 on the
# workloads that converge, and a metric that reads 0 has no share to bound.
FAILURE_METRICS = (("failed_frac", "ratio"), ("false_converged", "count"))

# (d, m) pairs of the kernel grid the per-layer probes time; the gradient is
# taken with 64 quadrature nodes, the solver default.
KERNEL_GRID = ((2, 2), (4, 4), (8, 4), (16, 8))
DIMS = tuple(d for d, _ in KERNEL_GRID)


def _per_layer():
    rows = [
        ("barycenter.solve_barycenter.iterations.p50", "count", "descent ops_per_s; illcond failed_frac"),
        ("barycenter.solve_barycenter.iterations.sum", "count", "descent ops_per_s; illcond failed_frac"),
        ("barycenter.solve_barycenter.ms_per_iter", "ms", "descent op_ms.p50; illcond op_ms.tail"),
    ]
    rows += [(f"barycenter.euclidean_gradient.ms.d{d}", "ms", "descent ops_per_s") for d in DIMS]
    rows += [(f"barycenter.objective.ms.d{d}", "ms", "illcond ops_per_s") for d in DIMS]
    rows += [
        ("barycenter.gradient_share", "ratio", "descent ops_per_s"),
        ("barycenter.residual_true.max", "norm", "illcond false_converged"),
        ("barycenter.residual_understatement.max", "ratio", "illcond false_converged"),
        ("barycenter.false_converged", "count", "illcond false_converged"),
    ]
    rows += [(f"barycenter.power_mean_step.us.d{d}", "us", "fixed-point ops_per_s") for d in DIMS]
    rows += [
        ("barycenter.solve_power_mean.iterations.p50", "count", "fixed-point ops_per_s"),
        ("barycenter.solve_power_mean.ms_per_iter", "ms", "fixed-point ops_per_s"),
        ("barycenter.solve_mean_equation.iterations.p50", "count", "fixed-point ops_per_s"),
        ("barycenter.solve_mean_equation.ms_per_iter", "ms", "fixed-point ops_per_s"),
        ("barycenter.fixed_point.delta_rises", "count", "none"),
        ("barycenter.fixed_point.residual_true.max", "norm", "fixed-point failed_frac"),
    ]
    for fn in ("eig_hermitian", "sqrt_pd", "inv_sqrt_pd"):
        rows += [(f"hermitian.{fn}.us.d{d}", "us", "campaign ops_per_s") for d in DIMS]
    rows += [(f"hermitian.frechet_derivative.us.d{d}", "us", "none") for d in DIMS]
    rows += [
        ("measures.quadrature.us.q64", "us", "setup_s"),
        ("measures.quadrature.us.q256", "us", "setup_s"),
        ("measures.f_mu.us", "us", "campaign ops_per_s; fixed-point ops_per_s"),
        ("measures.f_mu_prime.us", "us", "campaign ops_per_s; fixed-point ops_per_s"),
        ("generators.DivergenceSpec.ms.arcsine", "ms", "setup_s; verify_paper_s"),
        ("generators.DivergenceSpec.ms.geometric", "ms", "setup_s; verify_paper_s"),
        ("divergences.kubo_ando_mean.us", "us", "campaign ops_per_s"),
        ("divergences.phi.us", "us", "campaign ops_per_s"),
        ("channels.random_cptp.us", "us", "campaign ops_per_s"),
        ("channels.apply_channel.us", "us", "campaign ops_per_s"),
        ("channels.check_dpi.us", "us", "campaign ops_per_s"),
        ("channels.check_joint_convexity.us", "us", "campaign ops_per_s"),
        ("properties.run_campaigns.ms_per_trial", "ms", "campaign op_ms.p50"),
        ("properties.violations", "count", "campaign failed_frac"),
        ("properties.discarded", "count", "campaign failed_frac"),
        ("cli.import_s", "s", "setup_s; verify_paper_s"),
        ("trace.overhead_frac", "ratio", "none"),
    ]
    return tuple((name, unit, "lower", moves) for name, unit, moves in rows)


# (name, unit, better, end-to-end metric and workload it should move)
PER_LAYER = _per_layer()

"""Per-layer metrics for the traced run.

Two sources: the workload's own traced ops (solver iterations, independent
residuals, campaign counts, one gradient and objective per descent op), and
probes that time single public calls of each module on seeded inputs. Every
call is made under a span, and the metrics are read back from the spans.
"""

from __future__ import annotations

import statistics

import numpy as np

from qhmeans import (
    ArcsineMeasure,
    DivergenceSpec,
    GeometricGenerator,
    SolverOptions,
    apply_channel,
    arcsine_generator,
    check_dpi,
    check_joint_convexity,
    eig_hermitian,
    ensemble,
    euclidean_gradient,
    f_mu,
    f_mu_prime,
    frechet_derivative,
    inv_sqrt_pd,
    kubo_ando_mean,
    objective,
    phi,
    quadrature,
    random_cptp,
    solve_power_mean,
    sqrt_pd,
)

from ensembles import op_rng, random_ensemble, random_pd
from metrics import DIMS, KERNEL_GRID

PROBE_STREAM = 100
ONE_STEP = SolverOptions(max_iterations=1)
# Campaign trials draw their matrices with spectra in [e^-1.2, e^1.2].
CAMPAIGN_SPREAD = 1.2


def run_probes(tracer, seed: int) -> dict:
    """Time single public calls per layer; returns metric name -> value."""
    rng = op_rng(seed, PROBE_STREAM, 0)
    spec = DivergenceSpec(arcsine_generator())
    gen = spec.generator
    out = {}

    def probe(metric, span_name, call, reps, scale):
        call()  # fills lazy caches, e.g. the quadrature rule
        for _ in range(reps):
            with tracer.span(span_name, metric):
                call()
        out[metric] = statistics.median(tracer.durations(span_name, metric)) * scale

    for d in DIMS:
        A = random_pd(rng, d, 1.0)
        Y = random_pd(rng, d, 1.0)
        for name, fn in (("eig_hermitian", eig_hermitian), ("sqrt_pd", sqrt_pd), ("inv_sqrt_pd", inv_sqrt_pd)):
            probe(f"hermitian.{name}.us.d{d}", f"hermitian.{name}", lambda: fn(A), 200, 1e6)
        probe(
            f"hermitian.frechet_derivative.us.d{d}", "hermitian.frechet_derivative",
            lambda: frechet_derivative(np.sqrt, lambda x: 0.5 / np.sqrt(x), A, Y), 200, 1e6,
        )

    for d, m in KERNEL_GRID:
        mats, weights = random_ensemble(rng, d, m, 1.0)
        ens = ensemble(mats, weights)
        X = ens.arithmetic_mean()
        probe(f"barycenter.euclidean_gradient.ms.d{d}", "barycenter.euclidean_gradient",
              lambda: euclidean_gradient(ens, X, spec, 64), 20, 1e3)
        probe(f"barycenter.objective.ms.d{d}", "barycenter.objective",
              lambda: objective(ens, X, spec), 20, 1e3)
        probe(f"barycenter.power_mean_step.us.d{d}", "barycenter.solve_power_mean",
              lambda: solve_power_mean(ens, 0.5, ONE_STEP), 50, 1e6)

    mu = ArcsineMeasure()
    xs = np.exp(rng.uniform(-3.0, 3.0, size=16))
    for order in (64, 256):
        probe(f"measures.quadrature.us.q{order}", "measures.quadrature",
              lambda: quadrature(mu, order), 500, 1e6)
    probe("measures.f_mu.us", "measures.f_mu", lambda: f_mu(mu, xs, 256), 500, 1e6)
    probe("measures.f_mu_prime.us", "measures.f_mu_prime", lambda: f_mu_prime(mu, xs, 256), 500, 1e6)

    probe("generators.DivergenceSpec.ms.arcsine", "generators.DivergenceSpec",
          lambda: DivergenceSpec(arcsine_generator()), 20, 1e3)
    probe("generators.DivergenceSpec.ms.geometric", "generators.DivergenceSpec",
          lambda: DivergenceSpec(GeometricGenerator(0.5)), 20, 1e3)

    d = 4
    A, B, A2, B2 = (random_pd(rng, d, CAMPAIGN_SPREAD) for _ in range(4))
    channel_seed = int(rng.integers(2**31))
    T = random_cptp(d, d, d, channel_seed)
    probe("divergences.kubo_ando_mean.us", "divergences.kubo_ando_mean",
          lambda: kubo_ando_mean(A, B, gen), 200, 1e6)
    probe("divergences.phi.us", "divergences.phi", lambda: phi(A, B, spec), 200, 1e6)
    probe("channels.random_cptp.us", "channels.random_cptp",
          lambda: random_cptp(d, d, d, channel_seed), 200, 1e6)
    probe("channels.apply_channel.us", "channels.apply_channel", lambda: apply_channel(T, A), 200, 1e6)
    probe("channels.check_dpi.us", "channels.check_dpi", lambda: check_dpi(spec, T, A, B), 200, 1e6)
    probe("channels.check_joint_convexity.us", "channels.check_joint_convexity",
          lambda: check_joint_convexity(spec, (A, B), (A2, B2), 0.3), 200, 1e6)
    return out


def missing_kinds(records) -> set:
    """Op kinds whose per-layer metrics these records cannot give."""
    missing = {"barycenter", "fixed_point", "campaign"} - {r.kind for r in records if not r.error}
    solvers = {r.solver for r in records if r.kind == "fixed_point" and not r.error}
    if solvers != {"power", "mean"}:
        missing.add("fixed_point")
    return missing


def op_metrics(records, tracer) -> dict:
    """Per-layer metrics read from traced op records, by the kind of op."""
    out = {}
    bary = [r for r in records if r.kind == "barycenter" and not r.error]
    if bary:
        iters = [r.iterations for r in bary]
        solve_s = sum(r.seconds for r in bary)
        grad_s = {
            s[4]: s[2] - s[1] for s in tracer.spans if s[0] == "barycenter.euclidean_gradient"
        }
        # The solver evaluates at least one gradient per iteration plus the
        # final one, so this is a lower estimate from outside the solver.
        grad_total = sum(grad_s.get(r.index, 0.0) * (r.iterations + 1) for r in bary)
        converged = [r for r in bary if r.converged and r.reported_residual > 0]
        out.update({
            "barycenter.solve_barycenter.iterations.p50": float(statistics.median(iters)),
            "barycenter.solve_barycenter.iterations.sum": float(sum(iters)),
            "barycenter.solve_barycenter.ms_per_iter": 1e3 * solve_s / max(sum(iters), 1),
            "barycenter.gradient_share": grad_total / solve_s,
            "barycenter.residual_true.max": max(r.true_residual for r in bary),
            "barycenter.residual_understatement.max": max(
                (r.true_residual / r.reported_residual for r in converged), default=0.0
            ),
            "barycenter.false_converged": float(sum(r.false_converged for r in bary)),
        })
    fixed = [r for r in records if r.kind == "fixed_point" and not r.error]
    if fixed:
        for family, solver in (("power", "solve_power_mean"), ("mean", "solve_mean_equation")):
            rs = [r for r in fixed if r.solver == family]
            iters = [r.iterations for r in rs]
            out[f"barycenter.{solver}.iterations.p50"] = float(statistics.median(iters))
            out[f"barycenter.{solver}.ms_per_iter"] = (
                1e3 * sum(r.seconds for r in rs) / max(sum(iters), 1)
            )
        out["barycenter.fixed_point.delta_rises"] = float(sum(r.delta_rises for r in fixed))
        out["barycenter.fixed_point.residual_true.max"] = max(r.true_residual for r in fixed)
    camp = [r for r in records if r.kind == "campaign" and not r.error]
    if camp:
        out["properties.run_campaigns.ms_per_trial"] = (
            1e3 * sum(r.seconds for r in camp) / sum(r.trials for r in camp)
        )
        out["properties.violations"] = float(sum(r.violations for r in camp))
        out["properties.discarded"] = float(sum(r.discarded for r in camp))
    return out

"""Workload definitions and the op runner.

A workload is a list of grid cells and the number of ops each cell gets per
schedule round. Ops are issued one at a time (closed loop, one client) in a
smooth weighted round-robin order over the cells, and op i always gets fresh
inputs drawn from the stream (seed, workload stream, i). So a seed fixes the
inputs of every op, and any run length draws the same cell mix.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

from qhmeans import (
    DivergenceSpec,
    GeometricGenerator,
    SolverOptions,
    arcsine_generator,
    ensemble,
    euclidean_gradient,
    objective,
    solve_barycenter,
    solve_mean_equation,
    solve_power_mean,
)
from qhmeans.properties import run_campaigns

from checks import FALSE_CONVERGENCE_FACTOR, barycenter_residual, fixed_point_residual
from ensembles import op_rng, random_ensemble

# Both generators are f(x) = sqrt(x): `arcsine` through quadrature of its
# representing measure, `geometric:0.5` in closed form.
GENERATORS = {"arcsine": arcsine_generator, "geometric:0.5": lambda: GeometricGenerator(0.5)}
EXPONENT = 0.5

# The package defaults at commit 501a6dc, pinned so a later change of the
# defaults does not change what the workloads ask for.
OPTIONS = SolverOptions(max_iterations=500, residual_tol=1e-8)

CAMPAIGN_TRIALS = 10

# Ops per schedule round by dimension, per (ensemble size, generator) pair.
# The counts give each dimension a similar share of solve time at commit
# 501a6dc (12 ms mean per op at d=2 up to 77 ms at d=8), so ops_per_s weighs
# every dimension alike. d=16 is left out: its solves took 0.08-1.1 s, set
# by whether the line search falls back to its 48-step sweep, and the few a
# 30 s run holds made ops_per_s differ by a quarter between seeds. The
# per-layer probes still time the gradient and objective at d=16.
DESCENT_MIX = {2: 32, 4: 16, 8: 4}
ILLCOND_MIX = {2: 4, 4: 2, 8: 1}
FIXED_POINT_SOLVERS = ("power:0.25", "power:0.5", "power:0.75", "mean:arcsine", "mean:geometric:0.5")


@dataclass(frozen=True)
class Workload:
    name: str
    stream: int
    # Cells are (kind, ...) tuples: ("barycenter", d, m, spread, generator),
    # ("fixed_point", d, m, spread, solver) or ("campaign", dim, generator).
    cells: tuple
    weights: tuple
    # Fixed per workload: the highest percentile with at least ten ops beyond
    # it at the run length BENCHMARK.json sets. On descent it is held below
    # the 1-1.5% of ops whose line search falls back to its sweep (2-3 times
    # slower), because a percentile inside that gap moved by a third between
    # seeds.
    tail_percentile: float


def _fixed_point_cells(spreads):
    return [
        ("fixed_point", d, m, spread, solver)
        for d in (2, 4, 8, 16)
        for m in (2, 8)
        for spread in spreads
        for solver in FIXED_POINT_SOLVERS
    ]


# At commit 501a6dc, 1500 descent-grid ops (spreads 1 and 3), 3600
# fixed-point ops (spreads 1, 3 and 6) and 300 campaign ops over 3 seeds
# failed only here: solve_barycenter on 9 of 129 ops at d=2, m=2, spread 3
# (unconverged or falsely converged), and solve_mean_equation with the arcsine
# generator on 232 of 240 ops at spread 6 (falsely converged). So descent and
# fixed-point keep the spreads on which no op failed, and illcond holds the
# rest - the barycenter at spreads 3 and 6, the fixed-point solvers at
# spread 6 - and reports those failures.
def _descent():
    cells, weights = [], []
    for d, count in DESCENT_MIX.items():
        for m in (2, 8):
            for gen in GENERATORS:
                cells.append(("barycenter", d, m, 1, gen))
                weights.append(count)
    return Workload("descent", 1, tuple(cells), tuple(weights), 97.0)


def _illcond():
    cells, weights = [], []
    for spread in (3, 6):
        for d, count in ILLCOND_MIX.items():
            for m in (2, 4, 8):
                for gen in GENERATORS:
                    cells.append(("barycenter", d, m, spread, gen))
                    weights.append(count)
    fixed = _fixed_point_cells((6,))
    return Workload("illcond", 2, tuple(cells + fixed), tuple(weights + [1] * len(fixed)), 97.0)


def _fixed_point():
    cells = tuple(_fixed_point_cells((1, 3)))
    return Workload("fixed-point", 3, cells, (1,) * len(cells), 99.5)


def _campaign():
    cells = tuple(("campaign", dim, gen) for dim in (3, 4) for gen in GENERATORS)
    return Workload("campaign", 4, cells, (1,) * len(cells), 97.5)


WORKLOADS = {w.name: w for w in (_descent(), _illcond(), _fixed_point(), _campaign())}


def weighted_round_robin(weights) -> list:
    """Smooth weighted round-robin: cell indices for one round, evenly interleaved."""
    total = sum(weights)
    current = [0] * len(weights)
    order = []
    for _ in range(total):
        for i, w in enumerate(weights):
            current[i] += w
        best = max(range(len(weights)), key=current.__getitem__)
        current[best] -= total
        order.append(best)
    return order


@dataclass
class OpRecord:
    index: int
    kind: str
    cell: tuple
    seconds: float = 0.0
    converged: bool = True
    false_converged: bool = False
    error: str = ""
    iterations: int = 0
    reported_residual: float = 0.0
    true_residual: float = 0.0
    delta_rises: int = 0
    violations: int = 0
    discarded: int = 0
    trials: int = 0
    solver: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error) or not self.converged or self.false_converged or self.violations > 0


def _timed(rec: OpRecord, tracer, name: str, call):
    """Run the op's program call under a span; its wall time is the op's time."""
    t0 = time.perf_counter()
    try:
        with tracer.span(name, rec.index):
            return call()
    finally:
        rec.seconds = time.perf_counter() - t0


class Runner:
    """Builds the divergence specs once, then runs op i of a workload on demand."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.specs = {name: DivergenceSpec(make()) for name, make in GENERATORS.items()}
        self.order = weighted_round_robin(workload.weights)

    def cell(self, index: int) -> tuple:
        return self.workload.cells[self.order[index % len(self.order)]]

    def run(self, index: int, tracer) -> OpRecord:
        rng = op_rng(self.seed, self.workload.stream, index)
        cell = self.cell(index)
        rec = OpRecord(index, cell[0], cell)
        run_op = {
            "barycenter": self._barycenter,
            "fixed_point": self._fixed_point,
            "campaign": self._campaign,
        }[rec.kind]
        with tracer.span("op." + self.workload.name, index):
            try:
                run_op(rec, rng, tracer)
            except Exception:  # an op that raises is a failed op; the run goes on
                rec.error = traceback.format_exc(limit=4)
        return rec

    def _barycenter(self, rec, rng, tracer):
        _, d, m, spread, gen = rec.cell
        mats, weights = random_ensemble(rng, d, m, spread)
        spec = self.specs[gen]
        report = _timed(
            rec, tracer, "barycenter.solve_barycenter",
            lambda: solve_barycenter(ensemble(mats, weights), spec, OPTIONS),
        )
        rec.iterations = report.iterations
        rec.converged = report.converged
        rec.reported_residual = report.final_residual
        X = report.solution.mat
        with tracer.span("check.barycenter", rec.index):
            rec.true_residual = barycenter_residual(mats, weights, X, EXPONENT)
        rec.false_converged = report.converged and (
            rec.true_residual > FALSE_CONVERGENCE_FACTOR * OPTIONS.residual_tol
        )
        if tracer.enabled:
            # One gradient and one objective at the solution, on the op's own
            # inputs, to estimate the gradient's share of the solve.
            ens = ensemble(mats, weights)
            with tracer.span("barycenter.euclidean_gradient", rec.index):
                euclidean_gradient(ens, X, spec)
            with tracer.span("barycenter.objective", rec.index):
                objective(ens, X, spec)

    def _fixed_point(self, rec, rng, tracer):
        _, d, m, spread, solver = rec.cell
        mats, weights = random_ensemble(rng, d, m, spread)
        family, _, arg = solver.partition(":")
        rec.solver = family
        if family == "power":
            t = float(arg)
            report = _timed(
                rec, tracer, "barycenter.solve_power_mean",
                lambda: solve_power_mean(ensemble(mats, weights), t, OPTIONS),
            )
            s = 1.0 - t
        else:
            report = _timed(
                rec, tracer, "barycenter.solve_mean_equation",
                lambda: solve_mean_equation(ensemble(mats, weights), self.specs[arg], OPTIONS),
            )
            s = 1.0 - EXPONENT
        rec.iterations = report.iterations
        rec.converged = report.converged
        rec.reported_residual = report.final_residual
        deltas = report.objective_trace
        rec.delta_rises = sum(1 for a, b in zip(deltas, deltas[1:]) if b > a)
        with tracer.span("check.fixed_point", rec.index):
            rec.true_residual = fixed_point_residual(mats, weights, report.solution.mat, s)
        rec.false_converged = report.converged and (
            rec.true_residual > FALSE_CONVERGENCE_FACTOR * OPTIONS.residual_tol
        )

    def _campaign(self, rec, rng, tracer):
        _, dim, gen = rec.cell
        campaign_seed = int(rng.integers(2**31))
        report = _timed(
            rec, tracer, "properties.run_campaigns",
            lambda: run_campaigns(
                self.specs[gen], seed=campaign_seed, trials=CAMPAIGN_TRIALS, dim=dim
            ),
        )
        rec.violations = sum(c.violations for c in report.campaigns)
        rec.discarded = sum(c.discarded for c in report.campaigns)
        rec.trials = sum(c.trials for c in report.campaigns)

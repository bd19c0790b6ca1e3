"""Seeded property-test campaigns for divergences and channels.

Each campaign derives one rng per trial from (campaign seed, campaign id,
trial index), so runs are reproducible and trials are independent.  Slacks
are signed margins: a campaign passes while its worst slack stays above
-1e-9.  The corrupt-channel switch injects a deliberately non-trace-preserving
Kraus family as a negative control; the harness must flag it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channels import (
    TP_ATOL,
    QuantumChannel,
    _joint_convexity_slacks,
    check_dpi,
    kraus_defect,
    random_cptp,
)
from .divergences import _phi_batch, kubo_ando_mean
from .errors import DegenerateTrialError, DomainError
from .generators import DivergenceSpec, MeasureGenerator
from .hermitian import PositiveDefiniteMatrix, _hermitian_part, _spectral, frobenius_dist
from .measures import DiscreteMeasure, convex_order_leq
from .serialize import matrix_to_json as _matrix_json

SLACK_FLOOR = -1e-9

_CAMPAIGN_IDS = {"dpi": 0, "joint_convexity": 1, "divergence_axioms": 2, "convex_order": 3}


def trial_rng(seed: int, campaign: str, trial: int) -> np.random.Generator:
    """The documented seeding contract: one stream per (seed, campaign, trial)."""
    return np.random.default_rng([int(seed), _CAMPAIGN_IDS[campaign], int(trial)])


def random_pd(rng: np.random.Generator, dim: int, spread: float = 1.2) -> PositiveDefiniteMatrix:
    """Random positive definite matrix with eigenvalues in [e^-spread, e^spread]."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    eigs = np.exp(rng.uniform(-spread, spread, size=dim))
    return PositiveDefiniteMatrix(_spectral(q, eigs))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = _hermitian_part(g)
    return h / np.linalg.norm(h)


@dataclass
class CampaignResult:
    name: str
    trials: int
    violations: int = 0
    discarded: int = 0
    worst_slack: float = np.inf
    failures: list = field(default_factory=list)
    # Per trial: wall seconds of its trial function, and each discard's reason.
    seconds: list = field(default_factory=list)
    discards: list = field(default_factory=list)

    def record(self, slack: float, trial: int, detail: str, inputs=None) -> None:
        """inputs, a zero-argument callable, is called only for a violation."""
        self.worst_slack = min(self.worst_slack, slack)
        if slack < SLACK_FLOOR:
            self.violations += 1
            self.failures.append({
                "trial": trial,
                "slack": slack,
                "detail": detail,
                "inputs": None if inputs is None else inputs(),
            })

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass
class PropertyReport:
    seed: int
    campaigns: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.campaigns)


def _campaign(name: str, seed: int, trials: int, trial) -> CampaignResult:
    """Record every (slack, detail, inputs) that trial(trial_rng(seed, name, i), i)
    yields, for each trial index i, and the seconds each trial takes; a
    DegenerateTrialError discards the trial and keeps its message."""
    result = CampaignResult(name, trials)
    for i in range(trials):
        rng = trial_rng(seed, name, i)
        start = time.perf_counter()
        try:
            for slack, detail, inputs in trial(rng, i):
                result.record(slack, i, detail, inputs)
        except DegenerateTrialError as exc:
            result.discarded += 1
            result.discards.append({"trial": i, "reason": str(exc)})
        result.seconds.append(time.perf_counter() - start)
    return result


def _encoded(**inputs) -> dict:
    """A failure's inputs, each positive definite matrix as matrix JSON."""
    return {
        key: _matrix_json(v.mat) if isinstance(v, PositiveDefiniteMatrix) else v
        for key, v in inputs.items()
    }


def _dpi_trial(spec, dim, corrupt_channel, rng, i):
    kraus = random_cptp(dim, dim, dim, rng).kraus
    if corrupt_channel and i == 0:
        kraus = tuple(1.05 * K for K in kraus)
    defect = kraus_defect(kraus)
    if defect > TP_ATOL:
        yield (
            -defect,
            f"channel is not trace preserving (defect {defect:.3e})",
            lambda: {"kraus": [_matrix_json(K) for K in kraus]},
        )
        return
    A = random_pd(rng, dim)
    B = random_pd(rng, dim)
    slack = check_dpi(spec, QuantumChannel(kraus), A, B)
    yield slack, "data processing inequality", partial(_encoded, A=A, B=B)


def _joint_convexity_trial(spec, dim, rng, i):
    A1, B1, A2, B2 = (random_pd(rng, dim) for _ in range(4))
    inputs = partial(_encoded, A1=A1, B1=B1, A2=A2, B2=B2)
    weights = (0.25, 0.5, 0.75)
    slacks = _joint_convexity_slacks(spec, (A1, B1), (A2, B2), weights)
    for s, slack in zip(weights, slacks):
        yield slack, f"joint convexity at s={s}", inputs


def _axiom_trial(spec, dim, rng, i):
    t = 1e-5
    A = random_pd(rng, dim)
    B = random_pd(rng, dim)
    Y = random_hermitian(rng, dim)
    inputs = partial(_encoded, A=A, B=B)
    value, diag, plus, minus = _phi_batch(
        [(A, B), (A, A), (A, A.mat + t * Y), (A, A.mat - t * Y)], spec
    ).tolist()
    yield value, "nonnegativity phi(A,B) >= 0", inputs
    yield 1e-10 - abs(diag), "phi(A,A) = 0", inputs
    if value < 1e-8:
        yield 1e-4 - frobenius_dist(A, B), "phi ~ 0 only near the diagonal", inputs

    first = (plus - minus) / (2 * t)
    yield 1e-6 - abs(first), "vanishing first derivative at diagonal", inputs
    second = (plus - 2 * diag + minus) / (t * t)
    yield second + 1e-6, "nonnegative second derivative at diagonal", inputs


def random_convex_order_pair(rng: np.random.Generator):
    """A pair mu <= nu in the convex order: nu random, mu its contraction."""
    n = int(rng.integers(2, 6))
    locs = rng.uniform(0.05, 0.95, size=n)
    masses = rng.dirichlet(np.ones(n))
    nu = DiscreteMeasure(tuple(zip(locs, masses)))
    mean = float(np.dot(locs, masses))
    shrink = rng.uniform(0.0, 0.95)
    mu = DiscreteMeasure(
        tuple((mean + shrink * (l - mean), m) for l, m in zip(locs, masses))
    )
    return mu, nu


def _convex_order_trial(dim, rng, i):
    mu, nu = random_convex_order_pair(rng)
    if not convex_order_leq(mu, nu):
        inputs = partial(_encoded, mu=mu.atoms, nu=nu.atoms)
        yield -1.0, "constructed pair not in convex order", inputs
        return
    A = random_pd(rng, dim)
    B = random_pd(rng, dim)
    low = kubo_ando_mean(A, B, MeasureGenerator(mu))
    high = kubo_ando_mean(A, B, MeasureGenerator(nu))
    gap = np.linalg.eigvalsh(high.mat - low.mat)[0]
    yield (
        float(gap),
        "mean monotonicity under convex order",
        partial(_encoded, mu=mu.atoms, nu=nu.atoms, A=A, B=B),
    )


def run_campaigns(
    spec: DivergenceSpec,
    seed: int = 42,
    trials: int = 200,
    dim: int = 3,
    corrupt_channel: bool = False,
) -> PropertyReport:
    """Run the four standard campaigns and collect worst slacks."""
    if trials < 0:
        raise DomainError(f"trials must be non-negative, got {trials}")
    return PropertyReport(
        seed=seed,
        campaigns=[
            _campaign("dpi", seed, trials, partial(_dpi_trial, spec, dim, corrupt_channel)),
            _campaign("joint_convexity", seed, trials, partial(_joint_convexity_trial, spec, dim)),
            _campaign("divergence_axioms", seed, trials, partial(_axiom_trial, spec, dim)),
            _campaign("convex_order", seed, trials, partial(_convex_order_trial, dim)),
        ],
    )


def format_report(report: PropertyReport) -> list:
    lines = [f"property campaigns (seed {report.seed})"]
    for c in report.campaigns:
        worst = "n/a" if not np.isfinite(c.worst_slack) else f"{c.worst_slack:.3e}"
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"  {c.name:<18} {status}  trials={c.trials} violations={c.violations} "
            f"discarded={c.discarded} worst_slack={worst}"
        )
        key = f"rng key: [{report.seed}, {_CAMPAIGN_IDS[c.name]},"
        for f in c.failures[:5]:
            lines.append(
                f"    trial {f['trial']}: slack={f['slack']:.3e}  {f['detail']} "
                f"({key} {f['trial']}])"
            )
            if f.get("inputs") is not None:
                lines.append(f"      inputs: {f['inputs']}")
        for d in c.discards[:5]:
            lines.append(
                f"    trial {d['trial']}: discarded  {d['reason']} ({key} {d['trial']}])"
            )
    lines.append("ALL PASSED" if report.all_passed else "VIOLATIONS FOUND")
    return lines

"""Seeded property-test campaigns for divergences and channels.

Each campaign derives one rng per trial from (campaign seed, campaign id,
trial index), so runs are reproducible and trials are independent.  Slacks
are signed margins: a campaign passes while its worst slack stays above
-1e-9.  The corrupt-channel switch injects a deliberately non-trace-preserving
Kraus family as a negative control; the harness must flag it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import (
    TP_ATOL,
    QuantumChannel,
    check_dpi,
    check_joint_convexity,
    kraus_defect,
    random_cptp,
)
from .divergences import kubo_ando_mean, phi
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

    def record(self, slack: float, trial: int, detail: str, inputs=None) -> None:
        self.worst_slack = min(self.worst_slack, slack)
        if slack < SLACK_FLOOR:
            self.violations += 1
            self.failures.append(
                {"trial": trial, "slack": slack, "detail": detail, "inputs": inputs}
            )

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


def _dpi_campaign(spec, seed, trials, dim, corrupt_channel) -> CampaignResult:
    result = CampaignResult("dpi", trials)
    for i in range(trials):
        rng = trial_rng(seed, "dpi", i)
        kraus = random_cptp(dim, dim, dim, rng).kraus
        if corrupt_channel and i == 0:
            kraus = tuple(1.05 * K for K in kraus)
        defect = kraus_defect(kraus)
        if defect > TP_ATOL:
            result.record(
                -defect,
                i,
                f"channel is not trace preserving (defect {defect:.3e})",
                inputs={"kraus": [_matrix_json(K) for K in kraus]},
            )
            continue
        A = random_pd(rng, dim)
        B = random_pd(rng, dim)
        try:
            slack = check_dpi(spec, QuantumChannel(kraus), A, B)
        except DegenerateTrialError:
            result.discarded += 1
            continue
        result.record(
            slack,
            i,
            "data processing inequality",
            inputs={"A": _matrix_json(A.mat), "B": _matrix_json(B.mat)},
        )
    return result


def _joint_convexity_campaign(spec, seed, trials, dim) -> CampaignResult:
    result = CampaignResult("joint_convexity", trials)
    for i in range(trials):
        rng = trial_rng(seed, "joint_convexity", i)
        pair_one = (random_pd(rng, dim), random_pd(rng, dim))
        pair_two = (random_pd(rng, dim), random_pd(rng, dim))
        inputs = {
            "A1": _matrix_json(pair_one[0].mat),
            "B1": _matrix_json(pair_one[1].mat),
            "A2": _matrix_json(pair_two[0].mat),
            "B2": _matrix_json(pair_two[1].mat),
        }
        for s in (0.25, 0.5, 0.75):
            slack = check_joint_convexity(spec, pair_one, pair_two, s)
            result.record(slack, i, f"joint convexity at s={s}", inputs=inputs)
    return result


def _axiom_campaign(spec, seed, trials, dim) -> CampaignResult:
    result = CampaignResult("divergence_axioms", trials)
    t = 1e-5
    for i in range(trials):
        rng = trial_rng(seed, "divergence_axioms", i)
        A = random_pd(rng, dim)
        B = random_pd(rng, dim)
        Y = random_hermitian(rng, dim)
        inputs = {"A": _matrix_json(A.mat), "B": _matrix_json(B.mat)}

        value = phi(A, B, spec)
        result.record(value, i, "nonnegativity phi(A,B) >= 0", inputs=inputs)
        diag = phi(A, A, spec)
        result.record(1e-10 - abs(diag), i, "phi(A,A) = 0", inputs=inputs)
        if value < 1e-8:
            result.record(
                1e-4 - frobenius_dist(A, B),
                i,
                "phi ~ 0 only near the diagonal",
                inputs=inputs,
            )

        plus = PositiveDefiniteMatrix(A.mat + t * Y)
        minus = PositiveDefiniteMatrix(A.mat - t * Y)
        first = (phi(A, plus, spec) - phi(A, minus, spec)) / (2 * t)
        result.record(
            1e-6 - abs(first), i, "vanishing first derivative at diagonal", inputs=inputs
        )
        second = (phi(A, plus, spec) - 2 * diag + phi(A, minus, spec)) / (t * t)
        result.record(
            second + 1e-6, i, "nonnegative second derivative at diagonal", inputs=inputs
        )
    return result


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


def _convex_order_campaign(seed, trials, dim) -> CampaignResult:
    result = CampaignResult("convex_order", trials)
    for i in range(trials):
        rng = trial_rng(seed, "convex_order", i)
        mu, nu = random_convex_order_pair(rng)
        if not convex_order_leq(mu, nu):
            result.record(
                -1.0, i, "constructed pair not in convex order",
                inputs={"mu": mu.atoms, "nu": nu.atoms},
            )
            continue
        A = random_pd(rng, dim)
        B = random_pd(rng, dim)
        low = kubo_ando_mean(A, B, MeasureGenerator(mu))
        high = kubo_ando_mean(A, B, MeasureGenerator(nu))
        gap = np.linalg.eigvalsh(high.mat - low.mat)[0]
        result.record(
            float(gap),
            i,
            "mean monotonicity under convex order",
            inputs={
                "mu": mu.atoms,
                "nu": nu.atoms,
                "A": _matrix_json(A.mat),
                "B": _matrix_json(B.mat),
            },
        )
    return result


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
            _dpi_campaign(spec, seed, trials, dim, corrupt_channel),
            _joint_convexity_campaign(spec, seed, trials, dim),
            _axiom_campaign(spec, seed, trials, dim),
            _convex_order_campaign(seed, trials, dim),
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
        for f in c.failures[:5]:
            lines.append(
                f"    trial {f['trial']}: slack={f['slack']:.3e}  {f['detail']} "
                f"(rng key: [{report.seed}, {_CAMPAIGN_IDS[c.name]}, {f['trial']}])"
            )
            if f.get("inputs") is not None:
                lines.append(f"      inputs: {f['inputs']}")
    lines.append("ALL PASSED" if report.all_passed else "VIOLATIONS FOUND")
    return lines

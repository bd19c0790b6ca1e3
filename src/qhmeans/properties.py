"""Seeded property-test campaigns for divergences and channels.

Each campaign derives one rng per trial from (campaign seed, campaign id,
trial index), so runs are reproducible and trials are independent.  A
campaign draws all its trials first, then evaluates them in one stacked pass
whose batched QR, eigh and eigvalsh calls do not grow in number with the
trials; a trial's own special cases keep it out of that pass.  Slacks are
signed margins: a campaign passes while its worst slack stays above
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
    _complex_gaussian,
    _dpi_slacks,
    _joint_convexity_slacks,
    _kraus_defects,
    _kraus_stack,
)
from .divergences import _means, _phi_batch
from .errors import DegenerateTrialError, DomainError
from .generators import DivergenceSpec, MeasureGenerator
from .hermitian import PositiveDefiniteMatrix, _hermitian_part, _require_pd, _spectral, frobenius_dist
from .measures import DiscreteMeasure, convex_order_leq
from .serialize import matrix_to_json as _matrix_json

SLACK_FLOOR = -1e-9

_CAMPAIGN_IDS = {"dpi": 0, "joint_convexity": 1, "divergence_axioms": 2, "convex_order": 3}


def trial_rng(seed: int, campaign: str, trial: int) -> np.random.Generator:
    """The documented seeding contract: one stream per (seed, campaign, trial)."""
    return np.random.default_rng([int(seed), _CAMPAIGN_IDS[campaign], int(trial)])


def _pd_draw(rng: np.random.Generator, dim: int, spread: float = 1.2):
    """The random numbers behind one random_pd: a complex Gaussian and a spectrum."""
    return _complex_gaussian(rng, (dim, dim)), np.exp(rng.uniform(-spread, spread, size=dim))


def _pd_stacks(draws, dim: int) -> np.ndarray:
    """Q diag(eigs) Q* for every (g, eigs) _pd_draw, Q the unitary QR factor of
    g, from one batched QR: draws holds n trials of k draws each, and the
    result is k stacks, shape (k, n, dim, dim).  The drawn spectra are held to
    the positive definite predicate."""
    g = np.array([m[0] for d in draws for m in d]).reshape(len(draws), -1, dim, dim)
    eigs = np.array([m[1] for d in draws for m in d]).reshape(len(draws), -1, dim)
    _require_pd(np.sort(eigs, axis=-1).reshape(-1, dim))
    return _hermitian_part(_spectral(np.linalg.qr(g)[0], eigs)).swapaxes(0, 1)


def random_pd(rng: np.random.Generator, dim: int, spread: float = 1.2) -> PositiveDefiniteMatrix:
    """Random positive definite matrix with eigenvalues in [e^-spread, e^spread]."""
    return PositiveDefiniteMatrix(_pd_stacks([[_pd_draw(rng, dim, spread)]], dim)[0, 0])


def _hermitian_stack(g: np.ndarray) -> np.ndarray:
    """Hermitian parts of a stack of matrices, each scaled to unit Frobenius norm."""
    h = _hermitian_part(g)
    return h / np.linalg.norm(h, axis=(-2, -1), keepdims=True)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _hermitian_stack(_complex_gaussian(rng, (dim, dim)))


@dataclass
class CampaignResult:
    name: str
    trials: int
    violations: int = 0
    discarded: int = 0
    worst_slack: float = np.inf
    failures: list = field(default_factory=list)
    # Per trial: wall seconds of its own draw plus an equal share of the
    # campaign's batched pass, so the entries sum to the campaign's wall time;
    # and each discard's reason.
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


def _campaign(name: str, seed: int, trials: int, draw, evaluate) -> CampaignResult:
    """Draw each trial i from trial_rng(seed, name, i), evaluate every draw in
    one batched pass, and record each trial's outcome.

    draw(rng) returns one trial's random inputs; evaluate(draws) returns per
    trial either its (slack, detail, inputs) records or the
    DegenerateTrialError that discards it, whose message is kept.
    """
    result = CampaignResult(name, trials)
    start = time.perf_counter()
    draws, seconds = [], []
    for i in range(trials):
        tick = time.perf_counter()
        draws.append(draw(trial_rng(seed, name, i)))
        seconds.append(time.perf_counter() - tick)
    for i, outcome in enumerate(evaluate(draws) if draws else []):
        if isinstance(outcome, DegenerateTrialError):
            result.discarded += 1
            result.discards.append({"trial": i, "reason": str(outcome)})
        else:
            for slack, detail, inputs in outcome:
                result.record(slack, i, detail, inputs)
    share = (time.perf_counter() - start - sum(seconds)) / max(trials, 1)
    result.seconds = [t + share for t in seconds]
    return result


def _encoded(**inputs) -> dict:
    """A failure's inputs, each matrix as matrix JSON."""
    return {
        key: _matrix_json(v) if isinstance(v, np.ndarray) else v
        for key, v in inputs.items()
    }


def _dpi_draw(dim, rng):
    return _complex_gaussian(rng, (dim * dim, dim)), _pd_draw(rng, dim), _pd_draw(rng, dim)


def _dpi_trials(spec, dim, corrupt_channel, draws):
    kraus = _kraus_stack(np.array([d[0] for d in draws]), dim, dim)
    if corrupt_channel:
        kraus[0] *= 1.05
    a, b = _pd_stacks([d[1:] for d in draws], dim)
    defects = _kraus_defects(kraus).tolist()
    honest = [k for k, defect in enumerate(defects) if defect <= TP_ATOL]
    slacks = dict(zip(honest, _dpi_slacks(spec, kraus[honest], a[honest], b[honest])))
    outcomes = []
    for k, defect in enumerate(defects):
        if k not in slacks:
            outcomes.append([(
                -defect,
                f"channel is not trace preserving (defect {defect:.3e})",
                partial(lambda ks: {"kraus": [_matrix_json(K) for K in ks]}, kraus[k]),
            )])
        elif isinstance(slacks[k], DegenerateTrialError):
            outcomes.append(slacks[k])
        else:
            inputs = partial(_encoded, A=a[k], B=b[k])
            outcomes.append([(slacks[k], "data processing inequality", inputs)])
    return outcomes


_JOINT_CONVEXITY_WEIGHTS = (0.25, 0.5, 0.75)


def _joint_convexity_draw(dim, rng):
    return [_pd_draw(rng, dim) for _ in range(4)]


def _joint_convexity_trials(spec, dim, draws):
    mats = _pd_stacks(draws, dim)
    slacks = _joint_convexity_slacks(spec, *mats, _JOINT_CONVEXITY_WEIGHTS)
    outcomes = []
    for (A1, B1, A2, B2), row in zip(mats.swapaxes(0, 1), slacks.tolist()):
        inputs = partial(_encoded, A1=A1, B1=B1, A2=A2, B2=B2)
        outcomes.append([
            (slack, f"joint convexity at s={s}", inputs)
            for s, slack in zip(_JOINT_CONVEXITY_WEIGHTS, row)
        ])
    return outcomes


def _axiom_draw(dim, rng):
    return _pd_draw(rng, dim), _pd_draw(rng, dim), _complex_gaussian(rng, (dim, dim))


def _axiom_trials(spec, dim, draws):
    t = 1e-5
    a, b = _pd_stacks([d[:2] for d in draws], dim)
    y = _hermitian_stack(np.array([d[2] for d in draws]))
    moved = np.concatenate((a + t * y, a - t * y))
    _require_pd(np.linalg.eigvalsh(moved))
    values = _phi_batch(np.concatenate((a, a, a, a)), np.concatenate((b, a, moved)), spec)
    outcomes = []
    for A, B, (value, diag, plus, minus) in zip(a, b, values.reshape(4, -1).T.tolist()):
        inputs = partial(_encoded, A=A, B=B)
        records = [
            (value, "nonnegativity phi(A,B) >= 0", inputs),
            (1e-10 - abs(diag), "phi(A,A) = 0", inputs),
        ]
        if value < 1e-8:
            records.append((1e-4 - frobenius_dist(A, B), "phi ~ 0 only near the diagonal", inputs))
        first = (plus - minus) / (2 * t)
        records.append((1e-6 - abs(first), "vanishing first derivative at diagonal", inputs))
        second = (plus - 2 * diag + minus) / (t * t)
        records.append((second + 1e-6, "nonnegative second derivative at diagonal", inputs))
        outcomes.append(records)
    return outcomes


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


def _convex_order_draw(dim, rng):
    mu, nu = random_convex_order_pair(rng)
    return mu, nu, _pd_draw(rng, dim), _pd_draw(rng, dim)


def _convex_order_trials(dim, draws):
    ordered = [k for k, (mu, nu, *_) in enumerate(draws) if convex_order_leq(mu, nu)]
    a, b = _pd_stacks([d[2:] for d in draws], dim)[:, ordered]
    # Probability measures on (0, 1) generate means with f(1) = 1 and weight
    # in (0, 1), so the generators skip kubo_ando_mean's normalization check.
    gens = [[MeasureGenerator(draws[k][j]) for k in ordered] for j in (0, 1)]

    def f(w):
        # Each generator sees its spectrum as the (1, d) stack kubo_ando_mean
        # passes, so the means match the one-pair means exactly.
        return np.array([[g.f(w[k : k + 1]) for k, g in enumerate(row)] for row in gens]).reshape(2, *w.shape)

    low, high = _means(a, b, f)
    gaps = np.linalg.eigvalsh(high - low)[:, 0].tolist()
    pairs = dict(zip(ordered, zip(a, b, gaps)))
    outcomes = []
    for k, (mu, nu, *_) in enumerate(draws):
        if k in pairs:
            A, B, gap = pairs[k]
            inputs = partial(_encoded, mu=mu.atoms, nu=nu.atoms, A=A, B=B)
            outcomes.append([(gap, "mean monotonicity under convex order", inputs)])
        else:
            inputs = partial(_encoded, mu=mu.atoms, nu=nu.atoms)
            outcomes.append([(-1.0, "constructed pair not in convex order", inputs)])
    return outcomes


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
    campaigns = (
        ("dpi", _dpi_draw, partial(_dpi_trials, spec, dim, corrupt_channel)),
        ("joint_convexity", _joint_convexity_draw, partial(_joint_convexity_trials, spec, dim)),
        ("divergence_axioms", _axiom_draw, partial(_axiom_trials, spec, dim)),
        ("convex_order", _convex_order_draw, partial(_convex_order_trials, dim)),
    )
    return PropertyReport(
        seed=seed,
        campaigns=[
            _campaign(name, seed, trials, partial(draw, dim), evaluate)
            for name, draw, evaluate in campaigns
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

"""The seeded property campaigns: discards, failure records and their inputs."""

import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import qhmeans.channels as channels
import qhmeans.measures as measures
import qhmeans.properties as properties
from qhmeans import DegenerateTrialError, DivergenceSpec, DomainError, MeasureGenerator, arcsine_generator
from qhmeans.channels import check_dpi, check_joint_convexity, kraus_defect, random_cptp
from qhmeans.cli import parse_generator
from qhmeans.divergences import kubo_ando_mean, phi
from qhmeans.hermitian import _hermitian_part, _spectral
from qhmeans.properties import (
    MAX_SPREAD,
    CampaignResult,
    PropertyReport,
    format_report,
    random_convex_order_pair,
    random_hermitian,
    random_pd,
    run_campaigns,
    trial_rng,
)
from qhmeans.serialize import matrix_from_json

ARCSINE_SPEC = DivergenceSpec(arcsine_generator())
GOLDEN = json.loads((Path(__file__).parent / "data" / "campaign_golden.json").read_text())


def _campaign(report, name):
    return next(c for c in report.campaigns if c.name == name)


def _dpi_discard_reason(seed, trial, dim):
    """The message check_dpi raises on one dpi trial's channel and inputs,
    drawn from its rng in the campaign's order."""
    rng = trial_rng(seed, "dpi", trial)
    T = random_cptp(dim, dim, dim, rng)
    with pytest.raises(DegenerateTrialError) as exc:
        check_dpi(ARCSINE_SPEC, T, random_pd(rng, dim), random_pd(rng, dim))
    return str(exc.value)


def test_degenerate_dpi_trials_are_discarded(monkeypatch):
    # A bound of 1 leaves only multiples of the identity, so every trial's
    # outputs are degenerate.
    monkeypatch.setattr(channels, "MAX_OUTPUT_CONDITION", 1.0)
    report = run_campaigns(ARCSINE_SPEC, seed=3, trials=12, dim=2)
    dpi = _campaign(report, "dpi")
    assert dpi.discarded == 12
    assert dpi.violations == 0
    assert dpi.passed
    reasons = [_dpi_discard_reason(3, i, 2) for i in range(12)]
    assert all("condition bound 1e+00" in reason for reason in reasons)
    assert dpi.discards == [{"trial": i, "reason": reasons[i]} for i in range(12)]
    assert len(dpi.seconds) == 12 and all(t >= 0 for t in dpi.seconds)
    shown = [line for line in format_report(report) if "discarded  " in line]
    assert len(shown) == 5
    assert shown[0].strip() == f"trial 0: discarded  {reasons[0]} (rng key: [3, 0, 0])"


@pytest.mark.parametrize(
    "kwargs",
    [{"dim": 0}, {"dim": 2.5}, {"dim": True}, {"trials": 2.5}, {"trials": -1}],
    ids=["dim-zero", "dim-fractional", "dim-bool", "trials-fractional", "trials-negative"],
)
def test_sizes_must_be_integers(kwargs):
    with pytest.raises(DomainError, match="must be an integer"):
        run_campaigns(ARCSINE_SPEC, **{"trials": 2, **kwargs})


def test_corrupt_channel_failure_keeps_its_kraus_operators():
    report = run_campaigns(ARCSINE_SPEC, seed=7, trials=5, dim=3, corrupt_channel=True)
    dpi = _campaign(report, "dpi")
    assert dpi.violations == 1
    (failure,) = dpi.failures
    assert failure["trial"] == 0
    kraus = [matrix_from_json(K) for K in failure["inputs"]["kraus"]]
    assert kraus_defect(kraus) == pytest.approx(-failure["slack"], abs=1e-12)


def _nan_then_finite_slack():
    result = CampaignResult("dpi", 3)
    for trial, slack in enumerate((0.5, float("nan"), 0.25)):
        result.record(slack, trial, "data processing")
    return result


def test_a_nan_slack_is_a_violation_and_stays_the_worst():
    result = _nan_then_finite_slack()
    assert not result.passed
    assert result.violations == 1
    assert result.failures[0]["trial"] == 1
    assert np.isnan(result.worst_slack)


def test_a_nan_slack_fails_the_report():
    lines = format_report(PropertyReport(seed=1, campaigns=[_nan_then_finite_slack()]))
    assert "FAIL" in lines[1] and "violations=1" in lines[1] and "worst_slack=nan" in lines[1]
    assert lines[-1] == "VIOLATIONS FOUND"


def test_passing_trials_encode_no_inputs(monkeypatch):
    calls = []
    encode = properties._matrix_json
    monkeypatch.setattr(properties, "_matrix_json", lambda M: calls.append(1) or encode(M))
    report = run_campaigns(ARCSINE_SPEC, seed=7, trials=5, dim=2)
    assert report.all_passed
    assert not calls


def test_every_campaign_times_each_trial():
    start = time.perf_counter()
    report = run_campaigns(ARCSINE_SPEC, seed=5, trials=4, dim=2)
    elapsed = time.perf_counter() - start
    for c in report.campaigns:
        assert len(c.seconds) == 4 and all(t > 0 for t in c.seconds)
        assert c.discards == []
    # Each trial's entry holds its share of the batched pass, so the entries
    # account for the campaigns' wall time and no more.
    assert sum(sum(c.seconds) for c in report.campaigns) <= elapsed


@pytest.mark.parametrize("seed", [0, 7, 12345])
@pytest.mark.parametrize("dim", [1, 3, 4])
def test_batched_assembly_equals_the_one_draw_construction(seed, dim):
    # A trial's draws hold only the rng's raw numbers; the stacks form the
    # complex matrices and the spectra's exp once, with equal bits.
    n, k = 5, 2
    rng = np.random.default_rng(seed)
    draws = [[properties._pd_draw(rng, dim) for _ in range(k)] for _ in range(n)]
    raw = np.array([rng.standard_normal((2, dim * dim, dim)) for _ in range(n)])
    replay = np.random.default_rng(seed)
    expected = np.empty((k, n, dim, dim), dtype=np.complex128)
    for i in range(n):
        for j in range(k):
            re, im = replay.standard_normal((2, dim, dim))
            q = np.linalg.qr(re + 1j * im)[0]
            eigs = np.exp(replay.uniform(-1.2, 1.2, size=dim))
            expected[j, i] = _hermitian_part(_spectral(q, eigs))
    assert np.array_equal(properties._pd_stacks(draws, dim), expected)
    gaussians = [replay.standard_normal((2, dim * dim, dim)) for _ in range(n)]
    assert np.array_equal(channels._complex(raw), np.array([re + 1j * im for re, im in gaussians]))


@pytest.mark.parametrize(
    "call",
    [
        partial(random_pd, dim=0),
        partial(random_pd, dim=2.5),
        partial(random_pd, dim=True),
        partial(random_pd, dim=3, spread=-1.0),
        partial(random_pd, dim=3, spread=float("nan")),
        partial(random_pd, dim=3, spread=float("inf")),
        partial(random_pd, dim=3, spread=400.0),
        partial(random_pd, dim=3, spread=np.nextafter(MAX_SPREAD, np.inf)),
        partial(random_hermitian, dim=0),
        partial(random_hermitian, dim=2.5),
        partial(random_hermitian, dim=-1),
    ],
    ids=[
        "pd-dim-zero", "pd-dim-fractional", "pd-dim-bool", "pd-spread-negative",
        "pd-spread-nan", "pd-spread-inf", "pd-spread-huge", "pd-spread-above-limit",
        "hermitian-dim-zero", "hermitian-dim-fractional",
        "hermitian-dim-negative",
    ],
)
def test_random_matrices_refuse_bad_arguments_before_drawing(call):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="dim must be an integer|spread must be finite"):
        call(rng)
    assert rng.bit_generator.state == state


def test_random_pd_refusal_names_the_spread_and_the_limit():
    with pytest.raises(DomainError, match=r"\[0, 16\.1181\], got 400\.0"):
        random_pd(np.random.default_rng(0), 3, 400.0)


@pytest.mark.parametrize("dim", [2, 3, 8, 16])
def test_random_pd_passes_its_own_check_up_to_the_limit(dim):
    # at the limit a drawn spectrum spans up to 1e14, a decade inside the
    # positive definite floor; above about 17.27 draws fail that floor
    for seed in range(100):
        A = random_pd(np.random.default_rng(seed), dim, MAX_SPREAD)
        w = np.linalg.eigvalsh(A.mat)
        assert w[-1] / w[0] <= 1.01e14


def test_random_pd_accepts_a_zero_spread():
    A = random_pd(np.random.default_rng(5), 3, spread=0.0)
    assert np.allclose(A.mat, np.eye(3), atol=1e-14)


def _batched_slacks(name, draw, evaluate, trials=5, seed=11):
    """Each trial's slacks from one batched pass over the campaign's draws."""
    draws = [draw(trial_rng(seed, name, i)) for i in range(trials)]
    return [[slack for slack, _, _ in outcome] for outcome in evaluate(draws)]


def test_joint_convexity_trial_matches_the_one_weight_check():
    batched = _batched_slacks(
        "joint_convexity",
        partial(properties._joint_convexity_draw, 3),
        partial(properties._joint_convexity_trials, ARCSINE_SPEC, 3),
    )
    for i, slacks in enumerate(batched):
        rng = trial_rng(11, "joint_convexity", i)
        A1, B1, A2, B2 = (random_pd(rng, 3) for _ in range(4))
        for s, slack in zip((0.25, 0.5, 0.75), slacks, strict=True):
            expected = check_joint_convexity(ARCSINE_SPEC, (A1, B1), (A2, B2), s)
            assert abs(slack - expected) <= 1e-13


def test_dpi_trial_matches_the_one_channel_check():
    batched = _batched_slacks(
        "dpi",
        partial(properties._dpi_draw, 3),
        partial(properties._dpi_trials, ARCSINE_SPEC, 3, False),
    )
    for i, slacks in enumerate(batched):
        rng = trial_rng(11, "dpi", i)
        T = random_cptp(3, 3, 3, rng)
        A, B = random_pd(rng, 3), random_pd(rng, 3)
        (slack,) = slacks
        assert abs(slack - check_dpi(ARCSINE_SPEC, T, A, B)) <= 1e-13


def test_axiom_trial_matches_one_pair_phi():
    # The harmonic mean with weight 0.3 is not symmetric, so phi differs
    # between its arguments and the derivatives must be taken in the second.
    spec = DivergenceSpec(parse_generator("harmonic:0.3"))
    t = 1e-5
    batched = _batched_slacks(
        "divergence_axioms",
        partial(properties._axiom_draw, 3),
        partial(properties._axiom_trials, spec, 3),
    )
    for i, slacks in enumerate(batched):
        rng = trial_rng(11, "divergence_axioms", i)
        A, B = random_pd(rng, 3), random_pd(rng, 3)
        Y = random_hermitian(rng, 3)
        value, diag = phi(A, B, spec), phi(A, A, spec)
        plus, minus = phi(A, A.mat + t * Y, spec), phi(A, A.mat - t * Y, spec)
        expected = [
            value,
            1e-10 - abs(diag),
            1e-6 - abs((plus - minus) / (2 * t)),
            (plus - 2 * diag + minus) / (t * t) + 1e-6,
        ]
        for slack, e in zip(slacks, expected, strict=True):
            assert abs(slack - e) <= 1e-13


def test_axiom_trial_at_equal_arguments_checks_the_diagonal():
    # phi(A, A), 0 to rounding, is below 1e-8, so the trial adds the record
    # that phi vanishes only near the diagonal, held here with distance 0
    spec = DivergenceSpec(parse_generator("harmonic:0.3"))
    A, _, Y = properties._axiom_draw(3, trial_rng(11, "divergence_axioms", 0))
    (records,) = properties._axiom_trials(spec, 3, [(A, A, Y)])
    slacks = {name: slack for slack, name, _ in records}
    assert len(slacks) == 5
    assert slacks["phi ~ 0 only near the diagonal"] == 1e-4
    assert abs(slacks["nonnegativity phi(A,B) >= 0"]) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_convex_order_trial_matches_one_pair_means(dim):
    batched = _batched_slacks(
        "convex_order",
        partial(properties._convex_order_draw, dim),
        partial(properties._convex_order_trials, dim),
    )
    for i, slacks in enumerate(batched):
        rng = trial_rng(11, "convex_order", i)
        mu, nu = random_convex_order_pair(rng)
        A, B = random_pd(rng, dim), random_pd(rng, dim)
        low = kubo_ando_mean(A, B, MeasureGenerator(mu)).mat
        high = kubo_ando_mean(A, B, MeasureGenerator(nu)).mat
        (slack,) = slacks
        assert abs(slack - np.linalg.eigvalsh(high - low)[0]) <= 1e-13


@pytest.mark.parametrize("every", [2, 1])
def test_convex_order_flags_exactly_the_swapped_pairs(every):
    # Negative control: mu and nu swapped on every `every`-th trial.  With
    # every trial swapped, the means are evaluated over an empty batch.
    trials = 8
    swapped = list(range(0, trials, every))
    order = iter(range(trials))

    def draw(rng):
        mu, nu, *rest = properties._convex_order_draw(3, rng)
        return (nu, mu, *rest) if next(order) in swapped else (mu, nu, *rest)

    result = properties._campaign(
        "convex_order", 11, trials, draw, partial(properties._convex_order_trials, 3)
    )
    assert result.violations == len(swapped)
    assert [f["trial"] for f in result.failures] == swapped
    for f in result.failures:
        mu, nu = random_convex_order_pair(trial_rng(11, "convex_order", f["trial"]))
        assert f["slack"] == -1.0
        assert f["detail"] == "constructed pair not in convex order"
        assert f["inputs"] == {"mu": nu.atoms, "nu": mu.atoms}


def test_warm_campaigns_build_no_quadrature_rules(monkeypatch):
    run_campaigns(ARCSINE_SPEC, seed=1, trials=10, dim=3)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    quadrature = counted("quadrature", measures.quadrature)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qhmeans" and hasattr(module, "quadrature"):
            monkeypatch.setattr(module, "quadrature", quadrature)
    monkeypatch.setattr(
        measures.DiscreteMeasure, "__post_init__",
        counted("DiscreteMeasure", measures.DiscreteMeasure.__post_init__),
    )
    for seed in range(2, 6):
        run_campaigns(ARCSINE_SPEC, seed=seed, trials=10, dim=3)
    assert calls == []


@pytest.mark.parametrize(
    "case",
    GOLDEN["cases"],
    ids=lambda c: f"{c['generator']}-d{c['dim']}-{'corrupt' if c['corrupt_channel'] else 'honest'}",
)
def test_campaigns_match_the_golden_file(case):
    # Counts, failing trials and worst slacks of every campaign, pinned from
    # the per-trial implementation before campaigns were batched.
    report = run_campaigns(
        DivergenceSpec(parse_generator(case["generator"])),
        seed=GOLDEN["seed"],
        trials=GOLDEN["trials"],
        dim=case["dim"],
        corrupt_channel=case["corrupt_channel"],
    )
    assert [c.name for c in report.campaigns] == list(case["campaigns"])
    for c in report.campaigns:
        golden = case["campaigns"][c.name]
        assert c.violations == golden["violations"]
        assert c.discarded == golden["discarded"]
        assert [f["trial"] for f in c.failures] == golden["failure_trials"]
        assert c.worst_slack == pytest.approx(golden["worst_slack"], rel=0, abs=1e-12)

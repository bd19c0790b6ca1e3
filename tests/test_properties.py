"""The seeded property campaigns: discards, failure records and their inputs."""

import json
import time
from functools import partial
from pathlib import Path

import pytest

import qhmeans.channels as channels
import qhmeans.properties as properties
from qhmeans import DegenerateTrialError, DivergenceSpec, arcsine_generator
from qhmeans.channels import check_dpi, check_joint_convexity, kraus_defect, random_cptp
from qhmeans.cli import parse_generator
from qhmeans.divergences import phi
from qhmeans.properties import format_report, random_hermitian, random_pd, run_campaigns, trial_rng
from qhmeans.serialize import matrix_from_json

ARCSINE_SPEC = DivergenceSpec(arcsine_generator())
GOLDEN = json.loads((Path(__file__).parent / "data" / "campaign_golden.json").read_text())


def _campaign(report, name):
    return next(c for c in report.campaigns if c.name == name)


def test_degenerate_dpi_trials_are_discarded(monkeypatch):
    def degenerate(*args):
        raise DegenerateTrialError("channel output too singular")

    monkeypatch.setattr(channels, "_regularization_shift", degenerate)
    report = run_campaigns(ARCSINE_SPEC, seed=3, trials=12, dim=2)
    dpi = _campaign(report, "dpi")
    assert dpi.discarded == 12
    assert dpi.violations == 0
    assert dpi.passed
    assert dpi.discards == [
        {"trial": i, "reason": "channel output too singular"} for i in range(12)
    ]
    assert len(dpi.seconds) == 12 and all(t >= 0 for t in dpi.seconds)
    shown = [line for line in format_report(report) if "discarded  " in line]
    assert len(shown) == 5
    assert shown[0].strip() == (
        "trial 0: discarded  channel output too singular (rng key: [3, 0, 0])"
    )


def test_corrupt_channel_failure_keeps_its_kraus_operators():
    report = run_campaigns(ARCSINE_SPEC, seed=7, trials=5, dim=3, corrupt_channel=True)
    dpi = _campaign(report, "dpi")
    assert dpi.violations == 1
    (failure,) = dpi.failures
    assert failure["trial"] == 0
    kraus = [matrix_from_json(K) for K in failure["inputs"]["kraus"]]
    assert kraus_defect(kraus) == pytest.approx(-failure["slack"], abs=1e-12)


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

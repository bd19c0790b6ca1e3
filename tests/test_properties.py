"""The seeded property campaigns: discards, failure records and their inputs."""

import pytest

import qhmeans.properties as properties
from qhmeans import DegenerateTrialError, DivergenceSpec, arcsine_generator
from qhmeans.channels import check_joint_convexity, kraus_defect
from qhmeans.properties import format_report, random_pd, run_campaigns, trial_rng
from qhmeans.serialize import matrix_from_json

ARCSINE_SPEC = DivergenceSpec(arcsine_generator())


def _campaign(report, name):
    return next(c for c in report.campaigns if c.name == name)


def test_degenerate_dpi_trials_are_discarded(monkeypatch):
    def degenerate(*args):
        raise DegenerateTrialError("channel output too singular")

    monkeypatch.setattr(properties, "check_dpi", degenerate)
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
    report = run_campaigns(ARCSINE_SPEC, seed=5, trials=4, dim=2)
    for c in report.campaigns:
        assert len(c.seconds) == 4 and all(t > 0 for t in c.seconds)
        assert c.discards == []


def test_joint_convexity_trial_matches_the_one_weight_check():
    for i in range(5):
        slacks = [
            slack
            for slack, _, _ in properties._joint_convexity_trial(
                ARCSINE_SPEC, 3, trial_rng(11, "joint_convexity", i), i
            )
        ]
        rng = trial_rng(11, "joint_convexity", i)
        A1, B1, A2, B2 = (random_pd(rng, 3) for _ in range(4))
        for s, slack in zip((0.25, 0.5, 0.75), slacks, strict=True):
            expected = check_joint_convexity(ARCSINE_SPEC, (A1, B1), (A2, B2), s)
            assert abs(slack - expected) <= 1e-13

"""The seeded property campaigns: discards, failure records and their inputs."""

import pytest

import qhmeans.properties as properties
from qhmeans import DegenerateTrialError, DivergenceSpec, arcsine_generator
from qhmeans.channels import kraus_defect
from qhmeans.properties import run_campaigns
from qhmeans.serialize import matrix_from_json

ARCSINE_SPEC = DivergenceSpec(arcsine_generator())


def _campaign(report, name):
    return next(c for c in report.campaigns if c.name == name)


def test_degenerate_dpi_trials_are_discarded(monkeypatch):
    def degenerate(*args):
        raise DegenerateTrialError("channel output too singular")

    monkeypatch.setattr(properties, "check_dpi", degenerate)
    dpi = _campaign(run_campaigns(ARCSINE_SPEC, seed=3, trials=12, dim=2), "dpi")
    assert dpi.discarded == 12
    assert dpi.violations == 0
    assert dpi.passed


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

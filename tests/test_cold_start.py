"""The package imports and runs on numpy alone.

scipy is needed only by the Beta-type Gauss rule that `quadrature` builds, a
test reference that no evaluation path calls, and is imported on its first
use.  Each case runs in a fresh interpreter, since this test process has
scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import needs_scipy

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT_SCIPY = """
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _scipy_modules_after(code: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code + REPORT_SCIPY],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_cli_and_solvers_load_no_scipy():
    code = """
import contextlib, io
import numpy as np
import qhmeans, qhmeans.cli, qhmeans.properties
from qhmeans import ensemble, solve_power_mean
from qhmeans.serialize import matrix_to_json

a = json.dumps(matrix_to_json(np.diag([4.0, 1.0])))
b = json.dumps(matrix_to_json(0.5 * np.array([[5.0, 3.0], [3.0, 5.0]])))
runs = (
    ["verify-paper"],
    ["divergence", "--inline", a, "--inline", b, "--generator", "beta:0.25"],
    ["properties", "--generator", "arcsine", "--trials", "3"],
)
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert qhmeans.cli.main(argv) == 0, argv
report = solve_power_mean(ensemble([np.diag([4.0, 1.0]), np.eye(2)], [0.5, 0.5]), 0.5)
assert report.converged
"""
    assert _scipy_modules_after(code) == []


def test_generator_evaluation_loads_no_scipy():
    code = """
import numpy as np
from qhmeans import BetaTypeMeasure, MeasureGenerator, center_of_mass, f_mu, f_mu_prime

mu = BetaTypeMeasure(0.3)
x = np.array([0.5, 1.0, 4.0])
assert np.allclose(f_mu(mu, x), x ** 0.3)
assert np.allclose(f_mu_prime(mu, x), 0.3 * x ** -0.7)
assert center_of_mass(mu) == 0.3
assert np.allclose(MeasureGenerator(mu).f(x), x ** 0.3)
"""
    assert _scipy_modules_after(code) == []


@needs_scipy
def test_beta_type_quadrature_loads_scipy_on_use():
    code = """
from qhmeans import BetaTypeMeasure, quadrature
assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
rule = quadrature(BetaTypeMeasure(0.3), 64)
assert len(rule.atoms) == 64 and abs(rule.masses.sum() - 1.0) < 1e-12
"""
    assert "scipy.special" in _scipy_modules_after(code)

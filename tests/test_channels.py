import numpy as np
import pytest

from qhmeans import (
    DegenerateTrialError,
    DimensionMismatchError,
    DivergenceSpec,
    DomainError,
    QuantumChannel,
    apply_channel,
    arcsine_generator,
    check_dpi,
    check_joint_convexity,
    choi_matrix,
    herm,
    pd,
    phi,
    pinching_channel,
    random_cptp,
)
from qhmeans.channels import _regularization_shift, kraus_defect

from conftest import REF_A1, REF_A2, random_pd_np

ARCSINE_SPEC = DivergenceSpec(arcsine_generator())
A2 = 0.5 * np.array([[5.0, 3.0], [3.0, 5.0]])


class TestConstruction:
    def test_rejects_non_trace_preserving(self):
        with pytest.raises(DomainError):
            QuantumChannel((0.9 * np.eye(2),))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            QuantumChannel(())

    def test_rejects_mixed_shapes(self):
        with pytest.raises(DomainError):
            QuantumChannel((np.eye(2), np.eye(3)))

    def test_defect_of_valid_channel(self):
        T = pinching_channel(3)
        assert kraus_defect(T.kraus) <= 1e-14


class TestApplyChannel:
    def test_identity_channel(self, rng):
        A = herm(random_pd_np(rng, 2))
        T = QuantumChannel((np.eye(2),))
        assert np.allclose(apply_channel(T, A).mat, A.mat)

    def test_trace_preservation(self, rng):
        for i in range(10):
            T = random_cptp(3, 3, 3, seed=[7, i])
            A = herm(random_pd_np(rng, 3))
            out = apply_channel(T, A)
            assert np.trace(out.mat).real == pytest.approx(
                np.trace(A.mat).real, abs=1e-10
            )

    def test_pinching_extracts_diagonal(self):
        out = apply_channel(pinching_channel(2), herm(A2))
        assert np.allclose(out.mat, np.diag([2.5, 2.5]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_channel(pinching_channel(2), herm(np.eye(3)))


class TestPinching:
    def test_fixes_diagonal_matrices(self, rng):
        D = np.diag(rng.uniform(1, 2, size=4))
        out = apply_channel(pinching_channel(4), herm(D))
        assert np.allclose(out.mat, D)

    def test_idempotent(self, rng):
        T = pinching_channel(3)
        A = herm(random_pd_np(rng, 3))
        once = apply_channel(T, A)
        twice = apply_channel(T, once)
        assert np.allclose(once.mat, twice.mat)

    def test_unital(self):
        out = apply_channel(pinching_channel(3), herm(np.eye(3)))
        assert np.array_equal(out.mat, np.eye(3, dtype=complex))


class TestRandomCptp:
    def test_trace_preserving_invariant(self):
        for seed in range(5):
            T = random_cptp(3, 3, 2, seed)
            assert kraus_defect(T.kraus) <= 1e-10

    def test_unitary_case_preserves_spectrum(self, rng):
        T = random_cptp(3, 3, 1, seed=11)
        A = random_pd_np(rng, 3)
        out = apply_channel(T, herm(A))
        assert np.allclose(
            np.linalg.eigvalsh(out.mat), np.linalg.eigvalsh(A), atol=1e-10
        )

    def test_deterministic_for_fixed_seed(self):
        T1 = random_cptp(2, 2, 2, seed=42)
        T2 = random_cptp(2, 2, 2, seed=42)
        for K1, K2 in zip(T1.kraus, T2.kraus):
            assert np.array_equal(K1, K2)

    def test_deterministic_across_processes(self):
        import subprocess
        import sys

        code = (
            "import numpy as np\n"
            "from qhmeans import random_cptp\n"
            "T = random_cptp(2, 2, 2, seed=42)\n"
            "print(repr(np.stack(T.kraus).tobytes().hex()))\n"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_no_isometry_error(self):
        with pytest.raises(DomainError):
            random_cptp(4, 1, 2, seed=0)

    def test_choi_positive_semidefinite(self):
        for seed in range(5):
            T = random_cptp(2, 3, 2, seed)
            w = np.linalg.eigvalsh(choi_matrix(T).mat)
            assert w[0] >= -1e-9
        w = np.linalg.eigvalsh(choi_matrix(pinching_channel(3)).mat)
        assert w[0] >= -1e-9


class TestDpi:
    def test_identity_channel_zero_slack(self, rng):
        A, B = pd(random_pd_np(rng, 2)), pd(random_pd_np(rng, 2))
        T = QuantumChannel((np.eye(2),))
        assert check_dpi(ARCSINE_SPEC, T, A, B) == pytest.approx(0.0, abs=1e-9)

    def test_pinching_on_reference_pair(self):
        slack = check_dpi(ARCSINE_SPEC, pinching_channel(2), pd(REF_A1), pd(REF_A2))
        assert slack >= 0.0

    def test_random_campaign(self, rng):
        worst = np.inf
        for i in range(50):
            T = random_cptp(3, 3, 3, seed=[5, i])
            A, B = pd(random_pd_np(rng, 3)), pd(random_pd_np(rng, 3))
            worst = min(worst, check_dpi(ARCSINE_SPEC, T, A, B))
        assert worst >= -1e-9

    def test_channel_between_dimensions(self, rng):
        # Inputs and outputs of different sizes go through separate stacks.
        def regularized(H):
            w = np.linalg.eigvalsh(H)
            return pd(H + _regularization_shift(w, np.trace(H).real) * np.eye(len(w)))

        for i in range(10):
            T = random_cptp(3, 2, 3, seed=[9, i])
            A, B = pd(random_pd_np(rng, 3)), pd(random_pd_np(rng, 3))
            TA, TB = (regularized(apply_channel(T, M).mat) for M in (A, B))
            slack = check_dpi(ARCSINE_SPEC, T, A, B)
            assert slack == phi(A, B, ARCSINE_SPEC) - phi(TA, TB, ARCSINE_SPEC)
            assert slack >= -1e-9

    def test_degenerate_output_discarded(self):
        # channel collapsing everything onto one ray: output is rank one, and
        # a huge input trace pushes the needed regularization beyond 1e-6
        d = 3
        ks = tuple(np.outer(np.eye(d)[0], np.eye(d)[i]) for i in range(d))
        T = QuantumChannel(ks)
        big = pd(1e7 * np.eye(d))
        with pytest.raises(DegenerateTrialError):
            check_dpi(ARCSINE_SPEC, T, big, big)

    def test_masa_closure_via_pinching(self, rng):
        # pinching can only decrease the ensemble objective of a diagonal
        # ensemble, which is why the barycenter stays diagonal
        mats = [np.diag(np.exp(rng.uniform(-1, 1, size=3))) for _ in range(3)]
        w = np.array([0.4, 0.35, 0.25])
        T = pinching_channel(3)
        for _ in range(10):
            X = pd(random_pd_np(rng, 3))
            pinched = pd(apply_channel(T, X).mat + 1e-14 * np.eye(3))
            before = sum(
                wj * phi(pd(A), X, ARCSINE_SPEC) for wj, A in zip(w, mats)
            )
            after = sum(
                wj * phi(pd(A), pinched, ARCSINE_SPEC) for wj, A in zip(w, mats)
            )
            assert after <= before + 1e-9


class TestJointConvexity:
    def test_identical_pairs_zero_slack(self, rng):
        A, B = pd(random_pd_np(rng, 3)), pd(random_pd_np(rng, 3))
        slack = check_joint_convexity(ARCSINE_SPEC, (A, B), (A, B), 0.5)
        assert slack == pytest.approx(0.0, abs=1e-10)

    def test_endpoint_limit(self, rng):
        A1, B1 = pd(random_pd_np(rng, 2)), pd(random_pd_np(rng, 2))
        A2, B2 = pd(random_pd_np(rng, 2)), pd(random_pd_np(rng, 2))
        slack = check_joint_convexity(ARCSINE_SPEC, (A1, B1), (A2, B2), 1e-9)
        assert abs(slack) <= 1e-6

    def test_s_range_validated(self, rng):
        A = pd(random_pd_np(rng, 2))
        with pytest.raises(DomainError):
            check_joint_convexity(ARCSINE_SPEC, (A, A), (A, A), 1.0)

    def test_random_campaign(self, rng):
        worst = np.inf
        for _ in range(50):
            pair_one = (pd(random_pd_np(rng, 3)), pd(random_pd_np(rng, 3)))
            pair_two = (pd(random_pd_np(rng, 3)), pd(random_pd_np(rng, 3)))
            for s in (0.25, 0.5, 0.75):
                worst = min(
                    worst, check_joint_convexity(ARCSINE_SPEC, pair_one, pair_two, s)
                )
        assert worst >= -1e-9

import mpmath as mp
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
from qhmeans.channels import (
    _complex_gaussian,
    _kraus_stack,
    kraus_defect,
)

from conftest import REF_A1, REF_A2, mp_phi, random_pd_np

ARCSINE_SPEC = DivergenceSpec(arcsine_generator())
A2 = 0.5 * np.array([[5.0, 3.0], [3.0, 5.0]])


class TestConstruction:
    def test_rejects_non_trace_preserving(self):
        with pytest.raises(DomainError):
            QuantumChannel((0.9 * np.eye(2),))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            QuantumChannel(())

    @pytest.mark.parametrize("shape", [(1, 0, 0), (1, 2, 0), (1, 0, 2), (0, 2, 2), (0,)])
    def test_rejects_a_size_below_one(self, shape):
        # a dimension-zero family would pass the trace-preserving test, its
        # defect the norm of an empty array
        with pytest.raises(DomainError, match=r"\(r, d_out, d_in\) stack with every size >= 1"):
            QuantumChannel(np.zeros(shape))
        with pytest.raises(DomainError, match=r"\(r, d_out, d_in\) stack with every size >= 1"):
            kraus_defect(np.zeros(shape))

    def test_rejects_mixed_shapes(self):
        with pytest.raises(DomainError):
            QuantumChannel((np.eye(2), np.eye(3)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite_kraus_entry(self, entry):
        # a NaN defect fails no "defect > TP_ATOL" test
        with pytest.raises(DomainError, match="non-finite"):
            QuantumChannel((np.array([[entry, 0.0], [0.0, 1.0]]),))

    def test_defect_of_valid_channel(self):
        T = pinching_channel(3)
        assert kraus_defect(T.kraus) <= 1e-14

    def test_kraus_is_one_read_only_complex_stack(self):
        T = random_cptp(2, 3, 4, seed=9)
        assert isinstance(T.kraus, np.ndarray)
        assert T.kraus.dtype == np.complex128
        assert T.kraus.shape == (4, 3, 2)  # (r, d_out, d_in)
        assert (T.dim_in, T.dim_out) == (2, 3)
        with pytest.raises(ValueError):
            T.kraus[0, 0, 0] = 0.0

    def test_copies_its_input(self):
        K = np.eye(2, dtype=np.complex128)
        T = QuantumChannel((K,))
        K[0, 0] = 5.0  # the caller's array stays writable
        assert np.array_equal(T.kraus[0], np.eye(2))

    def test_round_trip_through_its_kraus_array(self):
        T = random_cptp(3, 2, 3, seed=4)
        back = QuantumChannel(T.kraus)
        assert np.array_equal(back.kraus, T.kraus)
        assert len(back.kraus) == 3


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

    @pytest.mark.parametrize("d", [0, 2.5, 3.0, True])
    def test_rejects_non_positive_integer_dimension(self, d):
        with pytest.raises(DomainError, match="dimension must be an integer >= 1"):
            pinching_channel(d)

    def test_accepts_numpy_integer_dimension(self):
        assert len(pinching_channel(np.int64(3)).kraus) == 3

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_kraus_operators_are_diagonal_projectors(self, d):
        kraus = pinching_channel(d).kraus
        assert kraus.shape == (d, d, d)
        for i in range(d):
            e = np.eye(d)[:, i]
            assert np.array_equal(kraus[i], np.outer(e, e))


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

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2), (2, 3, 3), (4, 4, 4), (2, 3, 2)])
    def test_kraus_array_is_the_campaigns_stack_of_the_same_draw(self, shape):
        r, d_out, d_in = shape
        for seed in range(5):
            g = _complex_gaussian(np.random.default_rng(seed), (d_out * r, d_in))
            stack = _kraus_stack(g[None], d_out, r)[0]
            kraus = random_cptp(d_in, d_out, r, seed).kraus
            assert kraus.shape == stack.shape
            assert kraus.tobytes() == np.ascontiguousarray(stack).tobytes()

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

    @pytest.mark.parametrize("dims", [(2.5, 2, 2), (2, 0, 2), (2, 2, True), (2, 2, 2.0)])
    def test_rejects_non_positive_integer_dimensions(self, dims):
        with pytest.raises(DomainError, match="dimension must be an integer >= 1"):
            random_cptp(*dims, seed=0)

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

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 2), (3, 2, 3)])
    def test_choi_is_the_sum_of_units_times_their_images(self, shape):
        r, d_out, d_in = shape
        for seed in range(5):
            T = random_cptp(d_in, d_out, r, seed)
            expected = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
            for i in range(d_in):
                for j in range(d_in):
                    E = np.zeros((d_in, d_in))
                    E[i, j] = 1.0
                    image = sum(K @ E @ K.conj().T for K in T.kraus)
                    expected += np.kron(E, image)
            assert np.max(np.abs(choi_matrix(T).mat - expected)) <= 1e-14


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
        for i in range(10):
            T = random_cptp(3, 2, 3, seed=[9, i])
            A, B = pd(random_pd_np(rng, 3)), pd(random_pd_np(rng, 3))
            TA, TB = (pd(apply_channel(T, M).mat) for M in (A, B))
            slack = check_dpi(ARCSINE_SPEC, T, A, B)
            assert slack == phi(A, B, ARCSINE_SPEC) - phi(TA, TB, ARCSINE_SPEC)
            assert slack >= -1e-9

    def test_degenerate_output_discarded(self):
        # channel collapsing everything onto one ray: its output is rank one,
        # so degenerate at any scale, the unit one included
        d = 3
        ks = tuple(np.outer(np.eye(d)[0], np.eye(d)[i]) for i in range(d))
        T = QuantumChannel(ks)
        big = pd(1e7 * np.eye(d))
        with pytest.raises(DegenerateTrialError):
            check_dpi(ARCSINE_SPEC, T, big, big)
        with pytest.raises(DegenerateTrialError, match="condition bound 1e\\+08"):
            check_dpi(ARCSINE_SPEC, T, np.eye(d), 2 * np.eye(d))

    def test_isometry_outputs_discarded(self):
        # V A V* for an isometry V: C^2 -> C^4 has rank 2.  phi is invariant
        # under isometries, so the true slack is 0, but phi's rounding on such
        # an output reaches the slack floor; the trial is discarded, not failed.
        rng = np.random.default_rng(0)
        for i in range(20):
            A, B = random_pd_np(rng, 2), random_pd_np(rng, 2)
            with pytest.raises(DegenerateTrialError):
                check_dpi(ARCSINE_SPEC, random_cptp(2, 4, 1, [i]), A, B)

    @staticmethod
    def _depolarized_isometry(delta, seed):
        # (1 - delta) V A V* + delta Tr(A) I/4: the isometry's Kraus operator,
        # then the replacement channel's e_i e_j^T / 2
        V = random_cptp(2, 4, 1, seed).kraus
        E = (np.eye(4)[:, None, :, None] * np.eye(2)[None, :, None, :] / 2).reshape(8, 4, 2)
        return QuantumChannel(np.concatenate((np.sqrt(1 - delta) * V, np.sqrt(delta) * E)))

    def test_ill_conditioned_outputs_against_mpmath(self):
        # At delta = 1e-7 the outputs have condition numbers near 2.6e7, inside
        # the bound, and phi on them as they are stays within 1e-11 of 40 digits
        rng = np.random.default_rng(0)
        for i in range(3):
            T = self._depolarized_isometry(1e-7, [i])
            A, B = random_pd_np(rng, 2, 1.2), random_pd_np(rng, 2, 1.2)
            TA, TB = (apply_channel(T, M).mat for M in (A, B))
            w = np.linalg.eigvalsh(TA)
            assert 1e7 < w[-1] / w[0] < 1e8
            exact = mp_phi(A, B, mp.sqrt, ARCSINE_SPEC.c) - mp_phi(TA, TB, mp.sqrt, ARCSINE_SPEC.c)
            assert abs(check_dpi(ARCSINE_SPEC, T, A, B) - float(exact)) <= 1e-11

    def test_outputs_beyond_the_bound_discarded(self):
        # delta = 1e-12: condition numbers near 2.6e12, where phi's rounding
        # reaches the campaigns' slack floor
        rng = np.random.default_rng(0)
        for i in range(3):
            A, B = random_pd_np(rng, 2, 1.2), random_pd_np(rng, 2, 1.2)
            with pytest.raises(DegenerateTrialError, match="too ill-conditioned"):
                check_dpi(ARCSINE_SPEC, self._depolarized_isometry(1e-12, [i]), A, B)

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


@pytest.mark.parametrize("seed", [0, 7, 12345])
@pytest.mark.parametrize("shape", [(3, 3), (9, 3), (2, 4, 4), (1,)])
def test_complex_gaussian_keeps_the_two_draw_stream(seed, shape):
    # The seeding contract: the real parts are drawn before the imaginary
    # parts, and the rng ends where two separate draws would leave it.
    one, two = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = two.standard_normal(shape) + 1j * two.standard_normal(shape)
    assert np.array_equal(_complex_gaussian(one, shape), expected)
    assert one.standard_normal() == two.standard_normal()

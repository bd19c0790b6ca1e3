from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from qhmeans import (
    CommutativityError,
    ConditioningWarning,
    DimensionMismatchError,
    DiscreteMeasure,
    DivergenceSpec,
    DomainError,
    GeometricGenerator,
    HarmonicGenerator,
    LogGenerator,
    MeasureGenerator,
    UnsupportedGeneratorError,
    arcsine_generator,
    center_of_mass,
    check_dpi,
    check_joint_convexity,
    commutative_phi,
    dirac,
    g_of,
    kubo_ando_mean,
    maximal_f_divergence,
    operator_bregman,
    pd,
    phi,
    phi_via_bregman,
    phi_via_g,
    random_cptp,
    sqrt_pd,
)
from qhmeans.divergences import _phi_batch

from conftest import (
    REF_A1,
    REF_A2,
    REF_PHI_A1_A2,
    convex_order_leq,
    hellinger_phi2,
    loewner_leq,
    mp_phi,
    random_hermitian_np,
    random_pd_np,
)

ARCSINE_SPEC = DivergenceSpec(arcsine_generator())

ALL_MEAN_GENERATORS = [
    GeometricGenerator(0.5),
    GeometricGenerator(0.25),
    HarmonicGenerator(0.3),
    arcsine_generator(),
    GeometricGenerator(0.7),
]


class TestKuboAndoMean:
    def test_idempotent_on_equal_arguments(self, rng):
        A = pd(random_pd_np(rng, 3))
        for gen in ALL_MEAN_GENERATORS:
            out = kubo_ando_mean(A, A, gen)
            assert np.linalg.norm(out.mat - A.mat) <= 1e-10

    def test_commuting_geometric_is_entrywise(self):
        out = kubo_ando_mean(pd(np.diag([4.0, 1.0])), pd(np.diag([1.0, 4.0])),
                             GeometricGenerator(0.5))
        assert np.allclose(out.mat, np.diag([2.0, 2.0]))

    def test_identity_first_argument_collapses(self, rng):
        X = pd(random_pd_np(rng, 3))
        out = kubo_ando_mean(pd(np.eye(3)), X, GeometricGenerator(0.5))
        assert np.linalg.norm(out.mat - sqrt_pd(X).mat) <= 1e-12

    def test_rejects_log_generator(self, rng):
        A = pd(random_pd_np(rng, 2))
        with pytest.raises(UnsupportedGeneratorError):
            kubo_ando_mean(A, A, LogGenerator())

    def test_rejects_a_spec_in_place_of_its_generator(self, ref_pair):
        A, B = ref_pair
        with pytest.raises(UnsupportedGeneratorError):
            kubo_ando_mean(A, B, ARCSINE_SPEC)

    @pytest.mark.parametrize("location, slot", [(0.0, 0), (1.0, 1)], ids=["A", "B"])
    def test_endpoint_atoms_give_the_trivial_means(self, ref_pair, location, slot):
        # mu = dirac(0) has f = 1 and weight 0, dirac(1) has f(x) = x and
        # weight 1: means, though no divergence is built from them.
        expected = ref_pair[slot].mat
        out = kubo_ando_mean(*ref_pair, MeasureGenerator(dirac(location))).mat
        assert np.linalg.norm(out - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kubo_ando_mean(pd(np.eye(2)), pd(np.eye(3)), GeometricGenerator(0.5))

    def test_conditioning_warning(self):
        A = pd(np.diag([5e14, 1.0]))
        with pytest.warns(ConditioningWarning):
            kubo_ando_mean(A, pd(np.eye(2)), GeometricGenerator(0.5))
        with pytest.warns(ConditioningWarning):
            phi(A, pd(np.eye(2)), DivergenceSpec(GeometricGenerator(0.5)))

    def test_riccati_property_of_geometric_mean(self, ref_pair):
        A, B = ref_pair
        G = kubo_ando_mean(A, B, GeometricGenerator(0.5)).mat
        assert np.linalg.norm(G @ np.linalg.inv(A.mat) @ G - B.mat) <= 1e-8


class TestPhi:
    def test_zero_on_diagonal(self, rng):
        A = pd(random_pd_np(rng, 3))
        for gen in ALL_MEAN_GENERATORS:
            assert abs(phi(A, A, DivergenceSpec(gen))) <= 1e-12

    def test_scalar_closed_form(self):
        # 1x1 case: (1/2)*4 + (1/2)*1 - sqrt(4) = 0.5
        val = phi(pd([[4.0]]), pd([[1.0]]), ARCSINE_SPEC)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_reference_pair_vs_cayley_hamilton_oracle(self, ref_pair):
        A, B = ref_pair
        assert phi(A, B, ARCSINE_SPEC) == pytest.approx(
            hellinger_phi2(REF_A1, REF_A2), abs=1e-12
        )
        assert phi(A, B, ARCSINE_SPEC) == pytest.approx(REF_PHI_A1_A2, abs=1e-12)

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(50):
            A, B = pd(random_pd_np(rng, 3)), pd(random_pd_np(rng, 3))
            assert phi(A, B, ARCSINE_SPEC) >= -1e-10

    def test_small_value_implies_nearby(self, rng):
        for _ in range(25):
            A, B = pd(random_pd_np(rng, 3)), pd(random_pd_np(rng, 3))
            if phi(A, B, ARCSINE_SPEC) < 1e-8:
                assert np.linalg.norm(A.mat - B.mat) < 1e-4


class TestG:
    def test_zero_at_one(self):
        for gen in ALL_MEAN_GENERATORS:
            assert g_of(DivergenceSpec(gen), 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_arcsine_value(self):
        assert g_of(ARCSINE_SPEC, 4.0) == pytest.approx(0.5, abs=1e-12)

    def test_geometric_quarter_value(self):
        spec = DivergenceSpec(GeometricGenerator(0.25))
        expected = 0.75 + 0.25 * 4.0 - 4.0**0.25
        assert g_of(spec, 4.0) == pytest.approx(expected, abs=1e-14)
        # scalar cross-check: on 1x1 matrices phi(a, b) = a g(b/a)
        assert phi(pd([[1.0]]), pd([[4.0]]), spec) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_on_grid(self):
        xs = np.logspace(-3, 3, 101)
        for gen in ALL_MEAN_GENERATORS:
            assert np.all(g_of(DivergenceSpec(gen), xs) >= -1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            g_of(ARCSINE_SPEC, 0.0)
        with pytest.raises(DomainError):
            g_of(ARCSINE_SPEC, np.nan)
        with pytest.raises(DomainError):
            g_of(ARCSINE_SPEC, [np.nan, 1.0])
        assert g_of(ARCSINE_SPEC, np.empty(0)).shape == (0,)


class TestPhiViaG:
    def test_zero_on_diagonal(self, rng):
        A = pd(random_pd_np(rng, 3))
        assert abs(phi_via_g(A, A, ARCSINE_SPEC)) <= 1e-12

    def test_commuting_diagonal_entrywise_oracle(self):
        # phi = sum_i a_i g(b_i / a_i) = 4 g(1/4) + 1 g(4) with g of arcsine
        A, B = pd(np.diag([4.0, 1.0])), pd(np.diag([1.0, 4.0]))
        g = lambda x: 0.5 + 0.5 * x - np.sqrt(x)
        oracle = 4 * g(1 / 4) + 1 * g(4.0)
        assert phi_via_g(A, B, ARCSINE_SPEC) == pytest.approx(oracle, abs=1e-12)
        assert phi(A, B, ARCSINE_SPEC) == pytest.approx(oracle, abs=1e-12)

    def test_reference_pair_agrees_with_phi(self, ref_pair):
        A, B = ref_pair
        assert phi_via_g(A, B, ARCSINE_SPEC) == pytest.approx(
            phi(A, B, ARCSINE_SPEC), abs=1e-10
        )


class TestMaximalFDivergence:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_xlogx_pathology(self, d):
        # S_f(I, e^{-1} I) = -d e^{-1} < 0: not a genuine divergence
        val = maximal_f_divergence(
            pd(np.eye(d)), pd(np.exp(-1) * np.eye(d)), lambda w: w * np.log(w)
        )
        assert val == pytest.approx(-d * np.exp(-1), abs=1e-10)

    def test_square_pathology(self, rng):
        # S_f(A, A) = Tr A > 0 on the diagonal
        A = pd(random_pd_np(rng, 3))
        val = maximal_f_divergence(A, A, lambda w: w**2)
        assert val == pytest.approx(np.trace(A.mat).real, abs=1e-10)

    def test_g_form_recovers_phi(self, ref_pair):
        A, B = ref_pair
        val = maximal_f_divergence(A, B, lambda w: g_of(ARCSINE_SPEC, w))
        assert val == pytest.approx(phi(A, B, ARCSINE_SPEC), abs=1e-10)

    def test_domain_error(self, rng):
        A = pd(random_pd_np(rng, 2))
        with pytest.raises(DomainError):
            maximal_f_divergence(A, A, lambda w: 1.0 / (w - w))


class TestOperatorBregman:
    H = staticmethod(lambda w: -np.sqrt(w))
    H_PRIME = staticmethod(lambda w: -0.5 / np.sqrt(w))

    def test_zero_at_equal_arguments(self, rng):
        X = pd(random_pd_np(rng, 3))
        out = operator_bregman(self.H, self.H_PRIME, X, X)
        assert np.linalg.norm(out.mat) <= 1e-12

    def test_identity_base_point(self, rng):
        # Dh(I)[Z] = h'(1) Z, so the whole expression has a closed form
        X = pd(random_pd_np(rng, 3))
        out = operator_bregman(self.H, self.H_PRIME, X, pd(np.eye(3)))
        hX = -sqrt_pd(X).mat
        expected = hX - (-1.0) * np.eye(3) - (-0.5) * (X.mat - np.eye(3))
        assert np.linalg.norm(out.mat - expected) <= 1e-12

    def test_scalar_case(self):
        # d=1, h = -sqrt: -2 + 1 + 0.5*3 = 0.5
        out = operator_bregman(self.H, self.H_PRIME, pd([[4.0]]), pd([[1.0]]))
        assert out.mat[0, 0].real == pytest.approx(0.5, abs=1e-14)

    def test_positive_semidefinite(self, rng):
        for _ in range(20):
            X, Y = pd(random_pd_np(rng, 3)), pd(random_pd_np(rng, 3))
            out = operator_bregman(self.H, self.H_PRIME, X, Y)
            assert np.linalg.eigvalsh(out.mat)[0] >= -1e-9


class TestPhiViaBregman:
    def test_zero_on_diagonal(self, rng):
        A = pd(random_pd_np(rng, 3))
        assert abs(phi_via_bregman(A, A, ARCSINE_SPEC)) <= 1e-12

    def test_reference_pair(self, ref_pair):
        A, B = ref_pair
        assert phi_via_bregman(A, B, ARCSINE_SPEC) == pytest.approx(
            phi(A, B, ARCSINE_SPEC), abs=1e-9
        )

    def test_diagonal_commuting_pair(self):
        A, B = pd(np.diag([4.0, 1.0])), pd(np.diag([1.0, 4.0]))
        assert phi_via_bregman(A, B, ARCSINE_SPEC) == pytest.approx(
            phi(A, B, ARCSINE_SPEC), abs=1e-10
        )

    def test_three_path_agreement_random(self, rng):
        for gen in (GeometricGenerator(0.3), HarmonicGenerator(0.6), arcsine_generator()):
            spec = DivergenceSpec(gen)
            for _ in range(10):
                A, B = pd(random_pd_np(rng, 4)), pd(random_pd_np(rng, 4))
                direct = phi(A, B, spec)
                via_g = phi_via_g(A, B, spec)
                via_breg = phi_via_bregman(A, B, spec)
                assert direct == pytest.approx(via_g, abs=1e-9)
                assert direct == pytest.approx(via_breg, abs=1e-9)
                assert via_g == pytest.approx(via_breg, abs=1e-9)


class TestBatchedPhi:
    """One batched call evaluates many pairs; each entry is the one-pair phi."""

    def _mixed_pairs(self, rng, dim=3):
        A = random_pd_np(rng, dim)
        pairs = [(pd(A), pd(A))]
        for spread in range(1, 7):
            pairs.append((pd(random_pd_np(rng, dim, spread)), pd(random_pd_np(rng, dim, spread))))
        return pairs

    def test_entries_match_one_pair_calls_and_cross_checks(self, rng):
        pairs = self._mixed_pairs(rng)
        a, b = (np.array([pair[j].mat for pair in pairs]) for j in (0, 1))
        for gen in ALL_MEAN_GENERATORS:
            spec = DivergenceSpec(gen)
            batch = _phi_batch(a, b, spec)
            assert batch.shape == (len(pairs),)
            for value, (A, B) in zip(batch, pairs):
                scale = np.trace(A.mat + B.mat).real
                assert abs(value - phi(A, B, spec)) <= 1e-14 * scale
                assert value == pytest.approx(phi_via_g(A, B, spec), abs=1e-9)
                assert value == pytest.approx(phi_via_bregman(A, B, spec), abs=1e-9)

    def test_pairs_of_several_dimensions(self, rng):
        for d in (3, 2, 3, 4):
            pairs = [(pd(random_pd_np(rng, d)), pd(random_pd_np(rng, d))) for _ in range(3)]
            a, b = (np.array([pair[j].mat for pair in pairs]) for j in (0, 1))
            batch = _phi_batch(a, b, ARCSINE_SPEC)
            assert batch.tolist() == [phi(A, B, ARCSINE_SPEC) for A, B in pairs]

    def test_warns_for_an_ill_conditioned_second_member(self):
        eye = np.eye(2)
        with pytest.warns(ConditioningWarning, match="member 1"):
            _phi_batch(np.array([eye, np.diag([5e14, 1.0])]), np.array([eye, eye]), ARCSINE_SPEC)

    def test_mean_outside_the_cone_raises(self):
        # f(x) = 2 - x^2 has f(1) = 1 and is strictly concave, but it is not
        # operator monotone: at A = I, B = diag(4, 1) the "mean" is diag(-14, 1).
        gen = SimpleNamespace(
            f=lambda x: 2.0 - np.asarray(x, dtype=np.float64) ** 2,
            f_prime=lambda x: -2.0 * np.asarray(x, dtype=np.float64),
        )
        # DivergenceSpec takes measure generators only, so a bare spec.
        spec = SimpleNamespace(generator=gen, c=0.5)
        eye, B = pd(np.eye(2)), pd(np.diag([4.0, 1.0]))
        with pytest.raises(DomainError, match="not positive definite"):
            phi(eye, B, spec)
        with pytest.raises(DomainError, match="mean 1 of a stack of 2"):
            _phi_batch(np.array([eye.mat, eye.mat]), np.array([eye.mat, B.mat]), spec)


class TestPhiAgainstMpmath:
    """The direct path against a 40-digit reference on pinned pairs."""

    @pytest.mark.parametrize(
        "gen, f",
        [
            (arcsine_generator(), mp.sqrt),
            (HarmonicGenerator(0.3), lambda x: x / ((1 - mp.mpf(0.3)) * x + 0.3)),
        ],
        ids=["arcsine", "harmonic-0.3"],
    )
    def test_pinned_pairs(self, gen, f):
        # A third of the pairs are near-equal, B = A + 1e-3 R, where phi is
        # about 1e-7 of the traces, so the bound is absolute, on the traces'
        # scale.  Measured worst on 20 seeds of this draw: 6.2 eps (Tr A + Tr B).
        spec = DivergenceSpec(gen)
        rng = np.random.default_rng(11)
        for k in range(18):
            A = random_pd_np(rng, 3, 1.2)
            if k % 3 == 0:
                B = A + 1e-3 * random_hermitian_np(rng, 3)
            else:
                B = random_pd_np(rng, 3, 1.2 if k % 3 == 1 else 3.0)
            scale = np.trace(A).real + np.trace(B).real
            error = abs(phi(A, B, spec) - mp_phi(A, B, f, spec.c))
            assert error <= 16 * np.finfo(float).eps * scale

    def test_measure_with_a_tiny_inner_atom(self):
        # mass 1e-8 at 1/2 makes f strictly concave, but only just: phi is
        # about 1e-8 on the reference pair, and the spec is built from the
        # measure alone, with no numerical concavity test to mistake it for
        # an affine f.
        eps = 1e-8
        mu = DiscreteMeasure(((0.0, 0.5), (1.0, 0.5 - eps), (0.5, eps)))
        spec = DivergenceSpec(MeasureGenerator(mu))
        assert spec.c == center_of_mass(mu)
        l, m = mu.locations.tolist(), mu.masses.tolist()
        f = lambda x: sum(mk * x / ((1 - lk) * x + lk) for lk, mk in zip(l, m))
        value = phi(REF_A1, REF_A2, spec)
        assert 1e-9 < value < 1e-7
        assert abs(value - mp_phi(REF_A1, REF_A2, f, mp.mpf(spec.c))) <= 1e-14


class TestCommutativePhi:
    def test_log_zero_on_diagonal(self, rng):
        A = pd(random_pd_np(rng, 3))
        assert abs(commutative_phi(A, A, LogGenerator())) <= 1e-12

    def test_power_form_on_diagonals(self, rng):
        # Tr((1-t) A + t B - A^{1-t} B^t) entrywise on commuting inputs
        for t in (0.25, 0.5, 0.75):
            a = np.exp(rng.uniform(-1, 1, size=4))
            b = np.exp(rng.uniform(-1, 1, size=4))
            oracle = np.sum((1 - t) * a + t * b - a ** (1 - t) * b**t)
            val = commutative_phi(pd(np.diag(a)), pd(np.diag(b)), GeometricGenerator(t))
            assert val == pytest.approx(oracle, abs=1e-12)

    def test_log_is_relative_entropy(self):
        # diag(2,1) vs diag(1,1): 2 log 2 + 1 - 2 = 2 log 2 - 1
        val = commutative_phi(pd(np.diag([2.0, 1.0])), pd(np.eye(2)), LogGenerator())
        assert val == pytest.approx(2 * np.log(2) - 1, abs=1e-12)

    def test_log_relative_entropy_general_diagonal(self, rng):
        a = np.exp(rng.uniform(-1, 1, size=3))
        b = np.exp(rng.uniform(-1, 1, size=3))
        oracle = np.sum(a * (np.log(a) - np.log(b)) + b - a)
        val = commutative_phi(pd(np.diag(a)), pd(np.diag(b)), LogGenerator())
        assert val == pytest.approx(oracle, abs=1e-12)

    def test_rejects_noncommuting(self, ref_pair):
        A, B = ref_pair
        with pytest.raises(CommutativityError):
            commutative_phi(A, B, LogGenerator())

    def test_power_tends_to_log(self, rng):
        # (1/t) phi_{x^t} -> phi_log as t -> 0, on commuting pairs
        t = 1e-5
        a = np.exp(rng.uniform(-1, 1, size=3))
        b = np.exp(rng.uniform(-1, 1, size=3))
        A, B = pd(np.diag(a)), pd(np.diag(b))
        scaled = commutative_phi(A, B, GeometricGenerator(t)) / t
        log_val = commutative_phi(A, B, LogGenerator())
        assert scaled == pytest.approx(log_val, rel=1e-4)


HELLINGER = GeometricGenerator(0.5)
HELLINGER_PATHS = {
    "phi": lambda A, B: phi(A, B, DivergenceSpec(HELLINGER)),
    "phi_via_g": lambda A, B: phi_via_g(A, B, DivergenceSpec(HELLINGER)),
    "phi_via_bregman": lambda A, B: phi_via_bregman(A, B, DivergenceSpec(HELLINGER)),
    "commutative_phi": lambda A, B: commutative_phi(A, B, HELLINGER),
}


@pytest.mark.parametrize("path", HELLINGER_PATHS.values(), ids=HELLINGER_PATHS.keys())
class TestClassicalHellinger:
    """On commuting density matrices with spectra p and q, the quantum
    Hellinger divergence Tr((A + B)/2 - A # B) of every phi path is the
    squared Hellinger distance (1/2) sum (sqrt(p_i) - sqrt(q_i))^2."""

    def test_zero_on_equal(self, path):
        A = pd(np.diag([0.2, 0.3, 0.5]))
        assert abs(path(A, A)) <= 1e-15

    def test_half_split(self, path):
        val = path(pd(np.diag([0.5, 0.5])), pd(np.diag([0.9, 0.1])))
        assert val == pytest.approx(1 - np.sqrt(0.45) - np.sqrt(0.05), abs=1e-14)

    def test_range_on_rotated_pairs(self, path, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            U = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            A, B = (pd(U @ np.diag(v) @ U.conj().T) for v in (p, q))
            val = path(A, B)
            assert val == pytest.approx(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2), abs=1e-13)
            assert -1e-15 <= val <= 1.0 + 1e-12


class TestDerivativeStructure:
    """First derivative vanishes and second is nonnegative at the diagonal."""

    def test_first_derivative_vanishes(self, rng):
        t = 1e-5
        for _ in range(10):
            A = pd(random_pd_np(rng, 3))
            Y = random_hermitian_np(rng, 3)
            fwd = phi(A, pd(A.mat + t * Y), ARCSINE_SPEC)
            bwd = phi(A, pd(A.mat - t * Y), ARCSINE_SPEC)
            assert abs((fwd - bwd) / (2 * t)) <= 1e-6

    def test_second_derivative_nonnegative(self, rng):
        t = 1e-5
        for _ in range(10):
            A = pd(random_pd_np(rng, 3))
            Y = random_hermitian_np(rng, 3)
            fwd = phi(A, pd(A.mat + t * Y), ARCSINE_SPEC)
            bwd = phi(A, pd(A.mat - t * Y), ARCSINE_SPEC)
            mid = phi(A, A, ARCSINE_SPEC)
            assert (fwd - 2 * mid + bwd) / (t * t) >= -1e-6


class TestJointConvexity:
    def test_random_pairs(self, rng):
        for s in (0.25, 0.5, 0.75):
            for _ in range(10):
                A1, B1 = random_pd_np(rng, 3), random_pd_np(rng, 3)
                A2, B2 = random_pd_np(rng, 3), random_pd_np(rng, 3)
                mixed = phi(
                    pd(s * A1 + (1 - s) * A2), pd(s * B1 + (1 - s) * B2), ARCSINE_SPEC
                )
                split = s * phi(pd(A1), pd(B1), ARCSINE_SPEC) + (1 - s) * phi(
                    pd(A2), pd(B2), ARCSINE_SPEC
                )
                assert mixed <= split + 1e-9


class TestConvexOrderMeanMonotonicity:
    def test_dirac_vs_spread(self, rng):
        for _ in range(10):
            c = rng.uniform(0.2, 0.8)
            mu = DiscreteMeasure(((c, 1.0),))
            nu = DiscreteMeasure(((c - 0.15, 0.5), (c + 0.15, 0.5)))
            assert convex_order_leq(mu, nu)
            A, B = pd(random_pd_np(rng, 3)), pd(random_pd_np(rng, 3))
            low = kubo_ando_mean(A, B, MeasureGenerator(mu))
            high = kubo_ando_mean(A, B, MeasureGenerator(nu))
            assert loewner_leq(low, high, 1e-9)


@pytest.mark.parametrize("s", [1e-8, 1e7, 1e8])
def test_scale_covariance(s):
    # phi and the Kubo-Ando mean are 1-homogeneous in the pair, so every
    # slack of the harness scales by s: no absolute constant may decide a
    # scale-free computation.  Measured worst: 4.2e-14 relative.
    spec = DivergenceSpec(HarmonicGenerator(0.3))
    rng = np.random.default_rng(0)
    A, B, A2, B2 = (random_pd_np(rng, 3, 1.2) for _ in range(4))
    T = random_cptp(3, 3, 3, 1)
    assert phi(s * A, s * B, spec) == pytest.approx(s * phi(A, B, spec), rel=1e-12)
    mean = kubo_ando_mean(A, B, spec.generator).mat
    scaled = kubo_ando_mean(s * A, s * B, spec.generator).mat
    assert np.linalg.norm(scaled - s * mean) <= 1e-12 * s * np.linalg.norm(mean)
    convexity = check_joint_convexity(spec, (A, B), (A2, B2), 0.3)
    assert check_joint_convexity(spec, (s * A, s * B), (s * A2, s * B2), 0.3) == pytest.approx(
        s * convexity, rel=1e-12
    )
    assert check_dpi(spec, T, s * A, s * B) == pytest.approx(s * check_dpi(spec, T, A, B), rel=1e-12)

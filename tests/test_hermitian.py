import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhmeans import (
    ComputationError,
    ConditioningWarning,
    DimensionMismatchError,
    DivergenceSpec,
    DomainError,
    HermitianMatrix,
    arcsine_generator,
    eig_hermitian,
    frechet_derivative,
    frobenius_dist,
    herm,
    inv_sqrt_pd,
    loewner_leq,
    pd,
    phi,
    sqrt_pd,
    thompson_dist,
)

from qhmeans.hermitian import (
    _TIE_RTOL, _apply_spectral_raw, _divided_differences, _second_divided_differences, _spectral
)

from conftest import random_pd_np

A2 = 0.5 * np.array([[5.0, 3.0], [3.0, 5.0]])


class TestConstruction:
    def test_symmetrization(self):
        H = HermitianMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert np.allclose(H.mat, H.mat.conj().T)
        assert H.mat[0, 1] == pytest.approx(1.0)

    def test_pd_rejects_indefinite(self):
        with pytest.raises(DomainError):
            pd(np.diag([1.0, -1.0]))

    def test_pd_rejects_singular(self):
        with pytest.raises(DomainError):
            pd(np.diag([1.0, 0.0]))

    def test_pd_scale_aware_floor(self):
        # relative floor: tiny well-conditioned matrices pass, ratios beyond
        # double precision are treated as singular
        with pytest.raises(DomainError):
            pd(np.diag([1e-16, 1.0]))
        pd(1e-14 * np.eye(2))

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(1.0, np.inf)])
    def test_rejects_non_finite_entries(self, entry):
        # checked before any arithmetic: no RuntimeWarning comes first
        M = np.eye(2, dtype=complex)
        M[0, 0] = entry
        for build in (pd, herm):
            with pytest.raises(DomainError, match="non-finite"):
                build(M)

    def test_rejects_nonsquare(self):
        with pytest.raises(DomainError):
            herm(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "call",
        [
            pd,
            sqrt_pd,
            lambda Z: phi(Z, Z, DivergenceSpec(arcsine_generator())),
            lambda Z: loewner_leq(Z, Z),
            herm,
            lambda Z: frobenius_dist(Z, Z),
        ],
        ids=["pd", "sqrt_pd", "phi", "loewner_leq", "herm", "frobenius_dist"],
    )
    def test_rejects_dimension_zero(self, call):
        # one rule for every square matrix the package reads, before any
        # spectral or norm arithmetic on it
        with pytest.raises(DomainError, match="matrix dimension must be an integer >= 1, got 0"):
            call(np.zeros((0, 0)))

    def test_immutable(self):
        H = herm(np.eye(2))
        with pytest.raises(ValueError):
            H.mat[0, 0] = 5.0

    def test_array_conversion_copies_unless_asked_not_to(self):
        A = pd(np.eye(2))
        copied = np.array(A)
        copied[0, 0] = 5.0
        assert A.mat[0, 0] == 1.0
        assert np.shares_memory(np.asarray(A), A.mat)
        with pytest.raises(ValueError):
            np.array(A, dtype=np.complex64, copy=False)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_always_hermitian(self, dim, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        H = HermitianMatrix(raw)
        assert np.linalg.norm(H.mat - H.mat.conj().T) == 0.0
        assert np.all(np.abs(np.linalg.eigvalsh(H.mat).imag) == 0.0)


class TestEig:
    def test_diagonal(self):
        dec = eig_hermitian(herm(np.diag([4.0, 1.0])))
        assert np.allclose(dec.eigenvalues, [1.0, 4.0])
        # eigenvectors of a diagonal matrix are identity columns, maybe permuted
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2)[:, [1, 0]])

    def test_offdiagonal_reassembly(self):
        dec = eig_hermitian(herm(A2))
        assert np.allclose(dec.eigenvalues, [1.0, 4.0])
        assert np.linalg.norm(_spectral(dec.eigenvectors, dec.eigenvalues) - A2) <= 1e-10 * 2

    def test_identity(self):
        dec = eig_hermitian(herm(np.eye(3)))
        assert np.allclose(dec.eigenvalues, 1.0)

    def test_is_numpys_eigh_of_the_hermitian_part(self, rng):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w, U = eig_hermitian(raw)
        expected = np.linalg.eigh(herm(raw).mat)
        assert np.array_equal(w, expected.eigenvalues)
        assert np.array_equal(U, expected.eigenvectors)

    def test_lapack_failure_is_a_computation_error(self, monkeypatch):
        def fails(mat):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(ComputationError, match="failed to converge"):
            eig_hermitian(A2)

    def test_unitarity_and_reassembly_random(self, rng):
        for dim in (2, 5, 16):
            H = herm(np.asarray(random_pd_np(rng, dim)) - np.eye(dim))
            dec = eig_hermitian(H)
            U = dec.eigenvectors
            assert np.linalg.norm(U.conj().T @ U - np.eye(dim)) <= 1e-12 * dim
            assert np.linalg.norm(_spectral(dec.eigenvectors, dec.eigenvalues) - H.mat) <= 1e-10 * dim
            assert np.all(np.diff(dec.eigenvalues) >= 0)


class TestApplySpectral:
    def test_diagonal_sqrt(self):
        out = _apply_spectral_raw(np.diag([4.0, 9.0]), np.sqrt)
        assert np.allclose(out, np.diag([2.0, 3.0]))

    def test_identity_function(self):
        A = pd(A2)
        out = _apply_spectral_raw(A.mat, lambda w: w)
        assert np.allclose(out, A.mat)

    def test_sqrt_squares_back(self):
        A = pd(A2)
        r = _apply_spectral_raw(A.mat, np.sqrt)
        assert np.linalg.norm(r @ r - A.mat) <= 1e-10

    def test_commutes_with_input(self, rng):
        A = pd(random_pd_np(rng, 4))
        out = _apply_spectral_raw(A.mat, np.log)
        assert np.linalg.norm(out @ A.mat - A.mat @ out) <= 1e-10

    def test_domain_error_names_eigenvalue(self):
        with pytest.raises(DomainError, match="1.0"):
            _apply_spectral_raw(np.eye(2), lambda w: 1.0 / (w - 1.0))

    def test_composition(self, rng):
        # f(g(A)) as one spectral call equals two chained calls
        for _ in range(5):
            A = pd(random_pd_np(rng, 3))
            direct = _apply_spectral_raw(A.mat, lambda w: np.sqrt(np.exp(w)))
            chained = _apply_spectral_raw(_apply_spectral_raw(A.mat, np.exp), np.sqrt)
            assert np.linalg.norm(direct - chained) <= 1e-9


class TestPdFunctions:
    def test_identity_fixed_point(self):
        eye = pd(np.eye(3))
        for fn in (sqrt_pd, inv_sqrt_pd):
            assert np.allclose(fn(eye).mat, np.eye(3))

    def test_diagonal(self):
        A = pd(np.diag([4.0, 1.0]))
        assert np.allclose(sqrt_pd(A).mat, np.diag([2.0, 1.0]))
        assert np.allclose(inv_sqrt_pd(A).mat, np.diag([0.5, 1.0]))

    def test_inv_sqrt_whitens(self, rng):
        A = pd(random_pd_np(rng, 5))
        s = inv_sqrt_pd(A).mat
        assert np.linalg.norm(s @ A.mat @ s - np.eye(5)) <= 1e-10

    def test_conditioning_warning(self):
        with pytest.warns(ConditioningWarning):
            sqrt_pd(pd(np.diag([5e14, 1.0])))


class TestLoewner:
    def test_reflexive(self, rng):
        A = herm(random_pd_np(rng, 3))
        assert loewner_leq(A, A, 1e-12)

    def test_diagonal_comparison(self):
        assert loewner_leq(herm(np.diag([1.0, 1.0])), herm(np.diag([2.0, 3.0])), 1e-12)

    def test_incomparable_pair(self):
        A, B = herm(np.diag([0.0, 2.0])), herm(np.diag([1.0, 1.0]))
        assert not loewner_leq(A, B, 1e-12)
        assert not loewner_leq(B, A, 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            loewner_leq(herm(np.eye(2)), herm(np.eye(3)), 1e-12)

    def test_tolerance_is_relative_at_small_scale(self):
        # B - A = -5e-12 I is far below the default tol in absolute terms, but
        # half the scale of the pair
        assert not loewner_leq(1e-11 * np.eye(2), 5e-12 * np.eye(2))
        assert loewner_leq(5e-12 * np.eye(2), 1e-11 * np.eye(2))

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    def test_reflexive_across_scales(self, rng, scale):
        A = scale * random_pd_np(rng, 3)
        assert loewner_leq(A, A)
        # a rounding-size relative drift in either direction stays comparable
        assert loewner_leq(A, A * (1 - 1e-13)) and loewner_leq(A * (1 - 1e-13), A)

    def test_antisymmetry_up_to_tol(self, rng):
        A = herm(random_pd_np(rng, 3))
        B = herm(A.mat + 1e-14 * np.eye(3))
        tol = 1e-10
        assert loewner_leq(A, B, tol) and loewner_leq(B, A, tol)
        assert frobenius_dist(A, B) <= 10 * tol

    def test_transitive_on_slack_triples(self, rng):
        tol = 1e-10
        for _ in range(20):
            A = random_pd_np(rng, 3)
            B = A + random_pd_np(rng, 3) + np.eye(3)  # slack far above 2*tol
            C = B + random_pd_np(rng, 3) + np.eye(3)
            assert loewner_leq(herm(A), herm(B), tol)
            assert loewner_leq(herm(B), herm(C), tol)
            assert loewner_leq(herm(A), herm(C), tol)


class TestMetrics:
    def test_frobenius_self(self, rng):
        A = herm(random_pd_np(rng, 4))
        assert frobenius_dist(A, A) == 0.0

    def test_thompson_scalar_multiple(self):
        assert thompson_dist(pd(np.eye(3)), pd(2 * np.eye(3))) == pytest.approx(np.log(2))

    def test_thompson_diagonal(self):
        # spectrum of A^{-1/2} B A^{-1/2} is (1/4, 4): max |log| = log 4
        d = thompson_dist(pd(np.diag([4.0, 1.0])), pd(np.diag([1.0, 4.0])))
        assert d == pytest.approx(np.log(4.0), abs=1e-12)

    def test_thompson_rejects_non_pd(self):
        with pytest.raises(DomainError):
            thompson_dist(herm(np.diag([1.0, 0.0])), pd(np.eye(2)))

    def test_thompson_triangle(self, rng):
        for _ in range(20):
            A, B, C = (pd(random_pd_np(rng, 3)) for _ in range(3))
            assert thompson_dist(A, C) <= (
                thompson_dist(A, B) + thompson_dist(B, C) + 1e-10
            )

    def test_thompson_congruence_invariant(self, rng):
        for _ in range(10):
            A, B = pd(random_pd_np(rng, 3)), pd(random_pd_np(rng, 3))
            M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            MA = pd(M @ A.mat @ M.conj().T)
            MB = pd(M @ B.mat @ M.conj().T)
            assert thompson_dist(MA, MB) == pytest.approx(
                thompson_dist(A, B), abs=1e-8
            )


class TestFrechetDerivative:
    def test_linear_function(self, rng):
        X = pd(random_pd_np(rng, 3))
        Y = herm(random_pd_np(rng, 3))
        out = frechet_derivative(lambda w: 2 * w, lambda w: np.full_like(w, 2.0), X, Y)
        assert np.linalg.norm(out.mat - 2 * Y.mat) <= 1e-12

    def test_square_function(self, rng):
        # D(X^2)[Y] = XY + YX
        X = pd(random_pd_np(rng, 3))
        Y = herm(random_pd_np(rng, 3))
        out = frechet_derivative(lambda w: w**2, lambda w: 2 * w, X, Y)
        expected = X.mat @ Y.mat + Y.mat @ X.mat
        assert np.linalg.norm(out.mat - expected) <= 1e-10

    def test_degenerate_spectrum_uses_derivative(self):
        # X = I has a fully degenerate spectrum: D f(I)[Y] = f'(1) Y
        Y = herm(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = frechet_derivative(np.sqrt, lambda w: 0.5 / np.sqrt(w), pd(np.eye(2)), Y)
        assert np.linalg.norm(out.mat - 0.5 * Y.mat) <= 1e-12

    def test_function_not_finite_on_the_spectrum_raises_without_warning(self):
        # log and 1/x at the eigenvalue 0: a DomainError naming it, not the
        # RuntimeWarning of evaluating them there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="eigenvalue"):
                frechet_derivative(np.log, lambda x: 1 / x, np.diag([0.0, 1.0]), np.eye(2))

    @pytest.mark.parametrize("t", [0.3, 0.5])
    @pytest.mark.parametrize("base", [1e-3, 1.0, 37.3])
    def test_power_table_against_exact_arithmetic(self, t, base):
        # Relative separations 1e-14 to 1e10 cross the tie threshold, where
        # the mean of f' hands over to the difference quotient.
        for sep in np.logspace(-14, 10, 97):
            w = np.array([base, base * (1 + sep)])
            out = _divided_differences(w, w**t, t * w ** (t - 1))[0, 1]
            with localcontext() as ctx:
                ctx.prec = 50
                a, b, T = Decimal(float(w[0])), Decimal(float(w[1])), Decimal(t)
                ref = T * a ** (T - 1) if a == b else (b**T - a**T) / (b - a)
            assert abs(out - float(ref)) <= 1e-10 * float(ref)


def _exact_second_difference(t, a, b, c):
    """f^[2](a, b, c) of x^t in 50-digit decimal arithmetic, with the tie
    limits where arguments coincide."""
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(t)
        d1 = lambda x, y: t * x ** (t - 1) if x == y else (x**t - y**t) / (x - y)
        a, b, c = sorted(Decimal(float(v)) for v in (a, b, c))
        if a == c:
            return float(t * (t - 1) * a ** (t - 2) / 2)
        return float((d1(a, b) - d1(b, c)) / (a - c))


class TestSecondDividedDifferences:
    @pytest.mark.parametrize("sep", [0.0, 1e-12, 1e-8, 1e-6, 1e-4, 1e-2])
    @pytest.mark.parametrize("base", [1e-3, 1.0, 37.3])
    def test_power_against_exact_arithmetic(self, sep, base):
        # three clustered eigenvalues and one far away, so every branch runs
        t = 0.3
        w = base * np.array([1.0, 1.0 + sep, 1.0 + 2 * sep, 5.0])
        table = _divided_differences(w, w**t, t * w ** (t - 1))
        out = _second_divided_differences(w, table, t * w ** (t - 1), t * (t - 1) * w ** (t - 2))
        for i, k, l in np.ndindex(4, 4, 4):
            ref = _exact_second_difference(t, w[i], w[k], w[l])
            assert abs(out[i, k, l] - ref) <= 1e-4 * abs(ref)


def _second_divided_differences_per_triple(w, table, dw, d2w):
    """The earlier formulation of _second_divided_differences, which decides
    ties on the (..., d, d, d) triples: the reference it must match bitwise."""
    wi, wk, wl = w[..., :, None, None], w[..., None, :, None], w[..., None, None, :]
    tied = lambda a, b: np.abs(a - b) <= _TIE_RTOL * np.maximum(np.abs(a), np.abs(b))
    t_ik = table[..., :, :, None]
    tie_il, tie_ik = tied(wi, wl), tied(wi, wk)
    general = (t_ik - table[..., None, :, :]) / np.where(tie_il, 1.0, wi - wl)
    near = (dw[..., :, None, None] - t_ik) / np.where(tie_ik, 1.0, wi - wk)
    return np.where(tie_il, np.where(tie_ik, d2w[..., :, None, None] / 2, near), general)


def _power_tables(w, t=0.3):
    dw, d2w = t * w ** (t - 1), t * (t - 1) * w ** (t - 2)
    return _divided_differences(w, w**t, dw), dw, d2w


class TestSecondDifferencesMatchTheTripleFormulation:
    @pytest.mark.parametrize(
        "spectrum",
        [
            [1.0, 1.0, 3.0, 7.0],  # an exact tie
            [1.0, 1.0 + 1e-7, 3.0, 3.0 * (1 + 1e-7)],  # near ties at 1e-7 relative
            [2.0, 2.0, 2.0, 5.0],  # a triple tie
            [2.0, 2.0 * (1 + 1e-7), 2.0 * (1 + 2e-7), 5.0],  # a triple near tie
            [1.0, 1.0 + 9.9e-6, 1.0 + 1.01e-5, 4.0],  # either side of the threshold
            [0.5, 1.5, 2.5, 3.5],  # no tie
        ],
    )
    def test_one_spectrum(self, spectrum):
        w = np.array(spectrum)
        table, dw, d2w = _power_tables(w)
        out = _second_divided_differences(w, table, dw, d2w)
        assert np.array_equal(out, _second_divided_differences_per_triple(w, table, dw, d2w))

    def test_stacks(self, rng):
        # (m, d) stacks with random spectra, some members clustered
        w = np.exp(rng.uniform(-3, 3, size=(5, 6)))
        w[1, 1] = w[1, 0]
        w[2, 2:5] = w[2, 1] * (1 + 1e-7 * np.arange(1, 4))
        w = np.sort(w, axis=-1)
        table, dw, d2w = _power_tables(w)
        out = _second_divided_differences(w, table, dw, d2w)
        assert out.shape == (5, 6, 6, 6)
        assert np.array_equal(out, _second_divided_differences_per_triple(w, table, dw, d2w))

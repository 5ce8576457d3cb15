"""Tests for the symplectic spectrum machinery and positivity checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgauss import (
    DimensionError,
    MatrixStructureError,
    NCGaussError,
    NCParams,
    NotPositiveDefiniteError,
    build_covariance,
    build_darboux_map,
    build_planar_form,
    classify,
    nc_williamson_spectrum,
    rsup_holds,
)
from ncgauss.core import (
    _root_spectrum,
    block_diag,
    inverse_root,
    standard_symplectic_form,
    validate_covariance,
    validate_skew_form,
)
from ncgauss.kernel import BOUNDARY, Verdict, verdict_from_invariants
from ncgauss.phase_space import EPSILON2
from oracles import (
    brute_force_spectrum,
    hermitian_min_eigenvalue,
    random_skew_nonsingular,
    random_spd,
    random_symplectic,
)

# Family covariance at the figure slice (m, n) = (sqrt(2)/6, 1/6) against the
# deformed form with theta = 1/4, eta = 1/2; frozen from the complex
# eigensolver oracle.
FROZEN_SPECTRUM = (
    1.2187822642129633,
    1.273835083454588,
    2.6992374882779266,
    2.8211629854694626,
)
FROZEN_MIN_EIG = 0.1424188440603755

FIG_M, FIG_N = np.sqrt(2.0) / 6.0, 1.0 / 6.0
# Matrix scales from near the smallest normal float to near the largest: A -> cA changes no check.
SCALES = [1e-300, 1e-160, 1e-6, 1.0, 1e6, 1e155, 1e300]


def _family_pair(theta, eta, m=FIG_M, n=FIG_N):
    part = build_planar_form(NCParams(theta, eta))
    return build_covariance(m, n), block_diag(part, part)


class TestStandardForm:
    def test_single_mode(self):
        np.testing.assert_array_equal(
            standard_symplectic_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]])
        )

    def test_two_mode_blocks(self):
        jay = standard_symplectic_form(2)
        np.testing.assert_array_equal(jay[:2, 2:], np.eye(2))
        np.testing.assert_array_equal(jay[2:, :2], -np.eye(2))
        np.testing.assert_array_equal(jay[:2, :2], np.zeros((2, 2)))
        np.testing.assert_array_equal(jay[2:, 2:], np.zeros((2, 2)))

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 5, 8])
    def test_squares_to_minus_identity(self, n_modes):
        jay = standard_symplectic_form(n_modes)
        np.testing.assert_array_equal(jay @ jay, -np.eye(2 * n_modes))

    def test_rejects_zero_modes(self):
        with pytest.raises(DimensionError):
            standard_symplectic_form(0)

    def test_rejects_oversized(self):
        with pytest.raises(DimensionError):
            standard_symplectic_form(33)


class TestValidation:
    def test_covariance_rejects_asymmetric(self):
        with pytest.raises(MatrixStructureError):
            validate_covariance([[1.0, 0.1], [0.0, 1.0]])

    def test_covariance_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            validate_covariance([[1.0, 0.0], [0.0, -1.0]])

    def test_covariance_rejects_odd_dimension(self):
        with pytest.raises(DimensionError):
            validate_covariance(np.eye(3))

    def test_skew_rejects_symmetric(self):
        with pytest.raises(MatrixStructureError):
            validate_skew_form(np.eye(2))

    def test_skew_accepts_singular(self):
        # The kernel never inverts the form, so no singularity test runs.
        np.testing.assert_array_equal(validate_skew_form(np.zeros((2, 2))), np.zeros((2, 2)))

    @pytest.mark.parametrize("scale", SCALES)
    def test_singular_forms_answer_alike_at_every_scale(self, scale):
        jay = np.asarray(standard_symplectic_form(2))
        # (c I, c J) has the spectrum (2, 2) at every scale c: nothing overflows or underflows.
        np.testing.assert_allclose(nc_williamson_spectrum(scale * np.eye(4), scale * jay), [2.0, 2.0], rtol=1e-14)
        # theta = eta = 1 puts the planar form on the hyperbola theta*eta = 1: (i/2) P has the
        # eigenvalues +-1 and a null pair, so (c I, c P) has nu = 1 and a null pair's nu, which is
        # inf or, as its pair of eigenvalues rounds near 0, beyond 1e14.
        on_hyperbola = np.block([[EPSILON2, np.eye(2)], [-np.eye(2), EPSILON2]])
        spectrum = nc_williamson_spectrum(scale * np.eye(4), scale * on_hyperbola)
        assert spectrum[0] == pytest.approx(1.0, rel=1e-14)
        assert spectrum[1] > 1e14

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e5])
    def test_covariance_tests_are_scale_invariant(self, scale):
        # nu = 2 * scale; an absolute positivity bound rejects the scaled-down vacuum.
        spectrum = nc_williamson_spectrum(scale * np.eye(2), standard_symplectic_form(1))
        assert spectrum[0] == pytest.approx(2.0 * scale, rel=1e-14)
        # T M T^T is SPD with roundoff asymmetry: 5.8e-11 at scale 1e5, 5e-17 relative.
        rng = np.random.default_rng(0)
        tee = rng.standard_normal((4, 4))
        validate_covariance((scale * tee) @ np.diag(rng.uniform(0.5, 2.0, 4)) @ tee.T)
        with pytest.raises(MatrixStructureError):
            validate_covariance(scale * np.array([[1.0, 1e-9], [0.0, 1.0]]))
        # Positive-definite iff the smallest eigenvalue clears dim * eps of the largest.
        validate_covariance(scale * np.diag([1.0, 1e-10]))
        with pytest.raises(NotPositiveDefiniteError):
            validate_covariance(scale * np.diag([1.0, 1e-17]))

    def test_structure_tests_do_not_overflow_at_the_largest_floats(self):
        # The differences A - A^T and A + A^T of entries near DBL_MAX once overflowed, and under
        # -W error::RuntimeWarning the overflow warning was raised in place of the structure error.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(MatrixStructureError):
                validate_skew_form(np.diag([1e308, 1e308]))
            with pytest.raises(MatrixStructureError):
                validate_covariance([[1e308, 1e308], [-1e308, 1e308]])
            validate_skew_form([[0.0, 1.7e308], [-1.7e308, 0.0]])
            validate_covariance([[1e308, 1e307], [1e307, 1e308]])

    def test_positive_definite_with_an_eigenvalue_beyond_the_largest_float(self):
        # Eigenvalues 7e307 and 2.7e308: the eigensolve of the unscaled matrix overflowed, and
        # the positivity test refused it. nu = 2 sqrt(det) = 2.75e308 against J is beyond the
        # largest float, so it reads inf; against 2J it is sqrt(det), within the docstring's
        # 2 (2n) eps cond(Sigma) of the exact integer root.
        a, b = 1.7e308, 1e308
        big, jay = np.array([[a, b], [b, a]]), np.asarray(standard_symplectic_form(1))
        want = float(math.isqrt(int(a) ** 2 - int(b) ** 2))
        bound = 2 * 2 * np.finfo(float).eps * (a + b) / (a - b)
        np.testing.assert_array_equal(validate_covariance(big), big)
        assert nc_williamson_spectrum(big, jay).tolist() == [np.inf]
        assert nc_williamson_spectrum(big, 2.0 * jay)[0] == pytest.approx(want, rel=bound)
        result = classify(block_diag(big, big), 2.0 * jay, 2.0 * jay)
        assert result.verdict is Verdict.SEPARABLE_QUANTUM
        assert result.nu_minus == result.nu_minus_prime == pytest.approx(want, rel=bound)

    def test_skew_accepts_family_composite_form_near_hyperbola(self):
        # det = (1 - theta*eta)^4 = 1e-24, yet cond_2 is only about 4e6.
        _, form = _family_pair(1.0, 1.0 - 1e-6)
        validate_skew_form(form)

    def test_returns_readonly(self):
        out = validate_covariance(np.eye(2))
        with pytest.raises(ValueError):
            out[0, 0] = 2.0


class TestStackedKernel:
    def test_stacked_spectra_match_per_matrix_calls(self):
        rng = np.random.default_rng(17)
        sigma = random_spd(rng, 8)
        forms = np.stack([random_skew_nonsingular(rng, 8) for _ in range(6)]).reshape(3, 2, 8, 8)
        stacked = _root_spectrum(inverse_root(sigma)[0], forms)
        assert stacked.shape == (3, 2, 4)
        for form, row in zip(forms.reshape(6, 8, 8), stacked.reshape(6, 4)):
            np.testing.assert_array_equal(row, nc_williamson_spectrum(sigma, form))


class TestSpectrum:
    def test_vacuum_boundary(self):
        spectrum = nc_williamson_spectrum(0.5 * np.eye(2), standard_symplectic_form(1))
        assert spectrum.shape == (1,)
        assert spectrum[0] == pytest.approx(1.0, rel=1e-12)

    def test_scaled_identity(self):
        spectrum = nc_williamson_spectrum(np.diag([1.5, 1.5]), standard_symplectic_form(1))
        assert spectrum.tolist() == pytest.approx([3.0], rel=1e-12)

    def test_family_point_matches_complex_eigensolver(self):
        sigma, form = _family_pair(0.25, 0.5)
        spectrum = nc_williamson_spectrum(sigma, form)
        np.testing.assert_allclose(spectrum, FROZEN_SPECTRUM, rtol=1e-8)
        np.testing.assert_allclose(spectrum, brute_force_spectrum(sigma, form), rtol=1e-8)

    def test_sorted_ascending_and_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sigma = random_spd(rng, 8)
            form = random_skew_nonsingular(rng, 8)
            spectrum = nc_williamson_spectrum(sigma, form)
            assert spectrum.shape == (4,)
            assert np.all(spectrum > 0)
            assert np.all(np.diff(spectrum) >= 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            nc_williamson_spectrum(np.eye(4), standard_symplectic_form(1))

    def test_rejects_non_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            nc_williamson_spectrum(np.diag([1.0, -0.5]), standard_symplectic_form(1))

    def test_zero_form_gives_inf(self):
        # Every pair of the zero form is a null pair: no constraint, so the relation holds.
        sigma, zero = np.diag([1.0, 2.0, 0.5, 3.0]), np.zeros((4, 4))
        assert nc_williamson_spectrum(sigma, zero).tolist() == [np.inf, np.inf]
        assert rsup_holds(sigma, zero)

    def test_each_form_of_a_stack_is_scaled_alone(self):
        # Against the vacuum, S J S = 2 DBL_MAX J overflows unless the form is scaled first; a form
        # of order 1 in the same stack keeps its own scale and bits. nu = 1/DBL_MAX is subnormal.
        jay, big = np.asarray(standard_symplectic_form(1)), float(np.finfo(float).max)
        root = inverse_root(0.5 * np.eye(2))[0]
        stacked = _root_spectrum(root, np.stack([big * jay, jay]))
        assert stacked.tolist() == [_root_spectrum(root, big * jay).tolist(), _root_spectrum(root, jay).tolist()]
        assert abs(stacked[0, 0] - 1.0 / big) <= 2.0**-1074 and stacked[1, 0] == pytest.approx(1.0, rel=1e-15)

    def test_a_covariance_near_underflow_still_overflows(self):
        # Sigma^-1/2 = 1e155 I makes S J S about 1e310: the one overflow scaling cannot prevent.
        with pytest.raises(NCGaussError, match="overflows"):
            nc_williamson_spectrum(1e-310 * np.eye(2), standard_symplectic_form(1))

    @pytest.mark.parametrize("nu", [1.0 - 2.0 * BOUNDARY, 1.0 - BOUNDARY / 2.0, 1.0, 0.5, 1.5])
    def test_rsup_and_the_verdict_read_one_band(self, nu):
        # (nu/2 I, J) has the invariant nu: rsup_holds and the verdict's first stage agree.
        quantum = rsup_holds(0.5 * nu * np.eye(2), standard_symplectic_form(1))
        assert quantum == (nu >= 1.0 - BOUNDARY)
        assert verdict_from_invariants(nu, 2.0) is (Verdict.SEPARABLE_QUANTUM if quantum else Verdict.NON_QUANTUM)

    def test_negation_closure_of_pencil(self):
        # The eigenvalues of 2i O^-1 S come in +-nu pairs and the positive
        # half must reproduce the returned spectrum.
        rng = np.random.default_rng(7)
        for _ in range(15):
            sigma = random_spd(rng, 6)
            form = random_skew_nonsingular(rng, 6)
            vals = np.linalg.eigvals(2j * np.linalg.inv(form) @ sigma)
            assert np.max(np.abs(vals.imag)) < 1e-9
            ordered = np.sort(vals.real)
            np.testing.assert_allclose(ordered[:3], -ordered[::-1][:3], rtol=0, atol=1e-9 * np.max(ordered))
            np.testing.assert_allclose(nc_williamson_spectrum(sigma, form), ordered[3:], rtol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_scaling_homogeneity(self, scale):
        sigma, form = _family_pair(0.25, 0.5)
        base = nc_williamson_spectrum(sigma, form)
        scaled = nc_williamson_spectrum(scale * sigma, form)
        np.testing.assert_allclose(scaled, scale * base, rtol=1e-10)

    def test_symplectic_congruence_invariance_standard(self):
        rng = np.random.default_rng(19)
        jay = standard_symplectic_form(3)
        sigma = random_spd(rng, 6)
        base = nc_williamson_spectrum(sigma, jay)
        for _ in range(5):
            sym = random_symplectic(rng, jay)
            moved = sym @ sigma @ sym.T
            moved = 0.5 * (moved + moved.T)
            np.testing.assert_allclose(nc_williamson_spectrum(moved, jay), base, rtol=1e-9)

    def test_symplectic_congruence_invariance_deformed(self):
        # M = S M_J S^-1 preserves Omega = S J S^T.
        rng = np.random.default_rng(23)
        nc = NCParams(0.25, 0.5)
        darboux = build_darboux_map(nc)
        omega = block_diag(*[build_planar_form(nc)] * 2)
        sigma = random_spd(rng, 8)
        base = nc_williamson_spectrum(sigma, omega)
        # The composite standard form is block-diagonal over the two parties.
        jay = np.kron(np.eye(2), standard_symplectic_form(2))
        for _ in range(5):
            sym = darboux @ random_symplectic(rng, jay) @ np.linalg.inv(darboux)
            moved = sym @ sigma @ sym.T
            moved = 0.5 * (moved + moved.T)
            np.testing.assert_allclose(nc_williamson_spectrum(moved, omega), base, rtol=1e-9)


class TestRsup:
    def test_vacuum_saturates(self):
        assert rsup_holds(0.5 * np.eye(2), standard_symplectic_form(1))

    def test_subvacuum_violates(self):
        assert not rsup_holds(0.25 * np.eye(2), standard_symplectic_form(1))

    def test_commutative_family_point(self):
        sigma, form = _family_pair(0.0, 0.0, m=0.3, n=0.4)
        assert rsup_holds(sigma, form)
        assert nc_williamson_spectrum(sigma, form)[0] == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, rel=1e-10)

    def test_agrees_with_hermitian_positivity(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            dim = 2 * int(rng.integers(1, 5))
            scale = float(np.exp(rng.uniform(-3.0, 1.0)))
            sigma = scale * random_spd(rng, dim) / dim
            form = random_skew_nonsingular(rng, dim)
            direct = hermitian_min_eigenvalue(sigma + 0.5j * form) >= -1e-10
            assert rsup_holds(sigma, form) == direct


class TestHermitianMinEigenvalue:
    def test_identity(self):
        assert hermitian_min_eigenvalue(np.eye(2)) == pytest.approx(1.0)

    def test_vacuum_pencil_is_marginal(self):
        mat = 0.5 * np.eye(2) + 0.5j * standard_symplectic_form(1)
        assert hermitian_min_eigenvalue(mat) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(MatrixStructureError):
            hermitian_min_eigenvalue(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_sign_consistent_with_spectrum(self):
        sigma, form = _family_pair(0.25, 0.5)
        value = hermitian_min_eigenvalue(sigma + 0.5j * form)
        assert value == pytest.approx(FROZEN_MIN_EIG, rel=1e-8)
        assert (value >= -1e-10) == (nc_williamson_spectrum(sigma, form)[0] >= 1.0 - 1e-12)


"""Tests for deformation forms, Darboux maps, and covariance transport."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgauss import (
    DimensionError,
    DomainError,
    MatrixStructureError,
    NCParams,
    build_darboux_map,
    nc_williamson_spectrum,
    rsup_holds,
    transform_covariance,
)
from ncgauss import core
from ncgauss.core import EPSILON2, block_diag, build_planar_form, build_subsystem_form, standard_symplectic_form
from oracles import PAYLOAD_NAN, brute_force_spectrum, hermitian_min_eigenvalue, random_spd, validate_darboux

EPS = float(np.finfo(float).eps)


def _composite(theta, eta):
    part = build_planar_form(NCParams(theta, eta))
    return block_diag(part, part)


class TestNCParams:
    def test_rejects_negative(self):
        # Negative and non-finite deformations, each in either slot, with the one message.
        for bad in (-0.1, -5e-324, -np.inf, np.inf, np.nan, PAYLOAD_NAN):
            for theta, eta in ((bad, 0.5), (0.5, bad)):
                with pytest.raises(DomainError) as exc:
                    NCParams(theta, eta)
                assert str(exc.value) == f"theta and eta must be finite and >= 0, got ({theta}, {eta})"

    def test_rejects_product_at_one(self):
        # Both messages name the point.
        with pytest.raises(DomainError) as exc:
            NCParams(0.5, 2.0)
        assert str(exc.value) == "theta*eta must be < 1, got (0.5, 2.0)"

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(min_value=0.0, max_value=3.0),
        eta=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_domain_is_exactly_the_open_hyperbola(self, theta, eta):
        if theta * eta < 1.0:
            NCParams(theta, eta)
        else:
            with pytest.raises(DomainError):
                NCParams(theta, eta)


class TestSubsystemForm:
    def test_single_mode_reduces_to_standard(self):
        form = build_subsystem_form([[0.0]], [[0.0]])
        np.testing.assert_array_equal(form, standard_symplectic_form(1))

    def test_zero_deformation_is_standard(self):
        form = build_subsystem_form(np.zeros((2, 2)), np.zeros((2, 2)))
        np.testing.assert_array_equal(form, standard_symplectic_form(2))

    def test_determinant_against_direct_evaluation(self):
        # det [[theta eps, I], [-I, eta eps]] = (1 - theta*eta)^2 for 2x2 blocks.
        form = build_subsystem_form(0.25 * EPSILON2, 0.5 * EPSILON2)
        det = np.linalg.det(form)
        assert det == pytest.approx(0.765625, rel=1e-12)
        assert det == pytest.approx((1.0 - 0.125) ** 2, rel=1e-12)

    def test_rejects_non_skew_block(self):
        with pytest.raises(MatrixStructureError):
            build_subsystem_form(np.eye(2), np.zeros((2, 2)))

    def test_singular_assembly_agrees_with_direct_test(self):
        # theta*eta = 1 makes the assembled form singular, and it is accepted: Sigma / nu_- puts
        # the smallest eigenvalue of Sigma + (i/2) Omega at 0, and Sigma passes both tests alike.
        form = build_subsystem_form(EPSILON2, EPSILON2)
        assert np.linalg.matrix_rank(form) == 2
        rng = np.random.default_rng(12)
        for _ in range(10):
            sigma = random_spd(rng, 4)
            nu = nc_williamson_spectrum(sigma, form)[0]
            assert abs(hermitian_min_eigenvalue(sigma / nu + 0.5j * form)) <= 1e-12 * np.linalg.norm(sigma / nu)
            assert rsup_holds(sigma, form) == (hermitian_min_eigenvalue(sigma + 0.5j * form) >= 0.0)

    def test_rejects_wrong_block_shape(self):
        with pytest.raises(DimensionError):
            build_subsystem_form(np.zeros((3, 3)), np.zeros((2, 2)))

    @pytest.mark.parametrize("theta", [np.zeros((0, 0)), np.zeros(2), np.zeros((2, 3)), 0.0])
    def test_mode_count_comes_from_a_square_theta(self, theta):
        with pytest.raises(DimensionError):
            build_subsystem_form(theta, np.zeros((2, 2)))

    def test_returns_readonly(self):
        with pytest.raises(ValueError):
            build_subsystem_form(np.zeros((1, 1)), np.zeros((1, 1)))[0, 0] = 1.0


class TestPlanarForm:
    def test_commutative_limit_is_exact(self):
        form = build_planar_form(NCParams(0.0, 0.0))
        np.testing.assert_array_equal(form, standard_symplectic_form(2))

    def test_position_deformation_only(self):
        form = build_planar_form(NCParams(0.25, 0.0))
        assert form[0, 1] == 0.25
        np.testing.assert_array_equal(form[2:, 2:], np.zeros((2, 2)))  # Upsilon

    def test_rejects_product_at_one(self):
        with pytest.raises(DomainError):
            build_planar_form(NCParams(0.5, 2.0))

    @pytest.mark.parametrize("theta", [1.5e9, 1e300, float(np.finfo(float).max)])
    def test_large_deformations_are_forms_too(self, theta):
        # det P = 1 at eta = 0, however badly conditioned P is.
        form = build_planar_form(NCParams(theta, 0.0))
        assert form[0, 1] == theta and form[0, 2] == 1.0


class TestDarbouxMap:
    def test_commutative_map_is_identity(self):
        dmap = build_darboux_map(NCParams(0.0, 0.0), lambda_scale=1.0)
        np.testing.assert_array_equal(dmap, np.eye(8))
        assert dmap[2, 2] == 1.0  # mu

    def test_mu_from_invertibility_constraint(self):
        # lambda and mu are the diagonal entries S_A[0, 0] and S_A[2, 2].
        dmap = build_darboux_map(NCParams(0.25, 0.5), lambda_scale=1.0)
        assert dmap[2, 2] == pytest.approx((1.0 + np.sqrt(7.0 / 8.0)) / 2.0, rel=1e-12)
        assert dmap[0, 0] * dmap[2, 2] == pytest.approx(
            (1.0 + np.sqrt(1.0 - 0.125)) / 2.0, abs=1e-12
        )

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_reproduces_target_form(self, lam):
        # Direct matrix-product check of S J S^T = Omega, per entry.
        nc = NCParams(0.25, 0.5)
        dmap = build_darboux_map(nc, lambda_scale=lam)
        jay = block_diag(standard_symplectic_form(2), standard_symplectic_form(2))
        target = _composite(0.25, 0.5)
        residual = np.max(np.abs(dmap @ jay @ dmap.T - target))
        assert residual <= 1e-10

    def test_determinant_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            theta, eta = rng.uniform(0.0, 2.0, size=2)
            if theta * eta >= 1.0:
                continue
            lam = float(np.exp(rng.uniform(-1.0, 1.0)))
            dmap = build_darboux_map(NCParams(theta, eta), lambda_scale=lam)
            s_a = dmap[:4, :4]
            np.testing.assert_array_equal(dmap, block_diag(s_a, s_a))
            assert s_a[0, 0] == lam
            product = s_a[0, 0] * s_a[2, 2]
            expected = (product - theta * eta / (4.0 * product)) ** 2
            assert np.linalg.det(s_a) == pytest.approx(expected, rel=1e-10)
            assert expected == pytest.approx(1.0 - theta * eta, rel=1e-10)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(DomainError):
            build_darboux_map(NCParams(0.1, 0.1), lambda_scale=0.0)

    def test_residual_is_read_at_the_products_scale(self):
        # S J S^T misses theta by one ulp of theta here, 1.16e-10: roundoff, not a wrong map.
        dmap = build_darboux_map(NCParams(649806.5773688976, 8.11366365538548e-09), 2.05577829378066)
        assert np.isfinite(dmap).all()

    @pytest.mark.parametrize("theta,eta,lam", [(1e308, 0.0, 0.01), (0.5, 1.0, 1e-320), (0.0, 1e10, 1e300),
                                               (float(np.finfo(float).max), 0.0, 3.0)])
    def test_map_beyond_the_float_range_names_its_point(self, theta, eta, lam):
        # a = theta/(2 lambda), mu = lambda*mu / lambda or b = eta/(2 mu) leaves the float range, or
        # only S J S^T does: at the largest theta and lambda = 3, lambda a + a lambda rounds to inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as exc:
                build_darboux_map(NCParams(theta, eta), lam)
        assert str(exc.value).endswith(f"at (theta, eta, lambda) = ({theta!r}, {eta!r}, {lam!r})")

    @settings(max_examples=200, deadline=None)
    @given(
        log_theta=st.floats(min_value=-300.0, max_value=300.0),
        eta_kind=st.sampled_from(["zero", "any", "hyperbola"]),
        log_eta=st.floats(min_value=-16.0, max_value=300.0),
        log_lam=st.floats(min_value=-2.0, max_value=2.0),
    )
    @example(log_theta=math.log10(649806.5773688976), eta_kind="any", log_eta=math.log10(8.11366365538548e-09),
             log_lam=math.log10(2.05577829378066))
    def test_map_meets_the_componentwise_bound(self, log_theta, eta_kind, log_eta, log_lam):
        # Either a finite map with |S J S^T - Omega| within 4 eps |S| |J| |S|^T, half the check's
        # bound (measured at most 1 eps over 24,000 points), or a DomainError naming the point;
        # never a warning. eta is 0, log-uniform, or 1 - theta*eta = 10^-|log_eta| near the hyperbola.
        theta, lam = 10.0**log_theta, 10.0**log_lam
        etas = {"zero": 0.0, "any": 10.0**log_eta, "hyperbola": (1.0 - 10.0 ** -abs(log_eta)) / theta}
        eta = etas[eta_kind]
        if not theta * eta < 1.0:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                dmap = build_darboux_map(NCParams(theta, eta), lam)
            except DomainError as exc:
                assert str(exc.value).endswith(f"at (theta, eta, lambda) = ({theta!r}, {eta!r}, {lam!r})")
                return
        s_a, jay = dmap[:4, :4], np.asarray(standard_symplectic_form(2))
        assert np.isfinite(s_a).all()
        residual = abs(s_a @ jay @ s_a.T - build_planar_form(NCParams(theta, eta)))
        assert (residual <= 4.0 * EPS * (abs(s_a) @ abs(jay) @ abs(s_a).T)).all()

    @pytest.mark.parametrize("entry", [(0, 0), (0, 3), (1, 1), (1, 2), (2, 1), (2, 2), (3, 0), (3, 3)])
    def test_a_flipped_sign_is_caught(self, monkeypatch, entry):
        # The residual check still catches a construction error: each nonzero entry of the block
        # with its sign flipped.
        build = core._planar_darboux_block

        def flipped(*args):
            blk = build(*args)
            blk[entry] = -blk[entry]
            return blk

        monkeypatch.setattr(core, "_planar_darboux_block", flipped)
        with pytest.raises(MatrixStructureError):
            build_darboux_map(NCParams(0.25, 0.5), lambda_scale=1.3)

    def test_returns_readonly(self):
        with pytest.raises(ValueError):
            build_darboux_map(NCParams(0.1, 0.1))[0, 0] = 2.0


class TestValidateDarboux:
    def test_identity_map_on_commutative_form(self):
        jay = standard_symplectic_form(2)
        assert validate_darboux(np.eye(8), jay, jay)

    def test_built_map_matches_own_target(self):
        dmap = build_darboux_map(NCParams(0.25, 0.5), lambda_scale=0.7)
        part = build_planar_form(NCParams(0.25, 0.5))
        assert validate_darboux(dmap, part, part)

    def test_built_map_fails_other_target(self):
        dmap = build_darboux_map(NCParams(0.25, 0.5))
        part = build_planar_form(NCParams(0.3, 0.5))
        assert not validate_darboux(dmap, part, part)

    def test_dimension_mismatch(self):
        jay = standard_symplectic_form(2)
        with pytest.raises(DimensionError):
            validate_darboux(np.eye(4), jay, jay)

    def test_map_mixing_the_parties_fails(self):
        # S J S^T = Omega holds for a swap of the parties, but a Darboux map is block-diagonal.
        jay = standard_symplectic_form(2)
        swap = np.block([[np.zeros((4, 4)), np.eye(4)], [np.eye(4), np.zeros((4, 4))]])
        assert not validate_darboux(swap, jay, jay)


class TestTransformCovariance:
    def test_identity_map(self):
        rng = np.random.default_rng(5)
        sigma = random_spd(rng, 8)
        np.testing.assert_allclose(transform_covariance(np.eye(8), sigma), sigma, rtol=1e-14)

    @pytest.mark.parametrize("shape", [(4, 4), (8, 4)])
    def test_rejects_a_map_of_another_shape(self, shape):
        with pytest.raises(DimensionError):
            transform_covariance(np.ones(shape), np.eye(8))

    def test_answers_to_the_largest_float_and_refuses_beyond(self):
        # S Sigma~ S^T past the largest float emitted an overflow RuntimeWarning, then met the generic
        # non-finite message; and 0.5 (A + A^T) overflowed on a finite A above half the largest float.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = transform_covariance(2.0**512 * np.eye(8), 0.75 * np.eye(8))
            np.testing.assert_array_equal(big, math.ldexp(0.75, 1024) * np.eye(8))
            with pytest.raises(DomainError, match="transported covariance .* leaves the float range"):
                transform_covariance(1e200 * np.eye(8), np.eye(8))

    def test_round_trip_through_inverse(self):
        rng = np.random.default_rng(6)
        sigma = random_spd(rng, 8)
        dmap = build_darboux_map(NCParams(0.25, 0.5), lambda_scale=1.3)
        forward = transform_covariance(dmap, sigma)
        back = transform_covariance(np.linalg.inv(dmap), forward)
        np.testing.assert_allclose(back, sigma, rtol=0, atol=1e-10)

    def test_spectrum_preservation(self):
        # Deformed spectrum of (S Sig~ S^T, Omega) equals the standard spectrum
        # of (Sig~, J); checked against the complex eigensolver oracle.
        rng = np.random.default_rng(8)
        sigma_tilde = random_spd(rng, 8)
        nc = NCParams(0.25, 0.5)
        dmap = build_darboux_map(nc)
        omega = _composite(0.25, 0.5)
        jay = block_diag(standard_symplectic_form(2), standard_symplectic_form(2))
        moved = transform_covariance(dmap, sigma_tilde)
        np.testing.assert_allclose(
            nc_williamson_spectrum(moved, omega), brute_force_spectrum(sigma_tilde, jay), rtol=1e-9
        )

    def test_positive_definiteness_preserved(self):
        rng = np.random.default_rng(9)
        dmap = build_darboux_map(NCParams(0.6, 0.9), lambda_scale=2.0)
        for _ in range(10):
            out = transform_covariance(dmap, random_spd(rng, 8))
            assert np.linalg.eigvalsh(out)[0] > 0

    def test_gauge_independence_of_spectrum(self):
        # Any two lambda gauges transport Sig~ to covariances with identical
        # deformed spectra.
        rng = np.random.default_rng(10)
        nc = NCParams(0.8, 0.3)
        omega = _composite(0.8, 0.3)
        for _ in range(10):
            sigma_tilde = random_spd(rng, 8)
            lam1, lam2 = np.exp(rng.uniform(-1.5, 1.5, size=2))
            if abs(lam1 - lam2) < 1e-3:
                continue
            spec1 = nc_williamson_spectrum(
                transform_covariance(build_darboux_map(nc, float(lam1)), sigma_tilde), omega
            )
            spec2 = nc_williamson_spectrum(
                transform_covariance(build_darboux_map(nc, float(lam2)), sigma_tilde), omega
            )
            np.testing.assert_allclose(spec1, spec2, rtol=1e-9)

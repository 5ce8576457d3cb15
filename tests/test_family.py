"""Tests for the explicit Gaussian family: covariance, closed forms, density."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, qmc

from ncgauss import (
    DomainError,
    FormulaDomainError,
    NCParams,
    build_covariance,
    closed_form_invariants,
    evaluate_wigner,
    family_form,
    nc_williamson_spectrum,
)
from ncgauss.family import FamilyParams, _checked_sqrt, _closed_forms, family_invariants
from ncgauss.separability import primed_form

FIG_M, FIG_N = np.sqrt(2.0) / 6.0, 1.0 / 6.0


def _params(theta, eta, m, n):
    return FamilyParams(m=m, n=n, nc=NCParams(theta, eta))


class TestFamilyParams:
    def test_derived_scale(self):
        params = _params(0.0, 0.0, 0.3, 0.4)
        assert params.r == pytest.approx(0.5, rel=1e-14)
        assert params.b == pytest.approx(3.0, rel=1e-14)

    def test_figure_slice_has_scaled_radius(self):
        # n = R/3, m = sqrt(2) R/3 places the state at radius R/sqrt(3).
        params = _params(0.0, 0.0, FIG_M, FIG_N)
        assert params.r == pytest.approx(0.5 / np.sqrt(3.0), rel=1e-14)
        assert params.b == pytest.approx(1.8116548391159553, rel=1e-12)

    def test_rejects_radius_at_one(self):
        with pytest.raises(DomainError):
            _params(0.0, 0.0, 0.8, 0.6)


class TestBuildCovariance:
    def test_uncoupled_is_half_identity(self):
        state = build_covariance(0.0, 0.0, NCParams(0.0, 0.0))
        np.testing.assert_array_equal(state.sigma, 0.5 * np.eye(8))

    def test_block_pattern(self):
        state = build_covariance(FIG_M, FIG_N, NCParams(0.0, 0.0))
        b = state.params.b
        m, n = FIG_M, FIG_N
        coupling = np.array(
            [
                [n, 0.0, m, 0.0],
                [0.0, n, 0.0, -m],
                [m, 0.0, -n, 0.0],
                [0.0, -m, 0.0, -n],
            ]
        )
        expected = b / 2.0 * np.block([[np.eye(4), coupling.T], [coupling, np.eye(4)]])
        np.testing.assert_allclose(state.sigma, expected, rtol=0, atol=0)

    def test_positive_definite_across_radii(self):
        rng = np.random.default_rng(13)
        for radius in np.arange(0.1, 1.0, 0.1):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            state = build_covariance(
                radius * np.cos(angle), radius * np.sin(angle), NCParams(0.0, 0.0)
            )
            assert np.linalg.eigvalsh(state.sigma)[0] > 0

    def test_rejects_radius_at_one(self):
        with pytest.raises(DomainError):
            build_covariance(1.0, 0.0, NCParams(0.0, 0.0))


class TestOmegaPm:
    def test_zero_deformation(self):
        params = _params(0.0, 0.0, 0.3, 0.4)
        result = closed_form_invariants(params)
        plus, minus = result.omega_plus, result.omega_minus
        assert plus == pytest.approx(2.0 * (1.0 + 0.25), rel=1e-12)
        assert minus == pytest.approx(2.0 * (1.0 - 0.25), rel=1e-12)

    def test_zero_coupling(self):
        params = _params(0.25, 0.5, 0.0, 0.0)
        result = closed_form_invariants(params)
        plus, minus = result.omega_plus, result.omega_minus
        assert plus == minus == pytest.approx(2.0 + 0.25 + 0.0625, rel=1e-12)

    def test_figure_point_arithmetic(self):
        result = closed_form_invariants(_params(0.25, 0.5, FIG_M, FIG_N))
        plus, minus = result.omega_plus, result.omega_minus
        assert plus == pytest.approx(3.1914817811865475, rel=1e-12)
        assert minus == pytest.approx(2.203125, rel=1e-12)


class TestClosedFormInvariants:
    @pytest.mark.parametrize(
        "radius,m,n", [(0.1, 0.06, 0.08), (0.2, 0.12, 0.16), (0.5, 0.3, 0.4)]
    )
    def test_commutative_limit_formulas(self, radius, m, n):
        result = closed_form_invariants(_params(0.0, 0.0, m, n))
        assert result.nu_minus == pytest.approx(
            (1.0 + radius) ** 1.5 / (1.0 - radius) ** 0.5, abs=1e-10
        )
        assert result.nu_minus_prime == pytest.approx(1.0 + radius, abs=1e-10)

    def test_commutative_limit_across_radii(self):
        rng = np.random.default_rng(17)
        for radius in rng.uniform(0.0, 0.95, size=25):
            angle = rng.uniform(0.0, np.pi / 2.0)
            result = closed_form_invariants(
                _params(0.0, 0.0, radius * np.cos(angle), radius * np.sin(angle))
            )
            assert result.nu_minus == pytest.approx(
                (1.0 + radius) ** 1.5 / (1.0 - radius) ** 0.5, abs=1e-10
            )
            assert result.nu_minus_prime == pytest.approx(1.0 + radius, abs=1e-10)

    def test_saturation_at_zero_radius(self):
        result = closed_form_invariants(_params(0.0, 0.0, 0.0, 0.0))
        assert result.nu_minus == pytest.approx(1.0, abs=1e-12)
        assert result.nu_minus_prime == pytest.approx(1.0, abs=1e-12)

    def test_figure_point_matches_spectral_route(self):
        params = _params(0.25, 0.5, FIG_M, FIG_N)
        state = build_covariance(FIG_M, FIG_N, params.nc)
        form = family_form(params.nc)
        result = closed_form_invariants(params)
        nu_spectral = nc_williamson_spectrum(state.sigma, form.assembled).smallest
        nu_prime_spectral = nc_williamson_spectrum(state.sigma, primed_form(form)).smallest
        assert result.nu_minus == pytest.approx(nu_spectral, rel=1e-8)
        assert result.nu_minus_prime == pytest.approx(nu_prime_spectral, rel=1e-8)

    def test_random_sweep_matches_spectral_route(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 100:
            theta, eta = rng.uniform(0.0, 2.0, size=2)
            if theta * eta >= 1.0 - 1e-3:
                continue
            radius = rng.uniform(0.0, 0.9)
            angle = rng.uniform(0.0, np.pi / 2.0)
            m, n = radius * np.cos(angle), radius * np.sin(angle)
            params = _params(theta, eta, m, n)
            state = build_covariance(m, n, params.nc)
            form = family_form(params.nc)
            result = closed_form_invariants(params)
            assert result.nu_minus == pytest.approx(
                nc_williamson_spectrum(state.sigma, form.assembled).smallest, rel=1e-8
            )
            assert result.nu_minus_prime == pytest.approx(
                nc_williamson_spectrum(state.sigma, primed_form(form)).smallest, rel=1e-8
            )
            checked += 1

    @settings(max_examples=400, deadline=None)
    @given(
        log_theta=st.floats(min_value=-8.0, max_value=math.log10(50.0)),
        log_gap=st.floats(min_value=-16.0, max_value=0.0),
        log_slack=st.floats(min_value=-15.0, max_value=0.0),
        angle=st.floats(min_value=0.0, max_value=math.pi / 2.0),
    )
    def test_closed_forms_never_flag_an_admissible_quadrant_point(
        self, log_theta, log_gap, log_slack, angle
    ):
        # The quadrant has no spectral fallback: a flagged point raises. 1 - theta*eta
        # and 1 - R are log-uniform down to 1e-16 and 1e-15, so half the draws lie
        # within 1e-8 of the hyperbola or of R = 1.
        theta = 10.0**log_theta
        eta = (1.0 - 10.0**log_gap) / theta
        radius = 1.0 - 10.0**log_slack
        m, n = radius * math.cos(angle), radius * math.sin(angle)
        r = math.hypot(m, n)
        assume(theta * eta < 1.0 and r < 1.0)
        *_, nu, nu_prime, off = _closed_forms(np.float64(theta), np.float64(eta), m, n, r)
        assert not off
        assert nu > 0.0 and nu_prime > 0.0

    def test_arrays_match_single_points_bit_for_bit(self):
        # Grids run the closed forms on arrays and single points on numpy scalars.
        # Odd 27-bit mantissas have squares that are exact rounding ties, where
        # x*x and pow(x, 2) often round apart: any such split between the two
        # paths shows here.
        rng = np.random.default_rng(43)
        mantissas = rng.integers(2**26, 2**27, size=(2, 1000)) | 1
        thetas, etas = mantissas[0] * 2.0**-27, mantissas[1] * 2.0**-26  # [0.5, 1) and [1, 2)
        nu, nu_prime = family_invariants(thetas, etas, FIG_M, FIG_N)
        assert np.isnan(nu).any() and not np.isnan(nu).all()
        for theta, eta, want, want_prime in zip(thetas, etas, nu, nu_prime):
            got, got_prime = family_invariants([theta], [eta], FIG_M, FIG_N)
            np.testing.assert_array_equal([got[0], got_prime[0]], [want, want_prime])
            if not np.isnan(want):
                closed = closed_form_invariants(_params(theta, eta, FIG_M, FIG_N))
                assert (closed.nu_minus, closed.nu_minus_prime) == (want, want_prime)

    def test_checked_sqrt_clamps_roundoff(self):
        assert _checked_sqrt(0.0) == (0.0, False)
        assert _checked_sqrt(-1e-13) == (0.0, False)
        assert _checked_sqrt(4.0) == (2.0, False)

    def test_checked_sqrt_rejects_genuinely_negative(self, monkeypatch):
        # A flagged point raises, alone or in a grid.
        assert _checked_sqrt(-1e-9)[1]
        values, flags = _checked_sqrt(np.array([4.0, -1e-13, -1e-9]))
        np.testing.assert_array_equal(values, [2.0, 0.0, 0.0])
        np.testing.assert_array_equal(flags, [False, False, True])
        # A clamp window of -inf fails every radicand test.
        monkeypatch.setattr("ncgauss.family.RADICAND", -math.inf)
        with pytest.raises(FormulaDomainError, match=r"at \(theta, eta, m, n\) = \(0\.25, 0\.5,"):
            closed_form_invariants(_params(0.25, 0.5, FIG_M, FIG_N))


class TestEvaluateWigner:
    def test_peak_of_uncoupled_state(self):
        state = build_covariance(0.0, 0.0, NCParams(0.0, 0.0))
        assert evaluate_wigner(state, np.zeros(8)) == pytest.approx(
            16.0 / np.pi**4, rel=1e-14
        )

    def test_monotone_decay_along_rays(self):
        rng = np.random.default_rng(29)
        state = build_covariance(0.3, 0.4, NCParams(0.0, 0.0))
        for _ in range(5):
            direction = rng.normal(size=8)
            values = [evaluate_wigner(state, t * direction) for t in (0.0, 0.5, 1.0, 2.0)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_gaussian_density_with_half_covariance(self):
        # exp(-z^T Sigma^-1 z) normalized by pi^4 sqrt(det Sigma) is exactly
        # the N(0, Sigma/2) density, which also certifies second moments
        # Sigma/2 through the standard Gaussian moment identity.
        rng = np.random.default_rng(37)
        for m, n in [(0.0, 0.0), (FIG_M, FIG_N), (0.3, 0.4)]:
            state = build_covariance(m, n, NCParams(0.0, 0.0))
            density = multivariate_normal(mean=np.zeros(8), cov=state.sigma / 2.0)
            for _ in range(10):
                z = rng.normal(scale=0.8, size=8)
                assert evaluate_wigner(state, z) == pytest.approx(density.pdf(z), rel=1e-12)

    @pytest.mark.parametrize("m,n", [(0.0, 0.0), (0.3, 0.4)])
    def test_quasi_random_box_integral_is_normalized(self, m, n):
        # Randomized quasi-Monte Carlo over an eigen-aligned box covering
        # +-3.5 standard deviations per axis.
        state = build_covariance(m, n, NCParams(0.0, 0.0))
        widths, axes = np.linalg.eigh(state.sigma / 2.0)
        half = 3.5 * np.sqrt(widths)
        volume = np.prod(2.0 * half)
        estimates = []
        for seed in (11, 23, 37, 53):
            sampler = qmc.Sobol(d=8, scramble=True, seed=seed)
            points = (2.0 * sampler.random(2**16) - 1.0) * half
            values = [evaluate_wigner(state, axes @ p) for p in points]
            estimates.append(volume * float(np.mean(values)))
        assert abs(np.mean(estimates) - 1.0) < 0.01

    def test_rejects_wrong_length(self):
        state = build_covariance(0.0, 0.0, NCParams(0.0, 0.0))
        with pytest.raises(DomainError):
            evaluate_wigner(state, np.zeros(4))

    def test_norm_field_matches_determinant(self):
        state = build_covariance(0.3, 0.4, NCParams(0.0, 0.0))
        assert state.norm == pytest.approx(
            1.0 / (math.pi**4 * math.sqrt(np.linalg.det(state.sigma))), rel=1e-13
        )

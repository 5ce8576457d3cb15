"""Tests for the partial-transpose machinery and state classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgauss import (
    DimensionError,
    NCParams,
    SingularMatrixError,
    build_covariance,
    build_darboux_map,
    classify,
    eval_point,
    family_form,
    nc_williamson_spectrum,
    verdict_from_invariants,
)
from ncgauss.core import BOUNDARY, block_diag, standard_symplectic_form
from ncgauss.phase_space import DarbouxMap, build_composite_form, build_planar_form
from ncgauss.separability import Verdict, primed_form
from oracles import mirror_reflection, partial_transpose_covariance, partial_transpose_map, random_spd

FIG_M, FIG_N = np.sqrt(2.0) / 6.0, 1.0 / 6.0
# Invariants for the verdict rule: the threshold, its neighbours, NaN and any float.
INVARIANTS = st.one_of(
    st.sampled_from([1.0 - BOUNDARY, np.nextafter(1.0 - BOUNDARY, 0.0), 1.0, 0.0, math.nan, math.inf]),
    st.floats(),
)


def _family(theta, eta, m=FIG_M, n=FIG_N, lam=1.0):
    nc = NCParams(theta, eta)
    return build_covariance(m, n), family_form(nc), build_darboux_map(nc, lambda_scale=lam)


class TestMirrorReflection:
    def test_single_mode_parties(self):
        refl = mirror_reflection(1, 1)
        np.testing.assert_array_equal(refl.mat, np.diag([1.0, 1.0, 1.0, -1.0]))

    def test_two_mode_parties(self):
        refl = mirror_reflection(2, 2)
        np.testing.assert_array_equal(
            refl.mat, np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
        )

    def test_squares_to_identity(self):
        refl = mirror_reflection(2, 3)
        np.testing.assert_array_equal(refl.mat @ refl.mat, np.eye(10))

    def test_antisymplectic_on_bob(self):
        refl = mirror_reflection(2, 2)
        jay = block_diag(standard_symplectic_form(2), standard_symplectic_form(2))
        expected = block_diag(standard_symplectic_form(2), -standard_symplectic_form(2))
        np.testing.assert_array_equal(refl.mat @ jay @ refl.mat, expected)

    def test_rejects_zero_modes(self):
        with pytest.raises(DimensionError):
            mirror_reflection(0, 1)


class TestPrimedForm:
    def test_commutative_flips_bob(self):
        form = build_composite_form(
            build_planar_form(NCParams(0.0, 0.0)), build_planar_form(NCParams(0.0, 0.0))
        )
        expected = block_diag(standard_symplectic_form(2), -standard_symplectic_form(2))
        np.testing.assert_array_equal(primed_form(form), expected)

    def test_matches_mirror_route_at_zero_deformation(self):
        _, form, _ = _family(0.0, 0.0)
        refl = mirror_reflection(2, 2).mat
        via_mirror = np.linalg.inv(refl) @ form.assembled @ np.linalg.inv(refl.T)
        np.testing.assert_allclose(primed_form(form), via_mirror, atol=1e-15)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_matches_transpose_map_route(self, lam):
        # Direct product D^-1 Omega D^-T must equal Diag[Omega_A, -Omega_B]
        # for any gauge of the block-diagonal map.
        _, form, dmap = _family(0.25, 0.5, lam=lam)
        dmat = partial_transpose_map(dmap, 2, 2).mat
        via_map = np.linalg.inv(dmat) @ form.assembled @ np.linalg.inv(dmat.T)
        np.testing.assert_allclose(primed_form(form), via_map, atol=1e-10)


class TestPartialTransposeMap:
    def test_identity_map_gives_mirror(self):
        dmap = DarbouxMap(np.eye(4), np.eye(4), np.eye(8))
        pt = partial_transpose_map(dmap, 2, 2)
        np.testing.assert_array_equal(pt.mat, mirror_reflection(2, 2).mat)

    def test_involutive(self):
        _, _, dmap = _family(0.25, 0.5)
        pt = partial_transpose_map(dmap, 2, 2)
        assert np.max(np.abs(pt.mat @ pt.mat - np.eye(8))) <= 1e-10

    def test_alice_block_is_identity(self):
        _, _, dmap = _family(0.7, 0.2, lam=1.4)
        pt = partial_transpose_map(dmap, 2, 2)
        np.testing.assert_array_equal(pt.mat[:4, :4], np.eye(4))
        np.testing.assert_array_equal(pt.mat[:4, 4:], np.zeros((4, 4)))

    def test_rejects_singular_bob_block(self):
        dmap = DarbouxMap(
            s_a=np.eye(4), s_b=np.zeros((4, 4)), assembled=block_diag(np.eye(4), np.zeros((4, 4)))
        )
        with pytest.raises(SingularMatrixError):
            partial_transpose_map(dmap, 2, 2)

    def test_rejects_mismatched_modes(self):
        _, _, dmap = _family(0.25, 0.5)
        with pytest.raises(DimensionError):
            partial_transpose_map(dmap, 1, 2)


class TestPartialTransposeCovariance:
    def test_alice_block_preserved(self):
        rng = np.random.default_rng(21)
        sigma = block_diag(random_spd(rng, 4), random_spd(rng, 4))
        _, _, dmap = _family(0.25, 0.5)
        pt = partial_transpose_map(dmap, 2, 2)
        out = partial_transpose_covariance(sigma, pt)
        np.testing.assert_allclose(out[:4, :4], sigma[:4, :4], atol=1e-12)

    def test_involution_recovers_input(self):
        sigma, _, dmap = _family(0.25, 0.5)
        pt = partial_transpose_map(dmap, 2, 2)
        once = partial_transpose_covariance(sigma, pt)
        twice = partial_transpose_covariance(once, pt)
        np.testing.assert_allclose(twice, sigma, atol=1e-10)

    def test_commutative_mirror_flips_momentum_couplings(self):
        # With D = Lambda the reflected covariance is the direct product
        # Lambda Sigma Lambda.
        sigma, _, dmap = _family(0.0, 0.0)
        pt = partial_transpose_map(dmap, 2, 2)
        refl = mirror_reflection(2, 2).mat
        np.testing.assert_allclose(
            partial_transpose_covariance(sigma, pt),
            refl @ sigma @ refl.T,
            atol=1e-14,
        )


class TestCheckSeparable:
    def test_commutative_half(self):
        sigma, form, _ = _family(0.0, 0.0, m=0.3, n=0.4)
        result = classify(sigma, form)
        assert result.verdict is Verdict.SEPARABLE_QUANTUM
        assert result.nu_minus_prime == pytest.approx(1.5, rel=1e-10)

    def test_commutative_tenth(self):
        sigma, form, _ = _family(0.0, 0.0, m=0.06, n=0.08)
        result = classify(sigma, form)
        assert result.verdict is Verdict.SEPARABLE_QUANTUM
        assert result.nu_minus_prime == pytest.approx(1.1, rel=1e-10)

    def test_momentum_deformation_slice_agrees_with_closed_form(self):
        sigma, form, _ = _family(0.0, 0.5)
        result = classify(sigma, form)
        closed = eval_point(0.0, 0.5, FIG_M, FIG_N)
        assert result.nu_minus_prime == pytest.approx(closed.nu_minus_prime, rel=1e-8)
        assert result.nu_minus_prime == pytest.approx(1.0395845604909313, rel=1e-8)
        # just above the nu' = 1 threshold
        assert result.verdict is Verdict.SEPARABLE_QUANTUM

    def test_routes_agree(self):
        # (Sigma', Omega) and (Sigma, Omega') must give the same full spectrum.
        sigma, form, dmap = _family(0.9, 0.4, lam=0.8)
        pt = partial_transpose_map(dmap, 2, 2)
        reflected = partial_transpose_covariance(sigma, pt)
        spec_a = nc_williamson_spectrum(reflected, form.assembled)
        spec_b = nc_williamson_spectrum(sigma, primed_form(form))
        np.testing.assert_allclose(spec_a, spec_b, rtol=1e-9)

    def test_gauge_invariance_of_nu_prime(self):
        sigma, form, _ = _family(0.6, 0.7)
        spectra = []
        for lam in (0.4, 1.0, 2.5):
            dmap = build_darboux_map(NCParams(0.6, 0.7), lambda_scale=lam)
            reflected = partial_transpose_covariance(sigma, partial_transpose_map(dmap, 2, 2))
            spectra.append(nc_williamson_spectrum(reflected, form.assembled))
        np.testing.assert_allclose(spectra, [spectra[0]] * 3, rtol=1e-9)
        nu_prime = classify(sigma, form).nu_minus_prime
        assert spectra[0][0] == pytest.approx(nu_prime, rel=1e-9)


class TestClassify:
    def test_subvacuum_is_nonquantum(self):
        _, form, _ = _family(0.0, 0.0)
        result = classify(0.25 * np.eye(8), form)
        assert result.verdict is Verdict.NON_QUANTUM
        assert result.nu_minus == pytest.approx(0.5, rel=1e-12)

    def test_commutative_family_is_separable(self):
        sigma, form, _ = _family(0.0, 0.0, m=0.3, n=0.4)
        result = classify(sigma, form)
        assert result.verdict is Verdict.SEPARABLE_QUANTUM
        assert result.nu_minus == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, rel=1e-10)
        assert result.nu_minus_prime == pytest.approx(1.5, rel=1e-10)

    def test_momentum_deformation_entangles(self):
        # Between the nu'=1 crossing (~0.59) and the nu=1 crossing (~0.95).
        sigma, form, _ = _family(0.0, 0.7704)
        result = classify(sigma, form)
        assert result.verdict is Verdict.ENTANGLED_QUANTUM
        assert result.nu_minus >= 1.0
        assert result.nu_minus_prime < 1.0

    def test_boundary_state_counts_as_separable(self):
        # m = n = 0 at zero deformation saturates nu = nu' = 1; ties resolve
        # toward >=.
        sigma, form, _ = _family(0.0, 0.0, m=0.0, n=0.0)
        result = classify(sigma, form)
        assert result.verdict is Verdict.SEPARABLE_QUANTUM
        assert result.nu_minus == pytest.approx(1.0, abs=1e-12)
        assert result.nu_minus_prime == pytest.approx(1.0, abs=1e-12)

    def test_commutative_limit_never_entangled(self):
        rng = np.random.default_rng(31)
        _, form, _ = _family(0.0, 0.0)
        for radius in np.linspace(0.0, 0.9, 10):
            angle = rng.uniform(0.0, np.pi / 2.0)
            sigma = build_covariance(radius * np.cos(angle), radius * np.sin(angle))
            result = classify(sigma, form)
            assert result.verdict is Verdict.SEPARABLE_QUANTUM


class TestVerdictRule:
    EDGE = 1.0 - BOUNDARY  # the smallest invariant that still counts as >= 1

    def test_quantum_threshold(self):
        assert verdict_from_invariants(self.EDGE, 2.0) is Verdict.SEPARABLE_QUANTUM
        assert verdict_from_invariants(np.nextafter(self.EDGE, 0.0), 2.0) is Verdict.NON_QUANTUM

    def test_separable_threshold(self):
        assert verdict_from_invariants(2.0, self.EDGE) is Verdict.SEPARABLE_QUANTUM
        assert verdict_from_invariants(2.0, np.nextafter(self.EDGE, 0.0)) is Verdict.ENTANGLED_QUANTUM

    @pytest.mark.parametrize("pair", [(math.nan, math.nan), (math.nan, 2.0), (math.nan, 0.5),
                                      (2.0, math.nan), (0.5, math.nan)])
    def test_nan_in_either_slot_is_invalid(self, pair):
        assert verdict_from_invariants(*pair) is Verdict.INVALID_DOMAIN

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(INVARIANTS, INVARIANTS), max_size=12))
    def test_arrays_equal_elementwise_floats(self, pairs):
        nu, nu_prime = np.array(pairs, dtype=float).reshape(-1, 2).T
        verdicts = verdict_from_invariants(nu, nu_prime)
        assert verdicts.shape == nu.shape
        assert verdicts.tolist() == [verdict_from_invariants(x, y) for x, y in pairs]

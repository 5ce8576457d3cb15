"""Tests for the partial-transpose machinery and state classification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgauss import (
    DimensionError,
    MatrixStructureError,
    NCParams,
    NotPositiveDefiniteError,
    build_covariance,
    build_darboux_map,
    build_planar_form,
    classify,
    eval_point,
    nc_williamson_spectrum,
    verdict_from_invariants,
)
from ncgauss.core import block_diag, build_subsystem_form, primed_form, standard_symplectic_form
from ncgauss.kernel import BOUNDARY, Verdict
from oracles import (
    admissible_float_points,
    darboux_map,
    generic_tolerance,
    mirror_reflection,
    partial_transpose_covariance,
    partial_transpose_map,
    random_spd,
    random_symplectic,
)

FIG_M, FIG_N = np.sqrt(2.0) / 6.0, 1.0 / 6.0
DBL_MAX = float(np.finfo(float).max)
# Invariants for the verdict rule: the threshold, its neighbours, NaN and any float.
INVARIANTS = st.one_of(
    st.sampled_from([1.0 - BOUNDARY, np.nextafter(1.0 - BOUNDARY, 0.0), 1.0, 0.0, math.nan, math.inf]),
    st.floats(),
)


def _family(theta, eta, m=FIG_M, n=FIG_N, lam=1.0):
    """Sigma, the party form P and the 8x8 Darboux map of the family at one point."""
    nc = NCParams(theta, eta)
    return build_covariance(m, n), build_planar_form(nc), build_darboux_map(nc, lambda_scale=lam)


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
        part = build_planar_form(NCParams(0.0, 0.0))
        expected = block_diag(standard_symplectic_form(2), -standard_symplectic_form(2))
        np.testing.assert_array_equal(primed_form(part, part), expected)

    def test_unequal_parties_flip_bob_only(self):
        jay_a, jay_b = standard_symplectic_form(1), standard_symplectic_form(3)
        np.testing.assert_array_equal(primed_form(jay_a, jay_b), block_diag(jay_a, -jay_b))

    def test_matches_mirror_route_at_zero_deformation(self):
        _, part, _ = _family(0.0, 0.0)
        refl = mirror_reflection(2, 2).mat
        via_mirror = np.linalg.inv(refl) @ block_diag(part, part) @ np.linalg.inv(refl.T)
        np.testing.assert_allclose(primed_form(part, part), via_mirror, atol=1e-15)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_matches_transpose_map_route(self, lam):
        # Direct product D^-1 Omega D^-T must equal Diag[Omega_A, -Omega_B]
        # for any gauge of the block-diagonal map.
        _, part, dmap = _family(0.25, 0.5, lam=lam)
        dmat = partial_transpose_map(dmap, 2, 2).mat
        via_map = np.linalg.inv(dmat) @ block_diag(part, part) @ np.linalg.inv(dmat.T)
        np.testing.assert_allclose(primed_form(part, part), via_map, atol=1e-10)


class TestPartialTransposeMap:
    def test_identity_map_gives_mirror(self):
        pt = partial_transpose_map(np.eye(8), 2, 2)
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
        with pytest.raises(np.linalg.LinAlgError):
            partial_transpose_map(block_diag(np.eye(4), np.zeros((4, 4))), 2, 2)

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
        sigma, part, _ = _family(0.0, 0.0, m=0.3, n=0.4)
        result = classify(sigma, part, part)
        assert result.verdict is Verdict.SEPARABLE_QUANTUM
        assert result.nu_minus_prime == pytest.approx(1.5, rel=1e-10)

    def test_commutative_tenth(self):
        sigma, part, _ = _family(0.0, 0.0, m=0.06, n=0.08)
        result = classify(sigma, part, part)
        assert result.verdict is Verdict.SEPARABLE_QUANTUM
        assert result.nu_minus_prime == pytest.approx(1.1, rel=1e-10)

    def test_momentum_deformation_slice_agrees_with_closed_form(self):
        sigma, part, _ = _family(0.0, 0.5)
        result = classify(sigma, part, part)
        closed = eval_point(0.0, 0.5, FIG_M, FIG_N)
        assert result.nu_minus_prime == pytest.approx(closed.nu_minus_prime, rel=1e-8)
        assert result.nu_minus_prime == pytest.approx(1.0395845604909313, rel=1e-8)
        # just above the nu' = 1 threshold
        assert result.verdict is Verdict.SEPARABLE_QUANTUM

    def test_routes_agree(self):
        # (Sigma', Omega) and (Sigma, Omega') must give the same full spectrum.
        sigma, part, dmap = _family(0.9, 0.4, lam=0.8)
        pt = partial_transpose_map(dmap, 2, 2)
        reflected = partial_transpose_covariance(sigma, pt)
        spec_a = nc_williamson_spectrum(reflected, block_diag(part, part))
        spec_b = nc_williamson_spectrum(sigma, primed_form(part, part))
        np.testing.assert_allclose(spec_a, spec_b, rtol=1e-9)

    def test_gauge_invariance_of_nu_prime(self):
        sigma, part, _ = _family(0.6, 0.7)
        spectra = []
        for lam in (0.4, 1.0, 2.5):
            dmap = build_darboux_map(NCParams(0.6, 0.7), lambda_scale=lam)
            reflected = partial_transpose_covariance(sigma, partial_transpose_map(dmap, 2, 2))
            spectra.append(nc_williamson_spectrum(reflected, block_diag(part, part)))
        np.testing.assert_allclose(spectra, [spectra[0]] * 3, rtol=1e-9)
        nu_prime = classify(sigma, part, part).nu_minus_prime
        assert spectra[0][0] == pytest.approx(nu_prime, rel=1e-9)


class TestClassify:
    def test_subvacuum_is_nonquantum(self):
        _, part, _ = _family(0.0, 0.0)
        result = classify(0.25 * np.eye(8), part, part)
        assert result.verdict is Verdict.NON_QUANTUM
        assert result.nu_minus == pytest.approx(0.5, rel=1e-12)

    def test_commutative_family_is_separable(self):
        sigma, part, _ = _family(0.0, 0.0, m=0.3, n=0.4)
        result = classify(sigma, part, part)
        assert result.verdict is Verdict.SEPARABLE_QUANTUM
        assert result.nu_minus == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, rel=1e-10)
        assert result.nu_minus_prime == pytest.approx(1.5, rel=1e-10)

    def test_momentum_deformation_entangles(self):
        # Between the nu'=1 crossing (~0.59) and the nu=1 crossing (~0.95).
        sigma, part, _ = _family(0.0, 0.7704)
        result = classify(sigma, part, part)
        assert result.verdict is Verdict.ENTANGLED_QUANTUM
        assert result.nu_minus >= 1.0
        assert result.nu_minus_prime < 1.0

    def test_boundary_state_counts_as_separable(self):
        # m = n = 0 at zero deformation saturates nu = nu' = 1; ties resolve
        # toward >=.
        sigma, part, _ = _family(0.0, 0.0, m=0.0, n=0.0)
        result = classify(sigma, part, part)
        assert result.verdict is Verdict.SEPARABLE_QUANTUM
        assert result.nu_minus == pytest.approx(1.0, abs=1e-12)
        assert result.nu_minus_prime == pytest.approx(1.0, abs=1e-12)

    def test_commutative_limit_never_entangled(self):
        rng = np.random.default_rng(31)
        _, part, _ = _family(0.0, 0.0)
        for radius in np.linspace(0.0, 0.9, 10):
            angle = rng.uniform(0.0, np.pi / 2.0)
            sigma = build_covariance(radius * np.cos(angle), radius * np.sin(angle))
            result = classify(sigma, part, part)
            assert result.verdict is Verdict.SEPARABLE_QUANTUM


class TestGenericRoute:
    @pytest.mark.parametrize("m,n", [(0.0, 0.0), (0.3, -0.2)])
    def test_answers_at_the_largest_float(self, m, n):
        part = build_planar_form(NCParams(DBL_MAX, 0.0))
        result, record = classify(build_covariance(m, n), part, part), eval_point(DBL_MAX, 0.0, m, n)
        bound = generic_tolerance(m, n)
        for got, want in ((result.nu_minus, record.nu_minus), (result.nu_minus_prime, record.nu_minus_prime)):
            assert abs(got - want) <= bound * want + 2.0**-1074
        assert result.verdict is record.verdict is Verdict.NON_QUANTUM

    def test_reach_ends_where_sigma_cannot_be_certified(self):
        # cond(Sigma) = (1+R)/(1-R) meets 1/(8 eps) = 5.6e14 near 1 - R = 3.55e-15, the reach of the
        # positivity test: beyond it build_covariance says Sigma cannot be certified positive-definite,
        # not that it is indefinite. eval_point answers on both sides.
        part = build_planar_form(NCParams(0.25, 0.5))
        with pytest.raises(NotPositiveDefiniteError, match="cannot be certified positive-definite"):
            build_covariance(1.0 - 3e-15, 0.0)
        assert eval_point(0.25, 0.5, 1.0 - 3e-15, 0.0).verdict is Verdict.SEPARABLE_QUANTUM
        m = 1.0 - 4e-15
        result, record = classify(build_covariance(m, 0.0), part, part), eval_point(0.25, 0.5, m, 0.0)
        bound = generic_tolerance(m, 0.0)
        for got, want in ((result.nu_minus, record.nu_minus), (result.nu_minus_prime, record.nu_minus_prime)):
            assert abs(got - want) <= bound * want
        assert result.verdict is record.verdict is Verdict.SEPARABLE_QUANTUM

    @settings(max_examples=300, deadline=None)
    @given(point=admissible_float_points(min_log_slack=-12.0))
    @example(point=(1.6224516419599106e-162, math.ldexp(1.37, 536), 0.0, 0.0))  # graded for eigvalsh
    @example(point=(1.4601686716764242e-162, 6.848523868485537e161, -0.0, 0.3))
    @example(point=(DBL_MAX, 0.0, -0.3, 0.2))
    @example(point=(0.5, 0.5, 0.999999999999, 0.0))
    def test_matches_the_closed_forms_over_the_float_range(self, point):
        # classify on the family's Sigma and planar forms gives eval_point's invariants within the
        # generic route's bound, with no warning, and its verdict wherever both invariants lie
        # outside that bound from 1.
        theta, eta, m, n = point
        part = build_planar_form(NCParams(theta, eta))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = classify(build_covariance(m, n), part, part)
        record = eval_point(theta, eta, m, n)
        bound = generic_tolerance(m, n)
        pairs = ((result.nu_minus, record.nu_minus), (result.nu_minus_prime, record.nu_minus_prime))
        for got, want in pairs:
            assert abs(got - want) <= bound * want + 2.0**-1074
        if all(abs(want - 1.0) > bound * want for _, want in pairs):
            assert result.verdict is record.verdict


def _party_form(rng, n_modes, deformed):
    """The standard form of n_modes, or a deformed one with random skew Theta and Upsilon."""
    if not deformed:
        return standard_symplectic_form(n_modes)
    theta, upsilon = (0.3 * (a - a.T) for a in rng.normal(size=(2, n_modes, n_modes)))
    return build_subsystem_form(theta, upsilon)


class TestUnequalBipartitions:
    @pytest.mark.parametrize("deformed", [False, True])
    @pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 2), (2, 1), (1, 3)])
    def test_nu_prime_is_the_mirror_reflected_spectrum(self, n_a, n_b, deformed):
        # In commuting variables Sigma~ = S^-1 Sigma S^-T, S = Diag[S_A, S_B] with S J S^T = Omega,
        # partial transposition is the mirror reflection of Bob's momenta. Each state is
        # S M Diag[nu/2, nu/2] M^T S^T with M a random symplectic map: nu_k in [0.96, 2], mixed
        # by M across the parties; for 1xN modes PPT is also sufficient for separability.
        rng = np.random.default_rng(100 * n_a + 10 * n_b + deformed)
        jay = block_diag(standard_symplectic_form(n_a), standard_symplectic_form(n_b))
        refl = mirror_reflection(n_a, n_b).mat
        verdicts = set()
        for _ in range(24):
            omega_a, omega_b = _party_form(rng, n_a, deformed), _party_form(rng, n_b, deformed)
            darboux = block_diag(darboux_map(omega_a), darboux_map(omega_b))
            mixer = darboux @ random_symplectic(rng, jay, scale=rng.uniform(0.0, 0.4))
            sigma = mixer @ np.diag(np.tile(rng.uniform(0.48, 1.0, n_a + n_b), 2)) @ mixer.T
            result = classify(0.5 * (sigma + sigma.T), omega_a, omega_b)
            inverse = np.linalg.inv(darboux)
            tilde = inverse @ sigma @ inverse.T
            tilde = 0.5 * (tilde + tilde.T)
            assert result.nu_minus == pytest.approx(nc_williamson_spectrum(tilde, jay)[0], rel=1e-9)
            reflected = nc_williamson_spectrum(refl @ tilde @ refl, jay)
            assert result.nu_minus_prime == pytest.approx(reflected[0], rel=1e-9)
            assert result.verdict is verdict_from_invariants(result.nu_minus, result.nu_minus_prime)
            verdicts.add(result.verdict)
        assert {Verdict.ENTANGLED_QUANTUM, Verdict.SEPARABLE_QUANTUM} <= verdicts

    def test_darboux_oracle_reproduces_the_form(self):
        rng = np.random.default_rng(7)
        for n_modes in (1, 2, 3):
            form = _party_form(rng, n_modes, deformed=True)
            s = darboux_map(form)
            np.testing.assert_allclose(s @ standard_symplectic_form(n_modes) @ s.T, form, atol=1e-12)

    @pytest.mark.parametrize("bad,error", [
        (np.zeros((2, 3)), DimensionError),  # non-square
        (np.zeros((3, 3)), DimensionError),  # odd dimension
        (np.eye(2), MatrixStructureError),  # not skew
        (np.ones(2), DimensionError),  # 1-D
    ])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_malformed_party_form_raises(self, bad, error, slot):
        # primed_form checks each party as classify does: it once turned a 1-D party into a
        # block of -1s and passed a non-skew one.
        parts = [standard_symplectic_form(1), standard_symplectic_form(1)]
        parts[slot] = bad
        for call in (lambda: classify(np.eye(4), *parts), lambda: primed_form(*parts)):
            with pytest.raises(error):
                call()

    def test_parties_must_match_the_covariance(self):
        with pytest.raises(DimensionError):
            classify(np.eye(4), standard_symplectic_form(1), standard_symplectic_form(2))


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
        codes = verdict_from_invariants(nu, nu_prime)
        assert codes.shape == nu.shape and np.issubdtype(codes.dtype, np.integer)
        assert [tuple(Verdict)[code] for code in codes] == [verdict_from_invariants(x, y) for x, y in pairs]

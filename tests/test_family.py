"""Tests for the explicit Gaussian family: covariance, closed forms, spectra."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ncgauss import (
    DomainError,
    NCParams,
    build_covariance,
    build_planar_form,
    nc_williamson_spectrum,
)
from ncgauss import kernel
from ncgauss.cli import main
from ncgauss.core import block_diag, inverse_root
from ncgauss.family import (
    _covariance_matrix,
    _inverse_root,
    _root_spectrum,
    dense_spectra,
    family_invariants,
    family_spectra,
)
from ncgauss.kernel import inverse_scale, point_invariants
from ncgauss.scan import eval_point
from ncgauss.separability import primed_form
from oracles import (
    admissible_float_points,
    closed_tolerance,
    dense_point,
    dense_tolerance,
    int64_split_deficit,
    mp_closed_forms,
    mp_spectra,
)

FIG_M, FIG_N = np.sqrt(2.0) / 6.0, 1.0 / 6.0
EPS = float(np.finfo(float).eps)
DBL_MAX = float(np.finfo(float).max)
SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))


class TestBuildCovariance:
    def test_derived_scale(self):
        # R = 0.5 and b = (1+R)/(1-R) = 3: the diagonal is b/2.
        sigma = build_covariance(0.3, 0.4)
        assert eval_point(0.0, 0.0, 0.3, 0.4).r == pytest.approx(0.5, rel=1e-14)
        np.testing.assert_allclose(np.diag(sigma), 1.5, rtol=1e-14)

    def test_figure_slice_has_scaled_radius(self):
        # n = R/3, m = sqrt(2) R/3 places the state at radius R/sqrt(3).
        sigma = build_covariance(FIG_M, FIG_N)
        assert eval_point(0.0, 0.0, FIG_M, FIG_N).r == pytest.approx(0.5 / np.sqrt(3.0), rel=1e-14)
        np.testing.assert_allclose(np.diag(sigma), 1.8116548391159553 / 2.0, rtol=1e-12)

    def test_uncoupled_is_half_identity(self):
        np.testing.assert_array_equal(build_covariance(0.0, 0.0), 0.5 * np.eye(8))

    def test_block_pattern(self):
        m, n = FIG_M, FIG_N
        r = math.hypot(m, n)
        b = (1.0 + r) / (1.0 - r)
        coupling = np.array(
            [
                [n, 0.0, m, 0.0],
                [0.0, n, 0.0, -m],
                [m, 0.0, -n, 0.0],
                [0.0, -m, 0.0, -n],
            ]
        )
        expected = b / 2.0 * np.block([[np.eye(4), coupling.T], [coupling, np.eye(4)]])
        np.testing.assert_allclose(build_covariance(m, n), expected, rtol=0, atol=0)

    def test_positive_definite_across_radii(self):
        rng = np.random.default_rng(13)
        for radius in np.arange(0.1, 1.0, 0.1):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            sigma = build_covariance(radius * np.cos(angle), radius * np.sin(angle))
            assert np.linalg.eigvalsh(sigma)[0] > 0

    def test_returns_readonly(self):
        sigma = build_covariance(FIG_M, FIG_N)
        with pytest.raises(ValueError):
            sigma[0, 0] = 2.0

    def test_rejects_radius_at_one(self):
        for m, n in [(1.0, 0.0), (0.8, 0.6)]:
            with pytest.raises(DomainError):
                build_covariance(m, n)


class TestInverseRoot:
    @settings(max_examples=200, deadline=None)
    @given(
        log_slack=st.floats(min_value=-12.0, max_value=0.0),
        angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    @example(log_slack=0.0, angle=0.0)  # R = 0
    @example(log_slack=-12.0, angle=2.0)
    def test_inverts_sigma_and_matches_eigh_in_every_quadrant(self, log_slack, angle):
        # R = 1 - 10^log_slack. Both bounds are in units of eps (1 + b), b = (1+R)/(1-R) = cond(Sigma).
        # S Sigma S is two 8-term products: 16 eps ||S||^2 ||Sigma|| = 16 eps b normwise, and the few
        # roundings in each entry of S and Sigma add about as much again; the rounded R moves it by
        # eps/(1-R) < eps b. eigh's root holds its smaller eigenvalue b(1-R)/2 = (1+R)/2 to about
        # 8 eps ||Sigma||, so its entries are good to about 4 eps b max|S|, and 8 eps max|S| more
        # from assembling (V / sqrt(w)) V^T.
        radius = 1.0 - 10.0**log_slack
        m, n = radius * math.cos(angle), radius * math.sin(angle)
        r = math.hypot(m, n)
        b = (1.0 + r) / (1.0 - r)
        sigma = _covariance_matrix(m, n, b)
        root = _inverse_root(m, n, r)
        unit = EPS * (1.0 + b)
        assert np.array_equal(root, root.T)
        assert abs(root @ sigma @ root - np.eye(8)).max() <= 32.0 * unit
        assert abs(root - inverse_root(sigma)[0]).max() <= 16.0 * unit * abs(root).max()

    def test_uncoupled_root_is_exactly_sqrt2_identity(self):
        for m, n in [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)]:
            assert np.array_equal(_inverse_root(m, n, math.hypot(m, n)), math.sqrt(2.0) * np.eye(8))

    def test_dense_route_takes_no_eigh(self, monkeypatch):
        # Sigma^-1/2 is in closed form: dense_spectra, also at one point as eval --verbose calls
        # it, runs one eigvalsh and no eigh.
        def forbidden(*args, **kwargs):
            raise AssertionError("eigh on the family's dense route")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        spectrum, reflected = dense_spectra([0.0, 0.3, 1.5], [0.5, 0.5, 0.5], -0.3, 0.2)
        assert np.isfinite(spectrum).all() and np.isfinite(reflected).all()
        for m, n in SIGNS:
            assert dense_point(0.3, 0.5, 0.3 * m, 0.2 * n)[0] > 0.0


class TestClosedForms:
    @pytest.mark.parametrize(
        "radius,m,n", [(0.1, 0.06, 0.08), (0.2, 0.12, 0.16), (0.5, 0.3, 0.4)]
    )
    def test_commutative_limit_formulas(self, radius, m, n):
        result = eval_point(0.0, 0.0, m, n)
        assert result.nu_minus == pytest.approx(
            (1.0 + radius) ** 1.5 / (1.0 - radius) ** 0.5, abs=1e-10
        )
        assert result.nu_minus_prime == pytest.approx(1.0 + radius, abs=1e-10)

    def test_commutative_limit_across_radii(self):
        rng = np.random.default_rng(17)
        for radius in rng.uniform(0.0, 0.95, size=25):
            angle = rng.uniform(0.0, np.pi / 2.0)
            result = eval_point(0.0, 0.0, radius * np.cos(angle), radius * np.sin(angle))
            assert result.nu_minus == pytest.approx(
                (1.0 + radius) ** 1.5 / (1.0 - radius) ** 0.5, abs=1e-10
            )
            assert result.nu_minus_prime == pytest.approx(1.0 + radius, abs=1e-10)

    def test_saturation_at_zero_radius(self):
        result = eval_point(0.0, 0.0, 0.0, 0.0)
        assert result.nu_minus == pytest.approx(1.0, abs=1e-12)
        assert result.nu_minus_prime == pytest.approx(1.0, abs=1e-12)

    def test_figure_point_matches_spectral_route(self):
        sigma, part = build_covariance(FIG_M, FIG_N), build_planar_form(NCParams(0.25, 0.5))
        result = eval_point(0.25, 0.5, FIG_M, FIG_N)
        nu_spectral = nc_williamson_spectrum(sigma, block_diag(part, part))[0]
        nu_prime_spectral = nc_williamson_spectrum(sigma, primed_form(part, part))[0]
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
            sigma, part = build_covariance(m, n), build_planar_form(NCParams(theta, eta))
            result = eval_point(theta, eta, m, n)
            omega = block_diag(part, part)
            assert result.nu_minus == pytest.approx(nc_williamson_spectrum(sigma, omega)[0], rel=1e-8)
            assert result.nu_minus_prime == pytest.approx(
                nc_williamson_spectrum(sigma, primed_form(part, part))[0], rel=1e-8
            )
            checked += 1

    @settings(max_examples=400, deadline=None)
    @given(point=admissible_float_points())
    @example(point=(1e80, 0.0, 0.3, 0.2))
    @example(point=(1e80, 0.0, -0.3, 0.2))
    @example(point=(1e300, 1e-301, 0.3, 0.2))
    @example(point=(1e200, 0.0, 0.999999, 0.0))
    @example(point=(0.0, 1e250, 0.0, 0.9))
    @example(point=(1.7e308, 0.0, 0.3, 0.2))
    @example(point=(DBL_MAX, 0.0, 0.3, 0.2))
    @example(point=(DBL_MAX, 1.0 / DBL_MAX, -0.9999999999999999, 0.0))
    @example(point=(0.25, 0.5, 0.0, 0.0))  # R = 0: both pencils coincide
    def test_every_admissible_float_point_answers(self, point):
        # The kernel is total: every admissible point, theta and eta up to the largest float,
        # 1 - theta*eta and 1 - R down to 1e-16, in every quadrant, gets finite positive
        # invariants and a verdict, and nu_-, nu'_- stay within closed_tolerance of the
        # closed forms at 50 digits. A result below the smallest normal float is rounded to
        # the subnormal grid, whose spacing is 2^-1074: half of it is the last term.
        mpmath = pytest.importorskip("mpmath")
        theta, eta, m, n = point
        nu, nu_prime = (float(v[0]) for v in family_invariants([theta], [eta], m, n))
        record = eval_point(theta, eta, m, n)
        assert record.verdict != "invalid"
        assert (record.nu_minus, record.nu_minus_prime) == (nu, nu_prime)
        spectrum, reflected = family_spectra([theta], [eta], m, n)
        for got in (nu, nu_prime, *spectrum[0, :2], *reflected[0, :2]):
            assert 0.0 < got < math.inf
        bound = closed_tolerance(m, n)
        for got, want in zip((nu, nu_prime), mp_closed_forms(theta, eta, m, n)):
            assert abs(mpmath.mpf(got) - want) <= bound * want + mpmath.mpf(2) ** -1075

    @pytest.mark.parametrize("theta,eta", [(0.0, 0.0), (0.25, 0.5), (3.0, 0.2), (0.0, 0.9), (1.0, 0.9999999999999999)])
    @pytest.mark.parametrize("m,n", [(0.3, 0.2), (-0.3, 0.2), (-0.3, -0.2), (0.999999, 0.0), (0.0, -0.9)])
    def test_closed_form_oracle_matches_the_spectra(self, theta, eta, m, n):
        # The property above checks against mp_closed_forms, which holds at any float point;
        # here that oracle meets the 8x8 spectra in mpmath where both apply.
        mpmath = pytest.importorskip("mpmath")
        spectrum, reflected = mp_spectra(theta, eta, m, n, dps=60)
        for got, want in zip(mp_closed_forms(theta, eta, m, n), (spectrum[0], reflected[0])):
            assert abs(got - want) <= mpmath.mpf(10) ** -40 * want

    def test_bits_next_to_the_old_overflow_are_kept(self):
        # Beyond 2^200 the kernel runs on theta/k and eta/k, k a power of two, and divides
        # by k exactly: at theta = 1e76, where the unscaled forms still answered, every bit stays.
        nu, nu_prime = family_invariants([1e76], [1e-77], 0.5, -0.4)
        assert (nu[0], nu_prime[0]) == (1.9218748910618357e-76, 2.9357123881752905e-76)

    @pytest.mark.parametrize("m,n", [(0.3, 0.2), (-0.9999999, 0.0001)])
    def test_veltkamps_split_keeps_the_int64_splits_bits(self, monkeypatch, m, n):
        # The kernel once cut Dekker's halves by masking the int64 view (oracles.int64_split_deficit).
        # Veltkamp's split is plain arithmetic, so one text runs on floats too, and no array bit of
        # nu_- or nu'_- changes, near the hyperbola and over the whole float range. The deficit
        # itself changes only where the mask's low halves of 27 bits made Dekker's last product
        # round: there the new one is 1 - theta*eta correctly rounded and the old one is not, and
        # only the larger fig1 invariants, which divide by c, move, within the fig1 bound of mpmath.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(59)
        size = 20000
        thetas = np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(-1074, 1024, size))
        thetas[: size // 2] = rng.uniform(0.5, 2.0, size // 2)
        with np.errstate(over="ignore"):
            etas = (1.0 - 2.0 ** -rng.uniform(0.0, 53.0, size)) / thetas
        for _ in range(3):  # a few ulps closer to the hyperbola
            etas = np.where(rng.random(size) < 0.5, np.nextafter(etas, 0.0), etas)
        keep = (etas < math.inf) & (thetas * etas < 1.0)
        thetas, etas = thetas[keep], etas[keep]
        swap = rng.random(len(thetas)) < 0.5
        thetas, etas = np.where(swap, etas, thetas), np.where(swap, thetas, etas)
        big, small = np.maximum(thetas, etas), np.minimum(thetas, etas)
        unit = inverse_scale(big, np)
        new = kernel._deficit(big * unit, small / unit)
        old = int64_split_deficit(thetas, etas)
        got = np.array(family_invariants(thetas, etas, m, n)), np.array(family_spectra(thetas, etas, m, n))
        monkeypatch.setattr(kernel, "_deficit", lambda big, small: int64_split_deficit(thetas, etas))
        want = np.array(family_invariants(thetas, etas, m, n)), np.array(family_spectra(thetas, etas, m, n))
        np.testing.assert_array_equal(got[0].view(np.int64), want[0].view(np.int64))
        np.testing.assert_array_equal(got[1][..., :2].view(np.int64), want[1][..., :2].view(np.int64))
        moved = np.flatnonzero(new.view(np.int64) != old.view(np.int64))
        assert 0 < len(moved) < len(thetas) // 50
        for k in moved.tolist():
            exact = float(1 - Fraction(thetas[k]) * Fraction(etas[k]))
            assert new[k] == exact != old[k]
        changed = np.flatnonzero((got[1] != want[1]).any(axis=(0, 2)))
        assert set(changed.tolist()) <= set(moved.tolist())
        checked = changed[big[changed] <= 2.0][:4]  # where the 8x8 mpmath route applies
        assert len(checked)
        for k in checked.tolist():
            expected = sum(mp_spectra(thetas[k], etas[k], m, n), [])
            errors = [abs(float((mpmath.mpf(g) - w) / w)) for g, w in zip(got[1][:, k].ravel(), expected)]
            assert max(errors) <= 8.0 * EPS * (1.0 + 1.0 / (1.0 - math.hypot(m, n)))

    def test_arrays_match_single_points_bit_for_bit(self):
        # Grids run the closed forms on arrays and single points (eval_point) on Python floats,
        # one kernel text with numpy's primitives or math's.
        # Odd 27-bit mantissas have squares that are exact rounding ties, where
        # x*x and pow(x, 2) often round apart: any such split between the two
        # paths shows here.
        rng = np.random.default_rng(43)
        mantissas = rng.integers(2**26, 2**27, size=(2, 1000)) | 1
        thetas, etas = mantissas[0] * 2.0**-27, mantissas[1] * 2.0**-26  # [0.5, 1) and [1, 2)
        nu, nu_prime = family_invariants(thetas, etas, FIG_M, FIG_N)
        assert np.isnan(nu).any() and not np.isnan(nu).all()
        for theta, eta, want, want_prime in zip(thetas, etas, nu, nu_prime):
            record = eval_point(theta, eta, FIG_M, FIG_N)
            if np.isnan(want):
                assert record.nu_minus is record.nu_minus_prime is None
            else:
                assert (record.nu_minus, record.nu_minus_prime) == (want, want_prime)

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)), min_size=1, max_size=6),
        radius=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        angle=st.floats(min_value=0.0, max_value=math.pi / 2.0),
        signs=st.sampled_from(SIGNS),
    )
    @example(points=[(0.25, 0.5), (2.0, 2.0)], radius=0.0, angle=0.0, signs=SIGNS[2])  # m = n = -0.0
    @example(points=[(1.0, 0.9999999999999999)], radius=0.36055512754639896, angle=0.5880026035475675,
             signs=SIGNS[1])
    # eval --theta 1e80 --eta 0 --m +-0.3 --n 0.2: this radius and angle give m, n = 0.3, 0.2 exactly.
    @example(points=[(1e80, 0.0)], radius=0.36055512754639896, angle=0.5880026035475676, signs=SIGNS[1])
    def test_signs_of_the_couplings_change_no_bit(self, points, radius, angle, signs):
        # family_invariants runs the kernel at (|m|, |n|) in every quadrant: on arrays and on
        # one point's floats (point_invariants), each sign pattern gives the bits of (|m|, |n|).
        thetas, etas = np.array(points).T
        m, n = radius * math.cos(angle), radius * math.sin(angle)
        assume(math.hypot(m, n) < 1.0)
        want = np.array(family_invariants(thetas, etas, m, n))
        signed = signs[0] * m, signs[1] * n
        got = np.array(family_invariants(thetas, etas, *signed))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for k, point in enumerate(points):
            one = np.array(point_invariants(*point, *signed))
            assert np.array_equal(one.view(np.int64), want[:, k].view(np.int64))

    @pytest.mark.parametrize("m,n", [(0.3, 0.2), (-0.3, 0.2), (-0.3, -0.2), (0.3, -0.2), (0.0, 0.0)])
    def test_dense_route_answers_up_to_the_largest_float(self, m, n):
        # The dense route divides each point's forms by the kernel's power of two and its
        # invariants by the same k, so S Omega S cannot overflow: at theta = 1.7e308 and at
        # the largest float it answers within dense_tolerance of the closed forms at 50 digits.
        # R = 0 gives Sigma^-1/2 its largest entries, sqrt 2. The invariants there are subnormal,
        # rounded to a grid of spacing 2^-1074: half of it is the last term.
        mpmath = pytest.importorskip("mpmath")
        thetas = [0.25, 1.7e308, DBL_MAX]
        spectrum, reflected = dense_spectra(thetas, [0.5, 0.0, 0.0], m, n)
        for k, theta in enumerate(thetas):
            eta = 0.5 if k == 0 else 0.0
            for got, want in zip((spectrum[k, 0], reflected[k, 0]), mp_closed_forms(theta, eta, m, n)):
                bound = dense_tolerance(theta, eta, m, n, float(want))
                assert abs(mpmath.mpf(got) - want) <= bound * want + mpmath.mpf(2) ** -1075

    @pytest.mark.parametrize("theta,eta,n", [(1.6224516419599106e-162, 3.08175594926209e161, 0.0),
                                             (1.633315037068751e-162, 6.122488320232443e161, 0.0),
                                             (1.4601686716764242e-162, 6.848523868485537e161, 0.3),
                                             (3.510276560392191e-163, 2.84877838767253e162, -0.9)])
    def test_dense_route_keeps_its_digits_on_graded_forms(self, theta, eta, n):
        # At m = 0 and eta near 1e162, S Omega S holds entries about 2^-540 of its largest, and
        # eigvalsh's root-free QR lost up to 1.7% of nu_-; the kernel now drops the entries below
        # 2^-400 of the largest first.
        mpmath = pytest.importorskip("mpmath")
        spectrum, reflected = dense_spectra([theta], [eta], 0.0, n)
        for got, want in zip((spectrum[0, 0], reflected[0, 0]), mp_closed_forms(theta, eta, 0.0, n)):
            assert abs(mpmath.mpf(got) - want) <= dense_tolerance(theta, eta, 0.0, n, float(want)) * want

    @pytest.mark.parametrize("m,n", [(0.3, 0.2), (-0.3, 0.2), (-0.3, -0.2), (0.3, -0.2)])
    def test_negative_couplings_give_the_smallest_invariants(self, m, n):
        # The invariants depend on |m| and |n|; at (-0.3, 0.2) nu'_- is 1.01788, where the
        # other Omega' pencil gives 1.6903.
        bound = closed_tolerance(m, n)
        result = eval_point(0.25, 0.5, m, n)
        spectrum, reflected = mp_spectra(0.25, 0.5, m, n)
        assert _relative_error(result.nu_minus, spectrum[0]) <= bound
        assert _relative_error(result.nu_minus_prime, reflected[0]) <= bound

    @settings(max_examples=100, deadline=None)
    @given(
        log_theta=st.floats(min_value=-4.0, max_value=3.0),
        log_gap=st.floats(min_value=-12.0, max_value=0.0),
        log_slack=st.floats(min_value=-12.0, max_value=0.0),
        angle=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=math.pi / 2.0)),
        signs=st.sampled_from(SIGNS),
    )
    # theta = eta = 0 with R = 0.9999999 exact: the direct 1 - R^2 lost 1.8e5 eps here.
    @example(log_theta=-math.inf, log_gap=0.0, log_slack=-7.0, angle=0.0, signs=SIGNS[0])
    # Both corners at once, with m < 0 and n = -0.0.
    @example(log_theta=-0.30103, log_gap=-12.0, log_slack=-12.0, angle=0.0, signs=SIGNS[2])
    def test_smallest_invariants_match_mpmath_as_r_nears_one(self, log_theta, log_gap, log_slack, angle, signs):
        # nu_- and nu'_- to 4 (eps + |r - R| / (1 - R)) of mpmath, in every quadrant, near the
        # hyperbola and as R -> 1. r = hypot(m, n) is rounded; no formula in r can undo the
        # |r - R| / (1 - R) that b = (1+R)/(1-R) makes of it. The reference's error is relative
        # to nu_max, up to 1e30 nu_min at these corners, so it runs at 60 digits.
        theta = 10.0**log_theta
        eta = (1.0 - 10.0**log_gap) / theta if theta > 0.0 else 0.0
        radius = 1.0 - 10.0**log_slack
        m, n = signs[0] * radius * math.cos(angle), signs[1] * radius * math.sin(angle)
        assume(theta * eta < 1.0 and math.hypot(m, n) < 1.0)
        bound = closed_tolerance(m, n)
        spectrum, reflected = mp_spectra(theta, eta, m, n, dps=60)
        closed = eval_point(theta, eta, m, n)
        assert _relative_error(closed.nu_minus, spectrum[0]) <= bound
        assert _relative_error(closed.nu_minus_prime, reflected[0]) <= bound


def _relative_error(got, want) -> float:
    return float(abs((want - got) / want))


def _spectra_points():
    """theta log-uniform in [1e-3, 1e3] and 1 - theta*eta log-uniform down to 1e-12, after five
    fixed points: theta = eta = 0, theta = 0, theta = eta (Omega's two pencils meet), a point
    on the hyperbola and one beyond it."""
    rng = np.random.default_rng(47)
    thetas = 10.0 ** rng.uniform(-3.0, 3.0, size=200)
    etas = (1.0 - 10.0 ** rng.uniform(-12.0, 0.0, size=200)) / thetas
    fixed = np.array([[0.0, 0.0, 0.7, 1.0, 2.0], [0.0, 0.5, 0.7, 1.0, 0.75]])
    return np.concatenate([fixed[0], thetas]), np.concatenate([fixed[1], etas])


@st.composite
def _near_both_boundaries(draw):
    """(theta, eta, m, n): theta log-uniform in [1e-3, 1e13], 1 - theta*eta log-uniform down to
    1e-16 and (m, n) in any quadrant with R up to 0.9999."""
    theta = 10.0 ** draw(st.floats(min_value=-3.0, max_value=13.0))
    eta = (1.0 - 10.0 ** draw(st.floats(min_value=-16.0, max_value=0.0))) / theta
    radius = draw(st.floats(min_value=0.0, max_value=0.9999))
    angle = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    return theta, eta, radius * math.cos(angle), radius * math.sin(angle)


@st.composite
def _near_the_second_pencil_cancellation(draw):
    """(theta, eta, m, n) with 1 - |m| log-uniform in [1e-9, 1e-2]; n = 0, or |n| up to 0.9 sqrt(1 - |m|),
    uniform or log-uniform down to 1e-8 of that; and theta + eta within a log-uniform 1e-12 to 1e-2
    relative of 2|m| / (1 - n^2), where the second Omega' pencil's q_n (theta + eta) - 2|m| cancels;
    theta*eta < 1."""
    gap = 10.0 ** draw(st.floats(min_value=-9.0, max_value=-2.0))
    m = draw(st.sampled_from((1.0, -1.0))) * (1.0 - gap)
    tiny = st.builds(lambda sign, log: sign * 10.0**log, st.sampled_from((1.0, -1.0)), st.floats(-8.0, 0.0))
    n = draw(st.just(0.0) | st.floats(min_value=-0.9, max_value=0.9) | tiny) * math.sqrt(gap)
    offset = draw(st.sampled_from((1.0, -1.0))) * 10.0 ** draw(st.floats(min_value=-12.0, max_value=-2.0))
    total = 2.0 * abs(m) / ((1.0 - abs(n)) * (1.0 + abs(n))) * (1.0 + offset)
    theta = total * draw(st.floats(min_value=0.0, max_value=0.35))
    eta = total - theta
    return (eta, theta, m, n) if draw(st.booleans()) else (theta, eta, m, n)


class TestFamilySpectra:
    @settings(max_examples=100, deadline=None)
    @given(
        log_theta=st.floats(min_value=-3.0, max_value=3.0),
        log_gap=st.floats(min_value=-9.0, max_value=0.0),
        log_slack=st.floats(min_value=-6.0, max_value=0.0),
        quadrant=st.integers(min_value=0, max_value=3),
        angle=st.floats(min_value=0.0, max_value=math.pi / 2.0),
        swap=st.booleans(),
    )
    # theta = eta = 0; then n = 0 with m < 0 next to the hyperbola.
    @example(log_theta=-math.inf, log_gap=0.0, log_slack=-6.0, quadrant=1, angle=0.4, swap=False)
    @example(log_theta=0.0, log_gap=-9.0, log_slack=-6.0, quadrant=2, angle=0.0, swap=False)
    # theta >> eta with n near -1: the direct sum for the second pencil's omega cancels here.
    @example(log_theta=2.5654, log_gap=-4.746, log_slack=-3.242, quadrant=3, angle=0.0322, swap=False)
    def test_matches_mpmath_in_every_quadrant(self, log_theta, log_gap, log_slack, quadrant, angle, swap):
        # Relative error against 40-digit mpmath within 8 eps (1 + 1/(1 - R)): the 1/(1 - R)
        # term covers the rounding of R = hypot(m, n) and of 1 - R^2, which b = (1+R)/(1-R)
        # and c = (1 - R^2)(1 - theta*eta) amplify.
        mpmath = pytest.importorskip("mpmath")
        theta = 10.0**log_theta
        eta = (1.0 - 10.0**log_gap) / theta if theta > 0.0 else 0.0
        theta, eta = (eta, theta) if swap else (theta, eta)
        radius, phi = 1.0 - 10.0**log_slack, quadrant * math.pi / 2.0 + angle
        m, n = radius * math.cos(phi), radius * math.sin(phi)
        r = math.hypot(m, n)
        assume(1.0 - theta * eta >= 1e-9 and r <= 1.0 - 1e-6)
        spectrum, reflected = family_spectra([theta], [eta], m, n)
        got = [*spectrum[0], *reflected[0]]
        want = sum(mp_spectra(theta, eta, m, n), [])
        errors = [abs(float((mpmath.mpf(g) - w) / w)) for g, w in zip(got, want)]
        assert max(errors) <= 8.0 * EPS * (1.0 + 1.0 / (1.0 - r))

    @pytest.mark.parametrize("theta,eta,m,n", [(1e-4, 9999.9999999, 0.0, 0.0), (1e13, 0.0, -0.3, 0.2)])
    def test_matches_mpmath_where_the_planar_form_is_ill_conditioned(self, theta, eta, m, n):
        # cond_2 of [[theta eps, I], [-I, eta eps]] passes 1e12 here; the closed forms never invert it.
        mpmath = pytest.importorskip("mpmath")
        spectrum, reflected = family_spectra([theta], [eta], m, n)
        want = sum(mp_spectra(theta, eta, m, n), [])
        errors = [abs(float((mpmath.mpf(g) - w) / w)) for g, w in zip([*spectrum[0], *reflected[0]], want)]
        assert max(errors) <= 8.0 * EPS * (1.0 + 1.0 / (1.0 - math.hypot(m, n)))

    @settings(max_examples=100, deadline=None)
    @given(point=_near_the_second_pencil_cancellation())
    @example(point=(0.25, 1.76, 0.9999999, 0.0))  # fig1 --m 0.9999999 --n 0
    # n != 0 but tiny, where R rounds exactly: a rounded q_n = (1 - |n|)(1 + |n|) in the lift fails here.
    @example(point=(0.0, 1.9998000000000002, 0.99, 1e-13))
    @example(point=(0.9835655928464397, 1.0164300020264638, -0.9999920898143775, 1.594367936191587e-10))
    def test_every_column_matches_mpmath_as_m_nears_one(self, point):
        # All four invariants of both spectra within closed_tolerance of 60-digit mpmath, where the
        # second Omega' pencil's lift q_n (theta + eta) - 2|m| cancels to the rounding of theta + eta.
        mpmath = pytest.importorskip("mpmath")
        theta, eta, m, n = point
        spectrum, reflected = family_spectra([theta], [eta], m, n)
        want = sum(mp_spectra(theta, eta, m, n, dps=60), [])
        errors = [abs(float((mpmath.mpf(g) - w) / w)) for g, w in zip([*spectrum[0], *reflected[0]], want)]
        assert max(errors) <= closed_tolerance(m, n)

    @pytest.mark.parametrize("m,n", [(FIG_M, FIG_N), (0.3, 0.0), (0.0, -0.4), (-0.9999, 0.001)])
    def test_rows_ascending_and_paired(self, m, n):
        # nu_1 nu_4 = nu_2 nu_3 = b (1+R)^2 / (1 - theta*eta), the product of each pencil's roots,
        # to the accuracy of the spectra: the closed forms round 1 - R^2 (error eps / (1 - R)).
        thetas, etas = _spectra_points()
        r = math.hypot(m, n)
        rtol = 8.0 * EPS * (1.0 + 1.0 / (1.0 - r))
        valid = thetas * etas < 1.0
        exact = zip(map(Fraction, thetas[valid]), map(Fraction, etas[valid]))
        deficit = np.array([float(1 - t * e) for t, e in exact])
        product = (1.0 + r) / (1.0 - r) * (1.0 + r) ** 2 / deficit
        for spectra in family_spectra(thetas, etas, m, n):
            assert np.isnan(spectra[~valid]).all()
            rows = spectra[valid]
            assert (np.diff(rows, axis=1) >= 0.0).all()
            np.testing.assert_allclose(rows[:, 0] * rows[:, 3], product, rtol=rtol)
            np.testing.assert_allclose(rows[:, 1] * rows[:, 2], product, rtol=rtol)

    def test_couplings_enter_through_their_magnitudes(self):
        # Flipping the signs of m and n leaves every bit of every row.
        thetas, etas = _spectra_points()
        for m, n in [(0.3, 0.2), (0.0, 0.5), (0.6, 0.0), (0.0, 0.0)]:
            expected = family_spectra(thetas, etas, m, n)
            for sm, sn in SIGNS:
                for got, want in zip(family_spectra(thetas, etas, sm * m, sn * n), expected):
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("m,n", [(FIG_M, FIG_N), (0.3, 0.0), (-0.0, 0.4), (0.0, -0.0), (0.9999, 0.001)])
    def test_smallest_invariants_equal_family_invariants_on_the_quadrant(self, m, n):
        thetas, etas = _spectra_points()
        spectrum, reflected = family_spectra(thetas, etas, m, n)
        nu, nu_prime = family_invariants(thetas, etas, m, n)
        np.testing.assert_array_equal(spectrum[:, 0], nu)
        np.testing.assert_array_equal(reflected[:, 0], nu_prime)
        for k in range(0, len(thetas), 20):  # one point runs on Python floats
            one = point_invariants(thetas[k].item(), etas[k].item(), float(m), float(n))
            np.testing.assert_array_equal(one, [nu[k], nu_prime[k]])

    @pytest.mark.parametrize("m,n", [(-0.3, 0.2), (0.3, -0.2), (-0.1, -0.1), (FIG_M, FIG_N)])
    def test_dense_route_agrees_and_checks_alike(self, m, n):
        # dense_spectra, the cross-check route, away from the hyperbola; NaN rows beyond it.
        thetas, etas = np.array([0.0, 0.3, 0.98, 2.0]), np.array([0.0, 0.5, 0.7, 0.75])
        for dense, closed in zip(dense_spectra(thetas, etas, m, n), family_spectra(thetas, etas, m, n)):
            np.testing.assert_allclose(dense, closed, rtol=1e-12)
        for route in (dense_spectra, family_spectra):
            with pytest.raises(DomainError, match=r"at \(theta, eta, m, n\) = \(-1\.0, 0\.5,"):
                route([0.5, -1.0], [0.5, 0.5], m, n)

    @settings(max_examples=100, deadline=None)
    @given(point=_near_both_boundaries())
    @example(point=(1.5, 0.6666666666666665, 0.96875, 0.0))  # 1 - theta*eta = 2.2e-16, R near 1
    @example(point=(1e13, 0.0, -0.3, 0.2))
    # R = 1 - 1e-15, beyond Sigma's eigh-based positivity check: both signs of m, and a pair
    # whose hypot rounds.
    @example(point=(0.5, 0.5, 0.999999999999999, 0.0))
    @example(point=(0.5, 0.5, -0.999999999999999, 0.0))
    @example(point=(0.3, 0.5, 0.28, -0.959999999999999))
    def test_dense_route_matches_mpmath_near_both_boundaries(self, point):
        # nu_- and nu'_- of dense_spectra within dense_tolerance of 60-digit mpmath, in every
        # quadrant, where cond_2 of the planar form reaches 1e42: the kernel never inverts it.
        # The reference's error is relative to nu_max, up to 1e42 nu_min here.
        mpmath = pytest.importorskip("mpmath")
        theta, eta, m, n = point
        assume(theta * eta < 1.0)
        spectrum, reflected = dense_spectra([theta], [eta], m, n)
        want, want_prime = mp_spectra(theta, eta, m, n, dps=60)
        for got, ref in ((spectrum[0, 0], want[0]), (reflected[0, 0], want_prime[0])):
            bound = dense_tolerance(theta, eta, m, n, float(ref))
            assert abs(float((mpmath.mpf(got) - ref) / ref)) <= bound

    @pytest.mark.parametrize("m,n", [(0.0, -0.9), *((0.6 * sm, 0.6 * sn) for sm, sn in SIGNS)])
    def test_dense_route_warns_nowhere_up_to_theta_1e60(self, m, n):
        # At these couplings and large theta a larger eigenvalue pair of (i/2) S Omega S rounds
        # to +-0 and its nu_k is 2/0 = inf, which carries no digits. No warning escapes, even
        # when warnings are errors, and the smallest invariants stay finite and positive.
        thetas = np.concatenate([[4.401472479208437e59], 10.0 ** np.random.default_rng(46).uniform(0.0, 60.0, 100)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectra = dense_spectra(thetas, np.zeros_like(thetas), m, n)
        for smallest in (spectra[0][:, 0], spectra[1][:, 0]):
            assert (np.isfinite(smallest) & (smallest > 0.0)).all()

    def test_verbose_cross_check_keeps_its_bits_where_a_pair_rounds_to_zero(self):
        # eval --theta 4.401472479208437e+59 --eta 0 --m 0 --n -0.9 --verbose: nu'_4 is 2/0 here.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = dense_point(4.401472479208437e59, 0.0, 0.0, -0.9)
        assert result == (4.3167372032318083e-60, 1.8816221234709863e-59)

    def test_fig1_makes_no_dense_solve(self, monkeypatch, capsys):
        # fig1 never reaches the dense route (core._root_spectrum, called through family) nor any
        # dense solve or eigensolver; dense_spectra, the eval --verbose cross-check, does.
        calls = []
        monkeypatch.setattr("ncgauss.family._root_spectrum", lambda *a: calls.append(1) or _root_spectrum(*a))

        def forbidden(*args, **kwargs):
            raise AssertionError("dense linear algebra on the fig1 path")

        with monkeypatch.context() as patch:
            for name in ("solve", "eigvalsh", "inv", "eigvals"):
                patch.setattr(np.linalg, name, forbidden)
            for m, n in [(FIG_M, FIG_N), (-0.3, 0.2), (-0.1, -0.1), (0.3, -0.2)]:
                couplings = ["--m", repr(float(m)), "--n", repr(float(n))]
                assert main(["fig1", "--thetas", "0,0.98", "--eta-range", "0:2:5", *couplings]) == 0
        assert calls == []
        assert capsys.readouterr().out
        dense_point(0.25, 0.5, FIG_M, FIG_N)
        assert calls == [1]


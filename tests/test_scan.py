"""Tests for grid scans, figure datasets, and deterministic emission."""

import hashlib
import io
import json
import math
import re
import sys
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ncgauss.scan
from ncgauss import (
    DomainError,
    NCParams,
    build_covariance,
    build_planar_form,
    eval_point,
    fig1_table,
    fig2_couplings,
    scan_table,
)
from ncgauss.cli import _COLD_ROWS, main
from ncgauss.core import dense_spectra, primed_form
from ncgauss.kernel import Verdict, family_invariants, family_spectra, verdict_from_invariants
from ncgauss.scan import (_BLOCK, FIG1_FIELDS, SCAN_FIELDS, _LISTS, _arrays, _check_range, _fig1_table, _linspace,
                          _scan_table, table_to_csv, table_to_json)
from oracles import (
    PAYLOAD_NAN,
    bisect_decreasing,
    brute_force_spectrum,
    closed_tolerance,
    dense_point,
    dense_tolerance,
    mp_closed_forms,
    mp_spectra,
    records_self_consistent,
    rows_to_csv,
    rows_to_json,
    table_rows,
)
from test_cli import GOLDEN

FIG_M, FIG_N = math.sqrt(2.0) / 6.0, 1.0 / 6.0
EPS = float(np.finfo(float).eps)
QUADRANTS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))
DBL_MAX = float(np.finfo(float).max)


# Bad points and the DomainError text that eval_point and every array route give for each.
POINT_ERRORS = [
    ((-1.0, 0.5, 0.3, 0.2),
     "theta and eta must be finite and >= 0 at (theta, eta, m, n) = (-1.0, 0.5, 0.3, 0.2)"),
    ((0.5, -5e-324, 0.3, 0.2),
     "theta and eta must be finite and >= 0 at (theta, eta, m, n) = (0.5, -5e-324, 0.3, 0.2)"),
    ((math.nan, 0.5, 0.3, 0.2),
     "theta and eta must be finite and >= 0 at (theta, eta, m, n) = (nan, 0.5, 0.3, 0.2)"),
    ((0.5, math.inf, 0.3, 0.2),
     "theta and eta must be finite and >= 0 at (theta, eta, m, n) = (0.5, inf, 0.3, 0.2)"),
    ((-math.inf, 0.5, 1.2, 0.0),  # the deformations are checked first
     "theta and eta must be finite and >= 0 at (theta, eta, m, n) = (-inf, 0.5, 1.2, 0.0)"),
    ((0.5, 0.5, 1.2, 0.0), "R = sqrt(m^2 + n^2) = 1.2 must be < 1"),
    ((0.5, 0.5, 0.6, 0.8), "R = sqrt(m^2 + n^2) = 1.0 must be < 1"),
    ((2.0, 0.5, 1.0, 0.0), "R = sqrt(m^2 + n^2) = 1.0 must be < 1"),  # beyond the hyperbola too
    ((0.5, PAYLOAD_NAN, 0.3, 0.2),  # a NaN with a payload is named as any NaN
     "theta and eta must be finite and >= 0 at (theta, eta, m, n) = (0.5, nan, 0.3, 0.2)"),
]
# ROADMAP item 2's point: the deformation alone makes it NPT, inside the verdict band.
BAND_POINT = (0.0, 0.5905735581745339, 0.23570226039551587, 0.16666666666666666)


@st.composite
def _float_range_points(draw):
    """(theta, eta, m, n) in any quadrant over the whole float range: the larger deformation up to
    the largest float with the smaller down to the subnormals, theta*eta in [0.98, 1) (rounding
    can push it to 1, off the domain), or any two floats; R up to 1 - 2^-53."""
    kind = draw(st.sampled_from(("extreme", "hyperbola", "any")))
    big = _ldexp_floats(900, 1023) if kind == "extreme" else _ldexp_floats(-1074, 1023)
    theta = draw(big)
    if kind == "extreme":
        eta = draw(st.just(0.0) | _ldexp_floats(-1074, -1023))
    elif kind == "hyperbola":
        eta = draw(st.floats(min_value=0.98, max_value=1.0, exclude_max=True)) / theta
    else:
        eta = draw(st.just(0.0) | big)
    if draw(st.booleans()):
        theta, eta = eta, theta
    radius = draw(st.sampled_from((0.0, 0.9999999999999999)) | st.floats(0.0, 0.9999999999999999))
    angle = draw(st.floats(min_value=0.0, max_value=math.pi / 2.0))
    signs = draw(st.sampled_from(QUADRANTS))
    m, n = signs[0] * radius * math.cos(angle), signs[1] * radius * math.sin(angle)
    assume(math.isfinite(theta) and math.isfinite(eta) and math.hypot(m, n) < 1.0)
    return theta, eta, m, n


def _ldexp_floats(low, high):
    """Positive floats with a binary exponent from ``low`` to ``high``, log-uniform."""
    return st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(low, high))


def _scan_rows(theta_range, eta_range, m, n):
    """The rows of the scan table, None in the missing invariant cells."""
    return table_rows(scan_table(theta_range, eta_range, m, n))


def _point_rows(theta_range, eta_range, m, n):
    """The rows of one eval_point call per grid point, theta outer and eta inner."""
    return [
        eval_point(t, e, m, n)._asdict() for t in np.linspace(*theta_range) for e in np.linspace(*eta_range)
    ]


def _written(writer, table):
    """The text that ``writer`` writes for ``table``."""
    out = io.StringIO()
    writer(table, out)
    return out.getvalue()


def _listed(table):
    """``table`` with every column a Python list, as the tables' list route builds it."""
    return {name: (column[0].tolist(), column[1]) if isinstance(column, tuple) else column.tolist()
            for name, column in table.items()}


def _fig1_rows(theta_values, eta_range, m=FIG_M, n=FIG_N):
    """The rows of the fig1 table, None in the missing spectrum cells."""
    return table_rows(fig1_table(theta_values, eta_range, m, n))


def _column(values, dtype):
    """A float column of ``values``, NaN for None, or the ``(codes, labels)`` column of labels."""
    if dtype is float:
        return np.array([math.nan if v is None else v for v in values], dtype=float)
    labels = tuple(dict.fromkeys(values))
    return np.array([labels.index(v) for v in values], dtype=np.intp), labels


@st.composite
def _tables(draw):
    """Random column tables for the writer property.

    Floats repeat and include signed zeros, non-finite and extreme values, labels
    need JSON escapes, and a column name holds a % directive. Any float cell may be
    missing, as None or as a NaN of any sign or payload; a label cell never is.
    """
    size = draw(st.integers(min_value=0, max_value=12))
    # From 1e12 on: values at or next to where "%.12g" and repr pick different notations or digits.
    floats = st.one_of(
        st.sampled_from([0.0, -0.0, math.nan, -math.nan, PAYLOAD_NAN, math.inf, -math.inf, 1e-300,
                         123456789012345.0, 0.5, 1e12, 999999999999.5, 1e15, 1e16, 9999999999999998.0,
                         1e-4, 9.999999999995e-5, 5e-324, -2.0]),
        st.floats(),
    )
    labels = st.one_of(st.sampled_from(['q"\u00e9\n', "invalid", "\\", "\t\u2603", ""]), st.text(max_size=4))
    names = draw(st.lists(st.sampled_from(["theta", "nu_minus", "verdict", 'k"\u00e9', "%s"]),
                          min_size=1, max_size=4, unique=True))
    table = {}
    for name in names:
        dtype = draw(st.sampled_from([float, object]))
        cells = st.one_of(st.none(), floats) if dtype is float else labels
        table[name] = _column(draw(st.lists(cells, min_size=size, max_size=size)), dtype)
    return table


class TestEvalPoint:
    def test_commutative_point_is_separable(self):
        record = eval_point(0.0, 0.0, 0.3, 0.4)
        assert record.verdict == "separable"
        assert record.nu_minus_prime == pytest.approx(1.5, rel=1e-12)
        assert record.r == pytest.approx(0.5, rel=1e-14)
        with pytest.raises(AttributeError):  # records are immutable
            record.verdict = Verdict.ENTANGLED_QUANTUM

    def test_figure_slice_commutative_point(self):
        # The n = r/3, m = sqrt(2) r/3 slice sits at radius r/sqrt(3), so its
        # zero-deformation invariants follow the derived radius.
        record = eval_point(0.0, 0.0, FIG_M, FIG_N)
        assert record.verdict == "separable"
        assert record.r == pytest.approx(0.5 / math.sqrt(3.0), rel=1e-14)
        assert record.nu_minus_prime == pytest.approx(1.0 + record.r, rel=1e-12)

    def test_hyperbola_point_is_invalid(self):
        record = eval_point(0.5, 2.0, FIG_M, FIG_N)
        assert record.verdict == "invalid"
        assert record.nu_minus is None and record.nu_minus_prime is None

    def test_momentum_slice_entangles(self):
        record = eval_point(0.0, 0.7704, FIG_M, FIG_N)
        assert record.verdict == "entangled"
        assert record.nu_minus >= 1.0 > record.nu_minus_prime

    def test_closed_form_agrees_with_numeric_route(self):
        record = eval_point(0.25, 0.5, FIG_M, FIG_N)
        nu, nu_prime = dense_point(0.25, 0.5, FIG_M, FIG_N)
        assert record.nu_minus == pytest.approx(nu, rel=1e-8)
        assert record.nu_minus_prime == pytest.approx(nu_prime, rel=1e-8)
        assert record.verdict == "entangled"

    def test_rejects_radius_at_one(self):
        with pytest.raises(DomainError):
            eval_point(0.0, 0.0, 0.8, 0.6)

    def test_rejects_negative_deformation(self):
        with pytest.raises(DomainError):
            eval_point(-0.1, 0.0, 0.1, 0.1)

    @pytest.mark.parametrize("point, message", POINT_ERRORS)
    def test_dense_route_errors_name_the_point(self, point, message):
        # The errors eval_point and the grids raise, with the same messages: one predicate checks
        # eval_point's floats and the array routes' arrays.
        theta, eta, m, n = point
        for route in (dense_spectra, family_invariants, family_spectra):
            with pytest.raises(DomainError) as exc:
                route([theta], [eta], m, n)
            assert str(exc.value) == message
        with pytest.raises(DomainError) as exc:
            eval_point(theta, eta, m, n)
        assert str(exc.value) == message

    @pytest.mark.parametrize("point, message", POINT_ERRORS)
    def test_eval_exit_codes(self, capsys, point, message):
        # ncgauss eval exits 2 on every bad point, a non-finite one included, and prints
        # eval_point's message: argument parsing checks no value.
        argv = ["eval", *(f"--{k}={v!r}" for k, v in zip(("theta", "eta", "m", "n"), point))]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"ncgauss: {message}\n"

    @settings(max_examples=300, deadline=None)
    @given(point=st.tuples(st.floats(), st.floats(), st.floats(), st.floats()))
    @example(point=(DBL_MAX, DBL_MAX, 0.3, 0.2))  # theta*eta overflows to inf
    @example(point=(DBL_MAX, 5e-324, 0.9999999999999999, 0.0))
    @example(point=(math.inf, 0.0, 0.3, 0.2))
    @example(point=(0.5, 0.5, DBL_MAX, DBL_MAX))
    def test_float_path_raises_only_domain_errors(self, point):
        # Any float quadruple gives a record or a DomainError: no OverflowError, ValueError or
        # ZeroDivisionError from math, and no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                record = eval_point(*point)
            except DomainError:
                return
        if record.verdict is Verdict.INVALID_DOMAIN:
            assert record.nu_minus is record.nu_minus_prime is None
        else:
            assert 0.0 < record.nu_minus < math.inf and 0.0 < record.nu_minus_prime < math.inf

    @settings(max_examples=300, deadline=None)
    @given(point=_float_range_points())
    @example(point=(DBL_MAX, 5e-324, -0.3, 0.2))
    @example(point=(5e-324, DBL_MAX, 0.3, -0.2))
    @example(point=(DBL_MAX, 1.0 / DBL_MAX, -0.9999999999999999, 0.0))
    @example(point=(1.0, 0.9999999999999999, -0.3, -0.2))
    @example(point=(1.2, 0.98 / 1.2, 0.0, 0.9999999999999999))
    @example(point=(2.0, 0.5, 0.3, 0.2))  # theta*eta = 1: invalid
    def test_point_has_the_bits_of_its_grid_row(self, point):
        # eval_point runs the kernel text on floats and scan_table on arrays: nu_-, nu'_- and the
        # verdict agree bit for bit, in every quadrant and over the whole float range.
        theta, eta, m, n = point
        record = eval_point(theta, eta, m, n)
        table = scan_table((theta, theta, 1), (eta, eta, 1), m, n)
        codes, labels = table["verdict"]
        assert labels[codes[0]] is record.verdict
        for got, name in ((record.nu_minus, "nu_minus"), (record.nu_minus_prime, "nu_minus_prime")):
            want = table[name][0].item()
            if math.isnan(want):
                assert got is None
            else:
                assert got.hex() == want.hex()

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the 1e-12 verdict band counts nu'_- = 1 - 5e-13 as >= 1")
    def test_deformation_alone_entangles_inside_the_verdict_band(self):
        # At 60 digits nu'_- = 1 - 5.04e-13 here, so the state is NPT, but the band calls it separable.
        mpmath = pytest.importorskip("mpmath")
        assert mp_closed_forms(*BAND_POINT, dps=60)[1] < 1 - mpmath.mpf("5e-13")
        assert eval_point(*BAND_POINT).verdict == "entangled"

    def test_eval_and_a_one_point_scan_agree_inside_the_verdict_band(self, capsys):
        theta, eta, m, n = map(repr, BAND_POINT)
        assert main(["eval", "--theta", theta, "--eta", eta, "--m", m, "--n", n]) == 0
        label = json.loads(capsys.readouterr().out)["verdict"]
        ranges = ["--theta-range", f"{theta}:{theta}:1", "--eta-range", f"{eta}:{eta}:1"]
        assert main(["scan", *ranges, "--m", m, "--n", n, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["verdict"] == label

    def test_dense_route_leaves_the_hyperbola_missing(self, capsys):
        # theta*eta >= 1 is no error: dense_spectra's row is NaN, and eval --verbose prints the
        # invalid record with no cross-check.
        spectrum, reflected = dense_spectra([0.25, 2.0], [0.5, 0.5], 0.3, 0.2)
        assert np.isnan(spectrum[1]).all() and np.isnan(reflected[1]).all()
        assert np.isfinite(spectrum[0]).all() and np.isfinite(reflected[0]).all()
        argv = ["eval", "--theta", "2", "--eta", "0.5", "--m", "0.3", "--n", "0.2", "--verbose"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {
            "theta": 2.0, "eta": 0.5, "m": 0.3, "n": 0.2, "r": math.hypot(0.3, 0.2), "verdict": "invalid"
        }

    def test_negative_couplings_agree_with_the_dense_cross_check(self):
        # Off the quadrant the record carries the closed forms at (|m|, |n|); the dense
        # route (dense_spectra, eval --verbose) must find the same invariants.
        record = eval_point(0.25, 0.5, -0.3, 0.2)
        nu, nu_prime = dense_point(0.25, 0.5, -0.3, 0.2)
        assert record.nu_minus == pytest.approx(nu, rel=1e-12)
        assert record.nu_minus_prime == pytest.approx(nu_prime, rel=1e-12)

    def test_off_quadrant_nu_prime_comes_from_reflected_form(self):
        # Here the reflected-covariance route D Sigma D^T is 1.4e-9 off (cond S_B ~ 119);
        # (Sigma, Omega') is 1.4e-14 off and the brute-force oracle 2.6e-13.
        theta, eta, m, n = 0.52, 1.92, -0.2357, 0.1667
        record = eval_point(theta, eta, m, n)
        part = build_planar_form(NCParams(theta, eta))
        oracle = brute_force_spectrum(build_covariance(m, n), primed_form(part, part))
        assert record.nu_minus_prime == pytest.approx(oracle[0], rel=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(min_value=0.5, max_value=2.0),
        product=st.floats(min_value=0.99, max_value=1.0, exclude_max=True),
        radius=st.floats(min_value=0.0, max_value=0.9999),
        angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    # Next to the hyperbola, 1 - theta*eta = 2.2e-16 (cond_2 of Omega near 1e16), with R near 1.
    @example(theta=1.5, product=0.9999999999999998, radius=0.96875, angle=0.0)
    @example(theta=2.0, product=0.9999999999999998, radius=0.984375, angle=0.0)
    def test_closed_forms_match_spectral_route_near_boundaries(self, theta, product, radius, angle):
        eta = product / theta
        m, n = radius * math.cos(angle), radius * math.sin(angle)
        assume(theta * eta < 1.0 and math.hypot(m, n) < 1.0)
        closed = eval_point(theta, eta, m, n)
        numeric = dense_point(theta, eta, m, n)
        # Each route within its own bound of the exact value, so of each other within their sum.
        pytest.importorskip("mpmath")
        for got, want in zip(numeric, (closed.nu_minus, closed.nu_minus_prime)):
            bound = dense_tolerance(theta, eta, m, n, want) + closed_tolerance(m, n)
            assert abs(got - want) <= bound * want


class TestScanGrid:
    def test_small_grid_complete(self):
        grid = (0.0, 0.1, 2), (0.0, 0.1, 2), 0.3, 0.4
        rows = _scan_rows(*grid)
        assert len(rows) == 4
        assert all(row["nu_minus"] is not None for row in rows)
        assert rows == _point_rows(*grid)

    def test_row_major_order(self):
        grid = (0.0, 1.0, 3), (0.0, 1.0, 2), 0.1, 0.1
        rows = _scan_rows(*grid)
        assert [(row["theta"], row["eta"]) for row in rows] == [
            (0.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 1.0), (1.0, 0.0), (1.0, 1.0)
        ]
        assert rows == _point_rows(*grid)

    def test_hyperbola_points_kept_as_invalid(self):
        root2 = math.sqrt(2.0)
        grid = (0.0, root2, 2), (0.0, root2, 2), 0.1, 0.1
        rows = _scan_rows(*grid)
        assert len(rows) == 4
        assert rows[-1]["theta"] == rows[-1]["eta"] == root2
        assert rows[-1]["verdict"] == "invalid"
        assert rows[-1]["nu_minus"] is None and rows[-1]["nu_minus_prime"] is None
        assert rows == _point_rows(*grid)

    @pytest.mark.parametrize(
        "m,n", [(0.3, 0.2), (-0.3, 0.2), (-0.3, -0.2), (0.3, -0.2), (-0.0, 0.2), (0.3, -0.0), (-0.0, -0.0)]
    )
    def test_no_linear_algebra_in_any_quadrant(self, monkeypatch, capsys, m, n):
        # The closed forms decide every quadrant: scan, fig2 and eval without --verbose run
        # no eigensolver, solve or inverse, and a grid still equals its points.
        def forbidden(*args, **kwargs):
            raise AssertionError("dense linear algebra on the evaluation path")

        for name in ("eigvalsh", "eigh", "solve", "inv", "eigvals"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        grid = (0.0, 2.0, 9), (0.0, 2.0, 9), m, n
        nu = scan_table(*grid)["nu_minus"]
        invalid = np.isnan(nu)
        assert invalid.any() and (nu[~invalid] > 0.0).all()
        assert _scan_rows(*grid) == _point_rows(*grid)
        couplings = ["--m", repr(m), "--n", repr(n)]
        assert main(["scan", "--theta-range", "0:2:5", "--eta-range", "0:2:5", *couplings]) == 0
        assert main(["eval", "--theta", "0.25", "--eta", "0.5", *couplings]) == 0
        assert main(["fig2", "--r", "0.5", "--theta-range", "0:2:5", "--eta-range", "0:2:5"]) == 0
        assert capsys.readouterr().out

    def test_invalid_steps_rejected(self):
        with pytest.raises(DomainError):
            scan_table((0.0, 1.0, 0), (0.0, 1.0, 2), 0.1, 0.1)
        with pytest.raises(DomainError):
            scan_table((1.0, 0.0, 2), (0.0, 1.0, 2), 0.1, 0.1)

    @pytest.mark.parametrize("steps", [math.nan, math.inf, -math.inf, 2.7])
    def test_steps_that_are_not_whole_rejected(self, steps):
        # Neither a bare ValueError or OverflowError from int(), nor a silent truncation.
        with pytest.raises(DomainError, match=r"^eta range needs a whole number of steps, got "):
            scan_table((0.0, 1.0, 2), (0.0, 1.0, steps), 0.1, 0.1)

    @pytest.mark.parametrize("steps", [10**400, -(10**400), sys.maxsize + 1])
    def test_steps_beyond_the_float_or_index_range_rejected(self, steps):
        # float(10**400) raises OverflowError; an int is whole as it stands. Counts no index can
        # reach are rejected before numpy sees them.
        message = rf"^theta range needs (>= 1|<= {sys.maxsize}) steps, got -?\d+$"
        with pytest.raises(DomainError, match=message):
            scan_table((0.0, 1.0, steps), (0.0, 1.0, 2), 0.1, 0.1)
        with pytest.raises(DomainError, match=message.replace("theta", "eta")):
            fig1_table((0.0, 0.5), (0.0, 1.0, steps), 0.1, 0.1)

    def test_whole_steps_keep_their_value(self):
        # Whole counts of every type become that int; an int is never read as a float.
        for steps in (3, 3.0, np.int64(3), np.float64(3.0), True):
            checked = _check_range("eta", (0.0, 1.0, steps))
            assert checked == (0.0, 1.0, int(steps)) and type(checked[2]) is int
        huge = 2**62 + 1  # float(huge) would round it to 2**62
        assert _check_range("eta", (0.0, 1.0, huge))[2] == huge

    def test_numpy_integer_steps_accepted(self):
        rows = _scan_rows((0.0, 1.0, np.int64(3)), (0.0, 1.0, 2.0), 0.1, 0.1)
        assert [(row["theta"], row["eta"]) for row in rows] == [
            (0.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 1.0), (1.0, 0.0), (1.0, 1.0)
        ]
        assert rows == _point_rows((0.0, 1.0, 3), (0.0, 1.0, 2), 0.1, 0.1)

    def test_deterministic_emission(self):
        grid = (0.0, 2.0, 11), (0.0, 2.0, 11), FIG_M, FIG_N
        first, second = scan_table(*grid), scan_table(*grid)
        assert _written(table_to_csv, first) == _written(table_to_csv, second)
        assert _written(table_to_json, first) == _written(table_to_json, second)

    def test_records_self_consistent(self):
        assert records_self_consistent(_scan_rows((0.0, 2.0, 11), (0.0, 2.0, 11), FIG_M, FIG_N))

    @settings(max_examples=40, deadline=None)
    @given(
        theta=st.floats(min_value=0.5, max_value=2.0),
        product=st.floats(min_value=0.99, max_value=1.0, exclude_max=True),
        spread=st.floats(min_value=0.0, max_value=0.02),
        steps=st.integers(min_value=1, max_value=4),
        radius=st.floats(min_value=0.0, max_value=0.9999),
        angle=st.floats(min_value=0.0, max_value=math.pi / 2.0),
        quadrant=st.sampled_from(QUADRANTS),
    )
    def test_grid_records_equal_point_records(
        self, theta, product, spread, steps, radius, angle, quadrant
    ):
        # The batched table and eval_point, the kernel on floats, give the same rows, bit for bit,
        # on grids straddling the hyperbola (theta*eta in [0.99, 1) and beyond).
        eta = product / theta
        m, n = quadrant[0] * radius * math.cos(angle), quadrant[1] * radius * math.sin(angle)
        grid = (
            (theta * (1.0 - spread), theta * (1.0 + spread), steps),
            (eta * (1.0 - spread), eta * (1.0 + spread), steps),
            m, n,
        )
        assert _scan_rows(*grid) == _point_rows(*grid)

    def test_grid_beyond_one_block_equals_point_records(self):
        # Grids and points agree bit for bit, and so do dense_spectra's stacked blocks of 512
        # points and its one-point case, the eval --verbose cross-check.
        grid = (0.0, 2.0, 31), (0.0, 2.0, 31), -0.3, 0.2
        rows = _scan_rows(*grid)
        assert sum(row["nu_minus"] is not None for row in rows) > 512  # more than one dense block
        assert rows == _point_rows(*grid)
        spectrum, reflected = dense_spectra([row["theta"] for row in rows], [row["eta"] for row in rows], -0.3, 0.2)
        for row, nu, nu_prime in zip(rows, spectrum[:, 0], reflected[:, 0]):
            if row["nu_minus"] is not None:
                assert dense_point(row["theta"], row["eta"], row["m"], row["n"]) == (nu, nu_prime)

    def test_commutative_rows_never_entangled(self):
        for radius in np.linspace(0.0, 0.9, 7):
            record = eval_point(0.0, 0.0, radius, 0.0)
            assert record.verdict == "separable"


class TestOutputFormats:
    @pytest.fixture()
    def table(self):
        root2 = math.sqrt(2.0)
        return scan_table((0.0, root2, 2), (0.0, root2, 2), 0.3, 0.4)

    def test_csv_header_and_empty_invariants(self, table):
        lines = _written(table_to_csv, table).strip().split("\n")
        assert lines[0] == "theta,eta,m,n,r,nu_minus,nu_minus_prime,verdict"
        assert len(lines) == 5
        invalid = [line for line in lines[1:] if line.endswith("invalid")]
        assert invalid and all(",,," in line for line in invalid)

    def test_csv_values_round_trip_at_12_digits(self, table):
        line = _written(table_to_csv, table).strip().split("\n")[1]
        fields = line.split(",")
        assert float(fields[4]) == pytest.approx(0.5, rel=1e-11)
        assert fields[5] == format(eval_point(0.0, 0.0, 0.3, 0.4).nu_minus, ".12g")

    def test_json_matches_json_dumps_layout(self, table):
        def reference(table):
            objs = [
                {f: v if isinstance(v, str) else float("%.12g" % v)
                 for f, v in row.items() if v is not None}
                for row in table_rows(table)
            ]
            return json.dumps(objs, indent=2) + "\n"

        # The odd rows: row 0 misses every cell, row 1 its first one.
        odd = {
            "a": _column([None, None, math.inf, 1e-300], float),
            "b": _column([None, -0.0, math.nan, 123456789012345.0], float),
        }
        labelled = {**odd, "label": _column(["x", 'q"\u00e9\n', "x", "invalid"], object)}
        empty = {field: np.array([]) for field in SCAN_FIELDS[:-1]}
        empty["verdict"] = (np.array([], dtype=np.intp), tuple(Verdict))
        for written in (table, empty, odd, labelled):
            assert _written(table_to_json, written) == reference(written)

    def test_json_omits_invariants_for_invalid(self, table):
        objs = json.loads(_written(table_to_json, table))
        assert len(objs) == 4
        for obj in objs:
            if obj["verdict"] == "invalid":
                assert "nu_minus" not in obj
            else:
                assert set(obj) == {
                    "theta", "eta", "m", "n", "r", "nu_minus", "nu_minus_prime", "verdict"
                }

    @settings(max_examples=300, deadline=None)
    @given(table=_tables())
    @example(table={
        "x": _column([0.0, -0.0, 0.0, None, -0.0], float),
        "y": _column([math.nan, math.inf, 1e-300, 123456789012345.0, -math.nan], float),
        "verdict": _column(['q"\u00e9\n', "invalid", "", "invalid", "\\\t"], object),
    })
    @example(table={  # row 0 has every cell missing, row 1 its first one
        "theta": _column([None, math.nan, 1e12], float),
        "nu_minus": _column([PAYLOAD_NAN, 999999999999.5, 5e-324], float),
    })
    @example(table={  # rows 0 and 1 miss their first cell, before a label
        "theta": _column([-math.nan, PAYLOAD_NAN, 1e12], float),
        "verdict": _column(["invalid", "invalid", "separable"], object),
    })
    @example(table={  # a one-word first column stays a column of its own
        "m": _column([0.25] * 7, float),
        "eta": _column([0.0, 0.5, 1.0, 1.5, 2.0, 0.5, 1e12], float),
    })
    @example(table={  # two one-word columns in the middle, both joining the first column's words
        "theta": _column([0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 0.5], float),
        "m": _column([-0.0] * 7, float),
        "n": _column([1e12] * 7, float),
        "nu_minus": _column([1.5, None, 0.25, None, 3.0, 0.75, 1e-300], float),
    })
    @example(table={  # a one-word last column, its line end or object close carried by the fold
        "theta": _column([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5], float),
        "nu_minus": _column([None] * 7, float),
    })
    @example(table={  # every column has one word: still one row per row
        "m": _column([0.5] * 6, float),
        "n": _column([-0.0] * 6, float),
        "verdict": _column(["invalid"] * 6, object),
        "r": _column([math.inf] * 6, float),
    })
    @example(table={"theta": _column([math.nan], float)})  # one row with one missing cell
    @example(table={  # a one-word all-NaN first column: every row misses its first cell
        "theta": _column([None] * 6, float),
        "m": _column([0.25] * 6, float),
        "nu_minus": _column([1.0, None, 2.0, 3.0, None, 1e15], float),
    })
    @example(table={  # ... and with nothing after it, every row misses every cell
        "theta": _column([None] * 6, float),
        "nu_minus": _column([None] * 6, float),
    })
    @example(table={  # a one-word label column, in the middle and last
        "theta": _column([0.0, 0.5, 1.0, 1.5, 2.0, 2.5], float),
        "label": _column(['q"\u00e9\n'] * 6, object),
        "nu_minus": _column([1.0, None, 2.0, 3.0, None, 0.5], float),
        "verdict": _column(["separable"] * 6, object),
    })
    def test_table_writers_equal_per_row_reference(self, table):
        # Spelling each distinct value once gives the text of spelling every cell, also in blocks
        # of 1, 2 and 5 rows, where a table of at most 12 rows crosses a block's edge. The examples
        # place one-word columns, which join the column before them, first, in the middle, last
        # and everywhere.
        # The same table as lists takes the writers' list route, with the same text.
        rows, fields = table_rows(table), tuple(table)
        for block in (1, 2, 5, ncgauss.scan._BLOCK):
            with mock.patch("ncgauss.scan._BLOCK", block):
                for written in (table, _listed(table)):
                    assert _written(table_to_csv, written) == rows_to_csv(rows, fields)
                    assert _written(table_to_json, written) == rows_to_json(rows, fields)

    @settings(max_examples=300, deadline=None)
    @given(value=st.one_of(st.floats(), st.floats(1e11, 1e17), st.floats(-1e17, -1e11)))
    @example(value=99999999999.5)  # rounds up to the integer 1e11 at 12 digits
    @example(value=1e11)
    @example(value=100000000000.5)
    @example(value=1.5e12)  # "%.12g" turns scientific, repr does not
    @example(value=999999999999.5)
    @example(value=2.2250738585072014e-308)  # the smallest normal double
    @example(value=1e-299)  # the lower edge of the digits argument
    @example(value=5e-324)
    @example(value=1e-05)  # scientific in both spellings
    @example(value=0.1)
    @example(value=-0.0)
    @example(value=1.000000000004)  # 12 digits give the integer 1, 4e-12 away
    @example(value=-1234.000000001)
    @example(value=1.23456789012e-320)  # a subnormal with fewer digits than the text
    def test_json_number_is_json_dumps_of_its_12_digit_rounding(self, value):
        # The one-pass spelling respells only its candidates (not finite, |v| >= 1e11, |v| < 1e-299
        # or within 1e-11 |v| of an integer); every other text must already be the JSON number.
        # The lists' candidate test picks the same values.
        obj = {} if math.isnan(value) else {"x": float("%.12g" % value)}
        for column in (np.array([value]), [value]):
            assert _written(table_to_json, {"x": column}) == json.dumps([obj], indent=2) + "\n"

    @pytest.mark.parametrize("block", [2, 3])
    def test_rows_missing_cells_at_block_edges(self, monkeypatch, block):
        # Row 2 misses its first cell and row 3 every cell; rows 5 and 6 the other way round.
        # Blocks of 3 rows split both pairs at a block's edge; blocks of 2 keep rows 2 and 3 in one.
        table = {
            "theta": _column([0.5, -0.0, None, None, 1e-300, None, None, 2.0], float),
            "r": _column([0.5, math.nan, 0.25, None, 1.0, -math.nan, PAYLOAD_NAN, 2.0], float),
            "nu_minus": _column([1.5, None, 0.25, None, math.inf, None, 3.0, None], float),
        }
        monkeypatch.setattr("ncgauss.scan._BLOCK", block)
        rows, fields = table_rows(table), tuple(table)
        for written in (table, _listed(table)):
            assert _written(table_to_csv, written) == rows_to_csv(rows, fields)
            assert _written(table_to_json, written) == rows_to_json(rows, fields)

    @pytest.mark.parametrize("writer, reference", [(table_to_csv, rows_to_csv), (table_to_json, rows_to_json)])
    def test_no_write_is_longer_than_one_block(self, writer, reference):
        # A 61x61 map is more than one block, so its text reaches the handle in several writes,
        # none longer than a block's text; the whole output is never one string.
        table = scan_table((0.0, 2.0, 61), (0.0, 2.0, 61), 0.3, 0.2)
        rows, fields, block = table_rows(table), tuple(table), ncgauss.scan._BLOCK
        assert len(rows) > block
        writes = []
        writer(table, SimpleNamespace(write=writes.append))
        assert "".join(writes) == reference(rows, fields)
        longest = max(len(reference(rows[k : k + block], fields)) for k in range(0, len(rows), block))
        assert len(writes) > len(rows) // block and max(map(len, writes)) <= longest


# Deformations over the whole float range: 0, or log-uniform from the smallest subnormal up.
_DEFORMATIONS = st.just(0.0) | st.builds(
    math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1023)
)


def _range(draw):
    """A (min, max, steps) range of deformations anywhere in the float range."""
    ends = sorted(draw(st.lists(_DEFORMATIONS, min_size=2, max_size=2)))
    return ends[0], ends[1], draw(st.integers(min_value=1, max_value=3))


@st.composite
def _grids(draw):
    """(theta_range, eta_range, m, n) of a small grid anywhere in the float range, in any quadrant."""
    radius = draw(st.floats(min_value=0.0, max_value=0.9999))
    angle = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    return _range(draw), _range(draw), radius * math.cos(angle), radius * math.sin(angle)


class TestMissingCells:
    """The writers print every NaN as a missing cell, so a NaN must mean "off the domain"."""

    @settings(max_examples=150, deadline=None)
    @given(grid=_grids())
    @example(grid=((1.0, 2.0, 3), (0.5, 1.0, 3), 0.3, 0.2))  # on and across the hyperbola
    @example(grid=((0.0, DBL_MAX, 3), (0.0, 5e-324, 2), -0.3, 0.2))  # the CI's extreme ranges
    def test_scan_cell_is_nan_iff_its_row_is_off_the_domain(self, grid):
        table = scan_table(*grid)
        codes, labels = table["verdict"]
        assert labels == tuple(Verdict) and np.issubdtype(codes.dtype, np.integer)
        for k, (theta, eta) in enumerate(zip(table["theta"].tolist(), table["eta"].tolist())):
            off = theta * eta >= 1.0  # Python floats: an overflow is inf, with no warning
            nu, nu_prime = table["nu_minus"][k].item(), table["nu_minus_prime"][k].item()
            assert math.isnan(nu) == math.isnan(nu_prime) == off
            assert not any(math.isnan(table[field][k]) for field in SCAN_FIELDS[:5])
            assert tuple(Verdict)[codes[k]] is verdict_from_invariants(nu, nu_prime)

    @settings(max_examples=150, deadline=None)
    @given(thetas=st.lists(_DEFORMATIONS, min_size=1, max_size=3), grid=_grids())
    @example(thetas=[2.0, 0.5, DBL_MAX], grid=(None, (0.0, 2.0, 5), 0.999999999999999, 0.0))
    def test_fig1_cell_is_nan_iff_its_row_is_off_the_domain(self, thetas, grid):
        _, eta_range, m, n = grid
        table = fig1_table(thetas, eta_range, m, n)
        for k, (theta, eta) in enumerate(zip(table["theta"].tolist(), table["eta"].tolist())):
            off = theta * eta >= 1.0
            assert [math.isnan(table[field][k]) for field in FIG1_FIELDS] == [False] * 4 + [off] * 8

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_every_nan_is_written_as_a_missing_cell(self, monkeypatch, block):
        # NaN of either sign and with a payload, in the first column too, at every block size.
        nans = [math.nan, -math.nan, PAYLOAD_NAN]
        assert len({np.float64(v).view(np.int64).item() for v in nans}) == 3
        table = {
            "a": np.array([nans[1], 1.0, nans[2], nans[0], 2.0, nans[1]]),
            "b": np.array([nans[2], nans[1], 3.0, nans[0], nans[1], 0.5]),
        }
        monkeypatch.setattr("ncgauss.scan._BLOCK", block)
        objects = [{}, {"a": 1.0}, {"b": 3.0}, {}, {"a": 2.0}, {"b": 0.5}]
        for written in (table, _listed(table)):
            assert _written(table_to_csv, written) == "a,b\n,\n1,\n,3\n,\n2,\n,0.5\n"
            assert _written(table_to_json, written) == json.dumps(objects, indent=2) + "\n"


def _route_outputs(body, *args):
    """The CSV and JSON text of ``body(*args, xp)`` on the list route and on numpy's, or the
    DomainError text that each raised; the list route's columns must be lists."""
    outputs = []
    for xp in (_LISTS, _arrays()):
        try:
            table = body(*args, xp)
        except DomainError as exc:
            outputs.append(str(exc))
            continue
        floats = [column for column in table.values() if not isinstance(column, tuple)]
        assert all(isinstance(column, list) for column in floats) == (xp is _LISTS)
        outputs.append((_written(table_to_csv, table), _written(table_to_json, table)))
    return outputs


# Range bounds: signed zeros, subnormals, the hyperbola's neighbourhood, the float range's ends,
# negative minima and widths that overflow, which both routes refuse alike.
_BOUNDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 1e300, DBL_MAX, -1.0, -DBL_MAX]),
    st.floats(0.0, 4.0),
    _DEFORMATIONS,
)
# Couplings: signed zeros, R -> 1, R >= 1 and NaN, which both routes refuse alike.
_COUPLINGS = st.sampled_from([0.0, -0.0, 0.3, -0.3, 0.7, 0.9999999999999999, -0.9999999999999999, math.nan])


@st.composite
def _route_ranges(draw):
    """A (min, max, steps) range with both ends from ``_BOUNDS`` and 1 to 4 steps."""
    lo, hi = sorted(draw(st.lists(_BOUNDS, min_size=2, max_size=2)))
    return lo, hi, draw(st.integers(min_value=1, max_value=4))


class TestRoutes:
    """The CLI's maps run on lists or on numpy's arrays (``cli._map_primitives``); both write the same bytes."""

    @settings(max_examples=300, deadline=None)
    @given(lo=_BOUNDS, hi=_BOUNDS, num=st.integers(min_value=1, max_value=6))
    @example(lo=0.0, hi=5e-324, num=3)  # the step underflows to 0: numpy's (k/div)*delta branch
    @example(lo=0.0, hi=-0.0, num=3)  # lo <= hi with delta = -0.0
    @example(lo=-0.0, hi=-0.0, num=1)  # 0*delta + lo is 0.0, not -0.0
    @example(lo=-DBL_MAX, hi=DBL_MAX, num=3)  # delta overflows: 0*inf is NaN
    @example(lo=-DBL_MAX, hi=DBL_MAX, num=1)
    def test_linspace_is_numpys_bit_for_bit(self, lo, hi, num):
        lo, hi = min(lo, hi), max(lo, hi)
        with np.errstate(all="ignore"):
            want = np.linspace(lo, hi, num)
        assert np.array(_linspace(lo, hi, num)).view(np.int64).tolist() == want.view(np.int64).tolist()

    @settings(max_examples=150, deadline=None)
    @given(theta_range=_route_ranges(), eta_range=_route_ranges(), m=_COUPLINGS, n=_COUPLINGS)
    @example(theta_range=(1.0, 1.0, 1), eta_range=(-0.0, -0.0, 1), m=0.0, n=-0.0)  # one step, lo == hi
    @example(theta_range=(0.0, 2.0, 4), eta_range=(0.0, 2.0, 4), m=-0.3, n=0.7)  # across theta*eta = 1
    @example(theta_range=(-1.0, 2.0, 3), eta_range=(0.0, 2.0, 3), m=0.3, n=0.3)  # a negative minimum
    @example(theta_range=(0.0, 2.0, 3), eta_range=(0.0, 2.0, 3), m=0.7, n=0.9999999999999999)  # R >= 1
    @example(theta_range=(0.0, 2.0, 3), eta_range=(0.0, 2.0, 3), m=math.nan, n=0.3)
    @example(theta_range=(-DBL_MAX, DBL_MAX, 3), eta_range=(0.0, 2.0, 3), m=0.3, n=0.3)  # overflowing width
    def test_scan_routes_write_the_same_bytes(self, theta_range, eta_range, m, n):
        lists, arrays = _route_outputs(_scan_table, theta_range, eta_range, m, n)
        assert lists == arrays

    @settings(max_examples=100, deadline=None)
    @given(thetas=st.lists(_BOUNDS, min_size=1, max_size=3), eta_range=_route_ranges(),
           m=_COUPLINGS, n=_COUPLINGS)
    @example(thetas=[DBL_MAX, 1e300, 0.0], eta_range=(0.0, 1e-300, 3), m=0.3, n=0.2)  # nu_3, nu_4 = inf
    @example(thetas=[0.5, 2.0], eta_range=(0.0, 2.0, 5), m=-0.0, n=0.9999999999999999)  # across theta*eta = 1
    def test_fig1_routes_write_the_same_bytes(self, thetas, eta_range, m, n):
        lists, arrays = _route_outputs(_fig1_table, thetas, eta_range, m, n)
        assert lists == arrays

    @pytest.mark.parametrize("rows, shape", [
        (_BLOCK - 1, (31, 33)), (_BLOCK, (32, 32)), (_BLOCK + 1, (25, 41)),
        (_COLD_ROWS - 1, (127, 129)), (_COLD_ROWS, (128, 128)), (_COLD_ROWS + 1, (113, 145)),
    ], ids=["block-1", "block", "block+1", "cold-1", "cold", "cold+1"])
    def test_routes_agree_at_block_and_route_edges(self, rows, shape):
        # Rows one below, at and above a block of the writers and the CLI's route switch.
        assert shape[0] * shape[1] == rows
        lists, arrays = _route_outputs(_scan_table, (0.0, 2.0, shape[0]), (0.0, 2.0, shape[1]), -0.3, 0.2)
        assert lists == arrays

    @pytest.mark.parametrize("argv", list(GOLDEN))
    def test_recorded_digests_on_the_list_route(self, monkeypatch, capsys, argv):
        monkeypatch.setattr("ncgauss.cli._map_primitives", lambda rows: _LISTS)
        for k, fmt in enumerate(("csv", "json")):
            assert main([*argv, "--format", fmt]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN[argv][k]

    @pytest.mark.parametrize("argv", [
        ["scan", "--theta-range=-1:2:3", "--m", "0.3", "--n", "0.2"],
        ["scan", "--m", "0.8", "--n", "0.8"],
        ["fig2", "--r", "0.5", "--eta-range=-1.7e308:1.7e308:3"],
        ["scan", "--m", "nan", "--n", "0.2"],
        ["scan", "--theta-range=-1.7e308:1.7e308:3", "--m", "0.3", "--n", "0.2"],
        ["scan", "--m", "0.3", "--n", "0.2", "--eta-range", "0:2:0"],
        ["fig1", "--thetas=-1,0.5"],
        ["fig1", "--n", "1"],
        ["fig1", "--m", "nan"],
        ["fig1", "--eta-range=-1.7e308:1.7e308:3"],
    ])
    def test_refused_inputs_print_the_same_stderr(self, monkeypatch, capsys, argv):
        results = []
        for xp in (_LISTS, _arrays()):
            monkeypatch.setattr("ncgauss.cli._map_primitives", lambda rows, xp=xp: xp)
            results.append((main(argv), *capsys.readouterr()))
        assert results[0] == results[1] and results[0][:2] == (2, "")

    def test_maps_take_arrays_once_numpy_is_loaded(self):
        # This interpreter has loaded numpy, so every map takes numpy's arrays, a default one included.
        assert all(ncgauss.cli._map_primitives(rows).repeat is np.repeat for rows in (1, 101 * 101))


class TestFig1:
    def test_default_columns_and_row_count(self):
        rows = _fig1_rows((0.0, 0.25, 0.5), (0.0, 2.0, 21))
        assert len(rows) == 3 * 21
        assert set(rows[0]) == {
            "theta", "eta", "m", "n",
            "nu_1", "nu_2", "nu_3", "nu_4", "nup_1", "nup_2", "nup_3", "nup_4",
        }

    def test_spectra_sorted(self):
        for row in _fig1_rows((0.0, 0.25, 0.5), (0.0, 1.9, 11)):
            nus = [row[f"nu_{j}"] for j in range(1, 5)]
            nups = [row[f"nup_{j}"] for j in range(1, 5)]
            assert nus == sorted(nus) and nups == sorted(nups)

    def test_zero_deformation_row_matches_commutative_formulas(self):
        row = _fig1_rows((0.0,), (0.0, 1.0, 2))[0]
        radius = math.hypot(FIG_M, FIG_N)
        assert row["nu_1"] == pytest.approx(
            (1.0 + radius) ** 1.5 / (1.0 - radius) ** 0.5, rel=1e-9
        )
        assert row["nup_1"] == pytest.approx(1.0 + radius, rel=1e-9)

    def test_zero_theta_series_crosses_below_one(self):
        rows = _fig1_rows((0.0,), (0.0, 2.0, 41))
        nups = [row["nup_1"] for row in rows]
        assert nups[0] > 1.0
        assert min(nups) < 1.0

    def test_crossing_located_by_bisection(self):
        def gap(eta):
            row = _fig1_rows((0.0,), (eta, eta, 1))[0]
            return row["nup_1"] - 1.0

        crossing, lo, hi = bisect_decreasing(gap, 1e-6, 2.0, width=1e-8)
        assert crossing == pytest.approx(0.5905735581730078, abs=1e-6)

    def test_rows_equal_the_spectra_of_both_forms(self):
        # The rows against 40-digit mpmath spectra of (Sigma, Omega) and (Sigma, Omega').
        mpmath = pytest.importorskip("mpmath")
        m, n = -0.3, 0.2
        unit = 8 * EPS * (1.0 + 1.0 / (1.0 - math.hypot(m, n)))
        rows = _fig1_rows((0.0, 0.3, 0.98), (0.0, 2.0, 21), m, n)
        for row in rows:
            if row["theta"] * row["eta"] >= 1.0:
                assert row["nu_1"] is None
                continue
            got = [row[f"{name}_{j}"] for name in ("nu", "nup") for j in range(1, 5)]
            want = sum(mp_spectra(row["theta"], row["eta"], m, n), [])
            assert max(abs(float((mpmath.mpf(g) - w) / w)) for g, w in zip(got, want)) <= unit

    def test_hyperbola_row_left_empty(self):
        table = fig1_table((0.5,), (2.0, 2.0, 1), FIG_M, FIG_N)
        row = table_rows(table)[0]
        assert all(row[field] is None for field in FIG1_FIELDS[4:])
        assert _written(table_to_csv, table).strip().split("\n")[1].endswith(",,,,,,,")
        objs = json.loads(_written(table_to_json, table))
        assert "nu_1" not in objs[0]

    @pytest.mark.parametrize("wrap", [tuple, np.array])
    @pytest.mark.parametrize("thetas", [(0.5,), (0.0, 0.5)])
    def test_theta_arrays_and_tuples(self, wrap, thetas):
        # An array of two or more thetas used to raise numpy's "truth value ... is ambiguous".
        table = fig1_table(wrap(thetas), (0.0, 1.0, 3), FIG_M, FIG_N)
        np.testing.assert_array_equal(table["theta"], np.repeat(thetas, 3))
        listed = fig1_table(list(thetas), (0.0, 1.0, 3), FIG_M, FIG_N)
        assert _written(table_to_csv, table) == _written(table_to_csv, listed)
        assert len(table_rows(table)) == 3 * len(thetas)

    @pytest.mark.parametrize(
        "thetas", [(), np.array([]), np.array([[0.5]]), np.array(0.5), [[1.0], [2.0, 3.0]], ["a"], "0.5", None]
    )
    def test_rejects_empty_or_not_1d_thetas(self, thetas):
        # Ragged or non-numeric values raised numpy's bare ValueError. Both routes name the values.
        message = f"theta values must be a non-empty 1-D sequence of real numbers, got {thetas!r}"
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            fig1_table(thetas, (0.0, 1.0, 3), FIG_M, FIG_N)
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            _fig1_table(thetas, (0.0, 1.0, 3), FIG_M, FIG_N, _LISTS)

    @pytest.mark.parametrize("eta_range", [(2.0, 0.0, 3), (0.0, 2.0, 0), (0.0, 2.0, math.nan), (0.0, 2.0, 2.7)])
    def test_rejects_what_scan_table_rejects(self, eta_range):
        # Unchecked, a descending range emits rows in reverse order and zero steps no rows.
        with pytest.raises(DomainError):
            fig1_table((0.0, 0.25, 0.5), eta_range, FIG_M, FIG_N)


class TestFig2:
    def test_first_line_parameterization(self):
        rows = _scan_rows((0.0, 1.0, 2), (0.0, 1.0, 2), *fig2_couplings(0.1))
        for row in rows:
            assert row["m"] == pytest.approx(math.sqrt(2.0) / 30.0, rel=1e-14)
            assert row["n"] == pytest.approx(1.0 / 30.0, rel=1e-14)

    def test_swapped_parameterization(self):
        rows = _scan_rows((0.0, 1.0, 2), (0.0, 1.0, 2), *fig2_couplings(0.5, swap=True))
        for row in rows:
            assert row["n"] == pytest.approx(math.sqrt(2.0) / 6.0, rel=1e-14)
            assert row["m"] == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_census_contains_all_verdicts(self):
        codes, labels = scan_table((0.0, 2.0, 51), (0.0, 2.0, 51), *fig2_couplings(0.5))["verdict"]
        assert {labels[code] for code in codes.tolist()} == {"separable", "entangled", "nonquantum", "invalid"}

    def test_rejects_out_of_range_label(self):
        with pytest.raises(DomainError):
            fig2_couplings(1.0)
        with pytest.raises(DomainError):
            fig2_couplings(0.0)

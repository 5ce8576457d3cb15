"""Tests for grid scans, figure datasets, and deterministic emission."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ncgauss import (
    DomainError,
    NCParams,
    ScanConfig,
    build_covariance,
    eval_point,
    family_form,
    fig1_table,
    fig2_couplings,
    numeric_invariants,
    scan_table,
)
from ncgauss.cli import main
from ncgauss.family import dense_spectra
from ncgauss.scan import FIG1_FIELDS, SCAN_FIELDS, table_to_csv, table_to_json
from ncgauss.separability import primed_form
from oracles import (
    bisect_decreasing,
    brute_force_spectrum,
    closed_tolerance,
    dense_tolerance,
    mp_spectra,
    records_self_consistent,
    rows_to_csv,
    rows_to_json,
    table_rows,
)

FIG_M, FIG_N = math.sqrt(2.0) / 6.0, 1.0 / 6.0
EPS = float(np.finfo(float).eps)
QUADRANTS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))


def _scan_rows(config):
    """The rows of the scan table, None in the missing invariant cells."""
    return table_rows(scan_table(config))


def _point_rows(config):
    """The rows of one eval_point call per grid point, theta outer and eta inner."""
    return [
        vars(eval_point(t, e, config.m, config.n))
        for t in np.linspace(*config.theta_range)
        for e in np.linspace(*config.eta_range)
    ]


def _fig1_rows(theta_values, eta_range, m=FIG_M, n=FIG_N):
    """The rows of the fig1 table, None in the missing spectrum cells."""
    return table_rows(fig1_table(theta_values, eta_range, m, n))


def _column(values, dtype):
    """A float array or a label list of ``values``, paired with its mask if a value is None."""
    data = [(math.nan if dtype is float else "") if v is None else v for v in values]
    data = np.array(data, dtype=float) if dtype is float else data
    missing = np.array([v is None for v in values], dtype=bool)
    return (data, missing) if missing.any() else data


@st.composite
def _tables(draw):
    """Random column tables for the writer property.

    Floats repeat and include signed zeros, non-finite and extreme values, labels
    need JSON escapes, a column name holds a % directive, and any cell may be missing.
    """
    size = draw(st.integers(min_value=0, max_value=12))
    # From 1e12 on: values at or next to where "%.12g" and repr pick different notations or digits.
    floats = st.one_of(
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 123456789012345.0, 0.5,
                         1e12, 999999999999.5, 1e15, 1e16, 9999999999999998.0, 1e-4,
                         9.999999999995e-5, 5e-324, -2.0]),
        st.floats(),
    )
    labels = st.one_of(st.sampled_from(['q"\u00e9\n', "invalid", "\\", "\t\u2603", ""]), st.text(max_size=4))
    names = draw(st.lists(st.sampled_from(["theta", "nu_minus", "verdict", 'k"\u00e9', "%s"]),
                          min_size=1, max_size=4, unique=True))
    table = {}
    for name in names:
        dtype = draw(st.sampled_from([float, object]))
        cells = st.one_of(st.none(), floats if dtype is float else labels)
        table[name] = _column(draw(st.lists(cells, min_size=size, max_size=size)), dtype)
    return table


class TestEvalPoint:
    def test_commutative_point_is_separable(self):
        record = eval_point(0.0, 0.0, 0.3, 0.4)
        assert record.verdict == "separable"
        assert record.nu_minus_prime == pytest.approx(1.5, rel=1e-12)
        assert record.r == pytest.approx(0.5, rel=1e-14)

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
        numeric = numeric_invariants(0.25, 0.5, FIG_M, FIG_N)
        assert record.nu_minus == pytest.approx(numeric.nu_minus, rel=1e-8)
        assert record.nu_minus_prime == pytest.approx(numeric.nu_minus_prime, rel=1e-8)
        assert record.verdict == "entangled"

    def test_rejects_radius_at_one(self):
        with pytest.raises(DomainError):
            eval_point(0.0, 0.0, 0.8, 0.6)

    def test_rejects_negative_deformation(self):
        with pytest.raises(DomainError):
            eval_point(-0.1, 0.0, 0.1, 0.1)

    def test_negative_couplings_agree_with_the_dense_cross_check(self):
        # Off the quadrant the record carries the closed forms at (|m|, |n|); the dense
        # route (numeric_invariants, eval --verbose) must find the same invariants.
        record = eval_point(0.25, 0.5, -0.3, 0.2)
        numeric = numeric_invariants(0.25, 0.5, -0.3, 0.2)
        assert record.nu_minus == pytest.approx(numeric.nu_minus, rel=1e-12)
        assert record.nu_minus_prime == pytest.approx(numeric.nu_minus_prime, rel=1e-12)

    def test_off_quadrant_nu_prime_comes_from_reflected_form(self):
        # Here the reflected-covariance route D Sigma D^T is 1.4e-9 off (cond S_B ~ 119);
        # (Sigma, Omega') is 1.4e-14 off and the brute-force oracle 2.6e-13.
        theta, eta, m, n = 0.52, 1.92, -0.2357, 0.1667
        record = eval_point(theta, eta, m, n)
        nc = NCParams(theta, eta)
        oracle = brute_force_spectrum(build_covariance(m, n), primed_form(family_form(nc)))
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
        numeric = numeric_invariants(theta, eta, m, n)
        # Each route within its own bound of the exact value, so of each other within their sum.
        pytest.importorskip("mpmath")
        for got, want in zip(
            (numeric.nu_minus, numeric.nu_minus_prime), (closed.nu_minus, closed.nu_minus_prime)
        ):
            bound = dense_tolerance(theta, eta, m, n, want) + closed_tolerance(m, n)
            assert abs(got - want) <= bound * want


class TestScanGrid:
    def test_small_grid_complete(self):
        config = ScanConfig((0.0, 0.1, 2), (0.0, 0.1, 2), m=0.3, n=0.4)
        rows = _scan_rows(config)
        assert len(rows) == 4
        assert all(row["nu_minus"] is not None for row in rows)
        assert rows == _point_rows(config)

    def test_row_major_order(self):
        config = ScanConfig((0.0, 1.0, 3), (0.0, 1.0, 2), m=0.1, n=0.1)
        rows = _scan_rows(config)
        assert [(row["theta"], row["eta"]) for row in rows] == [
            (0.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 1.0), (1.0, 0.0), (1.0, 1.0)
        ]
        assert rows == _point_rows(config)

    def test_hyperbola_points_kept_as_invalid(self):
        root2 = math.sqrt(2.0)
        config = ScanConfig((0.0, root2, 2), (0.0, root2, 2), m=0.1, n=0.1)
        rows = _scan_rows(config)
        assert len(rows) == 4
        assert rows[-1]["theta"] == rows[-1]["eta"] == root2
        assert rows[-1]["verdict"] == "invalid"
        assert rows[-1]["nu_minus"] is None and rows[-1]["nu_minus_prime"] is None
        assert rows == _point_rows(config)

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
        config = ScanConfig((0.0, 2.0, 9), (0.0, 2.0, 9), m=m, n=n)
        nu, invalid = scan_table(config)["nu_minus"]
        assert invalid.any() and (nu[~invalid] > 0.0).all()
        assert _scan_rows(config) == _point_rows(config)
        couplings = ["--m", repr(m), "--n", repr(n)]
        assert main(["scan", "--theta-range", "0:2:5", "--eta-range", "0:2:5", *couplings]) == 0
        assert main(["eval", "--theta", "0.25", "--eta", "0.5", *couplings]) == 0
        assert main(["fig2", "--r", "0.5", "--theta-range", "0:2:5", "--eta-range", "0:2:5"]) == 0
        assert capsys.readouterr().out

    def test_invalid_steps_rejected(self):
        with pytest.raises(DomainError):
            ScanConfig((0.0, 1.0, 0), (0.0, 1.0, 2), m=0.1, n=0.1)
        with pytest.raises(DomainError):
            ScanConfig((1.0, 0.0, 2), (0.0, 1.0, 2), m=0.1, n=0.1)

    @pytest.mark.parametrize("steps", [math.nan, math.inf, -math.inf, 2.7])
    def test_steps_that_are_not_whole_rejected(self, steps):
        # Neither a bare ValueError or OverflowError from int(), nor a silent truncation.
        with pytest.raises(DomainError, match=r"^eta range needs a whole number of steps, got "):
            ScanConfig((0.0, 1.0, 2), (0.0, 1.0, steps), m=0.1, n=0.1)

    def test_numpy_integer_steps_accepted(self):
        config = ScanConfig((0.0, 1.0, np.int64(3)), (0.0, 1.0, 2.0), m=0.1, n=0.1)
        assert config.theta_range == (0.0, 1.0, 3) and config.eta_range == (0.0, 1.0, 2)
        rows = _scan_rows(config)
        assert [(row["theta"], row["eta"]) for row in rows] == [
            (0.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 1.0), (1.0, 0.0), (1.0, 1.0)
        ]
        assert rows == _point_rows(config)

    def test_deterministic_emission(self):
        config = ScanConfig((0.0, 2.0, 11), (0.0, 2.0, 11), m=FIG_M, n=FIG_N)
        first, second = scan_table(config), scan_table(config)
        assert table_to_csv(first) == table_to_csv(second)
        assert table_to_json(first) == table_to_json(second)

    def test_records_self_consistent(self):
        config = ScanConfig((0.0, 2.0, 11), (0.0, 2.0, 11), m=FIG_M, n=FIG_N)
        assert records_self_consistent(_scan_rows(config))

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
        # The batched table and the one-point case give the same rows, bit for bit,
        # on grids straddling the hyperbola (theta*eta in [0.99, 1) and beyond).
        eta = product / theta
        m, n = quadrant[0] * radius * math.cos(angle), quadrant[1] * radius * math.sin(angle)
        config = ScanConfig(
            (theta * (1.0 - spread), theta * (1.0 + spread), steps),
            (eta * (1.0 - spread), eta * (1.0 + spread), steps),
            m=m, n=n,
        )
        assert _scan_rows(config) == _point_rows(config)

    def test_grid_beyond_one_block_equals_point_records(self):
        # Grids and points agree bit for bit, and so do dense_spectra's stacked blocks of 512
        # points and its one-point case, numeric_invariants.
        config = ScanConfig((0.0, 2.0, 31), (0.0, 2.0, 31), m=-0.3, n=0.2)
        rows = _scan_rows(config)
        assert sum(row["nu_minus"] is not None for row in rows) > 512  # more than one dense block
        assert rows == _point_rows(config)
        spectrum, reflected = dense_spectra([row["theta"] for row in rows], [row["eta"] for row in rows], -0.3, 0.2)
        for row, nu, nu_prime in zip(rows, spectrum[:, 0], reflected[:, 0]):
            if row["nu_minus"] is not None:
                numeric = numeric_invariants(row["theta"], row["eta"], row["m"], row["n"])
                assert (numeric.nu_minus, numeric.nu_minus_prime) == (nu, nu_prime)

    def test_commutative_rows_never_entangled(self):
        config = ScanConfig((0.0, 0.0, 1), (0.0, 0.0, 1), m=0.3, n=0.4)
        for radius in np.linspace(0.0, 0.9, 7):
            record = eval_point(0.0, 0.0, radius, 0.0)
            assert record.verdict == "separable"


class TestOutputFormats:
    @pytest.fixture()
    def config(self):
        root2 = math.sqrt(2.0)
        return ScanConfig((0.0, root2, 2), (0.0, root2, 2), m=0.3, n=0.4)

    def test_csv_header_and_empty_invariants(self, config):
        lines = table_to_csv(scan_table(config)).strip().split("\n")
        assert lines[0] == "theta,eta,m,n,r,nu_minus,nu_minus_prime,verdict"
        assert len(lines) == 5
        invalid = [line for line in lines[1:] if line.endswith("invalid")]
        assert invalid and all(",,," in line for line in invalid)

    def test_csv_values_round_trip_at_12_digits(self, config):
        line = table_to_csv(scan_table(config)).strip().split("\n")[1]
        fields = line.split(",")
        assert float(fields[4]) == pytest.approx(0.5, rel=1e-11)
        assert fields[5] == format(eval_point(0.0, 0.0, 0.3, 0.4).nu_minus, ".12g")

    def test_json_matches_json_dumps_layout(self, config):
        def reference(table):
            objs = [
                {f: v if isinstance(v, str) else float("%.12g" % v)
                 for f, v in row.items() if v is not None}
                for row in table_rows(table)
            ]
            return json.dumps(objs, indent=2) + "\n"

        # The odd rows, one type per column: row 0 misses every cell, row 1 holds the label.
        odd = {
            "a": _column([None, None, math.inf, 1e-300], float),
            "label": _column([None, 'q"\u00e9\n', None, None], object),
            "b": _column([None, -0.0, math.nan, 123456789012345.0], float),
        }
        empty = {field: [] if field == "verdict" else np.array([]) for field in SCAN_FIELDS}
        for table in (scan_table(config), empty, odd):
            assert table_to_json(table) == reference(table)

    def test_json_omits_invariants_for_invalid(self, config):
        objs = json.loads(table_to_json(scan_table(config)))
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
        "y": _column([math.nan, math.inf, 1e-300, 123456789012345.0, math.nan], float),
        "verdict": _column(['q"\u00e9\n', "invalid", None, "invalid", "\\\t"], object),
    })
    @example(table={  # row 0 has every cell missing, row 1 its first one
        "theta": _column([None, None, 1e12], float),
        "verdict": _column([None, "invalid", None], object),
        "nu_minus": _column([None, 999999999999.5, 5e-324], float),
    })
    def test_table_writers_equal_per_row_reference(self, table):
        # Spelling each distinct value once gives the text of spelling every cell.
        rows, fields = table_rows(table), tuple(table)
        assert table_to_csv(table) == rows_to_csv(rows, fields)
        assert table_to_json(table) == rows_to_json(rows, fields)


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
        assert table_to_csv(table).strip().split("\n")[1].endswith(",,,,,,,")
        objs = json.loads(table_to_json(table))
        assert "nu_1" not in objs[0]

    @pytest.mark.parametrize("wrap", [tuple, np.array])
    @pytest.mark.parametrize("thetas", [(0.5,), (0.0, 0.5)])
    def test_theta_arrays_and_tuples(self, wrap, thetas):
        # An array of two or more thetas used to raise numpy's "truth value ... is ambiguous".
        table = fig1_table(wrap(thetas), (0.0, 1.0, 3), FIG_M, FIG_N)
        np.testing.assert_array_equal(table["theta"], np.repeat(thetas, 3))
        assert table_to_csv(table) == table_to_csv(fig1_table(list(thetas), (0.0, 1.0, 3), FIG_M, FIG_N))
        assert len(table_rows(table)) == 3 * len(thetas)

    @pytest.mark.parametrize("thetas", [(), np.array([]), np.array([[0.5]]), np.array(0.5)])
    def test_rejects_empty_or_not_1d_thetas(self, thetas):
        with pytest.raises(DomainError, match="theta values must be a non-empty 1-D sequence"):
            fig1_table(thetas, (0.0, 1.0, 3), FIG_M, FIG_N)

    @pytest.mark.parametrize("eta_range", [(2.0, 0.0, 3), (0.0, 2.0, 0), (0.0, 2.0, math.nan), (0.0, 2.0, 2.7)])
    def test_rejects_what_scan_config_rejects(self, eta_range):
        # Unchecked, a descending range emits rows in reverse order and zero steps no rows.
        with pytest.raises(DomainError):
            fig1_table((0.0, 0.25, 0.5), eta_range, FIG_M, FIG_N)


class TestFig2:
    def test_first_line_parameterization(self):
        rows = _scan_rows(ScanConfig((0.0, 1.0, 2), (0.0, 1.0, 2), *fig2_couplings(0.1)))
        for row in rows:
            assert row["m"] == pytest.approx(math.sqrt(2.0) / 30.0, rel=1e-14)
            assert row["n"] == pytest.approx(1.0 / 30.0, rel=1e-14)

    def test_swapped_parameterization(self):
        rows = _scan_rows(ScanConfig((0.0, 1.0, 2), (0.0, 1.0, 2), *fig2_couplings(0.5, swap=True)))
        for row in rows:
            assert row["n"] == pytest.approx(math.sqrt(2.0) / 6.0, rel=1e-14)
            assert row["m"] == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_census_contains_all_verdicts(self):
        table = scan_table(ScanConfig((0.0, 2.0, 51), (0.0, 2.0, 51), *fig2_couplings(0.5)))
        assert set(table["verdict"]) == {"separable", "entangled", "nonquantum", "invalid"}

    def test_rejects_out_of_range_label(self):
        with pytest.raises(DomainError):
            fig2_couplings(1.0)
        with pytest.raises(DomainError):
            fig2_couplings(0.0)

"""Tests for grid scans, figure datasets, and deterministic emission."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncgauss import (
    DomainError,
    FamilyParams,
    FormulaDomainError,
    NCParams,
    ScanConfig,
    build_covariance,
    closed_form_invariants,
    emit_fig1_data,
    emit_fig2_data,
    eval_point,
    family_form,
    numeric_invariants,
    primed_form,
    rows_to_csv,
    rows_to_json,
    scan_grid,
)
from ncgauss.scan import FIG1_FIELDS, SCAN_FIELDS, records_self_consistent
from ncgauss.separability import partial_transpose_spectra
from oracles import bisect_decreasing, brute_force_spectrum

FIG_M, FIG_N = math.sqrt(2.0) / 6.0, 1.0 / 6.0
EPS = float(np.finfo(float).eps)


def _scan_csv(records):
    return rows_to_csv(map(vars, records), SCAN_FIELDS)


def _scan_json(records):
    return rows_to_json(map(vars, records), SCAN_FIELDS)


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

    def test_negative_couplings_use_spectral_route(self):
        # The printed closed forms only hold for m, n >= 0; off the quadrant
        # the record must still carry the true invariants.
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
        oracle = brute_force_spectrum(build_covariance(m, n, nc).sigma, primed_form(family_form(nc)))
        assert record.nu_minus_prime == pytest.approx(oracle[0], rel=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(min_value=0.5, max_value=2.0),
        product=st.floats(min_value=0.99, max_value=1.0, exclude_max=True),
        radius=st.floats(min_value=0.0, max_value=0.9999),
        angle=st.floats(min_value=0.0, max_value=math.pi / 2.0),
    )
    def test_closed_forms_match_spectral_route_near_boundaries(self, theta, product, radius, angle):
        eta = product / theta
        m, n = radius * math.cos(angle), radius * math.sin(angle)
        assume(theta * eta < 1.0 and math.hypot(m, n) < 1.0)
        nc = NCParams(theta, eta)
        try:
            closed = closed_form_invariants(FamilyParams(m=m, n=n, nc=nc))
        except FormulaDomainError:
            assume(False)
        numeric = numeric_invariants(theta, eta, m, n)
        spectra = partial_transpose_spectra(build_covariance(m, n, nc).sigma, family_form(nc))
        for got, want, spectrum in zip(
            (numeric.nu_minus, numeric.nu_minus_prime), (closed.nu_minus, closed.nu_minus_prime), spectra
        ):
            # The eigensolver's error on K = sqrt(Sigma) Omega^-1 sqrt(Sigma) is up to about
            # n eps ||K|| = 8 eps nu_max / 2 per eigenvalue, so nu_min is only good to
            # about 8 eps nu_max / nu_min relative. For Omega' at theta*eta = 0.99999 and
            # R = 0.9999 that is 1.4e-5 (nu_max / nu_min = 8e9); the error there is 3.8e-7.
            spread = spectrum.invariants[-1] / spectrum.smallest
            assert got == pytest.approx(want, rel=max(1e-8, 8 * EPS * spread))


class TestScanGrid:
    def test_small_grid_complete(self):
        config = ScanConfig((0.0, 0.1, 2), (0.0, 0.1, 2), m=0.3, n=0.4)
        records = scan_grid(config)
        assert len(records) == 4
        assert all(rec.nu_minus is not None for rec in records)

    def test_row_major_order(self):
        config = ScanConfig((0.0, 1.0, 3), (0.0, 1.0, 2), m=0.1, n=0.1)
        records = scan_grid(config)
        assert [(rec.theta, rec.eta) for rec in records] == [
            (0.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 1.0), (1.0, 0.0), (1.0, 1.0)
        ]

    def test_hyperbola_points_kept_as_invalid(self):
        root2 = math.sqrt(2.0)
        config = ScanConfig((0.0, root2, 2), (0.0, root2, 2), m=0.1, n=0.1)
        records = scan_grid(config)
        assert len(records) == 4
        assert records[-1].theta == records[-1].eta == root2
        assert records[-1].verdict == "invalid"

    def test_invalid_steps_rejected(self):
        with pytest.raises(DomainError):
            ScanConfig((0.0, 1.0, 0), (0.0, 1.0, 2), m=0.1, n=0.1)
        with pytest.raises(DomainError):
            ScanConfig((1.0, 0.0, 2), (0.0, 1.0, 2), m=0.1, n=0.1)

    def test_deterministic_emission(self):
        config = ScanConfig((0.0, 2.0, 11), (0.0, 2.0, 11), m=FIG_M, n=FIG_N)
        first, second = scan_grid(config), scan_grid(config)
        assert _scan_csv(first) == _scan_csv(second)
        assert _scan_json(first) == _scan_json(second)

    def test_records_self_consistent(self):
        config = ScanConfig((0.0, 2.0, 11), (0.0, 2.0, 11), m=FIG_M, n=FIG_N)
        assert records_self_consistent(scan_grid(config))

    def test_commutative_rows_never_entangled(self):
        config = ScanConfig((0.0, 0.0, 1), (0.0, 0.0, 1), m=0.3, n=0.4)
        for radius in np.linspace(0.0, 0.9, 7):
            record = eval_point(0.0, 0.0, radius, 0.0)
            assert record.verdict == "separable"


class TestOutputFormats:
    @pytest.fixture()
    def records(self):
        root2 = math.sqrt(2.0)
        return scan_grid(ScanConfig((0.0, root2, 2), (0.0, root2, 2), m=0.3, n=0.4))

    def test_csv_header_and_empty_invariants(self, records):
        lines = _scan_csv(records).strip().split("\n")
        assert lines[0] == "theta,eta,m,n,r,nu_minus,nu_minus_prime,verdict"
        assert len(lines) == 5
        invalid = [line for line in lines[1:] if line.endswith("invalid")]
        assert invalid and all(",,," in line for line in invalid)

    def test_csv_values_round_trip_at_12_digits(self, records):
        line = _scan_csv(records).strip().split("\n")[1]
        fields = line.split(",")
        assert float(fields[4]) == pytest.approx(0.5, rel=1e-11)
        assert fields[5] == format(records[0].nu_minus, ".12g")

    def test_json_omits_invariants_for_invalid(self, records):
        objs = json.loads(_scan_json(records))
        assert len(objs) == 4
        for obj in objs:
            if obj["verdict"] == "invalid":
                assert "nu_minus" not in obj
            else:
                assert set(obj) == {
                    "theta", "eta", "m", "n", "r", "nu_minus", "nu_minus_prime", "verdict"
                }


class TestFig1:
    def test_default_columns_and_row_count(self):
        rows = emit_fig1_data(eta_range=(0.0, 2.0, 21))
        assert len(rows) == 3 * 21
        assert set(rows[0]) == {
            "theta", "eta", "m", "n",
            "nu_1", "nu_2", "nu_3", "nu_4", "nup_1", "nup_2", "nup_3", "nup_4",
        }

    def test_spectra_sorted(self):
        for row in emit_fig1_data(eta_range=(0.0, 1.9, 11)):
            nus = [row[f"nu_{j}"] for j in range(1, 5)]
            nups = [row[f"nup_{j}"] for j in range(1, 5)]
            assert nus == sorted(nus) and nups == sorted(nups)

    def test_zero_deformation_row_matches_commutative_formulas(self):
        row = emit_fig1_data(theta_values=(0.0,), eta_range=(0.0, 1.0, 2))[0]
        radius = math.hypot(FIG_M, FIG_N)
        assert row["nu_1"] == pytest.approx(
            (1.0 + radius) ** 1.5 / (1.0 - radius) ** 0.5, rel=1e-9
        )
        assert row["nup_1"] == pytest.approx(1.0 + radius, rel=1e-9)

    def test_zero_theta_series_crosses_below_one(self):
        rows = emit_fig1_data(theta_values=(0.0,), eta_range=(0.0, 2.0, 41))
        nups = [row["nup_1"] for row in rows]
        assert nups[0] > 1.0
        assert min(nups) < 1.0

    def test_crossing_located_by_bisection(self):
        def gap(eta):
            row = emit_fig1_data(theta_values=(0.0,), eta_range=(eta, eta, 1))[0]
            return row["nup_1"] - 1.0

        crossing, lo, hi = bisect_decreasing(gap, 1e-6, 2.0, width=1e-8)
        assert crossing == pytest.approx(0.5905735581730078, abs=1e-6)

    def test_hyperbola_row_left_empty(self):
        rows = emit_fig1_data(theta_values=(0.5,), eta_range=(2.0, 2.0, 1))
        assert rows[0]["nu_1"] is None and rows[0]["nup_4"] is None
        text = rows_to_csv(rows, FIG1_FIELDS)
        assert text.strip().split("\n")[1].endswith(",,,,,,,")
        objs = json.loads(rows_to_json(rows, FIG1_FIELDS))
        assert "nu_1" not in objs[0]


class TestFig2:
    def test_first_line_parameterization(self):
        records = emit_fig2_data(0.1, theta_range=(0.0, 1.0, 2), eta_range=(0.0, 1.0, 2))
        for rec in records:
            assert rec.m == pytest.approx(math.sqrt(2.0) / 30.0, rel=1e-14)
            assert rec.n == pytest.approx(1.0 / 30.0, rel=1e-14)

    def test_swapped_parameterization(self):
        records = emit_fig2_data(0.5, swap=True, theta_range=(0.0, 1.0, 2), eta_range=(0.0, 1.0, 2))
        for rec in records:
            assert rec.n == pytest.approx(math.sqrt(2.0) / 6.0, rel=1e-14)
            assert rec.m == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_census_contains_all_verdicts(self):
        records = emit_fig2_data(0.5, theta_range=(0.0, 2.0, 51), eta_range=(0.0, 2.0, 51))
        verdicts = {rec.verdict for rec in records}
        assert verdicts == {"separable", "entangled", "nonquantum", "invalid"}

    def test_rejects_out_of_range_label(self):
        with pytest.raises(DomainError):
            emit_fig2_data(1.0)
        with pytest.raises(DomainError):
            emit_fig2_data(0.0)

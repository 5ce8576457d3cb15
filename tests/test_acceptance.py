"""Acceptance suite: one test per criterion, at the stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Random draws use fixed seeds so every run checks the same points.
"""

import math
import time

import numpy as np

from ncgauss import (
    NCParams,
    build_covariance,
    build_darboux_map,
    build_planar_form,
    classify,
    eval_point,
    fig2_couplings,
    nc_williamson_spectrum,
    rsup_holds,
    scan_table,
    transform_covariance,
)
from ncgauss.cli import main
from ncgauss.core import block_diag, standard_symplectic_form
from ncgauss.kernel import Verdict, family_invariants
from oracles import (
    bisect_decreasing,
    hermitian_min_eigenvalue,
    partial_transpose_map,
    random_skew_nonsingular,
    random_spd,
    table_rows,
)

FIG_M, FIG_N = math.sqrt(2.0) / 6.0, 1.0 / 6.0
J_COMPOSITE = block_diag(standard_symplectic_form(2), standard_symplectic_form(2))


def _sample_valid_deformation(rng):
    while True:
        theta, eta = rng.uniform(0.0, 2.0, size=2)
        if theta * eta < 1.0:
            return float(theta), float(eta)


def _report(number, name, elapsed, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s{suffix}")


def test_criterion_1_commutative_limit_formulas():
    start = time.perf_counter()
    for radius, m, n in [(0.1, 0.06, 0.08), (0.2, 0.12, 0.16), (0.5, 0.3, 0.4)]:
        result = eval_point(0.0, 0.0, m, n)
        expected_nu = (1.0 + radius) ** 1.5 / (1.0 - radius) ** 0.5
        assert abs(result.nu_minus_prime - (1.0 + radius)) <= 1e-10
        assert abs(result.nu_minus - expected_nu) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "commutative-limit formulas", elapsed)


def test_criterion_2_closed_form_vs_spectral_oracle():
    # The closed forms run batched, as scan runs them: one family_invariants call per
    # coupling, one coupling per quadrant at a random radius, 250 points each. classify
    # checks every point on the dense route.
    start = time.perf_counter()
    rng = np.random.default_rng(20240801)
    checked = 0
    for sign_m, sign_n in ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)):
        radius = rng.uniform(0.0, 0.9)
        angle = rng.uniform(0.0, 0.5 * np.pi)
        m, n = float(sign_m * radius * np.cos(angle)), float(sign_n * radius * np.sin(angle))
        thetas, etas = np.array([_sample_valid_deformation(rng) for _ in range(250)]).T
        nus, nu_primes = family_invariants(thetas, etas, m, n)
        sigma = build_covariance(m, n)
        for theta, eta, nu_closed, nu_prime_closed in zip(thetas, etas, nus, nu_primes):
            part = build_planar_form(NCParams(theta, eta))
            result = classify(sigma, part, part)
            assert abs(nu_closed - result.nu_minus) / result.nu_minus <= 1e-8
            assert abs(nu_prime_closed - result.nu_minus_prime) / result.nu_minus_prime <= 1e-8
            checked += 1
    assert checked == 1000
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, "closed form vs spectral oracle", elapsed, f"{checked} tuples")


def test_criterion_3_darboux_constraint():
    start = time.perf_counter()
    rng = np.random.default_rng(3003)
    for _ in range(100):
        theta, eta = _sample_valid_deformation(rng)
        nc = NCParams(theta, eta)
        part = build_planar_form(nc)
        target = block_diag(part, part)
        for lam in (0.5, 1.0, 2.0):
            dmap = build_darboux_map(nc, lambda_scale=lam)
            residual = np.max(np.abs(dmap @ J_COMPOSITE @ dmap.T - target))
            assert residual <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, "Darboux constraint S J S^T = Omega", elapsed, "100 points x 3 gauges")


def test_criterion_4_transport_independence():
    start = time.perf_counter()
    rng = np.random.default_rng(4004)
    for _ in range(100):
        theta, eta = _sample_valid_deformation(rng)
        nc = NCParams(theta, eta)
        part = build_planar_form(nc)
        omega = block_diag(part, part)
        sigma_tilde = random_spd(rng, 8)
        lam1 = float(np.exp(rng.uniform(-1.0, 1.0)))
        lam2 = lam1 * float(np.exp(rng.uniform(0.2, 1.0)))
        spec1 = nc_williamson_spectrum(transform_covariance(build_darboux_map(nc, lam1), sigma_tilde), omega)
        spec2 = nc_williamson_spectrum(transform_covariance(build_darboux_map(nc, lam2), sigma_tilde), omega)
        standard = nc_williamson_spectrum(sigma_tilde, J_COMPOSITE)
        np.testing.assert_allclose(spec1, spec2, rtol=1e-9)
        np.testing.assert_allclose(spec1, standard, rtol=1e-9)
        np.testing.assert_allclose(spec2, standard, rtol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, "transport independence of the spectrum", elapsed, "100 draws")


def test_criterion_5_primed_form_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(5005)
    for _ in range(100):
        theta, eta = _sample_valid_deformation(rng)
        nc = NCParams(theta, eta)
        part = build_planar_form(nc)
        lam = float(np.exp(rng.uniform(-1.0, 1.0)))
        dmap = build_darboux_map(nc, lambda_scale=lam)
        dmat = partial_transpose_map(dmap, 2, 2).mat
        assert np.max(np.abs(dmat @ dmat - np.eye(8))) <= 1e-10
        via_map = np.linalg.inv(dmat) @ block_diag(part, part) @ np.linalg.inv(dmat.T)
        expected = block_diag(part, -part)
        assert np.max(np.abs(via_map - expected)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(5, "primed-form identity and involution", elapsed, "100 maps")


def test_criterion_6_deformation_induced_entanglement():
    start = time.perf_counter()

    def classify_point(theta, eta):
        part = build_planar_form(NCParams(theta, eta))
        return classify(build_covariance(FIG_M, FIG_N), part, part)

    assert classify_point(0.0, 0.0).verdict is Verdict.SEPARABLE_QUANTUM

    def prime_gap(eta):
        return eval_point(0.0, eta, FIG_M, FIG_N).nu_minus_prime - 1.0

    def quantum_gap(eta):
        return eval_point(0.0, eta, FIG_M, FIG_N).nu_minus - 1.0

    crossing, lo, hi = bisect_decreasing(prime_gap, 1e-9, 2.0, width=1e-10)
    assert hi - lo <= 1e-10
    assert prime_gap(lo) > 0 > prime_gap(hi)

    quantum_crossing, _, _ = bisect_decreasing(quantum_gap, 1e-9, 2.0, width=1e-10)
    assert crossing < quantum_crossing  # an entangled window exists on the slice

    witness_eta = 0.5 * (crossing + quantum_crossing)
    witness = classify_point(0.0, witness_eta)
    assert witness.verdict is Verdict.ENTANGLED_QUANTUM
    assert witness.nu_minus >= 1.0 > witness.nu_minus_prime
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(6, "deformation-induced entanglement", elapsed,
            f"nu' crossing at eta={crossing:.10f}, witness eta={witness_eta:.4f}")


def test_criterion_7_region_census():
    start = time.perf_counter()
    expected = {"separable", "entangled", "nonquantum", "invalid"}
    for swap in (False, True):
        rows = table_rows(scan_table((0.0, 2.0, 101), (0.0, 2.0, 101), *fig2_couplings(0.5, swap)))
        assert len(rows) == 101 * 101
        verdicts = {row["verdict"] for row in rows}
        assert verdicts == expected
        for row in rows:
            if row["theta"] * row["eta"] > 1.0:
                assert row["verdict"] == "invalid"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(7, "region census on both parameter orderings", elapsed, "2 x 101x101 grids")


def test_criterion_8_rsup_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(8008)
    outcomes = {True: 0, False: 0}
    for _ in range(500):
        n_modes = int(rng.integers(1, 5))
        dim = 2 * n_modes
        scale = float(np.exp(rng.uniform(-1.0, 3.5)))
        sigma = scale * random_spd(rng, dim) / dim
        kind = rng.integers(0, 3)
        if kind == 0:
            form = np.asarray(standard_symplectic_form(n_modes))
        elif kind == 1 and dim == 8:
            theta, eta = _sample_valid_deformation(rng)
            part = build_planar_form(NCParams(theta, eta))
            form = block_diag(part, part)
        else:
            form = random_skew_nonsingular(rng, dim)
        holds = rsup_holds(sigma, form)
        direct = hermitian_min_eigenvalue(sigma + 0.5j * form) >= -1e-10
        assert holds == direct
        outcomes[holds] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0
    elapsed = time.perf_counter() - start
    _report(8, "uncertainty check vs Hermitian positivity", elapsed,
            f"{outcomes[True]} satisfied / {outcomes[False]} violated")


def test_criterion_9_scan_determinism(tmp_path):
    start = time.perf_counter()
    for fmt in ("csv", "json"):
        args = [
            "scan", "--theta-range", "0:2:21", "--eta-range", "0:2:21",
            "--m", f"{FIG_M!r}", "--n", f"{FIG_N!r}", "--format", fmt,
        ]
        first = tmp_path / f"first.{fmt}"
        second = tmp_path / f"second.{fmt}"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
    elapsed = time.perf_counter() - start
    _report(9, "byte-identical scan reruns", elapsed, "csv and json")

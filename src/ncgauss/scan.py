"""Parameter-plane scans: point evaluation, grid classification, figure datasets.

Grid points are evaluated through the closed-form invariants (with a spectral
fallback if a closed form leaves its domain) and emitted in row-major order,
theta outer and eta inner. Output is deterministic: floats are rounded to 12
significant digits before formatting, so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .core import DEFAULT_TOL, Tolerances
from .errors import DomainError, FormulaDomainError
from .family import (
    FamilyParams,
    build_covariance,
    closed_form_invariants,
    family_form,
    validate_couplings,
)
from .phase_space import NCParams, validate_deformations
from .separability import (
    ClassificationResult,
    Verdict,
    classify,
    partial_transpose_spectra,
    verdict_from_invariants,
)

VERDICT_LABEL = {
    Verdict.INVALID_DOMAIN: "invalid",
    Verdict.NON_QUANTUM: "nonquantum",
    Verdict.SEPARABLE_QUANTUM: "separable",
    Verdict.ENTANGLED_QUANTUM: "entangled",
}

SCAN_FIELDS = ("theta", "eta", "m", "n", "r", "nu_minus", "nu_minus_prime", "verdict")
FIG1_FIELDS = (
    "theta",
    "eta",
    "m",
    "n",
    "nu_1",
    "nu_2",
    "nu_3",
    "nu_4",
    "nup_1",
    "nup_2",
    "nup_3",
    "nup_4",
)


@dataclass(frozen=True)
class ScanConfig:
    """Grid specification: each range is (min, max, number of points)."""

    theta_range: tuple[float, float, int]
    eta_range: tuple[float, float, int]
    m: float
    n: float

    def __post_init__(self):
        for name, rng in (("theta", self.theta_range), ("eta", self.eta_range)):
            lo, hi, steps = rng
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise DomainError(f"{name} range must satisfy min <= max, got {rng}")
            if int(steps) < 1:
                raise DomainError(f"{name} range needs >= 1 steps, got {steps}")


@dataclass(frozen=True)
class ScanRecord:
    """One grid point; the nu fields are None when the point is out of domain."""

    theta: float
    eta: float
    m: float
    n: float
    r: float
    nu_minus: float | None
    nu_minus_prime: float | None
    verdict: str


def numeric_invariants(
    theta: float, eta: float, m: float, n: float, tol: Tolerances = DEFAULT_TOL
) -> ClassificationResult:
    """Spectral-route classification of a family point (cross-check and fallback)."""
    nc = NCParams(theta=theta, eta=eta)
    return classify(build_covariance(m, n, nc, tol).sigma, family_form(nc, tol), tol)


def eval_point(
    theta: float, eta: float, m: float, n: float, tol: Tolerances = DEFAULT_TOL
) -> ScanRecord:
    """Classify one family point; theta*eta >= 1 yields the invalid verdict."""
    theta, eta, m, n = float(theta), float(eta), float(m), float(n)
    validate_deformations(theta, eta)
    r = validate_couplings(m, n)
    if theta * eta >= 1.0:
        return ScanRecord(
            theta=theta, eta=eta, m=m, n=n, r=r,
            nu_minus=None, nu_minus_prime=None,
            verdict=VERDICT_LABEL[Verdict.INVALID_DOMAIN],
        )
    params = FamilyParams(m=m, n=n, nc=NCParams(theta=theta, eta=eta))
    # Closed forms are only exact on the m, n >= 0 quadrant; the spectral
    # route covers the rest.
    use_closed = m >= 0.0 and n >= 0.0
    if use_closed:
        try:
            invariants = closed_form_invariants(params, tol)
            nu, nu_prime = invariants.nu_minus, invariants.nu_minus_prime
        except FormulaDomainError:
            use_closed = False
    if not use_closed:
        result = numeric_invariants(theta, eta, m, n, tol=tol)
        nu, nu_prime = result.nu_minus, result.nu_minus_prime
    verdict = verdict_from_invariants(nu, nu_prime, tol)
    return ScanRecord(
        theta=theta, eta=eta, m=m, n=n, r=r,
        nu_minus=nu, nu_minus_prime=nu_prime,
        verdict=VERDICT_LABEL[verdict],
    )


def grid_axis(lo: float, hi: float, steps: int) -> np.ndarray:
    return np.linspace(lo, hi, int(steps))


def scan_grid(config: ScanConfig, tol: Tolerances = DEFAULT_TOL) -> list[ScanRecord]:
    """Evaluate every grid point, theta outer and eta inner, in row-major order."""
    thetas = grid_axis(*config.theta_range)
    etas = grid_axis(*config.eta_range)
    return [
        eval_point(float(theta), float(eta), config.m, config.n, tol)
        for theta in thetas
        for eta in etas
    ]


def emit_fig2_data(
    r: float,
    swap: bool = False,
    theta_range: tuple[float, float, int] = (0.0, 2.0, 101),
    eta_range: tuple[float, float, int] = (0.0, 2.0, 101),
    tol: Tolerances = DEFAULT_TOL,
) -> list[ScanRecord]:
    """Grid scan along the figure slice n = r/3, m = sqrt(2) r/3 (or swapped)."""
    if not (0.0 < r < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r}")
    n, m = r / 3.0, math.sqrt(2.0) * r / 3.0
    if swap:
        n, m = m, n
    config = ScanConfig(theta_range=theta_range, eta_range=eta_range, m=m, n=n)
    return scan_grid(config, tol)


def emit_fig1_data(
    theta_values=(0.0, 0.25, 0.5),
    eta_range: tuple[float, float, int] = (0.0, 2.0, 101),
    m: float = math.sqrt(2.0) / 6.0,
    n: float = 1.0 / 6.0,
    tol: Tolerances = DEFAULT_TOL,
) -> list[dict]:
    """Full four-invariant spectra of (Sigma, Omega) and (Sigma, Omega') per point.

    Rows carry the (m, n) choice explicitly since the eigenvalue plot leaves it
    implicit. Points with theta*eta >= 1 keep their row but leave the spectrum
    columns empty (the form is singular on the hyperbola).
    """
    if not theta_values:
        raise DomainError("at least one theta value is required")
    validate_couplings(m, n)
    rows = []
    for theta in map(float, theta_values):
        for eta in map(float, grid_axis(*eta_range)):
            validate_deformations(theta, eta)
            row = {"theta": theta, "eta": eta, "m": m, "n": n}
            if theta * eta >= 1.0:
                row.update({field: None for field in FIG1_FIELDS[4:]})
            else:
                nc = NCParams(theta=theta, eta=eta)
                spectrum, reflected = partial_transpose_spectra(
                    build_covariance(m, n, nc, tol).sigma, family_form(nc, tol), tol
                )
                for j in range(4):
                    row[f"nu_{j + 1}"] = spectrum.invariants[j]
                    row[f"nup_{j + 1}"] = reflected.invariants[j]
            rows.append(row)
    return rows


def rows_to_csv(rows: Iterable[Mapping], fields: tuple[str, ...]) -> str:
    """CSV text with a header of ``fields`` and one line per row, in order.

    None becomes an empty cell, strings pass through, and numbers are written
    with 12 significant digits. Scan records go in as ``map(vars, records)``.
    """
    lines = [",".join(fields)]
    for values in map(itemgetter(*fields), rows):
        lines.append(",".join(
            ["" if v is None else v if v.__class__ is str else "%.12g" % v for v in values]
        ))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Iterable[Mapping], fields: tuple[str, ...]) -> str:
    """JSON array with one object per row, keys in ``fields`` order.

    None omits the key, strings pass through, and numbers are rounded to 12
    significant digits.
    """
    objs = [
        {f: v if v.__class__ is str else float("%.12g" % v)
         for f, v in zip(fields, values) if v is not None}
        for values in map(itemgetter(*fields), rows)
    ]
    return json.dumps(objs, indent=2) + "\n"


def records_self_consistent(records: list[ScanRecord], tol: Tolerances = DEFAULT_TOL) -> bool:
    """Recompute each verdict from the stored invariants (emitted-file sanity)."""
    for rec in records:
        if rec.nu_minus is None:
            if rec.verdict != VERDICT_LABEL[Verdict.INVALID_DOMAIN]:
                return False
            continue
        expected = VERDICT_LABEL[verdict_from_invariants(rec.nu_minus, rec.nu_minus_prime, tol)]
        if rec.verdict != expected:
            return False
    return True

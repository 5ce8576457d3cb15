"""Parameter-plane scans: point evaluation, grid classification, figure datasets.

A grid is evaluated in one batched call, ``family.family_invariants`` (or
``family.family_spectra`` for the figure-1 spectra): closed-form invariants on
the m, n >= 0 quadrant, and off it the spectral route, one stacked solve and
eigvalsh per block of points. The couplings alone pick the route.
:func:`eval_point` and :func:`numeric_invariants` are the one-point case of the
same calls. Every grid range, the CLI's included, is checked by one function,
:func:`_check_range`. Records are emitted in row-major order, theta outer and
eta inner. Output is deterministic: floats are rounded to 12 significant digits
before formatting, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as quote
from operator import itemgetter

import numpy as np

from .errors import DomainError
from .family import family_invariants, family_spectra, validate_couplings
from .phase_space import NCParams
from .separability import ClassificationResult, Verdict, verdict_from_invariants

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


def _check_range(name: str, rng: tuple[float, float, int]) -> None:
    """Require a grid range (min, max, steps) with finite min <= max and steps >= 1."""
    lo, hi, steps = rng
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise DomainError(f"{name} range must satisfy finite min <= max, got {rng}")
    if int(steps) < 1:
        raise DomainError(f"{name} range needs >= 1 steps, got {steps}")


@dataclass(frozen=True)
class ScanConfig:
    """Grid specification: each range is (min, max, number of points)."""

    theta_range: tuple[float, float, int]
    eta_range: tuple[float, float, int]
    m: float
    n: float

    def __post_init__(self):
        _check_range("theta", self.theta_range)
        _check_range("eta", self.eta_range)


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


def numeric_invariants(theta: float, eta: float, m: float, n: float) -> ClassificationResult:
    """Spectral-route classification of a family point (the cross-check of ``eval --verbose``)."""
    NCParams(theta=theta, eta=eta)  # theta*eta >= 1 is an error here, not an invalid record
    spectrum, reflected = family_spectra([theta], [eta], m, n)
    nu, nu_prime = float(spectrum[0, 0]), float(reflected[0, 0])
    return ClassificationResult(
        verdict=verdict_from_invariants(nu, nu_prime), nu_minus=nu, nu_minus_prime=nu_prime
    )


def _records(thetas: np.ndarray, etas: np.ndarray, m: float, n: float) -> list[ScanRecord]:
    """One record per point, from one batched evaluation; theta*eta >= 1 is invalid."""
    m, n = float(m), float(n)
    nu, nu_prime = family_invariants(thetas, etas, m, n)
    r = validate_couplings(m, n)
    invalid = VERDICT_LABEL[Verdict.INVALID_DOMAIN]
    return [
        ScanRecord(theta, eta, m, n, r, None, None, invalid) if x != x  # NaN off the domain
        else ScanRecord(theta, eta, m, n, r, x, y, VERDICT_LABEL[verdict_from_invariants(x, y)])
        for theta, eta, x, y in zip(thetas.tolist(), etas.tolist(), nu.tolist(), nu_prime.tolist())
    ]


def eval_point(theta: float, eta: float, m: float, n: float) -> ScanRecord:
    """Classify one family point: the one-point case of :func:`scan_grid`.

    theta*eta >= 1 yields the invalid verdict.
    """
    return _records(np.array([float(theta)]), np.array([float(eta)]), m, n)[0]


def grid_axis(lo: float, hi: float, steps: int) -> np.ndarray:
    return np.linspace(lo, hi, int(steps))


def scan_grid(config: ScanConfig) -> list[ScanRecord]:
    """Classify every grid point in one batched evaluation, theta outer and eta inner."""
    thetas, etas = np.meshgrid(
        grid_axis(*config.theta_range), grid_axis(*config.eta_range), indexing="ij"
    )
    return _records(thetas.ravel(), etas.ravel(), config.m, config.n)


def emit_fig2_data(
    r: float,
    swap: bool = False,
    theta_range: tuple[float, float, int] = (0.0, 2.0, 101),
    eta_range: tuple[float, float, int] = (0.0, 2.0, 101),
) -> list[ScanRecord]:
    """Grid scan along the figure slice n = r/3, m = sqrt(2) r/3 (or swapped)."""
    if not (0.0 < r < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r}")
    n, m = r / 3.0, math.sqrt(2.0) * r / 3.0
    if swap:
        n, m = m, n
    config = ScanConfig(theta_range=theta_range, eta_range=eta_range, m=m, n=n)
    return scan_grid(config)


def emit_fig1_data(
    theta_values=(0.0, 0.25, 0.5),
    eta_range: tuple[float, float, int] = (0.0, 2.0, 101),
    m: float = math.sqrt(2.0) / 6.0,
    n: float = 1.0 / 6.0,
) -> list[dict]:
    """Full four-invariant spectra of (Sigma, Omega) and (Sigma, Omega') per point.

    All points are evaluated in one batched call. Rows carry the (m, n) choice
    explicitly since the eigenvalue plot leaves it implicit. Points with
    theta*eta >= 1 keep their row but leave the spectrum columns empty (the
    form is singular on the hyperbola).
    """
    if not theta_values:
        raise DomainError("at least one theta value is required")
    _check_range("eta", eta_range)
    etas = grid_axis(*eta_range)
    thetas = np.repeat(np.asarray(theta_values, dtype=float), len(etas))
    etas = np.tile(etas, len(theta_values))
    spectrum, reflected = family_spectra(thetas, etas, m, n)
    empty = [None] * 8
    return [
        dict(zip(FIG1_FIELDS, [theta, eta, m, n] + (nus + nups if nus[0] == nus[0] else empty)))
        for theta, eta, nus, nups in zip(
            thetas.tolist(), etas.tolist(), spectrum.tolist(), reflected.tolist()
        )
    ]


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


# json.dumps spells the non-finite floats this way; repr does not.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(v) -> str:
    text = repr(float("%.12g" % v))
    return _JSON_NONFINITE.get(text, text)


def rows_to_json(rows: Iterable[Mapping], fields: tuple[str, ...]) -> str:
    """JSON array with one object per row, keys in ``fields`` order.

    None omits the key, strings are JSON-encoded, and numbers are rounded to
    12 significant digits. The text is what ``json.dumps(objects, indent=2)``
    writes, built directly: with ``indent`` set, json uses its pure-Python encoder.
    """
    keys = [f"    {quote(field)}: " for field in fields]
    objs = []
    for values in map(itemgetter(*fields), rows):
        items = [
            key + (quote(v) if v.__class__ is str else _json_number(v))
            for key, v in zip(keys, values) if v is not None
        ]
        objs.append("  {\n" + ",\n".join(items) + "\n  }" if items else "  {}")
    return "[\n" + ",\n".join(objs) + "\n]\n" if objs else "[]\n"


"""Parameter-plane scans: point evaluation, the grid tables and their writers.

A grid is evaluated in one batched call, ``family.family_invariants``: the
closed-form kernel at (|m|, |n|), which decides every quadrant with no 8x8 algebra.
The figure-1 spectra (``family.family_spectra``) come from the same kernel. The
verdict column comes from one call of ``separability.verdict_from_invariants`` on
the invariant arrays, where NaN (theta*eta >= 1) gives ``invalid``. :func:`eval_point`
is the one-point case of the grid call; :func:`numeric_invariants` runs the dense
spectral route (``family.dense_spectra``) at one point, the cross-check of
``eval --verbose``. Every grid range, the CLI's included, is checked by one function,
:func:`_check_range`.
Rows run in row-major order, theta outer and eta inner.

A grid's output is a table (:func:`scan_table`, :func:`fig1_table`): a dict of equal-length
columns, which are float64 arrays, lists of labels, or ``(column, missing)`` pairs with a boolean
mask. :func:`table_to_csv` and :func:`table_to_json` write it, a column's distinct floats (per bit
pattern) in one C-level format and a row as the join of its cells. Floats are rounded to 12
significant digits, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as quote

import numpy as np

from .errors import DomainError
from .family import dense_spectra, family_invariants, family_spectra
from .phase_space import NCParams
from .separability import ClassificationResult, Verdict, verdict_from_invariants

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


def _check_range(name: str, rng: tuple[float, float, int]) -> tuple[float, float, int]:
    """Return (min, max, steps) with an int steps; require finite min <= max and whole steps >= 1."""
    lo, hi, steps = rng
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise DomainError(f"{name} range must satisfy finite min <= max, got {rng}")
    if not float(steps).is_integer():  # NaN, infinite or fractional
        raise DomainError(f"{name} range needs a whole number of steps, got {steps}")
    if steps < 1:
        raise DomainError(f"{name} range needs >= 1 steps, got {steps}")
    return lo, hi, int(steps)


@dataclass(frozen=True)
class ScanConfig:
    """Grid specification: each range is (min, max, number of points)."""

    theta_range: tuple[float, float, int]
    eta_range: tuple[float, float, int]
    m: float
    n: float

    def __post_init__(self):
        object.__setattr__(self, "theta_range", _check_range("theta", self.theta_range))
        object.__setattr__(self, "eta_range", _check_range("eta", self.eta_range))


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
    verdict: Verdict


def numeric_invariants(theta: float, eta: float, m: float, n: float) -> ClassificationResult:
    """Spectral-route classification of a family point (the cross-check of ``eval --verbose``)."""
    NCParams(theta=theta, eta=eta)  # theta*eta >= 1 is an error here, not an invalid record
    spectrum, reflected = dense_spectra([theta], [eta], m, n)
    nu, nu_prime = float(spectrum[0, 0]), float(reflected[0, 0])
    return ClassificationResult(
        verdict=verdict_from_invariants(nu, nu_prime), nu_minus=nu, nu_minus_prime=nu_prime
    )


def eval_point(theta: float, eta: float, m: float, n: float) -> ScanRecord:
    """Classify one family point: the one-point case of :func:`scan_table`.

    theta*eta >= 1 yields the invalid verdict. The verdict rule runs on the
    float pair: a one-point array or table would cost more than the evaluation.
    """
    theta, eta, m, n = float(theta), float(eta), float(m), float(n)
    nu, nu_prime = family_invariants(np.array([theta]), np.array([eta]), m, n)
    nu, nu_prime = nu.item(), nu_prime.item()
    verdict = verdict_from_invariants(nu, nu_prime)
    if verdict is Verdict.INVALID_DOMAIN:
        nu = nu_prime = None
    return ScanRecord(theta, eta, m, n, math.hypot(m, n), nu, nu_prime, verdict)


def scan_table(config: ScanConfig) -> dict:
    """The ``SCAN_FIELDS`` table of every grid point from one batched evaluation, theta outer and
    eta inner; rows with theta*eta >= 1 are kept with the ``invalid`` verdict, invariants missing."""
    thetas, etas = np.meshgrid(
        np.linspace(*config.theta_range), np.linspace(*config.eta_range), indexing="ij"
    )
    m, n = float(config.m), float(config.n)
    nu, nu_prime = family_invariants(thetas.ravel(), etas.ravel(), m, n)
    couplings = np.full((3, len(nu)), [[m], [n], [math.hypot(m, n)]])
    invalid = nu != nu  # NaN off the domain
    verdicts = verdict_from_invariants(nu, nu_prime).tolist()
    columns = [thetas.ravel(), etas.ravel(), *couplings, (nu, invalid), (nu_prime, invalid), verdicts]
    return dict(zip(SCAN_FIELDS, columns))


def fig2_couplings(r: float, swap: bool = False) -> tuple[float, float]:
    """(m, n) on the figure slice n = r/3, m = sqrt(2) r/3, or swapped."""
    if not (0.0 < r < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r}")
    n, m = r / 3.0, math.sqrt(2.0) * r / 3.0
    return (n, m) if swap else (m, n)


def fig1_table(theta_values, eta_range: tuple[float, float, int], m: float, n: float) -> dict:
    """The ``FIG1_FIELDS`` table: full spectra of (Sigma, Omega) and (Sigma, Omega') along eta per theta.

    All points run in one batched call. Rows carry (m, n), which the eigenvalue plot leaves implicit;
    rows with theta*eta >= 1 leave the spectrum columns empty (the form is singular on the hyperbola).
    """
    theta_values = np.asarray(theta_values, dtype=float)
    if theta_values.ndim != 1 or not theta_values.size:
        raise DomainError(f"theta values must be a non-empty 1-D sequence, got shape {theta_values.shape}")
    etas = np.linspace(*_check_range("eta", eta_range))
    thetas = np.repeat(theta_values, len(etas))
    etas = np.tile(etas, len(theta_values))
    spectrum, reflected = family_spectra(thetas, etas, m, n)
    couplings = np.full((2, len(thetas)), [[m], [n]], dtype=float)
    invalid = spectrum[:, 0] != spectrum[:, 0]
    spectra = [(column, invalid) for column in np.hstack([spectrum, reflected]).T]
    return dict(zip(FIG1_FIELDS, [thetas, etas, *couplings, *spectra]))


def _cells(column, floats, label, blank) -> list:
    """Every cell of a column spelled, ``blank`` in its missing cells: ``floats`` spells all distinct
    bit patterns of a float column in one call (0.0 and -0.0 stay apart), ``label`` each label."""
    data, missing = column if isinstance(column, tuple) else (column, None)
    if isinstance(data, list):
        spelled = {v: label(v) for v in set(data)}
        cells = list(map(spelled.__getitem__, data))
    else:
        bits, index = np.unique(data.view(np.int64), return_inverse=True)
        cells = np.array(floats(bits.view(np.float64).tolist()), dtype=object)[index].tolist()
    for k in () if missing is None else np.flatnonzero(missing).tolist():
        cells[k] = blank
    return cells


def _spell(form: str, values: list) -> list[str]:
    """``form % v`` for every value, all in one C-level format; ``form`` holds no NUL."""
    return ((form + "\0") * len(values) % tuple(values)).split("\0")[:-1]


def table_to_csv(table: dict) -> str:
    """CSV text with a header of the column names and one line per row, in order.

    Missing cells are empty, labels pass through, and numbers are written
    with 12 significant digits.
    """
    cells = [_cells(c, lambda vs: _spell("%.12g", vs), lambda v: v, "") for c in table.values()]
    return "\n".join([",".join(table), *map(",".join, zip(*cells))]) + "\n"


def _json_floats(key: str, values) -> list[str]:
    """``key + json.dumps(float("%.12g" % v))`` for every value: the "%.12g" text itself except
    for an integer, a subnormal, NaN and infinity, which are spelled one by one."""
    texts = _spell("%.12g", values)
    numbers = np.fromiter(map(float, texts), float, len(texts))
    odd = ~(np.isfinite(numbers) & (np.abs(numbers) >= np.finfo(float).tiny)) | (numbers == np.floor(numbers))
    for k in np.flatnonzero(odd).tolist():
        texts[k] = json.dumps(numbers[k].item())
    return _spell(key.replace("%", "%%") + "%s", texts)


def table_to_json(table: dict) -> str:
    """JSON array with one object per row, keys in column order.

    Missing cells omit their key, labels are JSON-encoded, and numbers are rounded to 12
    significant digits: the text of ``json.dumps(objects, indent=2)``, built directly. Each
    cell carries its separator and key, and a row's first cell opens its object.
    """
    columns = []
    for name, column in table.items():
        blank = "" if columns else "  {"
        key = (blank or ",") + f"\n    {quote(name)}: "
        columns.append(_cells(column, lambda vs: _json_floats(key, vs), lambda v: key + quote(v), blank))
    fix = bool(columns) and "  {" in columns[0]  # a row misses its first cell
    text = "\n  },\n".join(map("".join, zip(*columns)))
    del columns  # free the cells before the text is copied
    text = "[\n" + text + "\n  }\n]\n" if text else "[]\n"
    # No JSON string holds a raw newline: these match a row missing its first cell, or all.
    return text.replace("{,\n", "{\n").replace("{\n  }", "{}") if fix else text

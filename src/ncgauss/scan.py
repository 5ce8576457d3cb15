"""Parameter-plane scans: point evaluation, the grid tables and their writers.

A grid is evaluated in one batched call, ``family.family_invariants``: the
closed-form kernel at (|m|, |n|), which decides every quadrant with no 8x8 algebra.
The figure-1 spectra (``family.family_spectra``) come from the same kernel. The
verdict column comes from one call of ``separability.verdict_from_invariants`` on
the invariant arrays: each point's verdict as an integer code, NaN (theta*eta >= 1)
giving ``invalid``. :func:`eval_point` is the one-point case of the grid call. Every
grid range, the CLI's included, is checked by one function, :func:`_check_range`.
Rows run in row-major order, theta outer and eta inner.

A grid's output is a table (:func:`scan_table`, :func:`fig1_table`): a dict of equal-length
columns of two kinds. A float column is a float64 array, NaN where a cell is missing; a label
column is a pair ``(codes, labels)``, each row's integer position in the tuple ``labels``.
:func:`table_to_csv` and :func:`table_to_json` write it to a text handle, a block of rows
per write: a column's distinct floats (per bit pattern) are spelled in one C-level format and indexed
by row, so no whole-output text exists. Floats are rounded to 12 significant digits, so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as quote

import numpy as np

from .errors import DomainError
from .family import family_invariants, family_spectra
from .separability import Verdict, verdict_from_invariants

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
    """Return (min, max, steps) with an int steps; require finite min <= max and whole steps from 1
    to ``sys.maxsize``, the most numpy can index."""
    lo, hi, steps = rng
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise DomainError(f"{name} range must satisfy finite min <= max, got {rng}")
    # An int is whole, and float() of a huge one raises: only other types are read as floats.
    if not (isinstance(steps, int) or float(steps).is_integer()):  # NaN, infinite or fractional
        raise DomainError(f"{name} range needs a whole number of steps, got {steps}")
    if steps < 1:
        raise DomainError(f"{name} range needs >= 1 steps, got {steps}")
    if steps > sys.maxsize:
        raise DomainError(f"{name} range needs <= {sys.maxsize} steps, got {steps}")
    return lo, hi, int(steps)


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


def scan_table(
    theta_range: tuple[float, float, int], eta_range: tuple[float, float, int], m: float, n: float
) -> dict:
    """The ``SCAN_FIELDS`` table of the grid, each range (min, max, number of points), from one
    batched evaluation, theta outer and eta inner; rows with theta*eta >= 1 are kept with the
    ``invalid`` verdict, invariants missing."""
    thetas, etas = np.meshgrid(
        np.linspace(*_check_range("theta", theta_range)), np.linspace(*_check_range("eta", eta_range)),
        indexing="ij",
    )
    m, n = float(m), float(n)
    nu, nu_prime = family_invariants(thetas.ravel(), etas.ravel(), m, n)
    couplings = np.full((3, len(nu)), [[m], [n], [math.hypot(m, n)]])
    verdicts = (verdict_from_invariants(nu, nu_prime), tuple(Verdict))
    return dict(zip(SCAN_FIELDS, [thetas.ravel(), etas.ravel(), *couplings, nu, nu_prime, verdicts]))


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
    return dict(zip(FIG1_FIELDS, [thetas, etas, *couplings, *np.hstack([spectrum, reflected]).T]))


_BLOCK = 1024  # rows per write of the table writers; from 512 to 4096 a default map writes alike


def _words(column, floats, label, blank) -> tuple[np.ndarray, np.ndarray]:
    """A column as its distinct spellings and each row's position in them. ``label`` spells each
    label of a ``(codes, labels)`` column, and the codes are the positions. ``floats`` spells all
    distinct bit patterns of a float column in one call (0.0 and -0.0 stay apart); every NaN
    pattern, a missing cell, is then spelled ``blank``."""
    if isinstance(column, tuple):
        codes, labels = column
        return np.array(list(map(label, labels)), dtype=object), codes
    bits, index = np.unique(column.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    words = np.array(floats(values.tolist()), dtype=object)
    words[values != values] = blank
    return words, index


def _blocks(columns):
    """The rows of each block of up to ``_BLOCK`` rows, as tuples of their cells."""
    rows = len(columns[0][1]) if columns else 0
    for start in range(0, rows, _BLOCK):
        yield zip(*[words[index[start : start + _BLOCK]].tolist() for words, index in columns])


def _spell(form: str, values: list) -> list[str]:
    """``form % v`` for every value, all in one C-level format; ``form`` holds no NUL."""
    return ((form + "\0") * len(values) % tuple(values)).split("\0")[:-1]


def table_to_csv(table: dict, out) -> None:
    """Write CSV to the text handle ``out``, a block of rows per write: a header of the column
    names and one line per row, in order.

    Missing cells are empty, labels pass through, and numbers are written
    with 12 significant digits.
    """
    columns = [_words(c, lambda vs: _spell("%.12g", vs), lambda v: v, "") for c in table.values()]
    out.write(",".join(table) + "\n")
    for rows in _blocks(columns):
        out.write("\n".join(map(",".join, rows)) + "\n")


def _json_floats(key: str, values) -> list[str]:
    """``key + json.dumps(float("%.12g" % v))`` for every value: the "%.12g" text itself except
    for an integer, a subnormal, NaN and infinity, which are spelled one by one."""
    texts = _spell("%.12g", values)
    numbers = np.fromiter(map(float, texts), float, len(texts))
    odd = ~(np.isfinite(numbers) & (np.abs(numbers) >= np.finfo(float).tiny)) | (numbers == np.floor(numbers))
    for k in np.flatnonzero(odd).tolist():
        texts[k] = json.dumps(numbers[k].item())
    return _spell(key.replace("%", "%%") + "%s", texts)


def table_to_json(table: dict, out) -> None:
    """Write a JSON array to the text handle ``out``, a block of rows per write: one object per row.

    Keys are in column order. Missing cells omit their key, labels are JSON-encoded, and numbers are
    rounded to 12 significant digits: the text of ``json.dumps(objects, indent=2)``, built directly.
    Each cell carries its separator and key, a row's first cell opens its object, and its block closes it.
    """
    columns = []
    for name, column in table.items():
        blank = "" if columns else "  {"
        key = (blank or ",") + f"\n    {quote(name)}: "
        columns.append(_words(column, lambda vs: _json_floats(key, vs), lambda v: key + quote(v), blank))
    first = next(iter(table.values()), None)
    fix = isinstance(first, np.ndarray) and bool(np.isnan(first).any())  # a row misses its first cell
    head = "[\n"
    for rows in _blocks(columns):
        text = head + "\n  },\n".join(map("".join, rows)) + "\n  }"
        # No JSON string holds a raw newline: these match a row missing its first cell, or all.
        out.write(text.replace("{,\n", "{\n").replace("{\n  }", "{}") if fix else text)
        head = ",\n"
    out.write("[]\n" if head == "[\n" else "\n]\n")

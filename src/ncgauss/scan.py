"""Parameter-plane scans: point evaluation, the grid tables and their writers.

A grid is evaluated in one batched call, ``family.family_invariants``: the
closed-form kernel at (|m|, |n|), which decides every quadrant with no 8x8 algebra.
The figure-1 spectra (``family.family_spectra``) come from the same kernel. The
verdict column comes from one call of ``kernel.verdict_from_invariants`` on
the invariant arrays: each point's verdict as an integer code, NaN (theta*eta >= 1)
giving ``invalid``. :func:`eval_point` runs the same kernel text and verdict rule on
Python floats (``kernel.point_invariants``), so a point gets the bits of its grid row; only table
functions import numpy and ``family``. Every grid range, the CLI's included, is checked by one
function, :func:`_check_range`. Rows run in row-major order, theta outer and eta inner.

A grid's output is a table (:func:`scan_table`, :func:`fig1_table`): a dict of equal-length
columns of two kinds. A float column is a float64 array, NaN where a cell is missing; a label
column is a pair ``(codes, labels)``, each row's integer position in the tuple ``labels``.
:func:`table_to_csv` and :func:`table_to_json` write it to a text handle, a block of rows
per write: a column's distinct floats (per bit pattern) are spelled in one C-level format, each word
with its separator, and indexed by row, so no whole-output text exists. A column of one word joins
the words of the column before it. Floats are rounded to 12 significant digits, so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii as quote
from typing import NamedTuple

from .errors import DomainError
from .kernel import Verdict, point_invariants, verdict_from_invariants


class ScanRecord(NamedTuple):
    """One grid point, a row of ``SCAN_FIELDS``; the nu fields are None when the point is out of domain."""

    theta: float
    eta: float
    m: float
    n: float
    r: float
    nu_minus: float | None
    nu_minus_prime: float | None
    verdict: Verdict


SCAN_FIELDS = ScanRecord._fields
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


def eval_point(theta: float, eta: float, m: float, n: float) -> ScanRecord:
    """Classify one family point: :func:`scan_table`'s kernel text and verdict rule run on floats.

    theta*eta >= 1 yields the invalid verdict. ``kernel.point_invariants`` runs the closed forms
    on Python floats, so the record carries the bits of the grid's row at the same point.
    """
    theta, eta, m, n = float(theta), float(eta), float(m), float(n)
    nu, nu_prime = point_invariants(theta, eta, m, n)
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
    import numpy as np
    from .family import family_invariants
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
    import numpy as np
    from .family import family_spectra
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
    """A column as its distinct words, each carrying the cell's separators, and each row's position
    in them. ``label`` spells each label of a ``(codes, labels)`` column, and the codes are the
    positions. ``floats`` spells the array of all distinct bit patterns of a float column in one
    call (0.0 and -0.0 stay apart); every NaN pattern, a missing cell, is then spelled ``blank``."""
    import numpy as np
    if isinstance(column, tuple):
        codes, labels = column
        return np.array(list(map(label, labels)), dtype=object), codes
    bits = column.view(np.int64)
    if len(bits) and (bits == bits[0]).all():  # one value, such as a map's m, n and r: no sort
        bits, index = bits[:1], np.zeros(len(bits), np.intp)
    else:
        bits, index = np.unique(bits, return_inverse=True)
    values = bits.view(np.float64)
    words = np.array(floats(values), dtype=object)
    words[values != values] = blank
    return words, index


def _blocks(columns):
    """The text of each block of up to ``_BLOCK`` rows: all its cells, row by row, in one join.

    A column of one word is appended to the words of the column before it, so its cells are never
    gathered; the first column stays, so a table whose every column has one word still has rows."""
    import numpy as np
    kept = columns[:1]
    for words, index in columns[1:]:
        if len(words) == 1:
            kept[-1] = (kept[-1][0] + words[0], kept[-1][1])
        else:
            kept.append((words, index))
    rows = len(kept[0][1]) if kept else 0
    for start in range(0, rows, _BLOCK):
        cells = np.empty((min(rows - start, _BLOCK), len(kept)), dtype=object)
        for k, (words, index) in enumerate(kept):
            cells[:, k] = words[index[start : start + _BLOCK]]
        yield "".join(cells.ravel().tolist())


def _spell(form: str, values: np.ndarray) -> list[str]:
    """``form % v`` for every value, all in one C-level format; ``form`` holds no NUL."""
    return ((form + "\0") * len(values) % tuple(values.tolist())).split("\0")[:-1]


def table_to_csv(table: dict, out) -> None:
    """Write CSV to the text handle ``out``, a block of rows per write: a header of the column
    names and one line per row, in order.

    Missing cells are empty, labels pass through, and numbers are written with 12 significant
    digits. Each word ends in its separator: a comma, or the line end in the last column.
    """
    columns = []
    for k, column in enumerate(table.values()):
        end = "," if k < len(table) - 1 else "\n"
        columns.append(_words(column, lambda vs: _spell("%.12g" + end, vs), lambda v: v + end, end))
    out.write(",".join(table) + "\n")
    for text in _blocks(columns):
        out.write(text)


def _json_floats(key: str, tail: str, values: np.ndarray) -> list[str]:
    """``key + json.dumps(float("%.12g" % v)) + tail`` for every value, from one spelling of
    ``key + "%.12g" + tail``; only the candidates below are respelled, one by one.

    Candidates are the values that are not finite, that have ``|v| >= 1e11`` or ``|v| < 1e-299``,
    or that lie within ``1e-11 |v|`` of an integer. Any other value's ``text = "%.12g" % v`` is
    already the JSON number ``repr(float(text))``. Its digits are repr's: two different decimals of
    at most 15 significant digits never round to the same normal double, so no shorter decimal
    than the text's (at most 12 digits) gives ``float(text)``. It has a ``.`` wherever repr does:
    a 12-digit rounding that gives an integer lies within ``0.5e-11 |v|`` of it, so the text is
    no integer and repr adds no ``.0``. And below ``1e11`` both pick the same notation: fixed from
    ``1e-4`` on, and below it scientific with at least two exponent digits. So the candidates are
    a superset of the values whose spellings differ, and respelling one that agrees changes nothing.
    """
    import numpy as np
    texts = _spell(key.replace("%", "%%") + "%.12g" + tail, values)
    size = np.abs(values)
    finite = np.where(size < 1e11, values, 0.0)  # the rest are candidates; inf - rint(inf) warns
    odd = ~(size < 1e11) | (size < 1e-299) | (np.abs(finite - np.rint(finite)) <= 1e-11 * size)
    for k in np.flatnonzero(odd).tolist():
        texts[k] = key + json.dumps(float("%.12g" % values[k])) + tail
    return texts


def table_to_json(table: dict, out) -> None:
    """Write a JSON array to the text handle ``out``, a block of rows per write: one object per row.

    Keys are in column order. Missing cells omit their key, labels are JSON-encoded, and numbers are
    rounded to 12 significant digits: the text of ``json.dumps(objects, indent=2)``, built directly.
    Each word carries its cell's separator and key; the first column's words also open the row's
    object after a comma, which the first row drops, and the last column's close it.
    """
    import numpy as np
    columns = []
    for k, (name, column) in enumerate(table.items()):
        head = "" if k else ",\n  {"
        tail = "\n  }" if k == len(table) - 1 else ""
        key = (head or ",") + f"\n    {quote(name)}: "
        columns.append(_words(
            column, lambda vs: _json_floats(key, tail, vs), lambda v: key + quote(v) + tail, head + tail
        ))
    first = next(iter(table.values()), None)
    fix = isinstance(first, np.ndarray) and bool(np.isnan(first).any())  # a row misses its first cell
    opening = "["
    for text in _blocks(columns):
        # No JSON string holds a raw newline: these match a row missing its first cell, or all.
        text = text.replace("{,\n", "{\n").replace("{\n  }", "{}") if fix else text
        out.write(opening + text[1:] if opening else text)
        opening = ""
    out.write("[]\n" if opening else "\n]\n")

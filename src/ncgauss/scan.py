"""Parameter-plane scans: point evaluation, the grid tables and their writers.

A grid is evaluated in one batched call of the closed-form kernel at (|m|, |n|), which decides
every quadrant with no 8x8 algebra; the figure-1 spectra come from the same kernel. The kernel
and the verdict rule (``kernel.verdict_from_invariants``, NaN giving ``invalid``) run once per
unordered pair (theta, eta) of the grid (``kernel._grid_keys``). :func:`eval_point` runs the same
kernel text and verdict rule on Python floats (``kernel.point_invariants``), so a point gets the
bits of its grid row. Every grid range, the CLI's included, is checked by one function,
:func:`_check_range`. Rows run in row-major order, theta outer and eta inner.

A grid's output is a table (:func:`scan_table`, :func:`fig1_table`): a dict of columns of one kind,
each a pair ``(index, values)``, each row's position in the values of its key. theta and eta are
keyed by their axis positions, and m, n and r ride on eta's index; the kernel's columns and the
verdict are keyed by the point's unordered pair, and every point with theta*eta >= 1 shares one
key, NaN and ``invalid``. Float values are an array or a list; label values, a tuple of strings.
:func:`table_to_csv` and :func:`table_to_json` write a table to a text handle, a block of rows per
write: each key's values are spelled once, a column's floats in one C-level format, each word with
its separator; adjacent columns on one index object are joined key by key, and the words gathered
by row, so no whole-output text exists. Floats are rounded to 12 significant digits, so identical
configurations produce byte-identical files.

Each table has one body (:func:`_scan_table`, :func:`_fig1_table`) over numpy's primitives
(:func:`_arrays`) or ``_LISTS``, the same steps on lists of floats; the writers take either column.
The public tables are arrays. The CLI's maps take lists (``cli._map_primitives``) while numpy is not
yet loaded and the map has at most ``cli._COLD_ROWS`` points, so a fresh default map imports no numpy.
Both routes write the same bytes: the route shows only in the timing and in ``sys.modules``.
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import chain
from types import SimpleNamespace
from typing import NamedTuple

from .errors import DomainError
from .kernel import (_BY_RANK, Verdict, _grid_keys, _invariants, _list_keys, _spectra, point_invariants,
                     verdict_from_invariants)


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
# Each verdict's label by rank, as plain strings: the writers hash them, and a member hashes in Python.
_LABELS = tuple(verdict.value for verdict in Verdict)


def _check_range(name: str, rng: tuple[float, float, int]) -> tuple[float, float, int]:
    """Return (min, max, steps) with an int steps; require finite min <= max, a width max - min within
    the float range, so that no point of the grid is NaN or inf, and whole steps from 1 to
    ``sys.maxsize``, the most numpy can index."""
    lo, hi, steps = rng
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise DomainError(f"{name} range must satisfy finite min <= max, got {rng}")
    if math.isinf(float(hi) - float(lo)):
        raise DomainError(f"{name} range width max - min must not exceed the float range, got {rng}")
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
    # As ScanRecord._make does: no argument binding of the generated __new__, 0.1 us of a 3.5 us call.
    return tuple.__new__(ScanRecord, (theta, eta, m, n, math.hypot(m, n), nu, nu_prime, verdict))


def scan_table(
    theta_range: tuple[float, float, int], eta_range: tuple[float, float, int], m: float, n: float
) -> dict:
    """The keyed ``SCAN_FIELDS`` table of the grid, each range (min, max, number of points), from one
    batched evaluation, theta outer and eta inner; rows with theta*eta >= 1 are kept with the
    ``invalid`` verdict, invariants missing."""
    return _scan_table(theta_range, eta_range, m, n, _arrays())


def _scan_table(theta_range, eta_range, m, n, xp) -> dict:
    """:func:`scan_table` on the primitives ``xp``: numpy's (:func:`_arrays`) or the lists' (``_LISTS``)."""
    thetas = xp.linspace(*_check_range("theta", theta_range))
    etas = xp.linspace(*_check_range("eta", eta_range))
    m, n = float(m), float(n)
    columns = _grid(thetas, etas, (m, n, math.hypot(m, n)), _invariants, 2, xp)
    (pairs, nu), (_, nu_prime) = columns[-2:]
    return dict(zip(SCAN_FIELDS, [*columns, (pairs, tuple(map(_LABELS.__getitem__, xp.ranks(nu, nu_prime))))]))


def _grid(thetas, etas, couplings: tuple, kernel, width: int, xp) -> list:
    """The keyed columns of the grid of the axes ``thetas`` (outer) and ``etas`` (inner): theta and eta
    keyed by their axis positions, the ``couplings`` (m and n first) riding on eta's, and the ``width``
    columns of ``kernel`` keyed by the points' unordered pairs (``kernel._grid_keys``)."""
    pairs, values = xp.keys(thetas, etas, *couplings[:2], kernel, width)
    rows, cols = xp.repeat(range(len(thetas)), len(etas)), xp.tile(range(len(etas)), len(thetas))
    return [(rows, thetas), (cols, etas), *((cols, xp.full(len(etas), value)) for value in couplings),
            *((pairs, column) for column in values)]


def fig2_couplings(r: float, swap: bool = False) -> tuple[float, float]:
    """(m, n) on the figure slice n = r/3, m = sqrt(2) r/3, or swapped."""
    if not (0.0 < r < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r}")
    n, m = r / 3.0, math.sqrt(2.0) * r / 3.0
    return (n, m) if swap else (m, n)


def fig1_table(theta_values, eta_range: tuple[float, float, int], m: float, n: float) -> dict:
    """The keyed ``FIG1_FIELDS`` table: full spectra of (Sigma, Omega) and (Sigma, Omega') along eta per theta.

    All points run in one batched call. Rows carry (m, n), which the eigenvalue plot leaves implicit;
    rows with theta*eta >= 1 leave the spectrum columns empty (the form is singular on the hyperbola).
    """
    return _fig1_table(theta_values, eta_range, m, n, _arrays())


def _fig1_table(theta_values, eta_range, m, n, xp) -> dict:
    """:func:`fig1_table` on the primitives ``xp``, as :func:`_scan_table`; the theta values must be a
    non-empty 1-D sequence of real numbers, checked alike on both routes."""
    import numbers
    # A number has no __iter__, and a 0-d array one that raises.
    values = list(theta_values) if hasattr(theta_values, "__iter__") and getattr(theta_values, "ndim", 1) else []
    if not values or not all(isinstance(value, numbers.Real) for value in values):
        raise DomainError(f"theta values must be a non-empty 1-D sequence of real numbers, got {theta_values!r}")
    thetas = xp.array([float(value) for value in values])
    etas = xp.linspace(*_check_range("eta", eta_range))
    return dict(zip(FIG1_FIELDS, _grid(thetas, etas, (float(m), float(n)), _spectra, 8, xp)))


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """``numpy.linspace(lo, hi, num)`` as a list, bit for bit: k*step + lo, (k/div)*delta where the step
    underflows to 0, 0*delta + lo for one point, and hi at the end."""
    lo, hi, div = float(lo), float(hi), num - 1
    delta = hi - lo
    if not div:
        return [0.0 * delta + lo]
    step = delta / div
    return [(k / div * delta if step == 0.0 else k * step) + lo for k in range(div)] + [hi]


_BLOCK = 1024  # rows per write of the table writers; from 512 to 4096 a default map writes alike


def _words(column, floats, label, blank) -> tuple[list[str], object]:
    """A column as one word per key, each carrying the cell's separators, and each row's key. A
    column is a pair ``(index, values)``: each row's position in ``values``, one per key. A tuple of
    ``values`` holds labels, each distinct label spelled once by ``label``; other values are floats,
    an array or a list, all spelled in one call of ``floats``, and each NaN, a missing cell, as
    ``blank``. A plain column of floats is keyed on its rows."""
    index, values = column if isinstance(column, tuple) else (range(len(column)), column)
    if isinstance(values, tuple):
        spelled = {value: label(value) for value in set(values)}
        return list(map(spelled.__getitem__, values)), index
    words = floats(values)
    if hasattr(values, "__array_function__"):  # the test of kernel._primitives
        nans = (values != values).nonzero()[0].tolist()
    else:
        nans = [k for k, value in enumerate(values) if value != value]
    for k in nans:
        words[k] = blank
    return words, index


def _blocks(columns):
    """The text of each block of up to ``_BLOCK`` rows: all its cells, row by row, in one join.

    Adjacent columns that share an index object are joined key by key before the gather, so a map
    row gathers one cell per key: theta's, eta's (with m, n and r), and its pair's. numpy gathers
    the cells of array indexes, and ``map`` those of list indexes."""
    groups = []
    for words, index in columns:
        if groups and groups[-1][1] is index:
            groups[-1][0].append(words)
        else:
            groups.append(([words], index))
    kept = [(words[0] if len(words) == 1 else list(map("".join, zip(*words))), index) for words, index in groups]
    rows = len(kept[0][1]) if kept else 0
    arrays = rows and hasattr(kept[0][1], "__array_function__")  # then numpy gathers the cells
    if arrays:
        import numpy as np
        kept = [(np.array(words, dtype=object), index) for words, index in kept]
    for start in range(0, rows, _BLOCK):
        stop = start + _BLOCK
        cells = [words[index[start:stop]] if arrays else map(words.__getitem__, index[start:stop])
                 for words, index in kept]
        yield "".join(np.column_stack(cells).ravel().tolist() if arrays else chain.from_iterable(zip(*cells)))


def _spell(form: str, values) -> list[str]:
    """``form % v`` for every value, an array or a list, all in one C-level format; ``form`` holds no NUL."""
    values = values.tolist() if hasattr(values, "tolist") else values
    return ((form + "\0") * len(values) % tuple(values)).split("\0")[:-1]


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


def _json_floats(key: str, tail: str, values) -> list[str]:
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
    from json import dumps
    texts = _spell(key.replace("%", "%%") + "%.12g" + tail, values)
    if hasattr(values, "__array_function__"):
        import numpy as np
        size = np.abs(values)
        finite = np.where(size < 1e11, values, 0.0)  # the rest are candidates; inf - rint(inf) warns
        odd = ~(size < 1e11) | (size < 1e-299) | (np.abs(finite - np.rint(finite)) <= 1e-11 * size)
        odd = np.flatnonzero(odd).tolist()
    else:  # the same test on floats, round() for rint: both round half to even
        odd = [k for k, v in enumerate(values)
               if not abs(v) < 1e11 or abs(v) < 1e-299 or abs(v - round(v)) <= 1e-11 * abs(v)]
    for k in odd:
        texts[k] = key + dumps(float("%.12g" % values[k])) + tail
    return texts


def table_to_json(table: dict, out) -> None:
    """Write a JSON array to the text handle ``out``, a block of rows per write: one object per row.

    Keys are in column order. Missing cells omit their key, labels are JSON-encoded, and numbers are
    rounded to 12 significant digits: the text of ``json.dumps(objects, indent=2)``, built directly.
    Each word carries its cell's separator and key; the first column's words also open the row's
    object after a comma, which the first row drops, and the last column's close it.
    """
    from json.encoder import encode_basestring_ascii as quote
    columns = []
    for k, (name, column) in enumerate(table.items()):
        head = "" if k else ",\n  {"
        tail = "\n  }" if k == len(table) - 1 else ""
        key = (head or ",") + f"\n    {quote(name)}: "
        columns.append(_words(
            column, lambda vs: _json_floats(key, tail, vs), lambda v: key + quote(v) + tail, head + tail
        ))
    # Some row misses its first cell where the first column has the blank word.
    fix = bool(columns) and ",\n  {" + "\n  }" * (len(table) == 1) in columns[0][0]
    opening = "["
    for text in _blocks(columns):
        # No JSON string holds a raw newline: these match a row missing its first cell, or all.
        text = text.replace("{,\n", "{\n").replace("{\n  }", "{}") if fix else text
        out.write(opening + text[1:] if opening else text)
        opening = ""
    out.write("[]\n" if opening else "\n]\n")


@functools.cache
def _arrays() -> SimpleNamespace:
    """The tables' primitives on numpy arrays; ``_LISTS`` has them on lists."""
    import numpy as np
    # numpy computes the last point as k*step too, before it writes max there: near the float range's end
    # k*step overflows. The checks leave no other overflow and no NaN, so only ``over`` is silenced.
    return SimpleNamespace(linspace=np.errstate(over="ignore")(np.linspace), array=np.array,
                           repeat=np.repeat, tile=np.tile, full=np.full, keys=_grid_keys,
                           ranks=lambda nu, nu_prime: verdict_from_invariants(nu, nu_prime).tolist())


_LISTS = SimpleNamespace(
    linspace=_linspace,
    array=list,
    repeat=lambda values, times: [value for value in values for _ in range(times)],
    tile=lambda values, times: list(values) * times,
    full=lambda size, value: [value] * size,
    keys=_list_keys,
    ranks=lambda nu, nu_prime: map(_BY_RANK.index, map(verdict_from_invariants, nu, nu_prime)),
)

"""Independent output checker for the ncgauss benchmark.

Nothing here imports ncgauss. The reference invariants come straight from
the definitions: the family covariance Sigma = b/2 [[I, G^T], [G, I]] with
b = (1+R)/(1-R), the planar form Omega_A = [[theta eps, I], [-I, eta eps]],
Omega = Diag[Omega_A, Omega_A] and the reflected form
Omega' = Diag[Omega_A, -Omega_A]. The invariants are the positive halves of
eig(2i Omega^-1 Sigma) = 2i eig(Omega^-1 Sigma), taken from numpy's general
(non-symmetric) eigensolver, or from mpmath at 40 digits for the rows where
that solver's error estimate is not small enough to judge a 12-digit output.

Run ``python3 perfbench/check.py`` to execute the self-test, which shows
that the checker accepts a correct output and rejects one with a single nu
changed in its 9th significant digit or a single verdict flipped.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

# The outputs carry 12 significant digits (relative rounding <= 5e-13).
# RTOL sits well above that rounding and well below a change in the 9th
# significant digit (>= 1e-9 relative), which the self-test proves.
RTOL = 2e-10
# Ambiguity band for verdicts: a nu within this distance of 1 may be
# labelled either way, because 12-digit rounding can move it across 1.
BAND = 1e-11
# Reference rows whose estimated relative eigenvalue error exceeds this are
# recomputed with mpmath.
EIG_ERR_LIMIT = 1e-11
MP_DPS = 40
EPS = float(np.finfo(float).eps)

SCAN_FIELDS = ("theta", "eta", "m", "n", "r", "nu_minus", "nu_minus_prime", "verdict")
FIG1_FIELDS = ("theta", "eta", "m", "n") + tuple(f"nu_{j}" for j in range(1, 5)) + tuple(
    f"nup_{j}" for j in range(1, 5)
)
LABELS = ("nonquantum", "entangled", "separable", "invalid")

EPSILON = np.array([[0.0, 1.0], [-1.0, 0.0]])
I2 = np.eye(2)


@dataclass(frozen=True)
class MapSpec:
    """A scan or fig2 map: the grid and the couplings it was run with."""

    theta_range: tuple[float, float, int]
    eta_range: tuple[float, float, int]
    m: float
    n: float


@dataclass(frozen=True)
class Fig1Spec:
    thetas: tuple[float, ...]
    eta_range: tuple[float, float, int]
    m: float
    n: float


class CheckError(Exception):
    """An output that does not match the reference."""


def fig2_couplings(r: float, swap: bool) -> tuple[float, float]:
    """(m, n) of the figure slice n = r/3, m = sqrt(2) r/3, or swapped."""
    n, m = r / 3.0, math.sqrt(2.0) * r / 3.0
    return (n, m) if swap else (m, n)


def axis(rng: tuple[float, float, int]) -> np.ndarray:
    return np.linspace(rng[0], rng[1], int(rng[2]))


# --- reference invariants -------------------------------------------------


def _coupling_pattern(m: float, n: float) -> np.ndarray:
    """[[I, G^T], [G, I]]: Sigma without its factor b/2; every entry is exact."""
    g = np.array(
        [[n, 0.0, m, 0.0], [0.0, n, 0.0, -m], [m, 0.0, -n, 0.0], [0.0, -m, 0.0, -n]]
    )
    return np.block([[np.eye(4), g.T], [g, np.eye(4)]])


def covariance(m: float, n: float) -> np.ndarray:
    r = math.hypot(m, n)
    return (1.0 + r) / (1.0 - r) / 2.0 * _coupling_pattern(m, n)


def _form_patterns(thetas, etas, primed: bool) -> np.ndarray:
    """(1 - theta*eta) Omega^-1 (or Omega'^-1), shape (N, 8, 8); every entry is exact.

    [[theta eps, I], [-I, eta eps]]^-1 = [[eta eps, -I], [I, theta eps]] / (1 - theta*eta).
    """
    thetas = np.asarray(thetas, float)
    etas = np.asarray(etas, float)
    out = np.zeros((len(thetas), 8, 8))
    for block, sign in ((0, 1.0), (4, -1.0 if primed else 1.0)):
        out[:, block:block + 4, block:block + 4] = sign * (
            np.kron(np.array([[1.0, 0.0], [0.0, 0.0]]), EPSILON) * etas[:, None, None]
            + np.kron(np.array([[0.0, 0.0], [0.0, 1.0]]), EPSILON) * thetas[:, None, None]
            + np.kron(np.array([[0.0, -1.0], [1.0, 0.0]]), I2)
        )
    return out


def form_inverses(thetas, etas, primed: bool) -> np.ndarray:
    """Stack of Omega^-1 (or Omega'^-1) over the points, shape (N, 8, 8)."""
    d = 1.0 - np.asarray(thetas, float) * np.asarray(etas, float)
    return _form_patterns(thetas, etas, primed) / d[:, None, None]


def _mp_spectrum(theta: float, eta: float, m: float, n: float, primed: bool) -> np.ndarray:
    """The same invariants at MP_DPS digits, from the exact float inputs."""
    import mpmath

    with mpmath.workdps(MP_DPS):
        r = mpmath.sqrt(mpmath.mpf(m) ** 2 + mpmath.mpf(n) ** 2)
        sigma = mpmath.matrix(_coupling_pattern(m, n).tolist()) * ((1 + r) / (1 - r) / 2)
        d = 1 - mpmath.mpf(theta) * mpmath.mpf(eta)
        inverse = mpmath.matrix(_form_patterns([theta], [eta], primed)[0].tolist()) / d
        vals = mpmath.eig(2j * inverse * sigma, left=False, right=False)
        pos = sorted(float(mpmath.re(v)) for v in vals if mpmath.re(v) > 0)
    if len(pos) != 4:
        raise CheckError(f"reference spectrum at {(theta, eta, m, n)} is not +-paired")
    return np.array(pos)


def _np_spectra(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive invariants of 2i K for a stack K of real matrices.

    Returns the invariants (N, 4) and a mask of rows whose estimated relative
    error, eps * ||K|| * cond(eigenvalue) / |eigenvalue|, exceeds EIG_ERR_LIMIT.
    """
    w, v = np.linalg.eig(mats)
    left = np.linalg.inv(v)
    cond = np.linalg.norm(v, axis=1) * np.linalg.norm(left, axis=2)
    scale = np.linalg.norm(mats, axis=(1, 2))[:, None]
    err = EPS * scale * cond / np.maximum(np.abs(w), 1e-300)
    # eig(2i K) = 2i eig(K): K's eigenvalues are +-i nu/2.
    nu = np.sort(2.0 * w.imag, axis=1)[:, 4:]
    bad = np.max(err, axis=1) > EIG_ERR_LIMIT
    bad |= np.max(np.abs(w.real), axis=1) > 1e-8 * np.max(np.abs(w), axis=1)
    return nu, bad


def reference_spectra(thetas, etas, m: float, n: float) -> tuple[np.ndarray, np.ndarray]:
    """Full invariants of (Sigma, Omega) and (Sigma, Omega') at each (theta, eta)."""
    sig = covariance(m, n)
    out = []
    for primed in (False, True):
        if len(thetas) == 0:
            out.append(np.empty((0, 4)))
            continue
        nu, bad = _np_spectra(form_inverses(thetas, etas, primed) @ sig)
        for k in np.flatnonzero(bad):
            nu[k] = _mp_spectrum(thetas[k], etas[k], m, n, primed)
        out.append(nu)
    return out[0], out[1]


# --- parsing ----------------------------------------------------------------


def _num(text: str):
    return None if text == "" else float(text)


def parse_rows(text: str, fmt: str, fields: tuple[str, ...]) -> list[dict]:
    """Rows of a CSV or JSON output as dicts over ``fields`` (None when empty)."""
    rows = []
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if tuple(header or ()) != fields:
            raise CheckError(f"CSV header {header} != {list(fields)}")
        for rec in reader:
            if len(rec) != len(fields):
                raise CheckError(f"CSV row has {len(rec)} fields: {rec}")
            rows.append(
                {f: (v if f == "verdict" else _num(v)) for f, v in zip(fields, rec)}
            )
    elif fmt == "json":
        for obj in json.loads(text):
            extra = set(obj) - set(fields)
            if extra:
                raise CheckError(f"JSON record has unknown keys {sorted(extra)}")
            rows.append({f: obj.get(f) for f in fields})
    else:
        raise CheckError(f"unknown format {fmt!r}")
    return rows


# --- checks -------------------------------------------------------------------


def _close(value, ref: float, rtol: float = RTOL) -> bool:
    return value is not None and abs(value - ref) <= rtol * max(abs(ref), 1e-300)


def _coord_ok(value, ref: float) -> bool:
    return value is not None and abs(value - ref) <= 1e-11 * abs(ref) + 1e-300


def allowed_verdicts(nu: float, nu_prime: float) -> set[str]:
    """Verdicts consistent with a row's own invariants (both sides of a tie)."""
    out = set()
    for q in {nu < 1.0 - BAND, nu < 1.0 + BAND}:
        for e in {nu_prime < 1.0 - BAND, nu_prime < 1.0 + BAND}:
            out.add("nonquantum" if q else ("entangled" if e else "separable"))
    return out


def commutative_limit(m: float, n: float) -> tuple[float, float]:
    """nu_- = (1+R)^{3/2} / (1-R)^{1/2} and nu'_- = 1+R at theta = eta = 0."""
    r = math.hypot(m, n)
    return (1.0 + r) ** 1.5 / math.sqrt(1.0 - r), 1.0 + r


def _grid(spec_thetas, spec_etas):
    thetas = np.repeat(np.asarray(spec_thetas, float), len(spec_etas))
    etas = np.tile(np.asarray(spec_etas, float), len(spec_thetas))
    return thetas, etas


def _check_coords(rows, thetas, etas, m, n, where):
    if len(rows) != len(thetas):
        raise CheckError(f"{where}: {len(rows)} rows, expected {len(thetas)}")
    for k, row in enumerate(rows):
        if not (_coord_ok(row["theta"], thetas[k]) and _coord_ok(row["eta"], etas[k])):
            raise CheckError(
                f"{where}: row {k} is ({row['theta']}, {row['eta']}), "
                f"expected ({thetas[k]}, {etas[k]}) in row-major order"
            )
        if not (_coord_ok(row["m"], m) and _coord_ok(row["n"], n)):
            raise CheckError(f"{where}: row {k} couplings ({row['m']}, {row['n']}) != ({m}, {n})")


def check_map(text: str, fmt: str, spec: MapSpec) -> int:
    """Check a scan/fig2 output; returns the number of rows checked."""
    where = f"map {spec}"
    rows = parse_rows(text, fmt, SCAN_FIELDS)
    thetas, etas = _grid(axis(spec.theta_range), axis(spec.eta_range))
    _check_coords(rows, thetas, etas, spec.m, spec.n, where)
    r = math.hypot(spec.m, spec.n)
    valid = thetas * etas < 1.0
    nu_ref, nup_ref = reference_spectra(thetas[valid], etas[valid], spec.m, spec.n)
    limit = commutative_limit(spec.m, spec.n)
    j = 0
    for k, row in enumerate(rows):
        if not _coord_ok(row["r"], r):
            raise CheckError(f"{where}: row {k} has r = {row['r']}, expected {r}")
        if not valid[k]:
            if row["verdict"] != "invalid" or row["nu_minus"] is not None or row["nu_minus_prime"] is not None:
                raise CheckError(f"{where}: row {k} has theta*eta >= 1 but is not an empty invalid row")
            continue
        nu, nup = row["nu_minus"], row["nu_minus_prime"]
        if not (_close(nu, nu_ref[j, 0]) and _close(nup, nup_ref[j, 0])):
            raise CheckError(
                f"{where}: row {k} (theta={thetas[k]}, eta={etas[k]}) has nu = ({nu}, {nup}), "
                f"reference ({nu_ref[j, 0]!r}, {nup_ref[j, 0]!r})"
            )
        if thetas[k] == 0.0 and etas[k] == 0.0 and not (
            _close(nu, limit[0]) and _close(nup, limit[1])
        ):
            raise CheckError(f"{where}: commutative-limit row has ({nu}, {nup}), expected {limit}")
        if row["verdict"] not in allowed_verdicts(nu, nup):
            raise CheckError(f"{where}: row {k} verdict {row['verdict']!r} contradicts ({nu}, {nup})")
        j += 1
    return len(rows)


def check_fig1(text: str, fmt: str, spec: Fig1Spec) -> int:
    """Check a fig1 output; returns the number of rows checked."""
    where = f"fig1 {spec}"
    rows = parse_rows(text, fmt, FIG1_FIELDS)
    thetas, etas = _grid(spec.thetas, axis(spec.eta_range))
    _check_coords(rows, thetas, etas, spec.m, spec.n, where)
    valid = thetas * etas < 1.0
    refs = reference_spectra(thetas[valid], etas[valid], spec.m, spec.n)
    sig = covariance(spec.m, spec.n)
    root_det = math.sqrt(np.linalg.det(sig))
    limit = commutative_limit(spec.m, spec.n)
    j = 0
    for k, row in enumerate(rows):
        spectra = [[row[f"{p}_{i}"] for i in range(1, 5)] for p in ("nu", "nup")]
        if not valid[k]:
            if any(v is not None for s in spectra for v in s):
                raise CheckError(f"{where}: row {k} has theta*eta >= 1 but carries a spectrum")
            continue
        if any(v is None for s in spectra for v in s):
            raise CheckError(f"{where}: row {k} is admissible but has empty invariants")
        th, et = thetas[k], etas[k]
        for primed, (vals, ref) in enumerate(zip(spectra, refs)):
            if vals != sorted(vals):
                raise CheckError(f"{where}: row {k} spectrum {vals} is not ascending")
            for v, rv in zip(vals, ref[j]):
                if not _close(v, rv):
                    raise CheckError(f"{where}: row {k} spectrum {vals}, reference {list(ref[j])}")
            # Four factors, each within RTOL: the product is within 4 RTOL.
            product = 16.0 * root_det / (1.0 - th * et) ** 2
            if not _close(math.prod(vals), product, 4 * RTOL):
                raise CheckError(f"{where}: row {k} prod nu = {math.prod(vals)}, expected {product}")
            k_mat = form_inverses([th], [et], bool(primed))[0] @ sig
            squares = -2.0 * float(np.trace(k_mat @ k_mat))
            if not _close(sum(v * v for v in vals), squares, 2 * RTOL):
                raise CheckError(f"{where}: row {k} sum nu^2 = {sum(v * v for v in vals)}, expected {squares}")
        if th == 0.0 and et == 0.0 and not (
            _close(spectra[0][0], limit[0]) and _close(spectra[1][0], limit[1])
        ):
            raise CheckError(f"{where}: commutative-limit row has ({spectra[0][0]}, {spectra[1][0]})")
        j += 1
    return len(rows)


def check_points(points, records) -> int:
    """Check eval_point results: ``records`` are (theta, eta, m, n, r, nu, nu', verdict)."""
    if len(points) != len(records):
        raise CheckError(f"{len(records)} records for {len(points)} points")
    pts = np.asarray(points, float).reshape(-1, 4)
    ref = {}
    for key in sorted({(m, n) for _, _, m, n in points}):
        idx = [k for k, p in enumerate(points) if (p[2], p[3]) == key]
        nu, nup = reference_spectra(pts[idx, 0], pts[idx, 1], *key)
        for row, k in enumerate(idx):
            ref[k] = (nu[row, 0], nup[row, 0])
    for k, ((th, et, m, n), rec) in enumerate(zip(points, records)):
        got = tuple(rec[:4])
        if got != (th, et, m, n) or not _coord_ok(rec[4], math.hypot(m, n)):
            raise CheckError(f"point {k}: record coordinates {rec[:5]} != {(th, et, m, n)}")
        if th * et >= 1.0:
            if rec[7] != "invalid" or rec[5] is not None:
                raise CheckError(f"point {k}: theta*eta >= 1 but record is {rec}")
            continue
        nu, nup = rec[5], rec[6]
        if not (_close(nu, ref[k][0]) and _close(nup, ref[k][1])):
            raise CheckError(f"point {k} {points[k]}: nu = ({nu}, {nup}), reference {ref[k]}")
        if th == 0.0 and et == 0.0 and not (
            _close(nu, commutative_limit(m, n)[0]) and _close(nup, commutative_limit(m, n)[1])
        ):
            raise CheckError(f"point {k}: commutative-limit record ({nu}, {nup})")
        if rec[7] not in allowed_verdicts(nu, nup):
            raise CheckError(f"point {k}: verdict {rec[7]!r} contradicts ({nu}, {nup})")
    return len(records)


# --- self-test ----------------------------------------------------------------


def _bump_9th_digit(value: float) -> float:
    """The value with its 9th significant digit changed by one."""
    digits = format(value, ".12e")  # d.ddddddddddddde+xx
    mantissa, exponent = digits.split("e")
    chars = list(mantissa)
    pos = 9  # "d." takes two characters, so the 9th digit sits at index 9
    chars[pos] = "1" if chars[pos] == "0" else str(int(chars[pos]) - 1)
    return float("".join(chars) + "e" + exponent)


def _nine_digits(value) -> bool:
    return value is not None and len(format(value, ".12g").replace(".", "").lstrip("0-")) >= 9


def _serialize(rows: list[dict], fmt: str, fields: tuple[str, ...]) -> str:
    if fmt == "csv":
        lines = [",".join(fields)]
        for row in rows:
            lines.append(",".join(
                row[f] if f == "verdict" else ("" if row[f] is None else format(row[f], ".12g"))
                for f in fields
            ))
        return "\n".join(lines) + "\n"
    return json.dumps([{f: row[f] for f in fields if row[f] is not None} for row in rows], indent=2)


def _corruptions(rows: list[dict], fields: tuple[str, ...]):
    """(label, rows) pairs: one nu changed in its 9th digit; one verdict flipped."""
    nu_field = fields[5]
    for k, row in enumerate(rows):
        if _nine_digits(row[nu_field]):
            bad = [dict(r) for r in rows]
            bad[k][nu_field] = _bump_9th_digit(row[nu_field])
            yield f"{nu_field} of row {k} changed in the 9th digit", bad
            break
    if "verdict" not in fields:
        return
    for k, row in enumerate(rows):
        if row["verdict"] == "invalid":
            continue
        allowed = allowed_verdicts(row["nu_minus"], row["nu_minus_prime"])
        if len(allowed) == 1:
            bad = [dict(r) for r in rows]
            bad[k]["verdict"] = next(v for v in LABELS[:3] if v not in allowed)
            yield f"verdict of row {k} flipped", bad
            break


def synthetic_map(spec: MapSpec) -> str:
    """A correct CSV map written from the reference alone (for the standalone self-test)."""
    thetas, etas = _grid(axis(spec.theta_range), axis(spec.eta_range))
    valid = thetas * etas < 1.0
    nu, nup = reference_spectra(thetas[valid], etas[valid], spec.m, spec.n)
    rows, j = [], 0
    for th, et, ok in zip(thetas, etas, valid):
        row = {"theta": th, "eta": et, "m": spec.m, "n": spec.n, "r": math.hypot(spec.m, spec.n),
               "nu_minus": None, "nu_minus_prime": None, "verdict": "invalid"}
        if ok:
            row["nu_minus"], row["nu_minus_prime"] = float(nu[j, 0]), float(nup[j, 0])
            row["verdict"] = min(allowed_verdicts(row["nu_minus"], row["nu_minus_prime"]))
            j += 1
        rows.append(row)
    return _serialize(rows, "csv", SCAN_FIELDS)


SELF_TEST_SPEC = MapSpec((0.0, 2.0, 11), (0.0, 2.0, 11), 0.3, 0.4)


def self_test(text: str | None = None, fmt: str = "csv", spec=None) -> list[str]:
    """Show that the checker passes ``text`` and rejects each corruption of it.

    Without arguments it checks a synthetic map. Returns the problems found
    (empty when the checker behaves).
    """
    if text is None:
        text, fmt, spec = synthetic_map(SELF_TEST_SPEC), "csv", SELF_TEST_SPEC
    is_map = isinstance(spec, MapSpec)
    fields = SCAN_FIELDS if is_map else FIG1_FIELDS
    run = check_map if is_map else check_fig1
    problems = []
    try:
        run(text, fmt, spec)
    except CheckError as exc:
        problems.append(f"correct output rejected: {exc}")
    rows = parse_rows(text, fmt, fields)
    tried = 0
    for label, bad in _corruptions(rows, fields):
        tried += 1
        try:
            run(_serialize(bad, fmt, fields), fmt, spec)
            problems.append(f"corruption not detected: {label}")
        except CheckError:
            pass
    if tried < (2 if is_map else 1):
        problems.append("output too small to corrupt")
    return problems


def self_test_points(points, records) -> list[str]:
    """The same for eval_point records: a nu off in its 9th digit, a flipped verdict."""
    rows = [dict(zip(SCAN_FIELDS, rec)) for rec in records]
    problems = []
    for label, bad in _corruptions(rows, SCAN_FIELDS):
        try:
            check_points(points, [tuple(r[f] for f in SCAN_FIELDS) for r in bad])
            problems.append(f"corruption not detected: {label}")
        except CheckError:
            pass
    return problems


if __name__ == "__main__":
    found = self_test()
    for line in found:
        print("FAIL", line)
    print("checker self-test:", "FAIL" if found else "PASS")
    raise SystemExit(1 if found else 0)

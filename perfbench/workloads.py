"""Seeded inputs of the four benchmark workloads.

Every workload is a fixed *round* of operations built from the seed; a run
repeats whole rounds, so the share of failed operations is the same in every
run whatever the seed or the run length. The seeded draws stay inside the
regions where no operation fails today; the two known faults are exercised by
fixed operations that do not depend on the seed (see README.md).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from check import Fig1Spec, MapSpec, fig2_couplings

DEFAULT_GRID = (0.0, 2.0, 101)  # the CLI's default theta and eta ranges
SPECTRAL_GRID = (0.0, 2.0, 21)
FIG1_COUPLINGS = (math.sqrt(2.0) / 6.0, 1.0 / 6.0)  # the fig1 command's defaults
# Theta slices that cross the hyperbola theta*eta = 1 on the default eta grid
# without landing in [0.999, 1), where fault (a) would reject a point.
FIG1_CROSSING_THETAS = (0.5, 1.25, 2.0)

# Fixed operations that fail on every run because of faults in the program.
# They carry specs like any other operation, so once a fault is mended their
# outputs are checked in full.
FAULT_A_FIG1 = ("fig1", "--thetas", "1", "--eta-range", "0.99:0.99999:5")
FAULT_A_FIG1_SPEC = Fig1Spec((1.0,), (0.99, 0.99999, 5), *FIG1_COUPLINGS)
# A 3x3 scan centred on the fault-(b) point (0.52, 1.92); it fails at its 5th point.
FAULT_B_SCAN = ("scan", "--theta-range", "0.5:0.54:3", "--eta-range", "1.9:1.94:3",
                "--m", "-0.2357", "--n", "0.1667")
FAULT_B_SCAN_SPEC = MapSpec((0.5, 0.54, 3), (1.9, 1.94, 3), -0.2357, 0.1667)
FAULT_A_POINT = (1.0, 0.9995, -0.2, 0.1)
FAULT_B_POINT = (0.52, 1.92, -0.2357, 0.1667)


@dataclass(frozen=True)
class Op:
    """One operation: a CLI command (``argv`` without --out) or one eval_point call."""

    name: str
    argv: tuple[str, ...] = ()
    fmt: str = "csv"
    spec: MapSpec | Fig1Spec | None = None  # None only for eval_point operations
    point: tuple[float, float, float, float] | None = None
    points: int = 1  # grid points written when the operation completes
    expect_fail: str = ""  # the fault that makes this operation fail today, if any


def _num(x: float) -> str:
    return repr(float(x))  # round-trips exactly through the CLI's float()


def _range(rng) -> str:
    return f"{_num(rng[0])}:{_num(rng[1])}:{int(rng[2])}"


def _polar(rng: random.Random, r_lo, r_hi, phi_lo, phi_hi) -> tuple[float, float]:
    r = rng.uniform(r_lo, r_hi)
    phi = rng.uniform(phi_lo, phi_hi) * math.pi
    return r * math.cos(phi), r * math.sin(phi)


def _scan_op(name, m, n, fmt, grid=DEFAULT_GRID) -> Op:
    argv = ("scan", "--theta-range", _range(grid), "--eta-range", _range(grid),
            "--m", _num(m), "--n", _num(n), "--format", fmt)
    return Op(name, argv, fmt, MapSpec(grid, grid, m, n), points=grid[2] ** 2)


def _fig2_op(name, r, swap, fmt) -> Op:
    argv = ("fig2", "--r", _num(r)) + (("--swap",) if swap else ()) + ("--format", fmt)
    m, n = fig2_couplings(r, swap)
    return Op(name, argv, fmt, MapSpec(DEFAULT_GRID, DEFAULT_GRID, m, n),
              points=DEFAULT_GRID[2] ** 2)


def closed_maps(rng: random.Random) -> list[Op]:
    """Default-grid maps in the m, n >= 0 quadrant, 3 CSV and 2 JSON per round.

    The odd split keeps the median operation inside the CSV time cluster
    instead of in the gap between CSV and the slower JSON writes.
    """
    r = rng.uniform(0.2, 0.95)
    a = _polar(rng, 0.1, 0.8, 0.0, 0.5)
    b = _polar(rng, 0.1, 0.8, 0.0, 0.5)
    return [
        _fig2_op("fig2-csv", r, False, "csv"),
        _fig2_op("fig2-swap-json", r, True, "json"),
        _scan_op("scan-a-csv", *a, "csv"),
        _scan_op("scan-b-json", *b, "json"),
        _fig2_op("fig2-swap-csv", r, True, "csv"),
    ]


def spectral_maps(rng: random.Random) -> list[Op]:
    """21x21 maps on [0,2]^2, two in each of the three other quadrants, CSV, plus one fault-(b) scan.

    R stays in [0.1, 0.6]: on this grid the nearest points to the hyperbola
    have theta*eta = 0.99, where larger R lets the D-route cross-check
    (fault (b)) trip on some seeds only.
    """
    quadrants = (("m<0,n>0", 0.55, 0.95), ("m<0,n<0", 1.05, 1.45), ("m>0,n<0", 1.55, 1.95))
    ops = [
        _scan_op(f"scan-{label}-{k}", *_polar(rng, 0.1, 0.6, lo, hi), "csv", SPECTRAL_GRID)
        for k in (1, 2)
        for label, lo, hi in quadrants
    ]
    ops.append(Op("scan-fault-b", FAULT_B_SCAN, "csv", FAULT_B_SCAN_SPEC, points=9,
                  expect_fail="b"))
    return ops


def fig1_spectra(rng: random.Random) -> list[Op]:
    """Two fig1 datasets (CSV, JSON) on seeded theta slices, plus one fault-(a) fig1.

    Seeded slices stay below theta = 0.49 so that theta*eta < 0.999 on the
    whole eta grid. Fixed slices that cross the hyperbola add invalid rows; they
    do not depend on the seed, so every seed has the same number of valid points.
    """
    m, n = FIG1_COUPLINGS
    seeded = [rng.uniform(0.02, 0.49) for _ in range(4)]
    low, mid, high = FIG1_CROSSING_THETAS
    slices = ((0.0, seeded[0], seeded[1], mid), (seeded[2], seeded[3], low, high))
    ops = []
    for thetas, fmt in zip(slices, ("csv", "json")):
        argv = ("fig1", "--thetas", ",".join(_num(t) for t in thetas),
                "--eta-range", _range(DEFAULT_GRID), "--format", fmt)
        ops.append(Op(f"fig1-{fmt}", argv, fmt, Fig1Spec(thetas, DEFAULT_GRID, m, n),
                      points=len(thetas) * DEFAULT_GRID[2]))
    ops.append(Op("fig1-fault-a", FAULT_A_FIG1, "csv", FAULT_A_FIG1_SPEC, points=5,
                  expect_fail="a"))
    return ops


def _deformation(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    """(theta, eta) in [0,2]^2 with theta*eta in [lo, hi]."""
    if lo == 0.0:
        theta = rng.uniform(0.0, 2.0)
        return theta, rng.uniform(0.0, min(2.0, hi / theta) if theta > 0 else 2.0)
    theta = rng.uniform(lo / 2.0 + 1e-3, 2.0)
    return theta, rng.uniform(lo, hi) / theta


def point_eval(rng: random.Random) -> list[Op]:
    """256 seeded eval_point calls, 64 per coupling quadrant, plus two fault points.

    One quadrant in four takes the closed-form route (~10 us) and three take
    the spectral route (~0.6 ms), so the median and p99 both lie inside the
    spectral cluster, away from the gap between the two. Each quadrant holds
    points near theta*eta -> 1 and near R -> 1. Off the closed-form quadrant
    these stay at theta*eta <= 0.98 and R <= 0.99, where neither fault trips.
    """
    quadrants = ((0.0, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 2.0))
    points = []
    for q, (lo, hi) in enumerate(quadrants):
        closed = q == 0
        kinds = (
            [("regular", 0.0, 0.9, 0.0, 0.8)] * (40 if closed else 48)
            + [("hyperbola",) + ((0.999, 0.99999) if closed else (0.95, 0.98)) + (0.0, 0.8)]
            * (12 if closed else 8)
            + [("radius", 0.0, 0.5) + ((0.99, 0.9999) if closed else (0.95, 0.99))]
            * (12 if closed else 8)
        )
        for _, p_lo, p_hi, r_lo, r_hi in kinds:
            theta, eta = _deformation(rng, p_lo, p_hi)
            m, n = _polar(rng, r_lo, r_hi, lo + 0.02, hi - 0.02)
            points.append((theta, eta, m, n))
    rng.shuffle(points)
    ops = [Op(f"point-{k}", point=p) for k, p in enumerate(points)]
    ops.append(Op("point-fault-a", point=FAULT_A_POINT, expect_fail="a"))
    ops.append(Op("point-fault-b", point=FAULT_B_POINT, expect_fail="b"))
    return ops


WORKLOADS = {
    "closed-maps": closed_maps,
    "spectral-maps": spectral_maps,
    "fig1-spectra": fig1_spectra,
    "point-eval": point_eval,
}


def build(workload: str, seed: int) -> list[Op]:
    """The round of operations of ``workload`` for ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))

"""Command-line front end: single-point evaluation and parameter-plane scans.

``scan``, ``fig1`` and ``fig2`` write the column table of one batched evaluation
(``scan.scan_table``, ``scan.fig1_table``) to stdout or the ``--out`` file, a block of rows per
write; each column's distinct values are spelled in bulk with their separators, a column of one
word joins the column before it, and the bytes are those of spelling every cell.
``eval --verbose`` adds the dense route's invariants at the point (``family.dense_spectra``).

Argument parsing refuses only malformed text; the library checks every number and names what
fails. Exit codes: 0 on success, 2 on usage errors (malformed text, a
non-finite or negative deformation, non-finite couplings or R >= 1, a grid range with MIN > MAX, a
non-finite bound, STEPS < 1 or too large to index, unwritable output, a closed pipe), 3 on
numerical-domain errors raised during evaluation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import DomainError, NCGaussError
from .family import dense_spectra
from .scan import eval_point, fig1_table, fig2_couplings, scan_table, table_to_csv, table_to_json

USAGE_EXIT = 2
NUMERIC_EXIT = 3


def _parse_range(text: str) -> tuple[float, float, int]:
    """Split MIN:MAX:STEPS into numbers; scan._check_range checks the values."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX:STEPS, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad list {text!r}: {exc}") from exc


def _write_table(table, args) -> None:
    write = table_to_csv if args.format == "csv" else table_to_json
    if args.out == "-":
        write(table, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            write(table, handle)


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument("--out", default="-", help="output path, or - for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncgauss",
        description="Quantumness and separability maps of deformed-phase-space Gaussian states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="classify a single (theta, eta, m, n) point")
    p_eval.add_argument("--theta", type=float, required=True)
    p_eval.add_argument("--eta", type=float, required=True)
    p_eval.add_argument("--m", type=float, required=True)
    p_eval.add_argument("--n", type=float, required=True)
    p_eval.add_argument(
        "--verbose", action="store_true", help="add the dense 8x8 route's invariants as a cross-check"
    )

    p_scan = sub.add_parser("scan", help="classify a (theta, eta) grid")
    p_scan.add_argument("--theta-range", type=_parse_range, default=(0.0, 2.0, 101),
                        metavar="MIN:MAX:STEPS")
    p_scan.add_argument("--eta-range", type=_parse_range, default=(0.0, 2.0, 101),
                        metavar="MIN:MAX:STEPS")
    p_scan.add_argument("--m", type=float, required=True)
    p_scan.add_argument("--n", type=float, required=True)
    _add_output_options(p_scan)

    p_fig1 = sub.add_parser("fig1", help="emit full spectra along eta for several theta")
    p_fig1.add_argument("--thetas", type=_parse_float_list, default=(0.0, 0.25, 0.5),
                        metavar="T1,T2,...")
    p_fig1.add_argument("--eta-range", type=_parse_range, default=(0.0, 2.0, 101),
                        metavar="MIN:MAX:STEPS")
    p_fig1.add_argument("--m", type=float, default=math.sqrt(2.0) / 6.0)
    p_fig1.add_argument("--n", type=float, default=1.0 / 6.0)
    _add_output_options(p_fig1)

    p_fig2 = sub.add_parser("fig2", help="scan the figure slice for a given r label")
    p_fig2.add_argument("--r", type=float, required=True)
    p_fig2.add_argument("--swap", action="store_true", help="swap the (m, n) parameterization")
    p_fig2.add_argument("--theta-range", type=_parse_range, default=(0.0, 2.0, 101),
                        metavar="MIN:MAX:STEPS")
    p_fig2.add_argument("--eta-range", type=_parse_range, default=(0.0, 2.0, 101),
                        metavar="MIN:MAX:STEPS")
    _add_output_options(p_fig2)

    return parser


def _cmd_eval(args) -> int:
    record = eval_point(args.theta, args.eta, args.m, args.n)
    obj = {key: value for key, value in record._asdict().items() if value is not None}
    if args.verbose and record.nu_minus is not None:
        spectrum, reflected = dense_spectra([args.theta], [args.eta], args.m, args.n)
        obj["nu_minus_numeric"], obj["nu_minus_prime_numeric"] = spectrum[0, 0].item(), reflected[0, 0].item()
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    return 0


def _cmd_scan(args) -> int:
    _write_table(scan_table(args.theta_range, args.eta_range, args.m, args.n), args)
    return 0


def _cmd_fig1(args) -> int:
    _write_table(fig1_table(args.thetas, args.eta_range, args.m, args.n), args)
    return 0


def _cmd_fig2(args) -> int:
    _write_table(scan_table(args.theta_range, args.eta_range, *fig2_couplings(args.r, args.swap)), args)
    return 0


_HANDLERS = {"eval": _cmd_eval, "scan": _cmd_scan, "fig1": _cmd_fig1, "fig2": _cmd_fig2}
# main's parser, built once per process: building it costs more than a five-point fig1.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except DomainError as exc:
        # Bad numbers, as the library checks them (R >= 1, a non-finite value, a bad grid range).
        print(f"ncgauss: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except NCGaussError as exc:
        print(f"ncgauss: numerical-domain error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except OSError as exc:
        print(f"ncgauss: cannot write output: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())

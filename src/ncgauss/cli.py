"""Command-line front end: single-point evaluation and parameter-plane scans.

The commands are one table, ``_COMMANDS``: each name with its help text, its runner and its
options in ``--help`` order. ``scan``, ``fig1`` and ``fig2`` write the keyed table of one batched
evaluation (``scan._scan_table``, ``scan._fig1_table``) to stdout or the ``--out`` file, on the route
that :func:`_map_primitives` picks. ``eval --verbose`` adds the dense route's invariants at the point
(``core.dense_spectra``). Only these load numpy: ``eval --verbose``, and a map of more than
``_COLD_ROWS`` points (a fig1 point counts thrice). A plain ``eval`` and a default map run on Python
floats and import none: in fresh processes on 2 shared cores a default ``fig2`` takes about 110 ms
instead of 160 ms, and a 21x21 ``scan`` or a four-slice ``fig1`` about 70 ms instead of 150 ms.

Argument parsing refuses only malformed text and reads a negative number in any float spelling
as a value; the library checks every number and names what fails. Exit codes: 0 on success, 2 on
usage errors (malformed text, a non-finite or negative deformation, non-finite couplings or R >= 1,
a grid range with MIN > MAX, a non-finite bound, a range width beyond the float range, STEPS < 1 or
too large to index, a grid too large for memory, unwritable output, a closed pipe), 3 on any other
NCGaussError. No input reaches exit 3: the library raises only DomainError for what the commands
pass it, so ``NUMERIC_EXIT`` guards against a library bug.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from .errors import DomainError, NCGaussError
from .scan import (_LISTS, _arrays, _fig1_table, _scan_table, eval_point, fig2_couplings, table_to_csv,
                   table_to_json)

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


# The most points a map runs on lists. On 2 shared cores (Python 3.11, numpy 2.4) a scan point that
# is its own pair's key, the lists' dearest, costs them about 2.6 us more than numpy's arrays, a
# fig1 point about 9 us: in fresh processes a scan whose axes share no value breaks even with
# numpy's import and arrays near 2^15 points, a square one above it, and a fig1 near 11k points, so
# fig1 counts a point thrice. 2^14 leaves a margin.
_COLD_ROWS = 1 << 14


def _map_primitives(rows: int):
    """A map's table primitives: the lists while numpy is unloaded and ``rows <= _COLD_ROWS``."""
    return _LISTS if "numpy" not in sys.modules and rows <= _COLD_ROWS else _arrays()


def _cmd_eval(args) -> None:
    import json
    record = eval_point(args.theta, args.eta, args.m, args.n)
    obj = {key: value for key, value in record._asdict().items() if value is not None}
    if args.verbose and record.nu_minus is not None:
        from .core import dense_spectra
        spectrum, reflected = dense_spectra([args.theta], [args.eta], args.m, args.n)
        obj["nu_minus_numeric"], obj["nu_minus_prime_numeric"] = spectrum[0, 0].item(), reflected[0, 0].item()
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


_FLOAT = {"type": float, "required": True}
_RANGE = {"type": _parse_range, "default": (0.0, 2.0, 101), "metavar": "MIN:MAX:STEPS"}
_OUTPUT = (("--format", {"choices": ("csv", "json"), "default": "csv", "help": "output format"}),
           ("--out", {"default": "-", "help": "output path, or - for stdout"}))
_COMMANDS = {
    "eval": ("classify a single (theta, eta, m, n) point", _cmd_eval, [
        ("--theta", _FLOAT), ("--eta", _FLOAT), ("--m", _FLOAT), ("--n", _FLOAT),
        ("--verbose", {"action": "store_true", "help": "add the dense 8x8 route's invariants as a cross-check"}),
    ]),
    "scan": ("classify a (theta, eta) grid", lambda a: _write_table(_scan_table(
        a.theta_range, a.eta_range, a.m, a.n, _map_primitives(a.theta_range[2] * a.eta_range[2])), a), [
        ("--theta-range", _RANGE), ("--eta-range", _RANGE), ("--m", _FLOAT), ("--n", _FLOAT), *_OUTPUT,
    ]),
    "fig1": ("emit full spectra along eta for several theta", lambda a: _write_table(_fig1_table(
        a.thetas, a.eta_range, a.m, a.n, _map_primitives(3 * len(a.thetas) * a.eta_range[2])), a), [
        ("--thetas", {"type": _parse_float_list, "default": (0.0, 0.25, 0.5), "metavar": "T1,T2,..."}),
        ("--eta-range", _RANGE),
        ("--m", {"type": float, "default": math.sqrt(2.0) / 6.0}),
        ("--n", {"type": float, "default": 1.0 / 6.0}),
        *_OUTPUT,
    ]),
    "fig2": ("scan the figure slice for a given r label", lambda a: _write_table(_scan_table(
        a.theta_range, a.eta_range, *fig2_couplings(a.r, a.swap),
        _map_primitives(a.theta_range[2] * a.eta_range[2])), a), [
        ("--r", _FLOAT),
        ("--swap", {"action": "store_true", "help": "swap the (m, n) parameterization"}),
        ("--theta-range", _RANGE), ("--eta-range", _RANGE), *_OUTPUT,
    ]),
}
# argparse reads a token that a parser's _negative_number_matcher matches as a value; its own
# matcher takes only -123 and -1.5. This one takes every float spelling (-1e-5, -.5, -inf): no
# ncgauss option starts with "-" and a digit, ".", inf or nan.
_NEGATIVE_NUMBER = re.compile(r"^-(?:[\d.]|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncgauss",
        description="Quantumness and separability maps of deformed-phase-space Gaussian states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command._negative_number_matcher = _NEGATIVE_NUMBER
        command.set_defaults(run=run)
        for flag, spec in options:
            command.add_argument(flag, **spec)
    return parser


# main's parser, built once per process: building it costs more than a five-point fig1.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.run(args)
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
    except MemoryError:  # numpy's allocation of a grid's columns, such as 10^6 x 10^6 points
        print("ncgauss: the grid does not fit in memory", file=sys.stderr)
        return USAGE_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The one-point path and the cold maps import no numpy, and the array tests touch none.

``ncgauss``, ``scan.eval_point`` and a plain ``eval`` run on Python floats through
``ncgauss.kernel``. A map of at most ``cli._COLD_ROWS`` points (a fig1 point counts thrice), run
in a process that has not loaded numpy, takes the tables' list route and loads none either. Only
``eval --verbose`` and larger maps load numpy, and only ``eval --verbose``, the dense cross-check,
loads ``ncgauss.core``. Each import check runs in a fresh interpreter, since this one has both
loaded already.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncgauss.cli import _COLD_ROWS, main
from ncgauss.kernel import _FLOAT_PRIMITIVES, Verdict, _closed_forms, _primitives, verdict_from_invariants
from ncgauss.scan import eval_point
from test_cli import GOLDEN

SRC = str(Path(__file__).resolve().parents[1] / "src")
POINT = (0.25, 0.5, -0.2357, 0.1667)
EVAL = ["eval", "--theta", "0.25", "--eta", "0.5", "--m", "-0.2357", "--n", "0.1667"]
MAPS = (("scan", "--m", "0.3", "--n", "0.2"), ("fig1",), ("fig2", "--r", "0.5"))
PROBED = ("numpy", "ncgauss.core")
CLI = "import sys\nfrom ncgauss.cli import main\nassert main(sys.argv[1:]) == 0"


def _run(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``args``, importing ncgauss from src/, RuntimeWarnings as errors."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"},
    )


def _fresh(code: str, *args: str) -> tuple[str, set[str]]:
    """Run ``code`` with ``args`` in a fresh interpreter (:func:`_run`); return its stdout and which
    of the ``PROBED`` modules were loaded when it ended."""
    probe = f"\nimport sys\nsys.stderr.write('\\nloaded: ' + ' '.join(m for m in {PROBED!r} if m in sys.modules))"
    proc = _run("-c", code + probe, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, set(proc.stderr.rsplit("\nloaded: ", 1)[-1].split())


def test_the_namespace_loads_no_numpy():
    code = ("import ncgauss\nassert set(ncgauss.__all__) <= set(dir(ncgauss))\n"
            "from ncgauss import eval_point, verdict_from_invariants, DomainError")
    assert _fresh(code) == ("", set())


def test_eval_point_loads_no_numpy():
    code = "from ncgauss.scan import eval_point\nprint(repr(eval_point(0.25, 0.5, -0.2357, 0.1667)))"
    assert _fresh(code) == (repr(eval_point(*POINT)) + "\n", set())


def test_eval_loads_no_numpy(capsys):
    assert main(EVAL) == 0
    assert _fresh(CLI, *EVAL) == (capsys.readouterr().out, set())


def test_eval_verbose_loads_numpy(capsys):
    assert main([*EVAL, "--verbose"]) == 0
    out, loaded = _fresh(CLI, *EVAL, "--verbose")
    assert loaded == {"numpy", "ncgauss.core"} and out == capsys.readouterr().out
    assert "nu_minus_numeric" in out


def test_module_run_exits_2_with_the_library_message_alone():
    # python -m ncgauss.cli passes main's exit code to the process.
    proc = _run("-m", "ncgauss.cli", "scan", "--m", "0.3", "--n", "0.2", "--eta-range", "2:0:3")
    message = "ncgauss: eta range must satisfy finite min <= max, got (2.0, 0.0, 3)\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cold_maps_load_no_numpy_and_print_their_recorded_bytes(fmt):
    # A fresh default map runs on lists: it loads neither numpy nor ``core``, the dense route's module.
    for argv in MAPS:
        out, loaded = _fresh(CLI, *argv, "--format", fmt)
        assert loaded == set(), argv
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv][fmt == "json"], argv


@pytest.mark.parametrize("argv, rows", [
    (("scan", "--m", "-0.3", "--n", "0.2", "--theta-range", "0:2:113", "--eta-range", "0:2:145"), 113 * 145),
    (("fig1", "--thetas", "0.5", "--eta-range", f"0:2:{_COLD_ROWS // 3}"), 3 * (_COLD_ROWS // 3)),
    (("fig1", "--thetas", "0.5", "--eta-range", f"0:2:{_COLD_ROWS // 3 + 1}"), 3 * (_COLD_ROWS // 3 + 1)),
], ids=["scan-above", "fig1-below", "fig1-above"])
def test_maps_load_numpy_only_above_the_cold_rows(capsys, argv, rows):
    # Just above _COLD_ROWS (a fig1 point counts thrice) a fresh map takes numpy's arrays, just below
    # it the lists; each prints the bytes that this process, which has loaded numpy, prints.
    assert rows - _COLD_ROWS in (-1, 1, 2)
    assert main(list(argv)) == 0
    out, loaded = _fresh(CLI, *argv)
    assert loaded == ({"numpy"} if rows > _COLD_ROWS else set()) and out == capsys.readouterr().out


@pytest.mark.parametrize(
    "value",
    [1.5, np.float64(1.5), np.array(1.5), np.array([1.5, 0.5])],
    ids=["float", "float64", "0-d array", "1-d array"],
)
def test_numbers_take_math_and_arrays_numpy(value):
    # Only an array, 0-d included, takes numpy's primitives. The verdict of numbers and of 0-d
    # arrays, whose rank numpy gives as a scalar, is a Verdict; arrays of points give their ranks.
    is_array = isinstance(value, np.ndarray)
    assert _primitives(value) is (np if is_array else _FLOAT_PRIMITIVES)
    verdict = verdict_from_invariants(value, value)
    if np.ndim(value):
        assert verdict.dtype.kind == "i" and verdict.tolist() == [3, 1]
    else:
        assert verdict is Verdict.SEPARABLE_QUANTUM
    # One kernel text, so each kind gives the bits of the Python float.
    nu, nu_prime = _closed_forms(value, value / 3.0, 0.3, 0.2, math.hypot(0.3, 0.2))[:2]
    want = _closed_forms(1.5, 0.5, 0.3, 0.2, math.hypot(0.3, 0.2))[:2]
    assert (np.ravel(nu)[0], np.ravel(nu_prime)[0]) == want

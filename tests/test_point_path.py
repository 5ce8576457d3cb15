"""The one-point path imports no numpy, and its array tests touch none.

``ncgauss``, ``scan.eval_point`` and a plain ``eval`` run on Python floats through
``ncgauss.kernel``; only ``eval --verbose`` and the grid commands load numpy. Each import check
runs in a fresh interpreter, since this one has numpy loaded already.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncgauss.cli import main
from ncgauss.kernel import _FLOAT_PRIMITIVES, Verdict, _closed_forms, _primitives, verdict_from_invariants
from ncgauss.scan import eval_point
from test_cli import GOLDEN

SRC = str(Path(__file__).resolve().parents[1] / "src")
POINT = (0.25, 0.5, -0.2357, 0.1667)
EVAL = ["eval", "--theta", "0.25", "--eta", "0.5", "--m", "-0.2357", "--n", "0.1667"]
SCAN = ("scan", "--m", "0.3", "--n", "0.2")
CLI = "import sys\nfrom ncgauss.cli import main\nassert main(sys.argv[1:]) == 0"


def _run(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``args``, importing ncgauss from src/, RuntimeWarnings as errors."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"},
    )


def _fresh(code: str, *args: str) -> tuple[str, bool]:
    """Run ``code`` with ``args`` in a fresh interpreter (:func:`_run`); return its stdout and whether
    numpy was loaded when it ended."""
    probe = "\nimport sys\nsys.stderr.write('\\nnumpy loaded: %s' % ('numpy' in sys.modules))"
    proc = _run("-c", code + probe, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr.rsplit("\n", 1)[-1] == "numpy loaded: True"


def test_the_namespace_loads_no_numpy():
    code = ("import ncgauss\nassert set(ncgauss.__all__) <= set(dir(ncgauss))\n"
            "from ncgauss import eval_point, verdict_from_invariants, DomainError")
    assert _fresh(code) == ("", False)


def test_eval_point_loads_no_numpy():
    code = "from ncgauss.scan import eval_point\nprint(repr(eval_point(0.25, 0.5, -0.2357, 0.1667)))"
    assert _fresh(code) == (repr(eval_point(*POINT)) + "\n", False)


def test_eval_loads_no_numpy(capsys):
    assert main(EVAL) == 0
    assert _fresh(CLI, *EVAL) == (capsys.readouterr().out, False)


def test_eval_verbose_loads_numpy(capsys):
    assert main([*EVAL, "--verbose"]) == 0
    out, numpy_loaded = _fresh(CLI, *EVAL, "--verbose")
    assert numpy_loaded and out == capsys.readouterr().out
    assert "nu_minus_numeric" in out


def test_module_run_exits_2_with_the_library_message_alone():
    # python -m ncgauss.cli passes main's exit code to the process.
    proc = _run("-m", "ncgauss.cli", "scan", "--m", "0.3", "--n", "0.2", "--eta-range", "2:0:3")
    message = "ncgauss: eta range must satisfy finite min <= max, got (2.0, 0.0, 3)\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_loads_numpy_and_prints_its_recorded_bytes(fmt):
    out, numpy_loaded = _fresh(CLI, *SCAN, "--format", fmt)
    assert numpy_loaded
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[SCAN][fmt == "json"]


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

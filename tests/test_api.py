"""The top-level namespace and the README document the same API."""

import contextlib
import importlib
import io
import math
import re
from pathlib import Path

import pytest

import ncgauss

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_imports():
    """Names that the README's Python code blocks import with ``from ncgauss import``."""
    names = set()
    for block in re.findall(r"```python\n(.*?)```", README, re.S):
        for group in re.findall(r"^from ncgauss import (\([^)]*\)|[^\n]*)", block, re.M):
            names.update(name.strip() for name in group.strip("()").split(",") if name.strip())
    return names


def test_every_exported_name_is_in_the_readme():
    missing = [name for name in ncgauss.__all__ if not re.search(rf"\b{name}\b", README)]
    assert missing == []


def test_readme_imports_only_exported_names():
    imported = _readme_imports()
    assert imported  # the quick start imports from ncgauss
    assert sorted(imported - set(ncgauss.__all__)) == []


def test_every_exported_name_resolves_to_its_home_module():
    # The namespace loads its names on first use; each is the object its module defines.
    assert len(set(ncgauss.__all__)) == len(ncgauss.__all__)
    for name in ncgauss.__all__:
        home = importlib.import_module(f"ncgauss.{ncgauss._HOMES[name]}")
        assert getattr(ncgauss, name) is getattr(home, name)
        assert name in vars(ncgauss)  # cached after the first lookup


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ncgauss.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from ncgauss import no_such_name  # noqa: F401



def _quick_start_steps():
    """The README's Python block as (code, expected) steps: each step's code ends in a line that
    starts with ``print(`` or writes to ``sys.stdout``, and the ``# `` comment lines right after it
    are the printed lines."""
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    steps, code, lines = [], [], block.splitlines()
    for k, line in enumerate(lines):
        code.append(line)
        if line.startswith("print(") or "sys.stdout)" in line:
            expected = []
            for comment in lines[k + 1 :]:
                if not comment.startswith("# "):
                    break
                expected.append(comment[2:])
            steps.append(("\n".join(code), expected))
            code = []
    return steps


def _same_printed_line(got, want):
    """Words equal, numbers equal to 1e-12 relative; words split at commas and whitespace."""
    got_words, want_words = re.split(r",|\s+", got), re.split(r",|\s+", want)
    if len(got_words) != len(want_words):
        return False
    for g, w in zip(got_words, want_words):
        try:
            if not math.isclose(float(g), float(w), rel_tol=1e-12):
                return False
        except ValueError:
            if g != w:
                return False
    return True


def test_readme_quick_start_prints_what_it_documents():
    steps = _quick_start_steps()
    assert steps  # the quick start prints
    namespace = {}
    for code, expected in steps:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, "README.md", "exec"), namespace)
        printed = out.getvalue().splitlines()
        if expected and expected[-1] == "...":  # the comment shows the first lines only
            expected, printed = expected[:-1], printed[: len(expected) - 1]
        assert expected, code
        assert len(printed) == len(expected), (printed, expected)
        for got, want in zip(printed, expected):
            assert _same_printed_line(got, want), (got, want)

"""The top-level namespace and the README document the same API."""

import re
from pathlib import Path

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


"""The package's source parses under the oldest Python that pyproject.toml
declares.  This checks the grammar only: a standard-library name added after
the floor still passes."""

import ast
import re
import warnings
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SOURCES = sorted((_ROOT / "src" / "cosec").glob("*.py"))


def _floor() -> tuple[int, int]:
    text = (_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_readme_states_the_declared_floor():
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    assert "Python ≥ {}.{}".format(*_floor()) in readme


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_floor_and_compiles_without_warnings(path):
    source = path.read_text(encoding="utf-8")
    ast.parse(source, str(path), feature_version=_floor())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(source, str(path), "exec", dont_inherit=True)

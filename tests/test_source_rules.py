"""Rules on the package source itself, checked by parsing it."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dynamo").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts, so an invariant checked by one is not checked
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements on lines {lines}"


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    # behaviour is set by arguments and config files only, never by environment knobs
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in ENVIRONMENT_NAMES
             or isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES
             or isinstance(node, ast.alias) and node.name in ENVIRONMENT_NAMES]
    assert not lines, f"{path.name} reads the environment on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    # the package installs with no third-party dependency; numpy serves only the tests
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [(node.lineno, name) for node in ast.walk(tree)
               for name in _imported_modules(node)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports non-standard modules {outside}"


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []  # relative imports stay inside the package


def test_project_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    project = pyproject["project"]
    assert project.get("dependencies", []) == []
    test_extra = project["optional-dependencies"]["test"]
    assert any(req.startswith("numpy") for req in test_extra), test_extra

"""Rules on the package source itself, checked by parsing it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dynamo").glob("*.py"))


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

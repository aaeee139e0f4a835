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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "graph.py"],
                         ids=lambda p: p.name)
def test_private_attributes_stay_in_graph(path):
    # graphs and partitions are read through their methods outside graph.py, so a
    # check cannot walk adjacency rows unseen by a graph that counts its reads
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [(node.lineno, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and _is_private(node.attr)
             and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]
    assert not lines, f"{path.name} reads private attributes of other objects: {lines}"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_one_file_reader():
    # input files are read in ingest._lines only, so every parser decodes and
    # skips comments the same way and reports undecodable bytes as a ParseError
    calls = [call for path in SOURCES
             for call in _read_calls(ast.parse(path.read_text(encoding="utf-8")),
                                     (path.name, None))]
    assert calls == [("ingest.py", "_lines")], calls


READ_METHODS = {"open", "read_text", "read_bytes"}


def _read_calls(node, where):
    """``(file, innermost function)`` of each call in ``node`` that reads a file.

    That is ``open(...)``, or ``x.m(...)`` for a method ``m`` in :data:`READ_METHODS`.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _read_calls(child, (where[0], child.name))
            continue
        if isinstance(child, ast.Call) and (
                isinstance(child.func, ast.Name) and child.func.id == "open"
                or isinstance(child.func, ast.Attribute) and child.func.attr in READ_METHODS):
            yield where
        yield from _read_calls(child, where)


def test_update_never_rebuilds_a_snapshot():
    # the update accepts only a step that apply_delta recorded (an O(1) check),
    # so incremental.py never applies a delta itself to compare graphs
    path = ROOT / "src" / "dynamo" / "incremental.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] == "apply_delta"
             or isinstance(node, ast.Name) and node.id == "apply_delta"
             or isinstance(node, ast.Attribute) and node.attr == "apply_delta"]
    assert not lines, f"incremental.py refers to apply_delta on lines {lines}"


@pytest.mark.parametrize("name", ["synthgen.py", "ingest.py"])
def test_only_detection_builds_partitions(name):
    # a Partition's aggregates hold on one graph; the planted truth and the
    # partition files are plain {vertex: community} mappings, so the generator
    # and the file formats never build or take one
    path = ROOT / "src" / "dynamo" / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] == "Partition"
             or isinstance(node, ast.Name) and node.id == "Partition"
             or isinstance(node, ast.Attribute) and node.attr == "Partition"]
    assert not lines, f"{name} refers to Partition on lines {lines}"


def test_package_root_imports_nothing():
    # each name has one import path, the module that defines it: a root that
    # re-exports gives it a second one, shadows the module `dynamo.louvain` with
    # its function and loads every module on the first import of any one
    path = ROOT / "src" / "dynamo" / "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not lines, f"__init__.py imports on lines {lines}"

"""The package namespace and the record types that a run builds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dynamo.graph import GraphDelta
from dynamo.incremental import InitPlan
from dynamo.ingest import Snapshot, SnapshotReport
from dynamo.metrics import ConfusionTable

SRC = Path(__file__).resolve().parents[1] / "src"
LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'dynamo'))\n"


def fresh(code: str) -> list[str]:
    """The output lines of ``code`` run in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300, check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    return out.stdout.splitlines()


def test_each_name_has_one_import_path():
    # the package root re-exports nothing: each name is imported from the module
    # that defines it, `dynamo.louvain` is that module, and importing one module
    # loads only what it imports
    assert fresh("import sys, dynamo\n" + LOADED) == ["['dynamo']"]
    assert fresh("import types, dynamo.louvain as m\n"
                 "print(isinstance(m, types.ModuleType), m.__name__)\n") == [
        "True dynamo.louvain"]
    assert fresh("import sys, dynamo.graph\n" + LOADED) == [
        "['dynamo', 'dynamo.errors', 'dynamo.graph']"]
    # argparse loads only once `main` builds its parser, after the package:
    # loaded before it, argparse raised the peak RSS of a run (see cli._build_parser)
    assert fresh("import contextlib, io, sys, dynamo.cli\n" + LOADED
                 + "print('argparse' in sys.modules)\n"
                 "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
                 "    dynamo.cli.main(['--help'])\n"
                 "print('argparse' in sys.modules)\n") == [
        "['dynamo', 'dynamo.cli', 'dynamo.errors', 'dynamo.graph', 'dynamo.harness', "
        "'dynamo.incremental', 'dynamo.ingest', 'dynamo.louvain', 'dynamo.metrics']",
        "False", "True"]


def test_generate_command_runs_in_a_fresh_interpreter(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "dynamo.cli", "generate", "--out-dir", str(tmp_path / "s"),
         "--seed", "2", "--communities", "2", "--community-size", "8", "--p-in", "0.5",
         "--p-out", "0.08", "--snapshots", "3", "--icea", "1", "--ccea", "2", "--cced", "1"],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == f"wrote 3 snapshots to {tmp_path / 's'}\n"
    assert len(list((tmp_path / "s" / "deltas").glob("*.delta"))) == 3


class TestRecords:
    def test_records_compare_and_unpack_as_tuples(self):
        report = SnapshotReport(0, "dynamo", 0.5, 1.0, 1.0, 10, 10, 4, 3, 2)
        assert report._replace(modularity=None).modularity is None
        index, delta = Snapshot(3, GraphDelta())
        assert (index, delta) == (3, GraphDelta())
        assert ConfusionTable({(0, 0): 2}, {0: 2}, {0: 2}, 2) == ({(0, 0): 2}, {0: 2}, {0: 2}, 2)

    def test_init_plan_defaults_are_empty_and_read_only(self):
        plan = InitPlan()
        assert plan == (frozenset(), frozenset(), frozenset(), {}, frozenset())
        with pytest.raises(TypeError):
            plan.beta_shift[0] = 1.0  # the default is shared by every plan
        assert InitPlan(seeds=frozenset({9})) == InitPlan(beta_shift={}, seeds=frozenset({9}))

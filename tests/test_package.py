"""The package namespace and the record types that a run builds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynamo
from dynamo import ConfusionTable, InitPlan, Snapshot, SnapshotReport

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC_NAMES = [
    "ALGORITHMS", "Change", "ChangeKind", "Churn", "ConflictingDeltaError", "ConfusionTable",
    "DuplicateVertexError", "DynamoError", "EPSILON", "EdgeChange", "EdgeEvent",
    "EmptyGraphError", "EmptyStreamError", "GenConfig", "GeneratedScenario", "GraphDelta",
    "InconsistentSnapshotsError", "InfeasibleChurnError", "InitPlan", "NegativeWeightError",
    "ParseError", "Partition", "RunConfig", "SameCommunityError", "SelfLoopError", "Snapshot",
    "SnapshotReport", "UnknownVertexError", "VertexAddition", "VertexRemoval",
    "VertexSetMismatchError", "WeightedGraph", "apply_delta", "ari", "ccea_merge_threshold",
    "classify", "compress", "dynamo_update", "errors", "generate", "graph", "harness",
    "incremental", "ingest", "init", "intermediate_partition", "load_delta_dir",
    "local_moving_pass", "louvain", "metrics", "modularity", "nmi", "parse_delta_file",
    "parse_edge_events", "partition_rebuild_aggregates", "read_partition_file",
    "run_benchmark", "slice_snapshots", "synthgen", "write_delta_file",
    "write_partition_file", "write_reports",
]


def test_public_names_are_unchanged():
    assert dynamo.__all__ == PUBLIC_NAMES


def test_generator_names_load_on_first_access():
    # a fresh interpreter: `import dynamo` leaves the generator unloaded until
    # one of its names is asked for, and unknown names still fail
    code = (
        "import sys, dynamo\n"
        "print('dynamo.synthgen' in sys.modules)\n"
        "from dynamo import Churn, GenConfig, GeneratedScenario, generate\n"
        "from dynamo.synthgen import generate as direct\n"
        "print('dynamo.synthgen' in sys.modules, generate is direct,\n"
        "      GenConfig.__module__, Churn.__module__, GeneratedScenario.__module__)\n"
        "try:\n"
        "    dynamo.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300, check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.splitlines() == [
        "False",
        "True True dynamo.synthgen dynamo.synthgen dynamo.synthgen",
        "module 'dynamo' has no attribute 'no_such_name'",
    ]


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
        index, delta = Snapshot(3, dynamo.GraphDelta())
        assert (index, delta) == (3, dynamo.GraphDelta())
        assert ConfusionTable({(0, 0): 2}, {0: 2}, {0: 2}, 2) == ({(0, 0): 2}, {0: 2}, {0: 2}, 2)

    def test_init_plan_defaults_are_empty_and_read_only(self):
        plan = InitPlan()
        assert plan == (frozenset(), frozenset(), frozenset(), {}, frozenset())
        with pytest.raises(TypeError):
            plan.beta_shift[0] = 1.0  # the default is shared by every plan
        assert InitPlan(seeds=frozenset({9})) == InitPlan(beta_shift={}, seeds=frozenset({9}))

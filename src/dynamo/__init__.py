"""Incremental modularity-based community detection on evolving weighted networks.

The package pairs a static Louvain detector with an incremental updater that
maintains the community structure across snapshot deltas, plus quality metrics,
snapshot ingestion, a seeded synthetic-network generator, and a benchmark
harness comparing the two detectors.
"""

from .errors import (
    ConflictingDeltaError,
    DuplicateVertexError,
    DynamoError,
    EmptyGraphError,
    EmptyStreamError,
    InconsistentSnapshotsError,
    InfeasibleChurnError,
    NegativeWeightError,
    ParseError,
    SameCommunityError,
    SelfLoopError,
    UnknownVertexError,
    VertexSetMismatchError,
)
from .graph import (
    Change,
    EdgeChange,
    GraphDelta,
    Partition,
    VertexAddition,
    VertexRemoval,
    WeightedGraph,
    apply_delta,
    modularity,
    partition_rebuild_aggregates,
)
from .harness import ALGORITHMS, RunConfig, run_benchmark
from .incremental import (
    ChangeKind,
    InitPlan,
    ccea_merge_threshold,
    classify,
    dynamo_update,
    init,
    intermediate_partition,
)
from .ingest import (
    EdgeEvent,
    Snapshot,
    SnapshotReport,
    load_delta_dir,
    parse_delta_file,
    parse_edge_events,
    read_partition_file,
    slice_snapshots,
    write_delta_file,
    write_partition_file,
    write_reports,
)
from .louvain import (
    EPSILON,
    compress,
    local_moving_pass,
    louvain,
)
from .metrics import ConfusionTable, ari, nmi

__version__ = "0.1.0"

# the generator's names load on first access: a run never needs the generator
_SYNTHGEN_NAMES = ("Churn", "GenConfig", "GeneratedScenario", "generate")

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["synthgen", *_SYNTHGEN_NAMES])


def __getattr__(name: str):
    if name in _SYNTHGEN_NAMES:
        from . import synthgen

        return getattr(synthgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

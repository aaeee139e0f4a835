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
from .synthgen import Churn, GenConfig, GeneratedScenario, generate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""File formats and snapshot slicing.

Supported inputs:

* edge-event files -- one ``u<TAB>v<TAB>[w<TAB>]t`` line per event, ``#``
  comments and blank lines skipped; weight defaults to 1.0. Timestamped
  streams can only express additions and weight increases.
* delta files -- one record per line: ``AV id`` / ``DV id`` /
  ``EW u v signed_dw``; the only format that can express deletions.
* partition files -- ``vertex<TAB>community`` per line.

Outputs are the per-snapshot result tables (CSV or JSON), written with stable
formatting so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import (
    ConflictingDeltaError,
    EmptyStreamError,
    NegativeWeightError,
    ParseError,
    SelfLoopError,
)
from .graph import EdgeChange, GraphDelta

PathLike = Union[str, Path]


class EdgeEvent(NamedTuple):
    """One timestamped edge observation; repeated pairs accumulate weight."""

    u: int
    v: int
    weight: float
    timestamp: int


@dataclass(frozen=True)
class Snapshot:
    """One step of a snapshot stream.

    ``delta`` transforms the previous snapshot (the empty graph for index 0)
    into this one under :func:`dynamo.graph.apply_delta`; a stream is folded
    one delta at a time, so no snapshot graph is stored here.
    """

    index: int
    delta: GraphDelta


def parse_edge_events(path: PathLike) -> list[EdgeEvent]:
    """Read an edge-event file, preserving file order."""
    events: list[EdgeEvent] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            try:
                if len(fields) == 3:
                    u, v, ts = int(fields[0]), int(fields[1]), int(fields[2])
                    w = 1.0
                elif len(fields) == 4:
                    u, v, w, ts = (int(fields[0]), int(fields[1]),
                                   float(fields[2]), int(fields[3]))
                else:
                    raise ValueError(f"expected 3 or 4 tab-separated fields, got {len(fields)}")
                if not math.isfinite(w):
                    raise ValueError(f"non-finite weight {w}")
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if u == v:
                raise SelfLoopError(f"{path}:{lineno}: self-loop on vertex {u}")
            if w <= 0.0:
                raise NegativeWeightError(f"{path}:{lineno}: non-positive weight {w}")
            events.append(EdgeEvent(u, v, w, ts))
    return events


def slice_snapshots(
    events: Sequence[EdgeEvent],
    interval: int,
    t0: Optional[int] = None,
) -> list[Snapshot]:
    """Cut a cumulative snapshot sequence out of an event stream, as deltas.

    Snapshot ``k`` accumulates every event with timestamp below
    ``t0 + (k+1) * interval`` (intervals are half-open); ``t0`` defaults to the
    first event's timestamp. Vertices enter on first appearance; repeated
    pairs sum their weights.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    if not events:
        raise EmptyStreamError("no events to slice")
    if t0 is None:
        t0 = events[0].timestamp

    last = max(e.timestamp for e in events)
    num_snapshots = max(0, (last - t0) // interval) + 1

    buckets: list[list[EdgeEvent]] = [[] for _ in range(num_snapshots)]
    for e in events:
        k = max(0, (e.timestamp - t0) // interval)
        buckets[k].append(e)

    snapshots: list[Snapshot] = []
    known: set[int] = set()
    for k, bucket in enumerate(buckets):
        added: list[int] = []
        weight_sums: dict[tuple[int, int], float] = {}
        for e in bucket:
            for vertex in (e.u, e.v):
                if vertex not in known:
                    known.add(vertex)
                    added.append(vertex)
            key = (e.u, e.v) if e.u < e.v else (e.v, e.u)
            weight_sums[key] = weight_sums.get(key, 0.0) + e.weight
        changes = tuple(EdgeChange(u, v, w) for (u, v), w in weight_sums.items())
        snapshots.append(Snapshot(k, GraphDelta(frozenset(added), frozenset(), changes)))
    return snapshots


def parse_delta_file(path: PathLike) -> GraphDelta:
    """Read one explicit snapshot delta; records keep file order."""
    added: set[int] = set()
    removed: set[int] = set()
    changes: list[EdgeChange] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            try:
                if fields[0] == "AV" and len(fields) == 2:
                    added.add(int(fields[1]))
                elif fields[0] == "DV" and len(fields) == 2:
                    removed.add(int(fields[1]))
                elif fields[0] == "EW" and len(fields) == 4:
                    dw = float(fields[3])
                    if dw == 0.0:
                        raise ValueError("zero weight change")
                    if not math.isfinite(dw):
                        raise ValueError(f"non-finite weight change {dw}")
                    changes.append(EdgeChange(int(fields[1]), int(fields[2]), dw))
                else:
                    raise ValueError(f"unrecognized record {fields[0]!r}")
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    conflict = added & removed
    if conflict:
        raise ConflictingDeltaError(
            f"{path}: vertices both added and deleted: {sorted(conflict)}"
        )
    return GraphDelta(frozenset(added), frozenset(removed), tuple(changes))


def format_delta(delta: GraphDelta) -> str:
    """Serialize a delta in the delta-file format (AV/DV sorted, EW in order)."""
    lines = [f"AV {v}" for v in sorted(delta.added_vertices)]
    lines += [f"DV {v}" for v in sorted(delta.removed_vertices)]
    lines += [f"EW {u} {v} {dw!r}" for u, v, dw in delta.edge_changes]
    return "".join(line + "\n" for line in lines)


def write_delta_file(delta: GraphDelta, path: PathLike) -> None:
    Path(path).write_text(format_delta(delta), encoding="utf-8", newline="\n")


def load_delta_dir(directory: PathLike) -> list[Snapshot]:
    """Read a snapshot sequence from a directory of ``*.delta`` files.

    Files are consumed in lexicographic name order; the first delta builds
    snapshot 0 from the empty graph. Every file is parsed here, but a delta
    that does not apply to its predecessor only fails when a run reaches it.
    """
    paths = sorted(Path(directory).glob("*.delta"))
    if not paths:
        raise EmptyStreamError(f"no .delta files in {directory}")
    return [Snapshot(k, parse_delta_file(path)) for k, path in enumerate(paths)]


def read_partition_file(path: PathLike) -> dict[int, int]:
    assignment: dict[int, int] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            try:
                if len(fields) != 2:
                    raise ValueError(f"expected 2 fields, got {len(fields)}")
                assignment[int(fields[0])] = int(fields[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    return assignment


def write_partition_file(assignment, path: PathLike) -> None:
    assignment = getattr(assignment, "assignment", assignment)
    lines = [f"{v}\t{assignment[v]}\n" for v in sorted(assignment)]
    Path(path).write_text("".join(lines), encoding="utf-8", newline="\n")


@dataclass(frozen=True)
class SnapshotReport:
    """Per-snapshot record of quality and timing for one detector."""

    snapshot_index: int
    algorithm: str
    modularity: Optional[float]  # None for a snapshot with zero total weight
    nmi: Optional[float]
    ari: Optional[float]
    elapsed_ns: int
    cumulative_elapsed_ns: int
    num_vertices: int
    num_edges: int
    num_communities: int


_REPORT_HEADER = [
    "snapshot", "algorithm", "modularity", "nmi", "ari",
    "elapsed_ns", "cumulative_elapsed_ns", "vertices", "edges", "communities",
]


def format_reports(reports: Iterable[SnapshotReport], fmt: str = "csv") -> str:
    """Render reports as CSV or JSON text with bit-stable formatting."""
    reports = list(reports)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_REPORT_HEADER)
        for r in reports:
            writer.writerow([
                r.snapshot_index, r.algorithm,
                "" if r.modularity is None else repr(r.modularity),
                "" if r.nmi is None else repr(r.nmi),
                "" if r.ari is None else repr(r.ari),
                r.elapsed_ns, r.cumulative_elapsed_ns,
                r.num_vertices, r.num_edges, r.num_communities,
            ])
        return buffer.getvalue()
    if fmt == "json":
        return json.dumps([asdict(r) for r in reports], indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def write_reports(reports: Iterable[SnapshotReport], path: PathLike, fmt: str = "csv") -> None:
    Path(path).write_text(format_reports(reports, fmt), encoding="utf-8", newline="\n")


def read_reports(path: PathLike, fmt: str = "csv") -> list[SnapshotReport]:
    """Parse a report file back; inverse of :func:`write_reports`."""
    text = Path(path).read_text(encoding="utf-8")
    reports: list[SnapshotReport] = []
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != _REPORT_HEADER:
            raise ParseError(f"{path}: missing or malformed header")
        for row in rows[1:]:
            reports.append(SnapshotReport(
                snapshot_index=int(row[0]),
                algorithm=row[1],
                modularity=None if row[2] == "" else float(row[2]),
                nmi=None if row[3] == "" else float(row[3]),
                ari=None if row[4] == "" else float(row[4]),
                elapsed_ns=int(row[5]),
                cumulative_elapsed_ns=int(row[6]),
                num_vertices=int(row[7]),
                num_edges=int(row[8]),
                num_communities=int(row[9]),
            ))
        return reports
    if fmt == "json":
        return [SnapshotReport(**entry) for entry in json.loads(text)]
    raise ValueError(f"unknown report format {fmt!r}")

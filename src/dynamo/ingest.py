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

import io
import math
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import (
    ConflictingDeltaError,
    EmptyStreamError,
    NegativeWeightError,
    ParseError,
    SelfLoopError,
)
from .graph import GraphDelta

PathLike = Union[str, Path]


class EdgeEvent(NamedTuple):
    """One timestamped edge observation; repeated pairs accumulate weight."""

    u: int
    v: int
    weight: float
    timestamp: int


class Snapshot(NamedTuple):
    """One step of a snapshot stream.

    ``delta`` transforms the previous snapshot (the empty graph for index 0)
    into this one under :func:`dynamo.graph.apply_delta`; a stream is folded
    one delta at a time, so no snapshot graph is stored here.
    """

    index: int
    delta: GraphDelta


def _lines(path: PathLike) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, stripped line)`` for each line that is neither blank nor a comment.

    Bytes that are not UTF-8 raise :class:`ParseError`; decoding is buffered, so no line is named.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if line and line[0] != "#":
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


# Records are built with tuple.__new__, which skips a NamedTuple's Python-level __new__.
_new = tuple.__new__
_INF = math.inf


class _Ids(dict):
    """Vertex-id field text to its int, converted on first sight: a file holds one int per id."""

    def __missing__(self, text: str) -> int:
        self[text] = n = int(text)
        return n


def parse_edge_events(path: PathLike) -> list[EdgeEvent]:
    """Read an edge-event file, preserving file order; events share one int per vertex id."""
    events: list[EdgeEvent] = []
    append = events.append
    ids = _Ids()
    for lineno, line in _lines(path):
        fields = line.split("\t")
        try:
            if len(fields) == 4:
                u, v, w, ts = ids[fields[0]], ids[fields[1]], float(fields[2]), int(fields[3])
            elif len(fields) == 3:
                u, v, ts = ids[fields[0]], ids[fields[1]], int(fields[2])
                w = 1.0
            else:
                raise ValueError(f"expected 3 or 4 tab-separated fields, got {len(fields)}")
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if 0.0 < w < _INF and u != v:
            append(_new(EdgeEvent, (u, v, w, ts)))
        elif not -_INF < w < _INF:
            raise ParseError(f"{path}:{lineno}: non-finite weight {w}")
        elif u == v:
            raise SelfLoopError(f"{path}:{lineno}: self-loop on vertex {u}")
        else:
            raise NegativeWeightError(f"{path}:{lineno}: non-positive weight {w}")
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

    buckets: dict[int, list[EdgeEvent]] = {}
    for e in events:
        k = (e[3] - t0) // interval  # e[3] is the timestamp
        buckets.setdefault(k if k > 0 else 0, []).append(e)

    snapshots: list[Snapshot] = []
    known: set[int] = set()
    for k in range(max(buckets) + 1):
        added: list[int] = []
        weight_sums: dict[tuple[int, int], float] = {}
        for u, v, w, _ in buckets.get(k, ()):
            if u not in known:
                known.add(u)
                added.append(u)
            if v not in known:
                known.add(v)
                added.append(v)
            key = (u, v) if u < v else (v, u)
            # a pair's first weight is kept, not copied by adding it to 0.0
            weight_sums[key] = weight_sums[key] + w if key in weight_sums else w
        if _INF in weight_sums.values():  # finite positive weights that overflow
            u, v = next(key for key, w in weight_sums.items() if w == _INF)
            raise NegativeWeightError(
                f"weights on ({u},{v}) sum past the largest float in snapshot {k}")
        changes = [(u, v, w) for (u, v), w in weight_sums.items()]
        snapshots.append(Snapshot(k, GraphDelta(added, frozenset(), changes)))
    return snapshots


def parse_delta_file(path: PathLike) -> GraphDelta:
    """Read one explicit snapshot delta; records keep file order.

    The records share one int per vertex id, and an ``EW`` line whose weight
    text repeats the previous ``EW`` line's reuses that line's checked float.
    """
    added: set[int] = set()
    removed: set[int] = set()
    flat: list = []  # u0, v0, dw0, u1, ...: no tuple per change
    extend = flat.extend
    ids = _Ids()
    dw_text = None
    for lineno, line in _lines(path):
        fields = line.split()
        try:
            if fields[0] == "EW" and len(fields) == 4:  # the bulk of a delta: tested first
                if fields[3] != dw_text:
                    dw = float(fields[3])
                    if dw == 0.0:
                        raise ValueError("zero weight change")
                    if not -_INF < dw < _INF:
                        raise ValueError(f"non-finite weight change {dw}")
                    dw_text = fields[3]
                u, v = ids[fields[1]], ids[fields[2]]
                if u == v:
                    raise SelfLoopError(f"{path}:{lineno}: self-loop on vertex {u}")
                extend((u, v, dw))
            elif fields[0] == "AV" and len(fields) == 2:
                added.add(ids[fields[1]])
            elif fields[0] == "DV" and len(fields) == 2:
                removed.add(ids[fields[1]])
            else:
                raise ValueError(f"unrecognized record {fields[0]!r}")
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    conflict = added & removed
    if conflict:
        raise ConflictingDeltaError(
            f"{path}: vertices both added and deleted: {sorted(conflict)}"
        )
    it = iter(flat)
    return GraphDelta(added, removed, zip(it, it, it))


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
    for lineno, line in _lines(path):
        fields = line.split("\t")
        try:
            if len(fields) != 2:
                raise ValueError(f"expected 2 fields, got {len(fields)}")
            v = int(fields[0])
            if v in assignment:
                raise ValueError(f"vertex {v} listed twice")
            assignment[v] = int(fields[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    return assignment


def format_partition(assignment: Mapping[int, int]) -> str:
    """Serialize a vertex-to-community mapping, sorted by vertex."""
    return "".join(f"{v}\t{assignment[v]}\n" for v in sorted(assignment))


def write_partition_file(assignment: Mapping[int, int], path: PathLike) -> None:
    Path(path).write_text(format_partition(assignment), encoding="utf-8", newline="\n")


class SnapshotReport(NamedTuple):
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
    """Render reports as CSV or JSON text with bit-stable formatting.

    Each format's encoder is imported here, so a run loads only the one it writes.
    """
    reports = list(reports)
    if fmt == "csv":
        import csv

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
        import json

        fields = SnapshotReport.__match_args__  # the field names, in order
        return json.dumps([dict(zip(fields, r)) for r in reports], indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def write_reports(reports: Iterable[SnapshotReport], path: PathLike, fmt: str = "csv") -> None:
    Path(path).write_text(format_reports(reports, fmt), encoding="utf-8", newline="\n")


"""Independent oracles and generators shared across the test suite.

Everything here deliberately avoids the library's aggregate bookkeeping:
modularity is evaluated from the raw pairwise definition, so these functions
can serve as ground truth for the production code paths. Set partitions are
enumerated two ways. ``exhaustive_best_partition`` is the oracle the tests
use: a vectorised numpy search over restricted growth strings, guarded to at
most 12 vertices. ``set_partitions`` and ``brute_force_best_q`` enumerate by
plain recursion and serve only to check that oracle on small graphs.
"""

from __future__ import annotations

import csv
import json
import random
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from dynamo.errors import DynamoError, EmptyGraphError, ParseError
from dynamo.graph import EdgeChange, GraphDelta, Partition, WeightedGraph, apply_delta
from dynamo.ingest import SnapshotReport, _REPORT_HEADER, _lines
from dynamo.louvain import EPSILON
from dynamo.synthgen import GenConfig

#: the 5k-vertex planted stream of the benchmark's edge-churn workload
PLANTED_5K = GenConfig(seed=1, num_communities=20, community_size=250, p_in=0.06,
                       p_out=1e-4, num_snapshots=3)

_EXHAUSTIVE_MAX_VERTICES = 12  # Bell(12) ~ 4.2e6 partitions
_CHUNK = 20_000


class GraphTooLargeError(DynamoError):
    """Exhaustive partition search is guarded by a Bell-number size limit."""


def graph_of(edges: Iterable[tuple[int, int, float]], vertices: Iterable[int] = ()):
    """The graph of ``(u, v, w)`` triples plus isolated ``vertices``, built by one delta."""
    changes = tuple(EdgeChange(u, v, w) for u, v, w in edges)
    added = frozenset(vertices).union(*((u, v) for u, v, _ in changes))
    return apply_delta(WeightedGraph.empty(), GraphDelta(added, frozenset(), changes))


def partition_of(g, groups: Iterable[Iterable[int]]) -> Partition:
    """The partition of ``g`` that puts the i-th group of vertices in community i."""
    return Partition.from_assignment(g, {v: cid for cid, group in enumerate(groups)
                                         for v in group})


def adjacency(g) -> dict[int, dict[int, float]]:
    """A deep copy of ``g``'s neighbour-to-weight rows, one per vertex."""
    return {v: dict(g.neighbors(v)) for v in g.vertices}


def modularity_pairwise(g, labels: Mapping[int, int]) -> float:
    """Direct double-sum modularity: (1/2m) sum_ij (A_ij - k_i k_j / 2m) [same community]."""
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    a = np.zeros((n, n))
    for v in verts:
        a[index[v], index[v]] = g.self_weight(v)
        for nbr, w in g.neighbors(v).items():
            a[index[v], index[nbr]] = w
    k = a.sum(axis=1)
    two_m = k.sum()
    lab = np.array([labels[v] for v in verts])
    same = lab[:, None] == lab[None, :]
    return float(((a - np.outer(k, k) / two_m) * same).sum() / two_m)


def residual_movers(g, p) -> int:
    """Vertices that one more full local-moving sweep over ``p`` would move.

    Counts each vertex whose best move into a neighboring community gains more
    than ``EPSILON`` in modularity, with every other vertex held where ``p``
    puts it. Community strengths are summed here from the vertex strengths
    rather than read from ``p``'s aggregates. Zero means ``p`` is a local
    optimum of single-vertex moves.
    """
    labels = p.assignment
    m = g.total_weight
    two_m = 2.0 * m
    beta: dict[int, float] = {}
    for v in g.vertices:
        beta[labels[v]] = beta.get(labels[v], 0.0) + g.strength(v)
    movers = 0
    for v in g.vertices:
        k_v = g.strength(v)
        w_to: dict[int, float] = {}
        for u, w in g.neighbors(v).items():
            w_to[labels[u]] = w_to.get(labels[u], 0.0) + w
        a = labels[v]
        stay = w_to.get(a, 0.0) - k_v * (beta[a] - k_v) / two_m
        # modularity gain of moving v into c, times m
        gains = [w_c - k_v * beta[c] / two_m - stay for c, w_c in w_to.items() if c != a]
        if gains and max(gains) > EPSILON * m:
            movers += 1
    return movers


def community_graph_mismatch(g, p) -> Optional[str]:
    """Why ``p``'s carried community graph differs from the one ``g`` defines, or None.

    The reference is what ``compress(g, p)`` builds, summed here edge by edge:
    one vertex per community, cross weights between communities, twice the
    internal weight (plus members' self weights) as self weight and the sum
    of member strengths as strength. Key sets must match exactly, so a float
    residue left where a community pair lost its last edge shows; each weight
    must match within 1e-9 relative.
    """
    h = p.community_graph
    if h is None:
        return "no community graph"
    labels = p.assignment
    cross: dict[int, dict[int, float]] = {c: {} for c in p.community_ids}
    self_w = {c: 0.0 for c in p.community_ids}
    strength = {c: 0.0 for c in p.community_ids}
    for v in g.vertices:
        self_w[labels[v]] += g.self_weight(v)
        strength[labels[v]] += g.strength(v)
    for u, v, w in g.edges():
        cu, cv = labels[u], labels[v]
        if cu == cv:
            self_w[cu] += 2.0 * w
        else:
            cross[cu][cv] = cross[cu].get(cv, 0.0) + w
            cross[cv][cu] = cross[cv].get(cu, 0.0) + w

    def far(a: float, b: float) -> bool:
        return abs(a - b) > 1e-9 * max(1.0, abs(b))

    if set(h.vertices) != set(cross):
        return f"vertices {sorted(set(h.vertices) ^ set(cross))[:5]} differ"
    for c, row in cross.items():
        got = h.neighbors(c)
        if set(got) != set(row):
            return f"neighbours of {c} differ: {sorted(set(got) ^ set(row))[:5]}"
        for d, w in row.items():
            if far(got[d], w):
                return f"cross weight ({c}, {d}) is {got[d]!r}, not {w!r}"
        if far(h.self_weight(c), self_w[c]):
            return f"self weight of {c} is {h.self_weight(c)!r}, not {self_w[c]!r}"
        if far(h.strength(c), strength[c]):
            return f"strength of {c} is {h.strength(c)!r}, not {strength[c]!r}"
    if far(h.total_weight, g.total_weight):
        return f"total weight {h.total_weight!r}, not {g.total_weight!r}"
    return None


def snapshot_graphs(snapshots) -> list[WeightedGraph]:
    """Every snapshot's graph, folded from the empty graph one delta at a time."""
    graphs = []
    graph = WeightedGraph.empty()
    for snap in snapshots:
        graph = apply_delta(graph, snap.delta)
        graphs.append(graph)
    return graphs


def naive_slices(events, interval: int, t0: Optional[int] = None) -> list[GraphDelta]:
    """Reference for :func:`dynamo.ingest.slice_snapshots`, one snapshot at a time.

    Snapshot ``k`` takes every event whose timestamp lies in
    ``[t0 + k * interval, t0 + (k+1) * interval)``, and snapshot 0 also every
    earlier one. Its delta adds the endpoints not seen in an earlier snapshot
    and changes each pair by the sum of its weights there, in event order,
    pairs in order of first appearance. Each snapshot rescans the whole stream.
    """
    if t0 is None:
        t0 = events[0].timestamp

    def snapshot_of(e) -> int:
        return max(0, (e.timestamp - t0) // interval)

    deltas = []
    for k in range(max(map(snapshot_of, events)) + 1):
        seen = {x for e in events if snapshot_of(e) < k for x in (e.u, e.v)}
        added = {x for e in events if snapshot_of(e) == k for x in (e.u, e.v)} - seen
        sums: dict[tuple[int, int], float] = {}
        for e in events:
            if snapshot_of(e) == k:
                pair = (min(e.u, e.v), max(e.u, e.v))
                sums[pair] = sums.get(pair, 0.0) + e.weight
        changes = tuple(EdgeChange(u, v, w) for (u, v), w in sums.items())
        deltas.append(GraphDelta(frozenset(added), frozenset(), changes))
    return deltas


def read_reports(path, fmt: str = "csv") -> list[SnapshotReport]:
    """Parse a report file back; inverse of :func:`dynamo.ingest.write_reports`.

    No command of the package reads a report, so the reader lives with the
    round-trip tests. It reads through the package's line reader.
    """
    lines = [line for _, line in _lines(path)]
    if fmt == "json":
        return [SnapshotReport(**entry) for entry in json.loads("\n".join(lines))]
    rows = list(csv.reader(lines))
    if not rows or rows[0] != _REPORT_HEADER:
        raise ParseError(f"{path}: missing or malformed header")
    return [SnapshotReport(
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
    ) for row in rows[1:]]


def set_partitions(items: list) -> Iterator[list[list]]:
    """All set partitions of ``items`` by plain recursion (first-element anchoring)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [[first] + block] + smaller[i + 1:]
        yield [[first]] + smaller


def brute_force_best_q(g) -> float:
    """Best modularity over all partitions, via the independent enumerator."""
    verts = sorted(g.vertices)
    best = -np.inf
    for blocks in set_partitions(verts):
        labels = {v: i for i, block in enumerate(blocks) for v in block}
        best = max(best, modularity_pairwise(g, labels))
    return best


def exhaustive_best_partition(g) -> tuple[Partition, float]:
    """Enumerate all set partitions and return a modularity maximizer with its Q.

    Guarded to at most 12 vertices. Q is evaluated in the direct pairwise form,
    independently of the aggregate-based :func:`modularity`. Exact ties are
    broken by the lexicographically smallest canonical label string.
    """
    verts = sorted(g.vertices)
    n = len(verts)
    if n == 0:
        raise EmptyGraphError("no vertices to partition")
    if n > _EXHAUSTIVE_MAX_VERTICES:
        raise GraphTooLargeError(f"{n} vertices exceed the exhaustive limit of "
                                 f"{_EXHAUSTIVE_MAX_VERTICES}")
    if g.total_weight <= 0.0:
        raise EmptyGraphError("modularity undefined for graphs with zero total weight")

    index = {v: i for i, v in enumerate(verts)}
    adjacency = np.zeros((n, n))
    for v in verts:
        adjacency[index[v], index[v]] = g.self_weight(v)
        for nbr, w in g.neighbors(v).items():
            adjacency[index[v], index[nbr]] = w
    strengths = adjacency.sum(axis=1)
    two_m = strengths.sum()

    labelings = _all_partition_labels(n)
    best_q = -np.inf
    best_row = None
    for start in range(0, labelings.shape[0], _CHUNK):
        chunk = labelings[start:start + _CHUNK]
        onehot = (chunk[:, :, None] == np.arange(n)[None, None, :]).astype(float)
        spread = np.matmul(adjacency[None, :, :], onehot)
        alpha = (onehot * spread).sum(axis=1)
        beta = np.einsum("i,pic->pc", strengths, onehot)
        q = (alpha - beta * beta / two_m).sum(axis=1) / two_m
        pos = int(np.argmax(q))  # first occurrence keeps the lexicographic winner
        if q[pos] > best_q:
            best_q = float(q[pos])
            best_row = chunk[pos].copy()

    assignment = {verts[i]: int(best_row[i]) for i in range(n)}
    return Partition.from_assignment(g, assignment), best_q


@lru_cache(maxsize=8)
def _all_partition_labels(n: int) -> np.ndarray:
    """All restricted growth strings of length ``n``, lexicographically ordered."""
    labels = np.zeros((1, 1), dtype=np.int8)
    highest = np.zeros(1, dtype=np.int8)
    for _ in range(n - 1):
        counts = highest.astype(np.int64) + 2
        parents = np.repeat(np.arange(labels.shape[0]), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        new_col = (np.arange(counts.sum()) - np.repeat(offsets, counts)).astype(np.int8)
        labels = np.hstack([labels[parents], new_col[:, None]])
        highest = np.maximum(highest[parents], new_col)
    labels.setflags(write=False)
    return labels


def random_graph(rng: random.Random, n: int, p: float,
                 weight_range: tuple[float, float] = (0.5, 2.0),
                 connected: bool = False) -> WeightedGraph:
    """Random weighted graph on vertices 0..n-1; optionally forced connected."""
    lo, hi = weight_range
    edges = []
    present = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, rng.uniform(lo, hi)))
                present.add((u, v))
    if connected:
        # chain any unreached vertices onto a random earlier vertex
        reached = {0}
        adj = {v: set() for v in range(n)}
        for u, v, _ in edges:
            adj[u].add(v)
            adj[v].add(u)
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        for v in range(n):
            if v not in reached:
                u = rng.randrange(v) if v > 0 else 0
                if v > 0 and (min(u, v), max(u, v)) not in present:
                    edges.append((min(u, v), max(u, v), rng.uniform(lo, hi)))
                    present.add((min(u, v), max(u, v)))
                reached.add(v)
    return graph_of(edges, vertices=range(n))


def random_delta(rng: random.Random, g: WeightedGraph) -> GraphDelta:
    """A valid random delta for ``g``: adds, removals, increases, decreases."""
    verts = sorted(g.vertices)
    removed = set()
    if len(verts) > 2 and rng.random() < 0.4:
        removed.add(rng.choice(verts))
    alive = [v for v in verts if v not in removed]
    next_id = max(verts) + 1 if verts else 0
    added = set()
    if rng.random() < 0.5:
        added.add(next_id)
    changes: list[EdgeChange] = []
    touched = set()
    for _ in range(rng.randrange(4)):
        if len(alive) < 2:
            break
        u, v = rng.sample(alive, 2)
        key = (min(u, v), max(u, v))
        if key in touched:
            continue
        touched.add(key)
        w = g.weight(u, v)
        if w > 0 and rng.random() < 0.5:
            if rng.random() < 0.5:
                changes.append(EdgeChange(u, v, -w))  # delete
            else:
                changes.append(EdgeChange(u, v, -w * rng.uniform(0.2, 0.8)))
        else:
            changes.append(EdgeChange(u, v, rng.uniform(0.3, 2.0)))
    for k in added:
        if alive:
            changes.append(EdgeChange(k, rng.choice(alive), rng.uniform(0.3, 2.0)))
    return GraphDelta(frozenset(added), frozenset(removed), tuple(changes))

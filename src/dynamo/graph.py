"""Weighted undirected graphs, snapshot deltas, and partitions with modularity bookkeeping.

A graph snapshot is value-semantic: mutating operations return a new graph and
leave the input untouched, so a sequence of snapshots can be compared safely.
The same graph type serves input snapshots and Louvain's aggregated levels;
only the latter carry per-vertex self weights. Partitions carry per-community
aggregates (``alpha``, ``beta``) that make modularity and the incremental
update formulas O(1) per community:

* ``alpha[c]``  -- total weight of ordered intra-community pairs, i.e. twice the
  sum of internal edge weights (plus any internal self-loop weight once).
* ``beta[c]``   -- sum of member strengths.

With ``m`` the total edge weight, modularity is
``Q = (1/2m) * sum_c (alpha[c] - beta[c]**2 / 2m)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from .errors import (
    DuplicateVertexError,
    EmptyGraphError,
    NegativeWeightError,
    SelfLoopError,
    UnknownVertexError,
)

# Weights driven this close to zero by a decrease are treated as exact deletions.
_WEIGHT_EPS = 1e-12


class WeightedGraph:
    """Undirected weighted graph with cached strengths and total weight.

    Instances are immutable once constructed; all mutation goes through
    :func:`apply_delta`, which returns a new graph. Edge weights are strictly
    positive; parallel edges collapse into a single summed weight at
    construction and self-loops are rejected.

    The one exception is the optional per-vertex self weight, which only
    :func:`dynamo.louvain.compress` produces. It follows the ordered-pair
    convention of ``alpha`` (twice the internal edge sum of an aggregated
    community), so it adds its full value to the vertex strength and half of it
    to the total weight. Deltas cannot express it: :meth:`edges`,
    :func:`diff` and :func:`apply_delta` cover edges only.
    """

    __slots__ = ("_adj", "_self", "_strength", "_m")

    def __init__(self, adjacency: dict[int, dict[int, float]],
                 self_weights: Optional[dict[int, float]] = None):
        # Internal constructor: takes ownership of a symmetric adjacency dict.
        self._adj = adjacency
        self._self = self_weights or {}
        # fsum rounds once, so sums do not depend on dict insertion order
        self._strength = {u: math.fsum(nbrs.values()) for u, nbrs in adjacency.items()}
        for u, s in self._self.items():
            self._strength[u] += s
        self._m = 0.5 * math.fsum(self._strength.values())

    @classmethod
    def empty(cls) -> "WeightedGraph":
        return cls({})

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int, float]],
        vertices: Iterable[int] = (),
    ) -> "WeightedGraph":
        """Build a graph from ``(u, v, weight)`` triples plus optional isolated vertices.

        Repeated ``(u, v)`` pairs accumulate weight. Raises
        :class:`SelfLoopError` for ``u == v`` and :class:`NegativeWeightError`
        for non-positive or non-finite weights.
        """
        adj: dict[int, dict[int, float]] = {int(v): {} for v in vertices}
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise SelfLoopError(f"self-loop on vertex {u}")
            if not 0.0 < w < math.inf:
                raise NegativeWeightError(f"edge ({u},{v}) has non-positive or non-finite "
                                          f"weight {w}")
            adj.setdefault(u, {})
            adj.setdefault(v, {})
            adj[u][v] = adj[u].get(v, 0.0) + w
            adj[v][u] = adj[u][v]
        return cls(adj)

    # -- read access ------------------------------------------------------

    @property
    def vertices(self):
        """View of the vertex ids (do not mutate)."""
        return self._adj.keys()

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights, each undirected edge counted once (the symbol m)."""
        return self._m

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def weight(self, u: int, v: int) -> float:
        """Stored weight of edge ``(u, v)``, or 0.0 when absent."""
        nbrs = self._adj.get(u)
        return nbrs.get(v, 0.0) if nbrs else 0.0

    def neighbors(self, u: int) -> Mapping[int, float]:
        """Neighbor-to-weight mapping of ``u`` (do not mutate)."""
        try:
            return self._adj[u]
        except KeyError:
            raise UnknownVertexError(f"vertex {u} not in graph") from None

    def strength(self, u: int) -> float:
        """Sum of weights of edges incident to ``u`` (the symbol k_u)."""
        try:
            return self._strength[u]
        except KeyError:
            raise UnknownVertexError(f"vertex {u} not in graph") from None

    def self_weight(self, u: int) -> float:
        """Self-loop weight of ``u`` in the ordered-pair convention (0.0 when absent)."""
        return self._self.get(u, 0.0)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each edge once as ``(u, v, w)`` with ``u < v``, in sorted order."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield u, v, self._adj[u][v]

    def copy_adjacency(self) -> dict[int, dict[int, float]]:
        return {u: dict(nbrs) for u, nbrs in self._adj.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._adj == other._adj and all(
            self.self_weight(u) == other.self_weight(u) for u in self._adj)

    def __hash__(self):
        raise TypeError("WeightedGraph is not hashable")

    def __repr__(self) -> str:
        return f"WeightedGraph(|V|={self.num_vertices}, |E|={self.num_edges}, m={self._m:g})"


class EdgeChange(NamedTuple):
    """One signed edge-weight change; positive adds/increases, negative deletes/decreases."""

    u: int
    v: int
    delta_w: float


class VertexAddition(NamedTuple):
    vertex: int


class VertexRemoval(NamedTuple):
    vertex: int


Change = Union[VertexAddition, VertexRemoval, EdgeChange]


@dataclass(frozen=True)
class GraphDelta:
    """One snapshot's batch of changes.

    ``edge_changes`` preserves input (file) order, which downstream batch
    processing relies on. A removed vertex implies deletion of all its incident
    edges at apply time; those implicit deletions need not be listed.
    """

    added_vertices: frozenset[int] = frozenset()
    removed_vertices: frozenset[int] = frozenset()
    edge_changes: tuple[EdgeChange, ...] = ()

    def __post_init__(self):
        overlap = self.added_vertices & self.removed_vertices
        if overlap:
            raise ValueError(f"vertices both added and removed: {sorted(overlap)}")
        for ec in self.edge_changes:
            if ec.delta_w == 0.0:
                raise ValueError(f"zero-weight edge change on ({ec.u},{ec.v})")

    @classmethod
    def empty(cls) -> "GraphDelta":
        return cls()

    def is_empty(self) -> bool:
        return not (self.added_vertices or self.removed_vertices or self.edge_changes)

    def changes(self) -> Iterator[Change]:
        """All elements in deterministic order: additions, removals, then edge changes."""
        for v in sorted(self.added_vertices):
            yield VertexAddition(v)
        for v in sorted(self.removed_vertices):
            yield VertexRemoval(v)
        yield from self.edge_changes


def apply_delta(g: WeightedGraph, d: GraphDelta) -> WeightedGraph:
    """Apply one snapshot delta, returning the next snapshot.

    Processing order: vertex additions, edge changes (in stored order), vertex
    removals. Removing a vertex drops all its incident edges. A decrease that
    would push a weight below zero raises :class:`NegativeWeightError`; a
    decrease reaching exactly zero deletes the edge.
    """
    adj = g.copy_adjacency()

    for v in sorted(d.added_vertices):
        if v in adj:
            raise DuplicateVertexError(f"vertex {v} already exists")
        adj[v] = {}

    for u, v, dw in d.edge_changes:
        if u == v:
            raise SelfLoopError(f"self-loop change on vertex {u}")
        if u not in adj or v not in adj:
            missing = u if u not in adj else v
            raise UnknownVertexError(f"edge change references unknown vertex {missing}")
        new_w = adj[u].get(v, 0.0) + dw
        if dw < 0.0 and new_w < -_WEIGHT_EPS:
            raise NegativeWeightError(
                f"decrease of {-dw} exceeds weight {adj[u].get(v, 0.0)} on ({u},{v})"
            )
        if new_w <= _WEIGHT_EPS:
            adj[u].pop(v, None)
            adj[v].pop(u, None)
        else:
            adj[u][v] = new_w
            adj[v][u] = new_w

    for v in sorted(d.removed_vertices):
        if v not in adj:
            raise UnknownVertexError(f"cannot remove unknown vertex {v}")
        for nbr in adj[v]:
            del adj[nbr][v]
        del adj[v]

    return WeightedGraph(adj)


def diff(g_old: WeightedGraph, g_new: WeightedGraph) -> GraphDelta:
    """Delta transforming ``g_old`` into ``g_new`` under :func:`apply_delta`.

    Edges incident to removed vertices are listed explicitly as deletions (they
    are applied before the removal, so the round trip is exact).
    """
    old_v = set(g_old.vertices)
    new_v = set(g_new.vertices)
    added = frozenset(new_v - old_v)
    removed = frozenset(old_v - new_v)

    changes: list[EdgeChange] = []
    for u, v, w_old in g_old.edges():
        w_new = g_new.weight(u, v)
        if w_new != w_old:
            changes.append(EdgeChange(u, v, w_new - w_old))
    for u, v, w_new in g_new.edges():
        if not g_old.has_edge(u, v):
            changes.append(EdgeChange(u, v, w_new))
    changes.sort(key=lambda ec: (ec.u, ec.v))
    return GraphDelta(added, removed, tuple(changes))


class Partition:
    """Community assignment over a graph, with cached per-community aggregates.

    Instances are immutable once returned. ``alpha`` and ``beta`` follow the
    module-level conventions; they are maintained incrementally by the
    optimizer and can always be cross-checked against
    :func:`partition_rebuild_aggregates`.
    """

    __slots__ = ("_assignment", "_members", "_alpha", "_beta")

    def __init__(
        self,
        assignment: dict[int, int],
        members: dict[int, frozenset[int]],
        alpha: dict[int, float],
        beta: dict[int, float],
    ):
        self._assignment = assignment
        self._members = members
        self._alpha = alpha
        self._beta = beta

    # -- constructors -------------------------------------------------------

    @classmethod
    def singletons(cls, g) -> "Partition":
        """Each vertex in its own community; community id equals vertex id."""
        assignment = {v: v for v in g.vertices}
        members = {v: frozenset((v,)) for v in g.vertices}
        alpha = {v: g.self_weight(v) for v in g.vertices}
        beta = {v: g.strength(v) for v in g.vertices}
        return cls(assignment, members, alpha, beta)

    @classmethod
    def from_assignment(cls, g, assignment: Mapping[int, int]) -> "Partition":
        """Build a partition with aggregates recomputed directly from the graph."""
        missing = set(g.vertices) - set(assignment)
        extra = set(assignment) - set(g.vertices)
        if missing or extra:
            raise UnknownVertexError(
                f"assignment does not cover the graph (missing={sorted(missing)[:5]}, "
                f"extra={sorted(extra)[:5]})"
            )
        assign = {v: int(c) for v, c in assignment.items()}
        groups: dict[int, set[int]] = {}
        for v, c in assign.items():
            groups.setdefault(c, set()).add(v)
        members = {c: frozenset(s) for c, s in groups.items()}
        alpha: dict[int, float] = {}
        beta: dict[int, float] = {}
        for c, group in groups.items():
            a = 0.0
            b = 0.0
            for v in sorted(group):
                a += g.self_weight(v)
                b += g.strength(v)
                for nbr, w in g.neighbors(v).items():
                    if assign.get(nbr) == c:
                        a += w  # ordered pairs: each internal edge counted from both ends
            alpha[c] = a
            beta[c] = b
        return cls(assign, members, alpha, beta)

    @classmethod
    def from_communities(cls, g, communities: Iterable[Iterable[int]]) -> "Partition":
        assignment: dict[int, int] = {}
        for cid, group in enumerate(communities):
            for v in group:
                assignment[v] = cid
        return cls.from_assignment(g, assignment)

    # -- read access --------------------------------------------------------

    @property
    def assignment(self) -> Mapping[int, int]:
        """Vertex-to-community mapping (do not mutate)."""
        return self._assignment

    @property
    def community_ids(self):
        return self._members.keys()

    @property
    def num_communities(self) -> int:
        return len(self._members)

    @property
    def num_vertices(self) -> int:
        return len(self._assignment)

    def community_of(self, v: int) -> int:
        try:
            return self._assignment[v]
        except KeyError:
            raise UnknownVertexError(f"vertex {v} not in partition") from None

    def members(self, c: int) -> frozenset[int]:
        return self._members[c]

    def alpha(self, c: int) -> float:
        return self._alpha[c]

    def beta(self, c: int) -> float:
        return self._beta[c]

    def as_sets(self) -> list[frozenset[int]]:
        """Communities as member sets, sorted by smallest member (label-free form)."""
        return sorted(self._members.values(), key=min)

    def relabeled(self) -> dict[int, int]:
        """Assignment with communities renumbered 0..k-1 in order of smallest member."""
        mapping = {min(s): i for i, s in enumerate(self.as_sets())}
        rep = {c: min(s) for c, s in self._members.items()}
        return {v: mapping[rep[c]] for v, c in self._assignment.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.as_sets() == other.as_sets()

    def __repr__(self) -> str:
        return f"Partition({self.num_communities} communities over {self.num_vertices} vertices)"


def partition_rebuild_aggregates(g, assignment: Mapping[int, int]) -> Partition:
    """Ground-truth recomputation of per-community aggregates from the graph.

    Used as the oracle against incrementally maintained aggregates.
    """
    assignment = getattr(assignment, "assignment", assignment)
    return Partition.from_assignment(g, assignment)


def modularity(g, p: Partition) -> float:
    """Modularity Q of ``p`` on ``g`` via the community-aggregate form.

    Raises :class:`EmptyGraphError` when the total weight is zero (Q is
    undefined; callers should treat such snapshots as unscored singletons).
    """
    m = g.total_weight
    if m <= 0.0:
        raise EmptyGraphError("modularity undefined for graphs with zero total weight")
    if set(p.assignment) != set(g.vertices):
        raise UnknownVertexError("partition does not cover exactly the graph's vertices")
    two_m = 2.0 * m
    total = 0.0
    for c in p.community_ids:
        total += p.alpha(c) - p.beta(c) ** 2 / two_m
    return total / two_m

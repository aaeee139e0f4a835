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
import weakref
from itertools import repeat
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

# A cross weight that a subtraction leaves at or below this share of its
# previous value may have lost its last edge; it is summed again from the graph.
_RESIDUE = 1e-9

_INF = math.inf


class WeightedGraph:
    """Undirected weighted graph with cached strengths and total weight.

    Instances are immutable once constructed. :func:`apply_delta` builds every
    input graph, from :meth:`empty` or from the previous snapshot, and returns
    a new graph. Edge weights are strictly positive; repeated changes to one
    pair sum into a single weight and self-loops are rejected.

    The one exception is the per-vertex self weight of an aggregated level,
    which only :class:`CommunityGraphEdit` produces (and with it
    :func:`dynamo.louvain.compress`): it is the ``alpha`` of the community the
    vertex stands for, and the vertex's strength is that community's ``beta``.
    It follows the ordered-pair convention of ``alpha`` (twice the internal
    edge sum of the community), so it adds its full value to the vertex
    strength and half of it to the total weight. Deltas cannot express it:
    :meth:`edges` and :func:`apply_delta` cover edges only.

    Twice the total weight is kept exactly, as a few floats whose exact sum it
    is, so that :func:`apply_delta` moves it by the rows it touches. A graph
    that :func:`apply_delta` built records the graph and the delta it came
    from, both by weak reference (see :meth:`derived_from`); the incremental
    update accepts no other snapshot step.
    """

    __slots__ = ("_adj", "_self", "_strength", "_sum", "_source", "__weakref__")

    def __init__(self, adjacency: dict[int, dict[int, float]]):
        # Internal constructor: takes ownership of a symmetric adjacency dict.
        self._adj = adjacency
        self._self: dict[int, float] = {}
        # fsum rounds once, so sums do not depend on dict insertion order
        self._strength = {u: math.fsum(nbrs.values()) for u, nbrs in adjacency.items()}
        self._sum = _exact_sum(list(self._strength.values()))
        self._source = None

    @classmethod
    def _assemble(cls, adjacency: dict[int, dict[int, float]], self_weights: dict[int, float],
                  strength: dict[int, float], total: tuple[float, ...],
                  source: Optional[tuple] = None) -> "WeightedGraph":
        """Internal constructor that takes the strengths and twice the total weight as given."""
        g = cls.__new__(cls)
        g._adj, g._self, g._strength, g._sum, g._source = (
            adjacency, self_weights, strength, total, source)
        return g

    @classmethod
    def empty(cls) -> "WeightedGraph":
        return cls({})

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
        return sum(map(len, self._adj.values())) // 2

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights, each undirected edge counted once (the symbol m)."""
        return 0.5 * self._sum[0]

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

    def derived_from(self, d: "GraphDelta") -> Optional["WeightedGraph"]:
        """The graph that ``apply_delta(g, d)`` built this one from, or None.

        None unless :func:`apply_delta` built this graph from that very delta
        object, and once that graph is gone. A graph rebuilt from the same
        adjacency records nothing. The incremental update takes ``g_t1`` as the
        step from ``g_t`` by ``d`` only when ``g_t1.derived_from(d) is g_t``.
        """
        source = self._source
        if source is None or source[1]() is not d:
            return None
        return source[0]()

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._adj == other._adj and all(
            self.self_weight(u) == other.self_weight(u) for u in self._adj)

    def __hash__(self):
        raise TypeError("WeightedGraph is not hashable")

    def __repr__(self) -> str:
        return (f"WeightedGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
                f"m={self.total_weight:g})")


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


class GraphDelta:
    """One snapshot's batch of changes.

    The vertex sets may be any iterables of ids, and the edge changes any
    iterable of ``(u, v, delta_w)`` triples. The delta keeps its own copies:
    two frozensets (a frozenset is kept as given) and one flat tuple
    ``(u0, v0, dw0, u1, ...)`` that shares the callers' ints and floats.
    ``edge_changes`` builds the :class:`EdgeChange` records from it anew on
    each access, in O(k).

    ``edge_changes`` preserves input (file) order, which downstream batch
    processing relies on. A removed vertex implies deletion of all its incident
    edges at apply time; those implicit deletions need not be listed.

    A delta is immutable and compares and hashes by its three fields. It is a
    class rather than a tuple because :func:`apply_delta` records it by weak
    reference.
    """

    __slots__ = ("added_vertices", "removed_vertices", "_flat", "__weakref__")

    def __init__(self, added_vertices: Iterable[int] = frozenset(),
                 removed_vertices: Iterable[int] = frozenset(),
                 edge_changes: Iterable[tuple[int, int, float]] = ()):
        added = frozenset(added_vertices)  # a frozenset comes back as itself, not a copy
        removed = frozenset(removed_vertices)
        overlap = added & removed
        if overlap:
            raise ValueError(f"vertices both added and removed: {sorted(overlap)}")
        items: list = []
        for u, v, dw in edge_changes:  # unpacking refuses an element that is not a triple
            items += u, v, dw
        flat = tuple(items)
        weights = flat[2::3]
        # all() finds a zero and sum() a NaN or an infinity, each in one pass over
        # the weight column; only then is the first culprit looked for. Finite
        # weights that sum past the largest float send the search on, to find none.
        if not all(weights) or not -_INF < sum(weights) < _INF:
            for i, dw in enumerate(weights):
                if dw == 0.0 or not math.isfinite(dw):
                    raise ValueError(f"zero or non-finite edge change {dw} "
                                     f"on ({flat[3 * i]},{flat[3 * i + 1]})")
        fill = object.__setattr__
        fill(self, "added_vertices", added)
        fill(self, "removed_vertices", removed)
        fill(self, "_flat", flat)

    @property
    def edge_changes(self) -> tuple[EdgeChange, ...]:
        """The edge changes as records, in input order; built anew on each access."""
        it = iter(self._flat)
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        return tuple(map(tuple.__new__, repeat(EdgeChange), zip(it, it, it)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable GraphDelta")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable GraphDelta")

    def _key(self) -> tuple:
        return self.added_vertices, self.removed_vertices, self._flat

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"GraphDelta(added_vertices={self.added_vertices!r}, "
                f"removed_vertices={self.removed_vertices!r}, "
                f"edge_changes={self.edge_changes!r})")

    def changes(self) -> Iterator[Change]:
        """All elements in deterministic order: additions, removals, then edge changes."""
        for v in sorted(self.added_vertices):
            yield VertexAddition(v)
        for v in sorted(self.removed_vertices):
            yield VertexRemoval(v)
        yield from self.edge_changes


def apply_delta(g: WeightedGraph, d: GraphDelta) -> WeightedGraph:
    """Apply one snapshot delta, returning the next snapshot.

    Processing order: vertex additions, edge changes (in stored order, read
    from the delta's flat tuple without building a record per change), vertex
    removals. Removing a vertex drops all its incident edges. A decrease that
    would push a weight below zero raises :class:`NegativeWeightError`; a
    decrease reaching zero, or within float residue of it, deletes the edge,
    while an increase keeps any positive weight. A weight, a strength or
    the total weight that sums past the largest float raises
    :class:`NegativeWeightError`; the first names its pair.

    The result shares every adjacency row the delta leaves alone with ``g``
    and copies a row before its first change, so ``g`` is never mutated.
    Beyond two dict copies, the work follows the rows the delta touches: only
    their strengths are re-summed, and the exact strength sum moves by their
    changes. Self weights of surviving vertices carry over.

    The result records ``g`` and ``d`` (see :meth:`WeightedGraph.derived_from`):
    this function defines ``g + d``, and the incremental update accepts only a
    step recorded here, without comparing graphs.
    """
    adj = dict(g._adj)
    own: dict[int, dict[int, float]] = {}  # the rows this call made or copied, safe to write

    for v in sorted(d.added_vertices):
        if v in adj:
            raise DuplicateVertexError(f"vertex {v} already exists")
        adj[v] = own[v] = {}

    it = iter(d._flat)
    for u, v, dw in zip(it, it, it):
        row_u = own.get(u)
        row_v = own.get(v)
        if row_u is None or row_v is None or u == v:  # a row's first touch, or a self-loop
            if u == v:
                raise SelfLoopError(f"self-loop change on vertex {u}")
            if u not in adj or v not in adj:
                missing = u if u not in adj else v
                raise UnknownVertexError(f"edge change references unknown vertex {missing}")
            if row_u is None:
                row_u = adj[u] = own[u] = dict(adj[u])
            if row_v is None:
                row_v = adj[v] = own[v] = dict(adj[v])
        old_w = row_u.get(v, 0.0)
        new_w = old_w + dw if old_w else dw  # a new edge keeps the delta's float: 0.0 + dw == dw
        # dw is finite (GraphDelta checks it), so only a sum past the largest float is
        # inf; a tiny weight left by an increase is an edge, never decrease residue
        if _WEIGHT_EPS < new_w < _INF or 0.0 < dw and new_w < _INF:
            row_u[v] = row_v[u] = new_w
        elif -_WEIGHT_EPS <= new_w <= _WEIGHT_EPS:
            row_u.pop(v, None)
            row_v.pop(u, None)
        elif new_w < 0.0:
            raise NegativeWeightError(f"decrease of {-dw} exceeds weight {old_w} on ({u},{v})")
        else:
            raise NegativeWeightError(f"weight {old_w} + {dw} on ({u},{v}) overflows")

    for v in sorted(d.removed_vertices):
        if v not in adj:
            raise UnknownVertexError(f"cannot remove unknown vertex {v}")
        for nbr in adj.pop(v):
            row = own.get(nbr)
            if row is None:
                row = adj[nbr] = own[nbr] = dict(adj[nbr])
            del row[v]
        own.pop(v, None)

    self_w = g._self
    strength = dict(g._strength)
    terms = list(g._sum)  # each changed strength leaves the sum and rejoins it
    for v in d.removed_vertices:
        terms.append(-strength.pop(v))
        if v in self_w:
            self_w = {u: s for u, s in self_w.items() if u in adj}
    try:  # fsum raises on finite terms whose sum overflows
        for u, row in own.items():
            if u in strength:
                terms.append(-strength[u])
            strength[u] = k = math.fsum(row.values()) + self_w.get(u, 0.0)
            terms.append(k)
        total = _exact_sum(terms)
    except OverflowError:
        raise NegativeWeightError("the edge weights sum past the largest float") from None
    return WeightedGraph._assemble(adj, self_w, strength, total,
                                   (weakref.ref(g), weakref.ref(d)))


def _exact_sum(terms: list[float]) -> tuple[float, ...]:
    """Floats whose exact sum is that of ``terms``, the correctly rounded sum first.

    Each :func:`math.fsum` rounds the exact sum once, so appending the
    negated result leaves the exact residual for the next call. Each residual
    is at most half an ulp of the sum before it, so the loop ends at an exact
    zero, usually after two or three calls. Consumes ``terms``.
    """
    out = []
    r = math.fsum(terms)
    while r:
        out.append(r)
        terms.append(-r)
        r = math.fsum(terms)
    return tuple(out) or (0.0,)


class Partition:
    """Community assignment over a graph, with cached per-community aggregates.

    Instances are immutable once returned. ``alpha`` and ``beta`` follow the
    module-level conventions; they are maintained incrementally by the
    optimizer and can always be cross-checked against
    :func:`partition_rebuild_aggregates`.

    A partition may also carry its community graph: the graph that
    :func:`dynamo.louvain.compress` would build from it, one vertex per
    community named by its id, with ``alpha`` as self weights and ``beta`` as
    strengths. Detection results carry it, and the incremental updater edits
    it instead of rebuilding it; partitions built here carry none.

    A partition built from a graph records it, and covers no other graph
    (see :meth:`covers`): :meth:`singletons`, :meth:`from_assignment`,
    detection results and intermediate partitions record one. Only a
    partition built raw, from its dicts alone, records none.
    """

    __slots__ = ("_assignment", "_members", "_alpha", "_beta", "_graph", "_cover")

    def __init__(
        self,
        assignment: dict[int, int],
        members: dict[int, frozenset[int]],
        alpha: dict[int, float],
        beta: dict[int, float],
        community_graph: Union[WeightedGraph, "CommunityGraphEdit", None] = None,
        cover: Optional[WeightedGraph] = None,
    ):
        self._assignment = assignment
        self._members = members
        self._alpha = alpha
        self._beta = beta
        self._graph = community_graph
        self._cover = cover

    # -- constructors -------------------------------------------------------

    @classmethod
    def singletons(cls, g) -> "Partition":
        """Each vertex in its own community; community id equals vertex id."""
        assignment = {v: v for v in g.vertices}
        members = {v: frozenset((v,)) for v in g.vertices}
        alpha = {v: g.self_weight(v) for v in g.vertices}
        beta = {v: g.strength(v) for v in g.vertices}
        return cls(assignment, members, alpha, beta, cover=g)

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
        return cls(assign, members, alpha, beta, cover=g)

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

    def community_of(self, v: int) -> int:
        try:
            return self._assignment[v]
        except KeyError:
            raise UnknownVertexError(f"vertex {v} not in partition") from None

    def members(self, c: int) -> frozenset[int]:
        return self._members[c]

    @property
    def community_graph(self) -> Optional[WeightedGraph]:
        """The community graph, or None when this partition carries none."""
        h = self._graph
        if isinstance(h, CommunityGraphEdit):  # finish the pending edit once
            edit = h.fork()
            edit.regroup(self, self, ())
            h = self._graph = edit.finish(self)
        return h

    def with_community_graph(self, h: Union[WeightedGraph, "CommunityGraphEdit"]) -> "Partition":
        """This partition carrying ``h`` (a graph or a pending edit) as its community graph.

        The result covers what this partition covers.
        """
        return Partition(self._assignment, self._members, self._alpha, self._beta, h, self._cover)

    def covers(self, g) -> bool:
        """Whether ``alpha`` and ``beta`` hold for ``g`` and the assignment covers its vertices.

        A partition that records a graph covers that graph only, in O(1):
        aggregates taken on another graph with the same vertices would score
        it wrongly. Only a partition that records none compares vertex sets,
        in O(|V|).
        """
        if self._cover is not None:
            return self._cover is g
        return self._assignment.keys() == g.vertices

    def community_graph_edit(self, g: WeightedGraph) -> Optional["CommunityGraphEdit"]:
        """A new edit over ``g`` that starts from this partition's community graph."""
        h = self._graph
        if isinstance(h, CommunityGraphEdit) and h.g is g:
            return h.fork()
        h = self.community_graph
        return None if h is None else CommunityGraphEdit(g, h._adj)

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
        return f"Partition({len(self._members)} communities over {len(self._assignment)} vertices)"


class CommunityGraphEdit:
    """Copy-on-write edits that turn one partition's community graph into another's.

    An edit over graph ``g`` holds the cross weights between the communities
    of a partition of ``g``, except for the edges at the vertices in
    ``pending``: :meth:`regroup` counts those once, under the communities the
    vertices end up in. A row is copied before its first change, so the rows
    an edit starts from are never mutated; an edit that a partition carries is
    never changed again, only forked. Self weights and strengths are not
    edited: :meth:`finish` takes them from the partition's ``alpha`` and
    ``beta``.

    Every community graph is built this way. The incremental updater starts
    from the graph a partition carries; :func:`dynamo.louvain.compress` starts
    from nothing, one empty row per community with every vertex pending.
    """

    __slots__ = ("g", "adj", "pending", "_copied", "_low")

    def __init__(self, g: WeightedGraph, rows: dict[int, dict[int, float]],
                 pending: frozenset[int] = frozenset()):
        self.g = g
        self.adj = dict(rows)  # rows are shared until written
        self.pending = pending
        self._copied: set[int] = set()
        self._low: set[tuple[int, int]] = set()

    def fork(self) -> "CommunityGraphEdit":
        """A new edit that starts where this one stands."""
        child = CommunityGraphEdit(self.g, self.adj, self.pending)
        child._low = set(self._low)
        return child

    def row(self, c: int) -> dict[int, float]:
        """Community ``c``'s row, safe to write."""
        if c not in self._copied:
            self.adj[c] = dict(self.adj[c])
            self._copied.add(c)
        return self.adj[c]

    def add(self, communities: Iterable[int]) -> None:
        """Add these communities, with no cross weights."""
        for c in communities:
            self.adj[c] = {}
            self._copied.add(c)

    def drop(self, communities: Iterable[int]) -> None:
        """Remove these communities and every cross weight to them."""
        rows = [(c, self.adj.pop(c)) for c in sorted(communities)]
        for c, row in rows:
            for d in row:
                if d in self.adj:
                    del self.row(d)[c]

    def shift(self, a: int, b: int, w: float) -> None:
        """Add ``w``, negative to subtract, to the cross weight of ``a`` and ``b``."""
        row_a = self.row(a)
        row_b = self.row(b)
        old = row_a.get(b, 0.0)
        row_a[b] = row_b[a] = old + w
        if old + w <= _RESIDUE * old:  # maybe the pair's last edge: settled in finish
            self._low.add((a, b) if a < b else (b, a))

    def regroup(self, before: "Partition", after: "Partition", moved: Iterable[int]) -> None:
        """Follow the vertices of ``moved`` from ``before`` to ``after`` and count the pending.

        Communities that lost every member are dropped whole first. Then one
        rule counts every edge with an end in T, the pending vertices plus
        those of ``moved`` that ended in another community, once: from its
        smaller end when both ends are in T. The edge leaves the community
        pair its ends had in ``before``, unless an end is pending (it was
        never counted) or that pair's row was dropped, and joins the pair its
        ends have in ``after``. Decreases go through :meth:`shift`, which
        marks residues for :meth:`finish`; increases are written to the rows.
        The work is O(degrees of T + dropped rows).
        """
        old = before.assignment
        new = after.assignment
        pending = self.pending
        gone = {old[v] for v in moved if old[v] not in after._members}
        self.drop(gone)
        todo = pending.union(v for v in moved if new[v] != old[v])
        neighbors = self.g.neighbors
        row, adj, copied = self.row, self.adj, self._copied
        for v in sorted(todo):
            a, b = old[v], new[v]
            leaves = a not in gone and v not in pending
            w_from: dict[int, float] = {}
            # rows are checked inline: a row() call per edge slowed compress by 5-12%
            row_b = adj[b] if b in copied else row(b)
            for u, w in neighbors(v).items():
                if u < v and u in todo:
                    continue  # counted from u
                cu = new[u]
                if cu != b:
                    row_c = adj[cu] if cu in copied else row(cu)
                    row_b[cu] = row_c[b] = row_b.get(cu, 0.0) + w
                if leaves and u not in pending:
                    cu = old[u]
                    if cu != a and cu not in gone:
                        w_from[cu] = w_from.get(cu, 0.0) + w
            for c, w in w_from.items():
                self.shift(a, c, -w)
        self.pending = frozenset()

    def finish(self, p: "Partition") -> WeightedGraph:
        """The edited graph, as the community graph of ``p`` on ``g``; nothing may be pending.

        Each cross weight that a subtraction left near zero is summed again
        from ``g``, over the members of the smaller community, and the pair is
        dropped when no edge joins it: a float residue never survives as a
        neighbour.
        """
        adj = self.adj
        assign = p.assignment
        for a, b in sorted(self._low):
            if a not in adj or b not in adj[a]:
                continue
            if len(p.members(b)) < len(p.members(a)):
                a, b = b, a
            w = math.fsum(x for v in p.members(a) for u, x in self.g.neighbors(v).items()
                          if assign[u] == b)
            if w > 0.0:
                adj[a][b] = adj[b][a] = w
            else:
                del adj[a][b], adj[b][a]
        return WeightedGraph._assemble(adj, p._alpha, p._beta, self.g._sum)


def partition_rebuild_aggregates(g, assignment: Mapping[int, int]) -> Partition:
    """Ground-truth aggregates of a vertex-to-community mapping, recomputed from ``g``.

    Used as the oracle against incrementally maintained aggregates.
    """
    return Partition.from_assignment(g, assignment)


def modularity(g, p: Partition) -> float:
    """Modularity Q of ``p`` on ``g`` via the community-aggregate form.

    O(communities) when ``p`` records ``g`` as its cover (see
    :meth:`Partition.covers`), plus O(|V|) to check the cover otherwise.
    Raises :class:`EmptyGraphError` when the total weight is zero (Q is
    undefined; callers should treat such snapshots as unscored singletons).
    Only when some ``beta[c]**2`` passes the largest float is Q summed in the
    scaled form ``sum_c (alpha[c]/2m - (beta[c]/2m)**2)``.
    """
    m = g.total_weight
    if m <= 0.0:
        raise EmptyGraphError("modularity undefined for graphs with zero total weight")
    if not p.covers(g):
        raise UnknownVertexError("partition does not cover exactly the graph's vertices")
    two_m = 2.0 * m
    total = 0.0
    try:
        for c in p.community_ids:
            total += p.alpha(c) - p.beta(c) ** 2 / two_m
    except OverflowError:  # a beta above about 1.3e154
        return sum(p.alpha(c) / two_m - (p.beta(c) / two_m) ** 2 for c in p.community_ids)
    return total / two_m

"""Static Louvain detector: greedy local moving plus community aggregation.

The optimizer accepts an arbitrary starting partition, which is exactly how the
incremental updater reuses it: the update builds an intermediate partition and
hands it to :func:`louvain` instead of starting from singletons, together with
the vertices that its delta freed.

Local moving takes vertices from one FIFO queue, the "fast local move" of
Traag, Waltman & van Eck (*From Louvain to Leiden*, 2019): seeded in ascending
id order, with each move re-queueing the mover's neighbours outside its new
community. Static detection and every level above 0 seed all vertices; a
resumed update seeds level 0 with the vertices its delta freed, so its work
follows the delta rather than the graph.

Aggregation (:func:`compress`) yields another :class:`WeightedGraph`: one
vertex per community, named by the community id, with the community's internal
weight as self weight. Every level therefore runs the same local-moving code,
and unfolding maps each original vertex through the community ids of the
levels above it.

Ties prefer the smallest community id and a move must gain more than
:data:`EPSILON`, so detection is fully deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from .errors import EmptyGraphError, UnknownVertexError
from .graph import Partition, WeightedGraph

#: minimum modularity gain of a move
EPSILON = 1e-7


def compress(g: WeightedGraph, p: Partition) -> WeightedGraph:
    """Aggregate each community of ``p`` into one vertex with the community's id.

    Each result vertex carries its community's internal weight as self weight
    (see :class:`WeightedGraph`), so the identity partition of the result has
    the same modularity as ``p`` on ``g``. Vertices keep the order of their
    community ids, so queue order and smallest-id tie breaks on the result
    match those of a 0..k-1 renumbering.
    """
    cids = sorted(p.community_ids)
    community_of = p.assignment
    adj: dict[int, dict[int, float]] = {c: {} for c in cids}
    self_w: dict[int, float] = {c: 0.0 for c in cids}
    for u in sorted(g.vertices):
        cu = community_of[u]
        self_w[cu] += g.self_weight(u)
        row = adj[cu]
        for v, w in g.neighbors(u).items():
            if u < v:
                cv = community_of[v]
                if cu == cv:
                    self_w[cu] += 2.0 * w
                else:
                    row[cv] = row.get(cv, 0.0) + w
                    adj[cv][cu] = row[cv]
    return WeightedGraph(adj, self_w)


def local_moving_pass(g, p: Partition, seeds: Optional[Iterable[int]] = None) -> Partition:
    """One local optimization phase driven by a FIFO queue of vertices.

    The queue starts with ``seeds`` (all vertices by default) in ascending id
    order. Each popped vertex moves to the neighboring community with the
    largest modularity gain when that gain exceeds :data:`EPSILON`, and stays
    put otherwise; ties prefer the smallest community id. A vertex that moves
    to community ``b`` appends, in ascending id order, each neighbor outside
    ``b`` that is not queued already. The phase ends when the queue is empty.
    Emptied communities are dropped.
    """
    m = g.total_weight
    if m <= 0.0:
        raise EmptyGraphError("local moving undefined for zero-weight graphs")
    two_m = 2.0 * m
    min_gain = EPSILON * m  # gains below are tracked scaled by m

    assign = dict(p.assignment)
    alpha = {c: p.alpha(c) for c in p.community_ids}
    beta = {c: p.beta(c) for c in p.community_ids}
    members = {c: set(p.members(c)) for c in p.community_ids}

    queued = set(g.vertices if seeds is None else seeds)
    queue = deque(sorted(queued))

    neighbors_of = g.neighbors
    strength_of = g.strength
    self_of = g.self_weight

    while queue:
        v = queue.popleft()
        queued.remove(v)
        a = assign[v]
        k_v = strength_of(v)
        s_v = self_of(v)
        nbrs = neighbors_of(v)
        w_to: dict[int, float] = {}
        for u, w in nbrs.items():
            cu = assign[u]
            w_to[cu] = w_to.get(cu, 0.0) + w
        w_a = w_to.get(a, 0.0)
        factor = k_v / two_m
        base = w_a - factor * (beta[a] - k_v)

        best_gain = min_gain
        best_c = None
        for c in sorted(w_to):
            if c == a:
                continue
            gain = (w_to[c] - factor * beta[c]) - base
            if gain > best_gain:
                best_gain = gain
                best_c = c

        if best_c is None:
            continue
        b = best_c
        alpha[a] -= 2.0 * w_a + s_v
        beta[a] -= k_v
        group = members[a]
        group.remove(v)
        if not group:
            del members[a], alpha[a], beta[a]
        alpha[b] += 2.0 * w_to[b] + s_v
        beta[b] += k_v
        members[b].add(v)
        assign[v] = b
        for u in sorted(nbrs):
            if assign[u] != b and u not in queued:
                queue.append(u)
                queued.add(u)

    frozen = {c: frozenset(s) for c, s in members.items()}
    return Partition(assign, frozen, alpha, beta)


def louvain(g: WeightedGraph, initial: Optional[Partition] = None,
            seeds: Optional[Iterable[int]] = None) -> Partition:
    """Full Louvain optimization from ``initial`` (all singletons by default).

    Alternates local moving and compression until no further improvement is
    possible, then unfolds the hierarchy back to the original vertices. The
    returned partition's modularity never falls below the initial one, and
    communities carry fresh ids 0..k-1 ordered by smallest member.

    ``seeds`` is the queue that level 0's local moving starts from (all
    vertices by default); an empty set leaves level 0 as ``initial`` has it.
    Every level above 0 starts from all of its vertices.
    """
    if g.total_weight <= 0.0:
        raise EmptyGraphError("detection undefined for graphs with zero total weight")

    if initial is None:
        level_p = Partition.singletons(g)
    else:
        if set(initial.assignment) != set(g.vertices):
            raise UnknownVertexError("initial partition does not cover the graph")
        level_p = initial
    if seeds is not None:
        seeds = set(seeds)
        stray = seeds - g.vertices
        if stray:
            raise UnknownVertexError(f"seed vertex {min(stray)} is not in the graph")

    level_graph = g
    to_level = {v: v for v in g.vertices}

    while True:
        level_p = local_moving_pass(level_graph, level_p, seeds)
        seeds = None
        if level_p.num_communities == level_graph.num_vertices:
            break
        to_level = {v: level_p.community_of(lv) for v, lv in to_level.items()}
        level_graph = compress(level_graph, level_p)
        level_p = Partition.singletons(level_graph)

    return _unfold(g, to_level, level_p)


def _unfold(g, to_level: dict[int, int], level_p: Partition) -> Partition:
    """Project the final-level partition back onto the original vertices.

    Compression preserves per-community aggregates exactly, so the final
    level's alpha/beta transfer to the unfolded communities unchanged.
    """
    assignment = _renumber({v: level_p.community_of(lv) for v, lv in to_level.items()})
    members: dict[int, set[int]] = {}
    level_community: dict[int, int] = {}
    for v, c in assignment.items():
        members.setdefault(c, set()).add(v)
        level_community[c] = level_p.community_of(to_level[v])
    frozen = {c: frozenset(s) for c, s in members.items()}
    alpha = {c: level_p.alpha(lc) for c, lc in level_community.items()}
    beta = {c: level_p.beta(lc) for c, lc in level_community.items()}
    return Partition(assignment, frozen, alpha, beta)


def _renumber(assignment: dict[int, int]) -> dict[int, int]:
    """Relabel community ids to 0..k-1 in ascending order of smallest member."""
    smallest: dict[int, int] = {}
    for v in sorted(assignment):
        smallest.setdefault(assignment[v], v)
    order = sorted(smallest, key=smallest.get)
    relabel = {c: i for i, c in enumerate(order)}
    return {v: relabel[c] for v, c in assignment.items()}

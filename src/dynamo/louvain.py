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

Aggregation yields another :class:`WeightedGraph`: one vertex per community,
named by the community id, with the community's alpha as self weight and its
beta as strength. Every level therefore runs the same local-moving code. One
counting rule builds every such graph, :meth:`CommunityGraphEdit.regroup`.
When the starting partition carries its community graph, local moving edits
that graph for the vertices it moved, so the update path never rebuilds
level 1 from the whole graph; otherwise :func:`compress` runs the same edit
from nothing, with every vertex pending. A community keeps its id through the
levels above it unless a level merges it into another, so unfolding relabels
only the members of merged communities.

Ties prefer the smallest community id and a move must gain more than
:data:`EPSILON`, so detection is fully deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from .errors import EmptyGraphError, UnknownVertexError
from .graph import CommunityGraphEdit, Partition, WeightedGraph

#: minimum modularity gain of a move
EPSILON = 1e-7


def compress(g: WeightedGraph, p: Partition) -> WeightedGraph:
    """Aggregate each community of ``p`` into one vertex with the community's id.

    This is a :class:`CommunityGraphEdit` started from nothing: one empty row
    per community, with every vertex of ``g`` pending, so each row of ``g`` is
    read once. Each result vertex carries its community's ``alpha`` as self
    weight and its ``beta`` as strength (see :class:`WeightedGraph`), so the
    identity partition of the result has the same modularity as ``p`` on
    ``g``. Vertices keep the order of their community ids, so queue order and
    smallest-id tie breaks on the result match those of a 0..k-1 renumbering.
    ``p`` must cover ``g`` (see :meth:`Partition.covers`).
    """
    if not p.covers(g):
        raise UnknownVertexError("partition does not cover the graph")
    edit = CommunityGraphEdit(g, {}, frozenset(g.vertices))
    edit.add(sorted(p.community_ids))
    edit.regroup(p, p, ())
    return edit.finish(p)


def local_moving_pass(g, p: Optional[Partition] = None,
                      seeds: Optional[Iterable[int]] = None) -> Partition:
    """One local optimization phase driven by a FIFO queue of vertices.

    The phase starts from ``p``, or by default from every vertex in its own
    community, named by its id, as :meth:`Partition.singletons` would have it.
    The queue starts with ``seeds`` (all vertices by default) in ascending id
    order. Each popped vertex moves to the neighboring community with the
    largest modularity gain when that gain exceeds :data:`EPSILON`, and stays
    put otherwise; ties prefer the smallest community id. A vertex that moves
    to community ``b`` appends, in ascending id order, each neighbor outside
    ``b`` that is not queued already. The phase ends when the queue is empty.
    Emptied communities are dropped, and a community that no vertex left or
    joined keeps ``p``'s member set. The result records ``g`` as its cover.
    ``p`` must cover ``g`` (see :meth:`Partition.covers`), an O(1) check when
    it records ``g``, and each seed must be a vertex of ``g``.
    """
    m = g.total_weight
    if m <= 0.0:
        raise EmptyGraphError("local moving undefined for zero-weight graphs")
    if p is not None and not p.covers(g):
        raise UnknownVertexError("initial partition does not cover the graph")
    vertices = g.vertices
    queued = set(vertices if seeds is None else seeds)
    if seeds is not None:
        stray = [v for v in queued if v not in vertices]
        if stray:
            raise UnknownVertexError(f"seed vertex {min(stray)} is not in the graph")
    two_m = 2.0 * m
    min_gain = EPSILON * m  # gains below are tracked scaled by m

    neighbors_of = g.neighbors
    strength_of = g.strength
    self_of = g.self_weight

    if p is None:
        assign = dict(zip(vertices, vertices))
        alpha = {v: self_of(v) for v in vertices}
        beta = {v: strength_of(v) for v in vertices}
        size = dict.fromkeys(vertices, 1)
    else:
        assign = dict(p.assignment)
        alpha = {c: p.alpha(c) for c in p.community_ids}
        beta = {c: p.beta(c) for c in p.community_ids}
        size = {c: len(p.members(c)) for c in p.community_ids}

    queue = deque(sorted(queued))
    moved: set[int] = set()

    while queue:
        v = queue.popleft()
        queued.remove(v)
        a = assign[v]
        k_v = strength_of(v)
        nbrs = neighbors_of(v)
        w_to: dict[int, float] = {}
        for u, w in nbrs.items():
            cu = assign[u]
            w_to[cu] = w_to.get(cu, 0.0) + w
        w_a = w_to.pop(a, 0.0)
        factor = k_v / two_m
        base = w_a - factor * (beta[a] - k_v)

        # one unsorted scan picks what a scan in id order would: the largest
        # gain, and of equal gains the smallest id
        best_gain = min_gain
        best_c = None
        for c, w in w_to.items():
            gain = (w - factor * beta[c]) - base
            if gain > best_gain or gain == best_gain and best_c is not None and c < best_c:
                best_gain = gain
                best_c = c

        if best_c is None:
            continue
        b = best_c
        s_v = self_of(v)
        alpha[a] -= 2.0 * w_a + s_v
        beta[a] -= k_v
        size[a] -= 1
        if not size[a]:
            del size[a], alpha[a], beta[a]
        alpha[b] += 2.0 * w_to[b] + s_v
        beta[b] += k_v
        size[b] += 1
        assign[v] = b
        moved.add(v)
        requeue = [u for u in nbrs if assign[u] != b and u not in queued]
        requeue.sort()
        queue.extend(requeue)
        queued.update(requeue)

    if p is None:
        groups: dict[int, list[int]] = {}
        for v, c in assign.items():
            groups.setdefault(c, []).append(v)
        members = {c: frozenset(groups[c]) for c in size}
        return Partition(assign, members, alpha, beta, cover=g)
    members = {c: p.members(c) for c in size}
    lost: dict[int, list[int]] = {}
    gained: dict[int, list[int]] = {}
    before = p.assignment
    for v in moved:
        a, b = before[v], assign[v]
        if a != b:
            if a in members:  # an emptied community needs no new set
                lost.setdefault(a, []).append(v)
            gained.setdefault(b, []).append(v)
    for c, group in lost.items():
        members[c] = members[c].difference(group)
    for c, group in gained.items():
        members[c] = members[c].union(group)
    result = Partition(assign, members, alpha, beta, cover=g)
    edit = p.community_graph_edit(g)
    if edit is None:
        return result
    edit.regroup(p, result, moved)
    return result.with_community_graph(edit.finish(result))


def louvain(g: WeightedGraph, initial: Optional[Partition] = None,
            seeds: Optional[Iterable[int]] = None) -> Partition:
    """Full Louvain optimization from ``initial`` (all singletons by default).

    Without ``initial``, every level starts as :func:`local_moving_pass` does
    by default, so no singleton partition is built.

    Alternates local moving and aggregation until a level moves nothing, then
    unfolds the hierarchy back to the original vertices. The returned
    partition's modularity never falls below the initial one, it carries its
    community graph (the last level graph), and it records ``g`` as the graph
    it covers (see :meth:`Partition.covers`).

    Community ids are stable. Level 0 keeps ``initial``'s ids (vertex ids for
    singletons), and a community that a higher level merges into another one
    takes that one's id, so unfolding relabels only the members of merged
    communities. When ``initial`` carries its community graph, level 0's
    moves edit it into the level-1 graph instead of :func:`compress`
    rebuilding it.

    ``seeds`` is the queue that level 0's local moving starts from (all
    vertices by default); an empty set leaves level 0 as ``initial`` has it.
    Every level above 0 starts from all of its vertices.

    After the zero-weight check, level 0's local moving checks that ``initial``
    covers ``g`` (O(1) when it records ``g``) and that each seed is in ``g``.
    """
    if g.total_weight <= 0.0:
        raise EmptyGraphError("detection undefined for graphs with zero total weight")

    bottom = level_p = local_moving_pass(g, initial, seeds)
    level_graph = g
    merged: dict[int, int] = {}  # level-0 community -> its id at the current level
    while level_p.num_communities < level_graph.num_vertices:
        carried = level_p.community_graph
        level_graph = compress(level_graph, level_p) if carried is None else carried
        level_p = local_moving_pass(level_graph)
        moves = {x: c for x, c in level_p.assignment.items() if x != c}
        merged = {c: moves.get(x, x) for c, x in merged.items()} | {
            x: c for x, c in moves.items() if x not in merged}
    if level_p is bottom:  # level 0 left every vertex on its own
        carried = bottom.community_graph
        level_graph = compress(g, bottom) if carried is None else carried

    return _unfold(g, bottom, {c: x for c, x in merged.items() if c != x}, level_p,
                   level_graph)


def _unfold(g: WeightedGraph, bottom: Partition, merged: dict[int, int], top: Partition,
            top_graph: WeightedGraph) -> Partition:
    """Relabel the members of each level-0 community in ``merged`` to its final id.

    Aggregation preserves per-community aggregates exactly, so the final
    level's alpha/beta transfer to the unfolded communities unchanged. The
    result records ``g``, which ``bottom`` covers, as its cover.
    """
    if not merged:
        return bottom.with_community_graph(top_graph)
    assignment = dict(bottom.assignment)
    members = {c: bottom.members(c) for c in bottom.community_ids if c not in merged}
    parts: dict[int, list[frozenset[int]]] = {}
    for c, final in merged.items():
        parts.setdefault(final, []).append(bottom.members(c))
        for v in bottom.members(c):
            assignment[v] = final
    for final, groups in parts.items():
        members[final] = members.get(final, frozenset()).union(*groups)
    alpha = {c: top.alpha(c) for c in top.community_ids}
    beta = {c: top.beta(c) for c in top.community_ids}
    return Partition(assignment, members, alpha, beta, top_graph, g)

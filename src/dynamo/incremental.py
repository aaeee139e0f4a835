"""Incremental community updates on evolving snapshots.

Given the previous snapshot, its partition, and the batch of changes leading to
the next snapshot, the updater classifies every change once, builds an
initialization plan (communities to dissolve into singletons, two-vertex seed
communities, and the beta shifts of communities that carry over), materializes
the intermediate partition, and lets the greedy optimizer finish from there
instead of from scratch.

Change handling, with all thresholds evaluated against the pre-change snapshot:

* intra-community addition / weight increase: dissolve the touched community,
  seed the two endpoints as a pair (testing whether a bi-split wins would mean
  scoring every split of the community, so local moving finds the split);
* cross-community addition / weight increase: merge test against the closed-form
  threshold (see :func:`ccea_merge_threshold`); below it only the two
  communities' beta moves, above it both communities dissolve and the
  endpoints seed a pair;
* intra-community deletion / weight decrease: dissolve the touched community and
  every community adjacent to either endpoint;
* cross-community deletion / weight decrease: only the two communities' beta
  moves (the structure only gets stronger);
* vertex addition: dissolve the communities adjacent to the new vertex and seed
  it with its heaviest neighbor (smallest id on ties);
* vertex deletion: dissolve the vertex's community and all neighbor
  communities; a removed vertex whose only edges are in the delta dissolves
  just its own community, and one with no edge in either place (isolated)
  leaves its community alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import InconsistentSnapshotsError, SameCommunityError
from .graph import (
    GraphDelta,
    Partition,
    VertexAddition,
    VertexRemoval,
    WeightedGraph,
)
from .louvain import compress, louvain


class ChangeKind(enum.Enum):
    """The six change categories an evolving snapshot can contain."""

    ICEA_WI = "intra-community edge addition / weight increase"
    CCEA_WI = "cross-community edge addition / weight increase"
    ICED_WD = "intra-community edge deletion / weight decrease"
    CCED_WD = "cross-community edge deletion / weight decrease"
    VERTEX_ADD = "vertex addition"
    VERTEX_DEL = "vertex deletion"


@dataclass(frozen=True)
class InitPlan:
    """Output of the initialization step.

    ``dissolve`` lists community ids to explode into singletons; ``pair_seeds``
    lists unordered vertex pairs to create as fresh two-vertex communities. A
    vertex occurs in at most one pair. ``beta_shift`` maps a community id to
    the summed weight change of the cross-community changes that touch it and
    merge nothing; it is what a carried community's beta moves by.
    """

    dissolve: frozenset[int] = frozenset()
    pair_seeds: frozenset[frozenset[int]] = frozenset()
    beta_shift: Mapping[int, float] = field(default_factory=dict, hash=False)


def classify(g_t: WeightedGraph, p_t: Partition, change, delta: GraphDelta) -> ChangeKind:
    """Kind of one element of ``delta``, given the pre-change snapshot and partition.

    An edge change touching a vertex that ``delta`` adds or removes counts as
    vertex addition/deletion context; removal takes precedence.
    """
    if isinstance(change, VertexAddition):
        return ChangeKind.VERTEX_ADD
    if isinstance(change, VertexRemoval):
        return ChangeKind.VERTEX_DEL
    u, v, dw = change
    if u in delta.removed_vertices or v in delta.removed_vertices:
        return ChangeKind.VERTEX_DEL
    if u in delta.added_vertices or v in delta.added_vertices:
        return ChangeKind.VERTEX_ADD
    same = p_t.community_of(u) == p_t.community_of(v)
    if dw > 0:
        return ChangeKind.ICEA_WI if same else ChangeKind.CCEA_WI
    return ChangeKind.ICED_WD if same else ChangeKind.CCED_WD


def ccea_merge_threshold(g_t: WeightedGraph, p_t: Partition, i: int, j: int) -> float:
    """Weight increase beyond which merging the two endpoint communities wins.

    For a cross-community increase of ``dw`` on ``(i, j)``, merging strictly
    improves modularity over keeping the structure unchanged iff ``dw`` exceeds
    the returned value. Evaluated on the pre-change snapshot; the cross weight
    of the two communities is read from ``p_t``'s community graph, which is
    built first when ``p_t`` carries none.
    """
    c_i = p_t.community_of(i)
    c_j = p_t.community_of(j)
    if c_i == c_j:
        raise SameCommunityError(f"vertices {i} and {j} share community {c_i}")
    m = g_t.total_weight
    h = p_t.community_graph
    cross = (compress(g_t, p_t) if h is None else h).weight(c_i, c_j)
    alpha2 = -2.0 * cross  # alpha_i + alpha_j - alpha_merged
    beta2 = p_t.beta(c_i) + p_t.beta(c_j)
    d1 = 2.0 * m - alpha2 - beta2
    d2 = m * alpha2 + p_t.beta(c_i) * p_t.beta(c_j)
    # discriminant equals (2m - beta2)^2 + 4(beta_i - cross)(beta_j - cross) >= 0
    disc = d1 * d1 + 4.0 * d2
    return 0.5 * (-d1 + math.sqrt(max(disc, 0.0)))


def init(
    g_t1: WeightedGraph,
    g_t: WeightedGraph,
    p_t: Partition,
    d: GraphDelta,
) -> InitPlan:
    """Build the initialization plan for one snapshot delta in one pass.

    Each removed or added vertex is handled once, and each edge change is
    classified once, in stored (file) order. Dissolve sets accumulate by union;
    an added vertex is paired with its heaviest neighbour at each of its edge
    changes, and a later pair seed involving an already-seeded vertex replaces
    that vertex's earlier pair. A cross-community change that merges nothing
    adds its weight change to both endpoint communities' ``beta_shift``.
    """
    _check_consistency(g_t1, g_t, d)

    dissolve: set[int] = set()
    pair_of: dict[int, frozenset[int]] = {}
    beta_shift: dict[int, float] = {}

    def seed_pair(i: int, j: int) -> None:
        for old in (pair_of.get(i), pair_of.get(j)):
            if old is not None:
                for x in old:
                    pair_of.pop(x, None)
        pair = frozenset((i, j))
        pair_of[i] = pair
        pair_of[j] = pair

    def dissolve_around(k: int) -> None:
        dissolve.add(p_t.community_of(k))
        dissolve.update(p_t.community_of(l) for l in g_t.neighbors(k))

    ends = {x for ec in d.edge_changes for x in (ec.u, ec.v)}
    for k in sorted(d.removed_vertices):
        if g_t.neighbors(k) or k in ends:  # an isolated vertex leaves its community alone
            dissolve_around(k)
    heaviest: dict[int, int] = {}
    for k in d.added_vertices & ends:
        nbrs = g_t1.neighbors(k)
        dissolve.update(p_t.community_of(l) for l in nbrs if g_t.has_vertex(l))
        if nbrs:  # max keeps the first of equal weights: the smallest id
            heaviest[k] = max(sorted(nbrs), key=nbrs.__getitem__)

    for change in d.edge_changes:
        kind = classify(g_t, p_t, change, d)
        u, v, dw = change
        if kind is ChangeKind.VERTEX_DEL or kind is ChangeKind.VERTEX_ADD:
            # one edge can join a removed and an added vertex: pair each added end
            for k in (u, v):
                if k in heaviest:
                    seed_pair(k, heaviest[k])
        elif kind is ChangeKind.ICED_WD:
            dissolve_around(u)
            dissolve_around(v)
        elif kind is ChangeKind.ICEA_WI:
            dissolve.add(p_t.community_of(u))
            seed_pair(u, v)
        elif kind is ChangeKind.CCEA_WI and dw > ccea_merge_threshold(g_t, p_t, u, v):
            dissolve.add(p_t.community_of(u))
            dissolve.add(p_t.community_of(v))
            seed_pair(u, v)
        else:  # CCED_WD, or a cross increase below the threshold: only beta moves
            for c in (p_t.community_of(u), p_t.community_of(v)):
                beta_shift[c] = beta_shift.get(c, 0.0) + dw

    return InitPlan(frozenset(dissolve), frozenset(pair_of.values()), beta_shift)


def intermediate_partition(
    g_t1: WeightedGraph,
    p_t: Partition,
    plan: InitPlan,
    d: GraphDelta,
) -> Partition:
    """Materialize the plan on the new snapshot.

    Non-dissolved communities carry over with their ids (minus deleted
    members), dissolved communities explode into singletons, pair seeds become
    two-vertex communities, and added vertices outside any pair stay
    singletons. Each new community takes an id above every id of ``p_t``.

    Aggregates are composed in O(|delta| + dissolved) time: a change internal
    to a community always dissolves it and a removed or added vertex dissolves
    every community it touches, so surviving communities keep their alpha and
    their beta moves only by ``plan.beta_shift``, which :func:`init` summed
    from the cross-community changes that merge nothing. When ``p_t``
    carries its community graph, the result carries an edit of it made the
    same way: dissolved rows drop and each changed edge between two carried
    communities shifts their cross weight. The edges of the vertices in new
    communities stay pending, so that level 0 of the resumed optimization
    counts them once, in the communities they end up in.
    """
    removed = d.removed_vertices
    added = d.added_vertices

    assign = dict(p_t.assignment)
    members: dict[int, frozenset[int]] = {}
    alpha: dict[int, float] = {}
    beta: dict[int, float] = {}
    for c in p_t.community_ids:
        if c in plan.dissolve:
            continue
        group = p_t.members(c)
        if removed:
            # only zero-strength vertices can be removed out of a surviving community
            group = group - removed
            if not group:
                continue
        members[c] = group
        alpha[c] = p_t.alpha(c)
        beta[c] = p_t.beta(c) + plan.beta_shift.get(c, 0.0)
    for v in removed:
        del assign[v]

    top = max(p_t.community_ids, default=-1)
    next_id = top + 1
    for c in sorted(plan.dissolve):
        for v in sorted(p_t.members(c)):
            if v in removed:
                continue
            assign[v] = next_id
            members[next_id] = frozenset((v,))
            alpha[next_id] = 0.0
            beta[next_id] = g_t1.strength(v)
            next_id += 1

    for v in sorted(added):
        assign[v] = next_id
        members[next_id] = frozenset((v,))
        alpha[next_id] = 0.0
        beta[next_id] = g_t1.strength(v)
        next_id += 1

    for pair in sorted(plan.pair_seeds, key=min):
        i, j = sorted(pair)
        for x in (i, j):  # pair endpoints are always singletons at this point
            old = assign[x]
            del members[old], alpha[old], beta[old]
        assign[i] = next_id
        assign[j] = next_id
        members[next_id] = frozenset(pair)
        alpha[next_id] = 2.0 * g_t1.weight(i, j)
        beta[next_id] = g_t1.strength(i) + g_t1.strength(j)
        next_id += 1

    edit = p_t.community_graph_edit(g_t1)
    if edit is not None:
        edit.drop(c for c in p_t.community_ids if c not in members)
        for u, v, dw in d.edge_changes:
            if u not in removed and v not in removed:
                cu, cv = assign[u], assign[v]
                if cu != cv and cu <= top and cv <= top:
                    edit.shift(cu, cv, dw)
        fresh = [c for c in members if c > top]
        edit.add(fresh)
        edit.pending = frozenset().union(*(members[c] for c in fresh))
    return Partition(assign, members, alpha, beta, edit)


def dynamo_update(
    g_t1: WeightedGraph,
    g_t: WeightedGraph,
    p_t: Partition,
    d: GraphDelta,
) -> Partition:
    """Update the community structure across one snapshot transition.

    Level 0 of the resumed optimization starts from the vertices the delta
    freed: those whose community was not carried over (members of dissolved
    communities and added vertices, which include every pair seed) and every
    surviving endpoint of a changed edge. Moves reach further from there.

    Carried communities keep their ids. ``p_t``'s community graph is edited
    into the result's rather than rebuilt; when ``p_t`` carries none, it is
    built once with :func:`compress`.
    """
    if p_t.community_graph is None:
        p_t = p_t.with_community_graph(compress(g_t, p_t))
    plan = init(g_t1, g_t, p_t, d)
    intermediate = intermediate_partition(g_t1, p_t, plan, d)
    seeds = set(d.added_vertices).union(*(p_t.members(c) for c in plan.dissolve))
    seeds.update(x for ec in d.edge_changes for x in (ec.u, ec.v))
    return louvain(g_t1, initial=intermediate, seeds=seeds - d.removed_vertices)


def _check_consistency(g_t1: WeightedGraph, g_t: WeightedGraph, d: GraphDelta) -> None:
    """Cheap validation that ``g_t + d`` matches ``g_t1``.

    Checks vertex sets, that every changed edge joins vertices of either
    snapshot, the net weight of every changed edge, and the total weight;
    O(|delta| + |V| + deg(removed)) rather than a full graph compare.
    """
    expected_vertices = (g_t.vertices | d.added_vertices) - d.removed_vertices
    if expected_vertices != g_t1.vertices:
        raise InconsistentSnapshotsError("vertex sets disagree with the delta")

    net: dict[tuple[int, int], float] = {}
    for u, v, dw in d.edge_changes:
        for x in (u, v):
            if not (g_t.has_vertex(x) or g_t1.has_vertex(x)):
                raise InconsistentSnapshotsError(f"edge change references vertex {x}, "
                                                 f"which is in neither snapshot")
        key = (u, v) if u < v else (v, u)
        net[key] = net.get(key, 0.0) + dw

    tol = 1e-6 * max(1.0, g_t.total_weight)
    expected_m = g_t.total_weight + sum(net[k] for k in sorted(net))
    seen: set[tuple[int, int]] = set()
    for k in sorted(d.removed_vertices):
        for l in sorted(g_t.neighbors(k)):
            key = (k, l) if k < l else (l, k)
            if key not in seen:
                seen.add(key)
                expected_m -= g_t.weight(k, l) + net.get(key, 0.0)
    for key in sorted(net):
        a, b = key
        if key in seen:
            continue
        if a in d.removed_vertices or b in d.removed_vertices:
            expected_m -= net[key]  # edge created then dropped with its vertex
            seen.add(key)
        elif abs(g_t1.weight(a, b) - (g_t.weight(a, b) + net[key])) > tol:
            raise InconsistentSnapshotsError(f"edge {key} weight disagrees with the delta")
    if abs(expected_m - g_t1.total_weight) > tol:
        raise InconsistentSnapshotsError("total weight disagrees with the delta")

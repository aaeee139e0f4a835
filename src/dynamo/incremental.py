"""Incremental community updates on evolving snapshots.

Given the previous snapshot, its partition, and the batch of changes leading to
the next snapshot, the updater classifies every change once, builds an
initialization plan (communities to dissolve into singletons, two-vertex seed
communities, the beta shifts of communities that carry over, and a frontier of
vertices to re-examine in place), materializes the intermediate partition, and
lets the greedy optimizer finish from there instead of from scratch.

Change handling, with all thresholds evaluated against the pre-change snapshot:

* intra-community addition / weight increase: dissolve the touched community,
  seed the two endpoints as a pair (testing whether a bi-split wins would mean
  scoring every split of the community, so local moving finds the split);
* cross-community addition / weight increase: merge test against the closed-form
  threshold (see :func:`ccea_merge_threshold`); below it only the two
  communities' beta moves, above it both communities dissolve and the
  endpoints seed a pair;
* intra-community deletion / weight decrease: dissolve the touched community
  and queue every neighbour of either endpoint in place;
* cross-community deletion / weight decrease: only the two communities' beta
  moves (the structure only gets stronger);
* vertex addition: dissolve nothing and seed no pair; the new vertex starts as
  a singleton, its neighbours are queued in place, and each carried community
  it has an edge into moves its beta by that edge's weight. Its first pop puts
  it in its best-gain community, which need not hold its heaviest neighbour
  (see criterion 4's red acceptance test);
* vertex deletion: dissolve the vertex's own community, queue its neighbours
  in place, and move each carried neighbour community's beta by minus the
  weight of the dropped edge; a removed vertex with no edge in the old
  snapshot or in the delta (isolated) leaves its community alone.

The intra-community deletion and vertex-event rules depart from the paper's
as this package first implemented them, which also dissolved every community
adjacent to an endpoint or to the vertex. On heavy-tailed graphs a few such
changes freed most of the graph, and an update cost more than a static rerun.
Following the dynamic frontier of Sahu's *DF Louvain* (arXiv 2404.19634),
those neighbours now keep their communities and are only queued, so the work
follows the delta.
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
    vertex occurs in at most one pair. ``beta_shift`` maps each carried
    community that a change touches to what its beta moves by: the summed
    weight change of the cross-community changes that merge nothing, plus the
    weights of added vertices' edges into it, minus those of removed
    vertices' edges. ``frontier`` holds the surviving neighbours of removed
    vertices, added vertices and intra-community decreases' endpoints: the
    vertices that level 0 re-examines without dissolving their communities.
    """

    dissolve: frozenset[int] = frozenset()
    pair_seeds: frozenset[frozenset[int]] = frozenset()
    beta_shift: Mapping[int, float] = field(default_factory=dict, hash=False)
    frontier: frozenset[int] = frozenset()


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

    Each removed or added vertex is handled once, reading its row once (from
    ``g_t`` when removed, ``g_t1`` when added), and each edge change is
    classified once, in stored (file) order; an edge change at an added or
    removed vertex needs nothing beyond its vertex's row. Dissolve and frontier
    sets accumulate by union, and a later pair seed involving an
    already-seeded vertex replaces that vertex's earlier pair. A
    cross-community change that merges nothing adds its weight change to both
    endpoint communities' ``beta_shift``, and a vertex event shifts the
    community of each neighbour by the weight of their edge.
    """
    _check_consistency(g_t1, g_t, d)

    dissolve: set[int] = set()
    frontier: set[int] = set()
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

    def shift(c: int, dw: float) -> None:
        beta_shift[c] = beta_shift.get(c, 0.0) + dw

    removed = d.removed_vertices
    ends = {x for ec in d.edge_changes for x in (ec.u, ec.v)}
    for k in sorted(removed):
        nbrs = g_t.neighbors(k)
        if nbrs or k in ends:  # an isolated vertex leaves its community alone
            dissolve.add(p_t.community_of(k))
        for l, w in nbrs.items():
            if l not in removed:
                frontier.add(l)
                shift(p_t.community_of(l), -w)
    for k in sorted(d.added_vertices):
        for l, w in g_t1.neighbors(k).items():
            frontier.add(l)
            if l not in d.added_vertices:
                shift(p_t.community_of(l), w)

    for change in d.edge_changes:
        kind = classify(g_t, p_t, change, d)
        u, v, dw = change
        if kind is ChangeKind.VERTEX_DEL or kind is ChangeKind.VERTEX_ADD:
            continue  # handled with its vertex above
        if kind is ChangeKind.ICED_WD:
            dissolve.add(p_t.community_of(u))
            frontier.update(g_t.neighbors(u))
            frontier.update(g_t.neighbors(v))
        elif kind is ChangeKind.ICEA_WI:
            dissolve.add(p_t.community_of(u))
            seed_pair(u, v)
        elif kind is ChangeKind.CCEA_WI and dw > ccea_merge_threshold(g_t, p_t, u, v):
            dissolve.add(p_t.community_of(u))
            dissolve.add(p_t.community_of(v))
            seed_pair(u, v)
        else:  # CCED_WD, or a cross increase below the threshold: only beta moves
            shift(p_t.community_of(u), dw)
            shift(p_t.community_of(v), dw)

    carried_shift = {c: s for c, s in beta_shift.items() if c not in dissolve}
    return InitPlan(frozenset(dissolve), frozenset(pair_of.values()), carried_shift,
                    frozenset(frontier - removed))


def intermediate_partition(
    g_t1: WeightedGraph,
    p_t: Partition,
    plan: InitPlan,
    d: GraphDelta,
) -> Partition:
    """Materialize the plan on the new snapshot.

    Non-dissolved communities carry over with their ids and share ``p_t``'s
    member sets, except the community of an isolated removed vertex, which
    loses that member. Dissolved communities explode into singletons, pair
    seeds become two-vertex communities, and added vertices outside any pair
    stay singletons. Each new community takes an id above every id of ``p_t``.

    Aggregates are composed in O(|delta| + dissolved) time: a change internal
    to a community always dissolves it, a removed vertex with an edge
    dissolves its own community, and an added vertex is a singleton, so no
    change adds, drops or reweights an edge between two members of a
    surviving community. Surviving communities therefore keep their alpha,
    and their beta moves only by ``plan.beta_shift``, which :func:`init`
    summed from the cross-community changes that merge nothing and the edges
    of vertex events. When ``p_t`` carries its community graph, the result
    carries an edit of it made the same way: dissolved rows drop and each
    changed edge between two carried communities shifts their cross weight.
    The edges of the vertices in new communities stay pending, so that level 0
    of the resumed optimization counts them once, in the communities they end
    up in.
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
        members[c] = p_t.members(c)
        alpha[c] = p_t.alpha(c)
        beta[c] = p_t.beta(c) + plan.beta_shift.get(c, 0.0)
    for v in removed:
        c = assign.pop(v)
        if c in members:  # an isolated vertex, the only kind a surviving community loses
            members[c] -= {v}
            if not members[c]:
                del members[c], alpha[c], beta[c]

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
    communities and added vertices, which include every pair seed), every
    surviving endpoint of a changed edge, and ``plan.frontier``, the
    neighbours of vertex events and intra-community decreases, which keep
    their communities. Moves reach further from there.

    Carried communities keep their ids. ``p_t``'s community graph is edited
    into the result's rather than rebuilt; when ``p_t`` carries none, it is
    built once with :func:`compress`.
    """
    if p_t.community_graph is None:
        p_t = p_t.with_community_graph(compress(g_t, p_t))
    plan = init(g_t1, g_t, p_t, d)
    intermediate = intermediate_partition(g_t1, p_t, plan, d)
    seeds = set(d.added_vertices).union(plan.frontier, *(p_t.members(c) for c in plan.dissolve))
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

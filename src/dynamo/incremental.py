"""Incremental community updates on evolving snapshots.

Given the previous snapshot, its partition, and the batch of changes leading to
the next snapshot, the updater classifies every change once, builds an
initialization plan (communities to dissolve into singletons, vertices to free
from communities that carry over, two-vertex seed communities, the beta shifts
of carried communities, and the level-0 seed set), materializes the
intermediate partition, and lets the greedy optimizer finish from there
instead of from scratch.

Change handling, with all thresholds evaluated against the pre-change snapshot:

* intra-community addition / weight increase: free the two endpoints and
  their neighbours inside the community as singletons, seed the endpoints as
  a pair, and queue their outside neighbours in place; the community keeps
  its id and its other members (testing whether a bi-split wins would mean
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

A community that another change of the batch dissolves is dissolved whatever
its intra-community increases, and one whose every member an increase frees
dissolves too.

Three rules depart from the paper's as this package first implemented them.
The intra-community deletion and vertex-event rules also dissolved every
community adjacent to an endpoint or to the vertex: on heavy-tailed graphs a
few such changes freed most of the graph, and an update cost more than a
static rerun. Following the dynamic frontier of Sahu's *DF Louvain* (arXiv
2404.19634), those neighbours now keep their communities and are only queued,
so the work follows the delta. The intra-community increase rule dissolved the
whole community: on planted 250-vertex blocks one increase made level 0
re-form a block from singletons, about 85% of an update. Freeing only the
endpoints' neighbourhood inside it keeps the rest of the community together,
and local moving can still split it from there (DF Louvain ignores such an
increase, which misses a split like the one in the frozen
``TestCommunitySplitOnInternalIncrease`` case).
"""

from __future__ import annotations

import enum
import math
from itertools import chain
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .errors import InconsistentSnapshotsError, SameCommunityError, UnknownVertexError
from .graph import GraphDelta, Partition, VertexAddition, VertexRemoval, WeightedGraph
from .louvain import compress, louvain


class ChangeKind(enum.Enum):
    """The six change categories an evolving snapshot can contain."""

    ICEA_WI = "intra-community edge addition / weight increase"
    CCEA_WI = "cross-community edge addition / weight increase"
    ICED_WD = "intra-community edge deletion / weight decrease"
    CCED_WD = "cross-community edge deletion / weight decrease"
    VERTEX_ADD = "vertex addition"
    VERTEX_DEL = "vertex deletion"


class InitPlan(NamedTuple):
    """Output of the initialization step.

    ``dissolve`` lists community ids to explode into singletons. ``freed``
    lists the vertices that leave a community which carries over, each as a
    singleton: the endpoints of an intra-community increase and their
    neighbours inside its community. ``pair_seeds`` lists unordered vertex
    pairs to create as fresh two-vertex communities; a vertex occurs in at
    most one pair. ``beta_shift`` maps each carried community that a change
    touches to the summed strength change of its members: the weight changes
    of the cross-community changes that merge nothing and, twice, of the
    intra-community increases, plus the weights of added vertices' edges into
    it, minus those of removed vertices' edges. ``seeds`` is the queue that
    level 0 starts from: the members of dissolved communities, the freed and
    added vertices, every surviving endpoint of a changed edge, and the
    neighbours that are re-examined without leaving their communities.
    """

    dissolve: frozenset[int] = frozenset()
    freed: frozenset[int] = frozenset()
    pair_seeds: frozenset[frozenset[int]] = frozenset()
    beta_shift: Mapping[int, float] = MappingProxyType({})  # shared, so read-only
    seeds: frozenset[int] = frozenset()


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
    built first when ``p_t`` carries none. ``p_t`` must cover ``g_t``.
    """
    c_i = p_t.community_of(i)
    c_j = p_t.community_of(j)
    if c_i == c_j:
        raise SameCommunityError(f"vertices {i} and {j} share community {c_i}")
    if not p_t.covers(g_t):
        raise UnknownVertexError("partition does not cover the graph")
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
    removed vertex needs nothing beyond its vertex's row. Dissolve, freed and
    seed sets accumulate by union, and a later pair seed involving an
    already-seeded vertex replaces that vertex's earlier pair. A change that
    dissolves nothing adds its weight change to both endpoint communities'
    ``beta_shift``, and a vertex event shifts the community of each neighbour
    by the weight of their edge.

    The intra-community increases are settled last, per community, reading
    each endpoint's row in ``g_t`` once: in a community that the batch
    dissolves anyway they need nothing more. Otherwise the endpoints and their
    neighbours inside the community are freed and their outside neighbours
    are queued; a community left with no member dissolves instead.

    Only a step that :func:`~dynamo.graph.apply_delta` recorded is accepted:
    raises :class:`InconsistentSnapshotsError` unless it built ``g_t1`` from
    ``g_t`` and this very delta object (an equal graph built another way is
    refused too; the update never rebuilds a snapshot to compare it), then
    :class:`UnknownVertexError` unless ``p_t`` covers ``g_t`` (see
    :meth:`Partition.covers`). Both checks are O(1) for a partition built from
    a graph. When ``p_t`` carries no community graph, :func:`compress` builds
    it once for every merge test.
    """
    _check_step(g_t1, g_t, p_t, d)
    if p_t.community_graph is None:  # built once here, not by each merge test
        p_t = p_t.with_community_graph(compress(g_t, p_t))

    dissolve: set[int] = set()
    pair_of: dict[int, frozenset[int]] = {}
    beta_shift: dict[int, float] = {}
    increased: dict[int, set[int]] = {}  # community -> endpoints of its intra increases

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
    changes = d.edge_changes  # built on each access: read once
    ends = {x for u, v, _ in changes for x in (u, v)}
    seeds = ends | d.added_vertices  # removed vertices are taken out last
    for k in sorted(removed):
        nbrs = g_t.neighbors(k)
        if nbrs or k in ends:  # an isolated vertex leaves its community alone
            dissolve.add(p_t.community_of(k))
        for l, w in nbrs.items():
            if l not in removed:
                seeds.add(l)
                shift(p_t.community_of(l), -w)
    for k in sorted(d.added_vertices):
        for l, w in g_t1.neighbors(k).items():
            seeds.add(l)
            if l not in d.added_vertices:
                shift(p_t.community_of(l), w)

    for change in changes:
        kind = classify(g_t, p_t, change, d)
        u, v, dw = change
        if kind is ChangeKind.VERTEX_DEL or kind is ChangeKind.VERTEX_ADD:
            continue  # handled with its vertex above
        if kind is ChangeKind.ICED_WD:
            dissolve.add(p_t.community_of(u))
            seeds.update(g_t.neighbors(u))
            seeds.update(g_t.neighbors(v))
        elif kind is ChangeKind.CCEA_WI and dw > ccea_merge_threshold(g_t, p_t, u, v):
            dissolve.add(p_t.community_of(u))
            dissolve.add(p_t.community_of(v))
            seed_pair(u, v)
        else:  # an intra increase, a cross decrease, or a cross increase below the threshold
            if kind is ChangeKind.ICEA_WI:
                increased.setdefault(p_t.community_of(u), set()).update((u, v))
                seed_pair(u, v)
            shift(p_t.community_of(u), dw)
            shift(p_t.community_of(v), dw)

    freed: set[int] = set()
    for c in increased.keys() - dissolve:
        inside = set(increased[c])
        for x in increased[c]:
            for y in g_t.neighbors(x):
                (inside if p_t.community_of(y) == c else seeds).add(y)
        if len(inside) == len(p_t.members(c)):
            dissolve.add(c)
        else:
            freed |= inside

    seeds.update(freed, *(p_t.members(c) for c in dissolve))
    carried_shift = {c: s for c, s in beta_shift.items() if c not in dissolve}
    return InitPlan(frozenset(dissolve), frozenset(freed), frozenset(pair_of.values()),
                    carried_shift, frozenset(seeds - removed))


def intermediate_partition(
    g_t1: WeightedGraph,
    p_t: Partition,
    plan: InitPlan,
    d: GraphDelta,
) -> Partition:
    """Materialize the plan on the new snapshot.

    Non-dissolved communities carry over with their ids. Each loses its freed
    members and, when it holds an isolated removed vertex, that member; the
    others share ``p_t``'s member sets. Members of dissolved communities and
    freed vertices become singletons, pair seeds become two-vertex
    communities, and added vertices outside any pair stay singletons. Each
    new community takes an id above every id of ``p_t``.

    Aggregates are composed in O(|delta| + dissolved + degrees of the freed
    vertices) time. A carried community's beta moves by ``plan.beta_shift``,
    its strength change. The only changed edges inside a carried community
    are intra-community increases (a decrease dissolves it, and a removed
    vertex with an edge dissolves its own community), so its alpha grows by
    twice theirs; their endpoints are freed. Each freed vertex then takes its
    edges in ``g_t1`` out of its community's alpha and its strength out of
    the beta. When ``p_t`` carries its community graph, the result carries an
    edit of it made the same way: each changed edge between two carried
    communities shifts their cross weight, a freed vertex's edges to other
    carried communities are subtracted from them, and the rows of dissolved
    and emptied communities drop. The edges of the vertices in new
    communities stay pending, so that level 0 of the resumed optimization
    counts them once, in the communities they end up in.

    ``g_t``, the old snapshot, is the graph that ``g_t1`` records as its
    source (see :meth:`WeightedGraph.derived_from`), and the step is checked as
    :func:`init` checks it. The result records ``g_t1`` as the graph it covers
    (see :meth:`Partition.covers`): :func:`~dynamo.graph.apply_delta` rejects
    an added vertex that ``g_t`` holds and a removed one it lacks, so the keys,
    V(g_t) minus the removed plus the added vertices, are exactly V(g_t1).
    """
    _check_step(g_t1, g_t1.derived_from(d), p_t, d)
    removed = d.removed_vertices
    old = p_t.assignment
    assign = dict(old)
    members: dict[int, frozenset[int]] = {}
    alpha: dict[int, float] = {}
    beta: dict[int, float] = {}
    for c in p_t.community_ids:
        if c in plan.dissolve:
            continue
        members[c] = p_t.members(c)
        alpha[c] = p_t.alpha(c)
        beta[c] = p_t.beta(c) + plan.beta_shift.get(c, 0.0)
    edit = p_t.community_graph_edit(g_t1)

    # an added or a removed end is never in a carried community
    for u, v, dw in d.edge_changes:
        cu, cv = old.get(u), old.get(v)
        if cu in alpha and cv in alpha:
            if cu == cv:
                alpha[cu] += 2.0 * dw
            elif edit is not None:
                edit.shift(cu, cv, dw)

    leaving: dict[int, list[int]] = {}
    for v in removed:
        c = assign.pop(v)
        if c in members:  # an isolated vertex
            leaving.setdefault(c, []).append(v)
    freed = plan.freed
    in_order = sorted(freed)
    cut: dict[tuple[int, int], float] = {}  # summed per pair, so each pair shifts once
    for x in in_order:
        c = old[x]
        leaving.setdefault(c, []).append(x)
        inside = 0.0
        for y, w in g_t1.neighbors(x).items():
            if y < x and y in freed:
                continue  # taken from y
            cy = old.get(y)
            if cy == c:
                inside += w
            elif cy in alpha:
                cut[c, cy] = cut.get((c, cy), 0.0) + w
        alpha[c] -= 2.0 * inside
        beta[c] -= g_t1.strength(x)
    if edit is not None:
        for (c, cy), w in cut.items():
            edit.shift(c, cy, -w)
    for c, group in leaving.items():
        members[c] = members[c].difference(group)
        if not members[c]:
            del members[c], alpha[c], beta[c]

    top = max(p_t.community_ids, default=-1)
    next_id = top + 1
    singles = [v for c in sorted(plan.dissolve) for v in sorted(p_t.members(c))
               if v not in removed]
    for v in chain(singles, in_order, sorted(d.added_vertices)):
        assign[v] = next_id
        members[next_id] = frozenset((v,))
        alpha[next_id] = 0.0
        beta[next_id] = g_t1.strength(v)
        next_id += 1

    for pair in sorted(plan.pair_seeds, key=min):
        i, j = sorted(pair)
        for x in (i, j):  # pair endpoints are always singletons at this point
            old_c = assign[x]
            del members[old_c], alpha[old_c], beta[old_c]
        assign[i] = next_id
        assign[j] = next_id
        members[next_id] = frozenset(pair)
        alpha[next_id] = 2.0 * g_t1.weight(i, j)
        beta[next_id] = g_t1.strength(i) + g_t1.strength(j)
        next_id += 1

    if edit is not None:
        edit.drop(c for c in p_t.community_ids if c not in members)
        fresh = [c for c in members if c > top]
        edit.add(fresh)
        edit.pending = frozenset().union(*(members[c] for c in fresh))
    return Partition(assign, members, alpha, beta, edit, g_t1)


def dynamo_update(
    g_t1: WeightedGraph,
    g_t: WeightedGraph,
    p_t: Partition,
    d: GraphDelta,
) -> Partition:
    """Update the community structure across one snapshot transition.

    Level 0 of the resumed optimization starts from ``plan.seeds``, the
    vertices the delta freed and their neighbours; moves reach further from
    there. Carried communities keep their ids. ``p_t``'s community graph is
    edited into the result's rather than rebuilt; when ``p_t`` carries none,
    it is built once with :func:`compress`. Only a step that
    :func:`~dynamo.graph.apply_delta` recorded, ``g_t1 = apply_delta(g_t, d)``,
    is accepted; raises as :func:`init` does.
    """
    if p_t.community_graph is None and p_t.covers(g_t):
        p_t = p_t.with_community_graph(compress(g_t, p_t))
    plan = init(g_t1, g_t, p_t, d)
    return louvain(g_t1, initial=intermediate_partition(g_t1, p_t, plan, d), seeds=plan.seeds)


def _check_step(g_t1: WeightedGraph, g_t: Optional[WeightedGraph], p_t: Partition,
                d: GraphDelta) -> None:
    """The two checks that :func:`init` documents; ``g_t`` None is a step no graph recorded."""
    if g_t is None or g_t1.derived_from(d) is not g_t:
        raise InconsistentSnapshotsError(
            "the new snapshot was not built by apply_delta from the old snapshot and this delta")
    if not p_t.covers(g_t):
        raise UnknownVertexError("partition does not cover the old snapshot")

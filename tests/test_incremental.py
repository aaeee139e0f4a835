import gc
import random
import sys

import pytest

from dynamo.errors import (
    DuplicateVertexError,
    InconsistentSnapshotsError,
    SameCommunityError,
    UnknownVertexError,
)
from dynamo.graph import (
    EdgeChange,
    GraphDelta,
    Partition,
    VertexAddition,
    VertexRemoval,
    WeightedGraph,
    apply_delta,
    modularity,
    partition_rebuild_aggregates,
)
from dynamo.incremental import (
    ChangeKind,
    InitPlan,
    ccea_merge_threshold,
    classify,
    dynamo_update,
    init,
    intermediate_partition,
)
from dynamo.louvain import compress, louvain
from dynamo.metrics import nmi
from dynamo.synthgen import Churn, GenConfig, generate
from helpers import (
    PLANTED_5K,
    adjacency,
    community_graph_mismatch,
    exhaustive_best_partition,
    graph_of,
    modularity_pairwise,
    partition_of,
    random_graph,
    residual_movers,
)

TRIANGLES = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]


def two_triangles():
    g = graph_of(TRIANGLES)
    p = partition_of(g, [{0, 1, 2}, {3, 4, 5}])
    return g, p


def assert_exact_aggregates(g, p):
    """``p``'s alpha and beta match a rebuild from ``g``, and so does its community graph."""
    rebuilt = partition_rebuild_aggregates(g, p.assignment)
    assert set(p.community_ids) == set(rebuilt.community_ids)
    for c in p.community_ids:
        assert p.alpha(c) == pytest.approx(rebuilt.alpha(c), abs=1e-9)
        assert p.beta(c) == pytest.approx(rebuilt.beta(c), abs=1e-9)
    assert community_graph_mismatch(g, p) is None


class ReadCount:
    """The ``neighbors`` calls made on one graph.

    ``reads`` counts every call. ``evaluated`` counts those from
    ``local_moving_pass``, which reads each popped vertex's neighbors exactly
    once, so they count evaluations. Aggregated levels are other graphs, so
    only level 0 is counted.
    """

    def __init__(self):
        self.reads = 0
        self.evaluated = 0


@pytest.fixture
def count_reads(monkeypatch):
    """``count_reads(g)`` starts counting the ``neighbors`` calls on ``g`` and returns the count.

    The count patches the graph class instead of copying the graph, so a graph
    that apply_delta recorded keeps its record and the update accepts it.
    """
    watched = {}  # id -> (graph, its count); holding the graph keeps its id unique
    neighbors = WeightedGraph.neighbors

    def counted(g, u):
        entry = watched.get(id(g))
        if entry is not None:
            entry[1].reads += 1
            if sys._getframe(1).f_code.co_name == "local_moving_pass":
                entry[1].evaluated += 1
        return neighbors(g, u)

    monkeypatch.setattr(WeightedGraph, "neighbors", counted)

    def watch(g):
        count = ReadCount()
        watched[id(g)] = (g, count)
        return count
    return watch


@pytest.fixture(scope="module")
def planted_5k():
    g = generate(PLANTED_5K).graphs[0]
    return g, louvain(g)


def path_and_cycle():
    """A path and a cycle on one vertex set, and a delta that applies to both.

    Their weights differ, so the path's aggregates score the cycle's update
    at Q 1.02, above any modularity.
    """
    path = graph_of([(0, 1, 5.0), (1, 2, 0.1), (2, 3, 5.0), (3, 4, 0.1), (4, 5, 5.0)])
    cycle = graph_of([(0, 1, 0.1), (1, 2, 5.0), (2, 3, 0.1), (3, 4, 5.0), (4, 5, 0.1),
                      (5, 0, 5.0)])
    return path, cycle, GraphDelta(edge_changes=(EdgeChange(0, 3, 1.0),))


def three_triangles_with_bridges():
    # triangles A={0,1,2}, B={3,4,5}, C={6,7,8}; 0-3 links A to B
    edges = TRIANGLES + [(6, 7, 1.0), (7, 8, 1.0), (6, 8, 1.0), (0, 3, 0.5)]
    g = graph_of(edges)
    p = partition_of(g, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}])
    return g, p


NO_CHANGE = GraphDelta()
NOT_RECORDED = "not built by apply_delta from the old snapshot and this delta"


def assert_refused(g_t1, g_t, p, d):
    """``init`` and ``dynamo_update`` refuse ``g_t1`` as the step from ``g_t`` by ``d``.

    So does ``intermediate_partition``, which takes the old snapshot from the
    step that apply_delta recorded, and finds none for ``g_t1`` and ``d``.
    """
    for step in (init, dynamo_update):
        with pytest.raises(InconsistentSnapshotsError, match=NOT_RECORDED):
            step(g_t1, g_t, p, d)
    with pytest.raises(InconsistentSnapshotsError, match=NOT_RECORDED):
        intermediate_partition(g_t1, p, InitPlan(), d)


class TestClassify:
    def test_intra_increase(self):
        g, p = two_triangles()
        assert classify(g, p, EdgeChange(0, 1, 0.5), NO_CHANGE) is ChangeKind.ICEA_WI

    def test_cross_decrease(self):
        g, p = three_triangles_with_bridges()
        assert classify(g, p, EdgeChange(0, 3, -0.2), NO_CHANGE) is ChangeKind.CCED_WD

    def test_cross_increase_and_intra_decrease(self):
        g, p = two_triangles()
        assert classify(g, p, EdgeChange(2, 3, 1.0), NO_CHANGE) is ChangeKind.CCEA_WI
        assert classify(g, p, EdgeChange(0, 1, -0.5), NO_CHANGE) is ChangeKind.ICED_WD

    def test_vertex_events(self):
        g, p = two_triangles()
        assert classify(g, p, VertexAddition(9), NO_CHANGE) is ChangeKind.VERTEX_ADD
        assert classify(g, p, VertexRemoval(0), NO_CHANGE) is ChangeKind.VERTEX_DEL

    def test_edge_change_with_added_endpoint(self):
        g, p = two_triangles()
        d = GraphDelta(added_vertices=frozenset({9}),
                       edge_changes=(EdgeChange(9, 0, 1.0),))
        assert classify(g, p, d.edge_changes[0], d) is ChangeKind.VERTEX_ADD
        # only the delta says which vertices are new
        with pytest.raises(UnknownVertexError):
            classify(g, p, EdgeChange(9, 0, 1.0), NO_CHANGE)

    def test_edge_change_with_removed_endpoint(self):
        g, p = two_triangles()
        d = GraphDelta(removed_vertices=frozenset({0}),
                       edge_changes=(EdgeChange(0, 1, -1.0),))
        assert classify(g, p, d.edge_changes[0], d) is ChangeKind.VERTEX_DEL


class TestMergeThreshold:
    def test_two_disjoint_triangles_threshold_six(self):
        g, p = two_triangles()
        assert ccea_merge_threshold(g, p, 0, 3) == pytest.approx(6.0, abs=1e-9)

    def test_zero_degree_symmetry_case(self):
        # two isolated vertices; total weight comes from elsewhere
        g = graph_of(TRIANGLES[:3], vertices=[10, 11])
        p = partition_of(g, [{0, 1, 2}, {10}, {11}])
        assert ccea_merge_threshold(g, p, 10, 11) == pytest.approx(0.0, abs=1e-12)

    def test_same_community_rejected(self):
        g, p = two_triangles()
        with pytest.raises(SameCommunityError):
            ccea_merge_threshold(g, p, 0, 1)

    def test_partition_of_another_graph_rejected(self):
        # the same vertices, other edges: g1's aggregates give 6.083 on g2, where
        # the assignment rebuilt on g2 gives -2.0
        g1 = graph_of(TRIANGLES + [(2, 3, 1.0)])
        g2 = graph_of([(0, 1, 1.0), (0, 3, 1.0), (1, 4, 1.0), (2, 3, 1.0), (2, 5, 1.0),
                       (3, 4, 1.0)])
        p1 = louvain(g1)
        assert ccea_merge_threshold(
            g2, partition_rebuild_aggregates(g2, p1.assignment), 2, 3) == pytest.approx(-2.0)
        with pytest.raises(UnknownVertexError, match="^partition does not cover the graph$"):
            ccea_merge_threshold(g2, p1, 2, 3)

    def test_crossover_against_brute_force(self):
        # sign of (Q_merged - Q_unchanged) flips exactly at the threshold
        rng = random.Random(61)
        checked = 0
        while checked < 200:
            g = random_graph(rng, rng.randint(4, 10), 0.5)
            if g.total_weight == 0:
                continue
            labels = {v: rng.randint(0, 1) for v in g.vertices}
            if len(set(labels.values())) < 2:
                continue
            p = partition_rebuild_aggregates(g, labels)
            i, j = rng.sample(sorted(g.vertices), 2)
            if labels[i] == labels[j]:
                continue
            thr = ccea_merge_threshold(g, p, i, j)
            merged = {v: 0 for v in g.vertices}
            for dw in (thr * 0.5, thr - 0.01, thr + 0.01, thr * 2 + 0.02):
                if dw <= 0 or abs(dw - thr) < 1e-6:
                    continue
                g2 = apply_delta(g, GraphDelta(edge_changes=(EdgeChange(i, j, dw),)))
                q_unchanged = modularity_pairwise(g2, labels)
                q_merged = modularity_pairwise(g2, {**labels, **{
                    v: labels[i] for v in g.vertices if labels[v] == labels[j]}})
                assert (q_merged > q_unchanged) == (dw > thr), (
                    f"disagreement at dw={dw}, thr={thr}")
            checked += 1


class TestInitPlan:
    def test_empty_delta_empty_plan(self):
        g, p = two_triangles()
        d = GraphDelta()
        plan = init(apply_delta(g, d), g, p, d)
        assert plan == InitPlan()

    def test_icea_frees_endpoint_neighbourhood_and_seeds_pair(self):
        # A is the ring 0-1-2-3-4-5 with the chord 2-4, B the 4-clique 6..9,
        # bridged by 0-6: the increase on (0, 1) frees 0, 1 and their ring
        # neighbours 2 and 5, queues 0's outside neighbour 6, and A keeps 3, 4
        ring = [(i, (i + 1) % 6, 1.0) for i in range(6)] + [(2, 4, 1.0)]
        clique = [(u, v, 1.0) for u in range(6, 10) for v in range(u + 1, 10)]
        g = graph_of(ring + clique + [(0, 6, 0.5)])
        p = partition_of(g, [range(6), range(6, 10)])
        p = p.with_community_graph(compress(g, p))
        a = p.community_of(0)
        d = GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0),))
        g2 = apply_delta(g, d)
        plan = init(g2, g, p, d)
        assert plan.dissolve == frozenset()
        assert plan.freed == frozenset({0, 1, 2, 5})
        assert plan.pair_seeds == frozenset({frozenset({0, 1})})
        assert plan.seeds == frozenset({0, 1, 2, 5, 6})
        assert plan.beta_shift == {a: 2.0}
        inter = intermediate_partition(g2, p, plan, d)
        assert inter.members(a) == frozenset({3, 4})
        assert inter.members(inter.community_of(0)) == frozenset({0, 1})
        assert inter.community_of(2) != inter.community_of(5)
        assert_exact_aggregates(g2, inter)

    def test_icea_freeing_every_member_dissolves_the_community(self):
        g, p = two_triangles()
        d = GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0),))
        plan = init(apply_delta(g, d), g, p, d)
        assert plan.dissolve == frozenset({p.community_of(0)})
        assert plan.freed == frozenset()
        assert plan.pair_seeds == frozenset({frozenset({0, 1})})

    def test_ccea_below_threshold_keeps_structure(self):
        g, p = two_triangles()
        d = GraphDelta(edge_changes=(EdgeChange(2, 3, 1.0),))
        plan = init(apply_delta(g, d), g, p, d)
        assert (plan.dissolve, plan.pair_seeds) == (frozenset(), frozenset())
        assert plan.beta_shift == {p.community_of(2): 1.0, p.community_of(3): 1.0}

    def test_ccea_above_threshold_dissolves_both(self):
        g, p = two_triangles()
        d = GraphDelta(edge_changes=(EdgeChange(2, 3, 7.0),))
        plan = init(apply_delta(g, d), g, p, d)
        assert plan.dissolve == frozenset(p.community_ids)
        assert plan.pair_seeds == frozenset({frozenset({2, 3})})

    def test_ccea_merge_decision_against_brute_force(self):
        # init merges iff the merged labeling beats the unchanged one after the
        # change; graphs are denser inside the two labels, so both outcomes occur
        rng = random.Random(83)
        checked = merges = 0
        while checked < 200:
            n = rng.randint(4, 10)
            labels = {v: rng.randint(0, 1) for v in range(n)}
            g = graph_of(
                [(u, v, rng.uniform(0.5, 2.0)) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < (0.7 if labels[u] == labels[v] else 0.15)],
                vertices=range(n))
            if g.total_weight == 0 or len(set(labels.values())) < 2:
                continue
            p = partition_rebuild_aggregates(g, labels)
            i, j = rng.sample(range(n), 2)
            if labels[i] == labels[j]:
                continue
            dw = rng.uniform(0.01, 1.0) * g.total_weight
            d = GraphDelta(edge_changes=(EdgeChange(i, j, dw),))
            g2 = apply_delta(g, d)
            q_unchanged = modularity_pairwise(g2, labels)
            q_merged = modularity_pairwise(g2, {v: 0 for v in g.vertices})
            if abs(q_merged - q_unchanged) < 1e-9:
                continue
            plan = init(g2, g, p, d)
            if q_merged > q_unchanged:
                assert plan.dissolve == frozenset(p.community_ids)
                assert plan.pair_seeds == frozenset({frozenset({i, j})})
                merges += 1
            else:
                assert (plan.dissolve, plan.pair_seeds) == (frozenset(), frozenset())
                assert plan.beta_shift == {p.community_of(i): dw, p.community_of(j): dw}
            checked += 1
        assert 0 < merges < checked

    def test_cced_no_entries(self):
        g, p = three_triangles_with_bridges()
        d = GraphDelta(edge_changes=(EdgeChange(0, 3, -0.2),))
        plan = init(apply_delta(g, d), g, p, d)
        assert (plan.dissolve, plan.pair_seeds) == (frozenset(), frozenset())
        assert plan.beta_shift == {p.community_of(0): -0.2, p.community_of(3): -0.2}

    def test_iced_dissolves_only_its_community(self):
        g, p = three_triangles_with_bridges()
        d = GraphDelta(edge_changes=(EdgeChange(0, 1, -0.5),))
        plan = init(apply_delta(g, d), g, p, d)
        # 0's neighbor 3 keeps B and is only queued; nothing touches C
        assert plan.dissolve == frozenset({p.community_of(0)})
        assert plan.pair_seeds == frozenset()
        assert plan.seeds == frozenset({0, 1, 2, 3})
        assert plan.beta_shift == {}

    def test_vertex_deletion_dissolves_only_its_community(self):
        g, p = three_triangles_with_bridges()
        d = GraphDelta(removed_vertices=frozenset({0}))
        plan = init(apply_delta(g, d), g, p, d)
        assert plan.dissolve == frozenset({p.community_of(0)})
        assert plan.seeds == frozenset({1, 2, 3})
        assert plan.beta_shift == {p.community_of(3): -0.5}  # the dropped bridge

    def test_vertex_addition_queues_neighbors_without_dissolving(self):
        g, p = three_triangles_with_bridges()
        d = GraphDelta(added_vertices=frozenset({9}),
                       edge_changes=(EdgeChange(9, 6, 2.0), EdgeChange(9, 3, 1.0)))
        plan = init(apply_delta(g, d), g, p, d)
        assert (plan.dissolve, plan.pair_seeds) == (frozenset(), frozenset())
        assert plan.seeds == frozenset({3, 6, 9})
        assert plan.beta_shift == {p.community_of(6): 2.0, p.community_of(3): 1.0}

    def test_vertex_addition_joins_best_gain_not_heaviest_community(self):
        # a dense 5-clique D and a triangle T; the newcomer's heavier edge goes
        # into D, whose strength makes T the better community to join
        edges = [(u, v, 1.0) for u in range(5) for v in range(u + 1, 5)]
        edges += [(5, 6, 1.0), (6, 7, 1.0), (5, 7, 1.0), (0, 5, 0.1)]
        g = graph_of(edges)
        p = partition_of(g, [range(5), range(5, 8)])
        d = GraphDelta(added_vertices=frozenset({9}),
                       edge_changes=(EdgeChange(9, 0, 1.1), EdgeChange(9, 5, 1.0)))
        g2 = apply_delta(g, d)
        into = {c: modularity_pairwise(g2, {**p.assignment, 9: c}) for c in p.community_ids}
        heaviest, best = p.community_of(0), p.community_of(5)
        assert into[best] > into[heaviest]
        assert init(g2, g, p, d).pair_seeds == frozenset()
        out = dynamo_update(g2, g, p, d)
        assert out.members(out.community_of(9)) == frozenset({5, 6, 7, 9})

    def test_vertex_addition_tie_prefers_smallest_id(self):
        # equal weights into two equal-strength communities: local moving's tie
        # break sends the newcomer to the smaller community id
        g, p = two_triangles()
        d = GraphDelta(added_vertices=frozenset({9}),
                       edge_changes=(EdgeChange(9, 3, 1.0), EdgeChange(9, 2, 1.0)))
        g2 = apply_delta(g, d)
        assert init(g2, g, p, d).pair_seeds == frozenset()
        out = dynamo_update(g2, g, p, d)
        assert out.community_of(9) == out.community_of(2) == min(p.community_ids)
        assert out.members(out.community_of(3)) == frozenset({3, 4, 5})

    def test_isolated_vertex_addition_stays_singleton(self):
        g, p = two_triangles()
        d = GraphDelta(added_vertices=frozenset({9}))
        g2 = apply_delta(g, d)
        plan = init(g2, g, p, d)
        assert plan == InitPlan(seeds=frozenset({9}))
        out = dynamo_update(g2, g, p, d)
        assert out.members(out.community_of(9)) == frozenset({9})

    def test_cross_changes_accumulate_beta_shift_in_edge_order(self):
        g, p = three_triangles_with_bridges()
        d = GraphDelta(edge_changes=(EdgeChange(0, 3, -0.2), EdgeChange(2, 6, 0.1),
                                     EdgeChange(0, 3, 0.3)))
        plan = init(apply_delta(g, d), g, p, d)
        a, b, c = p.community_of(0), p.community_of(3), p.community_of(6)
        assert plan.dissolve == frozenset()
        assert plan.beta_shift == {a: -0.2 + 0.1 + 0.3, b: -0.2 + 0.3, c: 0.1}

    def test_pair_seed_last_writer_wins(self):
        g, p = two_triangles()
        d = GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0), EdgeChange(1, 2, 1.0)))
        plan = init(apply_delta(g, d), g, p, d)
        assert plan.pair_seeds == frozenset({frozenset({1, 2})})
        inter = intermediate_partition(apply_delta(g, d), p, plan, d)
        assert inter.members(inter.community_of(0)) == frozenset({0})

    def test_edge_joining_added_and_removed_vertex(self):
        # (0, 9) joins a removed and an added vertex: it is created, then dropped
        # with vertex 0, so neither vertex's handling sees it. 0 dissolves its
        # own community A and queues its neighbors; 9 queues 7 and shifts C's
        # beta, but the intra-community increase (7, 8) then frees all of C,
        # which dissolves it.
        g, p = three_triangles_with_bridges()
        d = GraphDelta(added_vertices=frozenset({9}), removed_vertices=frozenset({0}),
                       edge_changes=(EdgeChange(9, 7, 1.5), EdgeChange(7, 8, 1.0),
                                     EdgeChange(0, 9, 1.0)))
        g2 = apply_delta(g, d)
        assert g2.weight(0, 9) == 0.0
        assert classify(g, p, d.edge_changes[2], d) is ChangeKind.VERTEX_DEL
        plan = init(g2, g, p, d)
        assert plan.dissolve == frozenset(p.community_of(v) for v in (0, 6))
        assert plan.pair_seeds == frozenset({frozenset({7, 8})})
        assert plan.freed == frozenset()
        assert plan.seeds == frozenset({1, 2, 3, 6, 7, 8, 9})
        assert plan.beta_shift == {p.community_of(3): -0.5}
        inter = intermediate_partition(g2, p, plan, d)
        assert inter.members(inter.community_of(9)) == frozenset({9})
        rebuilt = partition_rebuild_aggregates(g2, inter.assignment)
        for c in inter.community_ids:
            assert inter.alpha(c) == pytest.approx(rebuilt.alpha(c), abs=1e-9)
            assert inter.beta(c) == pytest.approx(rebuilt.beta(c), abs=1e-9)

    @pytest.mark.parametrize("dw", [1e-9, 1.0])
    def test_edge_to_vertex_in_neither_snapshot_rejected(self, dw):
        # apply_delta refuses the delta, so no recorded step carries it, however
        # small its weight
        g, p = two_triangles()
        d = GraphDelta(edge_changes=(EdgeChange(0, 9, dw),))
        with pytest.raises(UnknownVertexError, match="vertex 9"):
            apply_delta(g, d)
        assert_refused(g, g, p, d)

    def test_vertex_sets_must_follow_the_delta(self):
        g, p = two_triangles()
        grown = apply_delta(g, GraphDelta(added_vertices=frozenset({6})))
        for g_t1, d in ((grown, GraphDelta()),
                        (g, GraphDelta(added_vertices=frozenset({6}))),
                        (g, GraphDelta(removed_vertices=frozenset({5})))):
            assert_refused(g_t1, g, p, d)

    def test_inconsistent_snapshots_rejected(self):
        g, p = two_triangles()
        d = GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0),))
        assert_refused(g, g, p, d)  # claimed delta was never applied
        wrong = apply_delta(g, GraphDelta(edge_changes=(EdgeChange(0, 1, 2.0),)))
        assert_refused(wrong, g, p, d)
        moved = apply_delta(g, GraphDelta(edge_changes=(EdgeChange(3, 4, 1.0),)))
        assert_refused(moved, g, p, d)  # same total weight, on another edge
        readd = GraphDelta(added_vertices=frozenset({5}))  # g already holds 5
        with pytest.raises(DuplicateVertexError):
            apply_delta(g, readd)
        assert_refused(g, g, p, readd)

    def test_moved_edge_rejected(self):
        # vertex sets, the changed edge and the total weight all agree; only
        # edge (4, 5), which the delta leaves alone, has moved to (0, 5)
        g = graph_of(TRIANGLES + [(2, 3, 1.0)])
        p = louvain(g)
        d = GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0),))
        moved = apply_delta(g, GraphDelta(edge_changes=(
            EdgeChange(0, 1, 1.0), EdgeChange(4, 5, -1.0), EdgeChange(0, 5, 1.0))))
        assert_refused(moved, g, p, d)

    def test_partition_of_another_graph_rejected(self):
        path, cycle, d = path_and_cycle()
        # a raw partition that misses vertex 5 and carries no community graph,
        # which dynamo_update must not aggregate before init has checked it
        raw = Partition({v: 0 for v in range(5)}, {0: frozenset(range(5))}, {0: 0.0}, {0: 0.0})
        for p_t in (louvain(path), raw):
            for step in (init, dynamo_update):
                with pytest.raises(UnknownVertexError,
                                   match="partition does not cover the old snapshot"):
                    step(apply_delta(cycle, d), cycle, p_t, d)
            with pytest.raises(UnknownVertexError,
                               match="partition does not cover the old snapshot"):
                intermediate_partition(apply_delta(cycle, d), p_t, InitPlan(), d)

    def test_intermediate_partition_of_another_graph_rejected(self):
        # a plan made on the path's own step, materialized on the cycle's: a
        # result covering the cycle's step would let louvain from it report
        # Q 1.0231 where the pairwise Q of its assignment is 0.4177
        path, cycle, d = path_and_cycle()
        p = louvain(path)
        plan = init(apply_delta(path, d), path, p, d)
        with pytest.raises(UnknownVertexError, match="partition does not cover the old snapshot"):
            intermediate_partition(apply_delta(cycle, d), p, plan, d)


class TestSnapshotRecord:
    """The update accepts only a step that apply_delta recorded, and compares no graphs."""

    def test_apply_delta_pair_skips_the_full_check(self):
        # the recorded step is accepted as it stands, with no graph compared
        g, p = two_triangles()
        d = GraphDelta(added_vertices=frozenset({6}), removed_vertices=frozenset({5}),
                       edge_changes=(EdgeChange(0, 1, 1.0), EdgeChange(6, 4, 2.0)))
        g1 = apply_delta(g, d)
        assert_exact_aggregates(g1, dynamo_update(g1, g, p, d))

    def test_rebuilt_copy_is_refused(self):
        g, p = two_triangles()
        d = GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0), EdgeChange(2, 3, 0.5)))
        rebuilt = WeightedGraph(adjacency(apply_delta(g, d)))
        assert rebuilt == apply_delta(g, d)
        assert_refused(rebuilt, g, p, d)

    def test_other_delta_or_predecessor_is_refused(self):
        g, p = two_triangles()
        d = GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0),))
        g1 = apply_delta(g, d)
        equal = GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0),))
        assert equal == d and equal is not d
        assert_refused(g1, g, p, equal)
        assert_refused(g1, g, p, GraphDelta(edge_changes=(EdgeChange(0, 1, 2.0),)))
        other = apply_delta(g, GraphDelta(edge_changes=(EdgeChange(3, 4, 1.0),)))
        for step in (init, dynamo_update):
            with pytest.raises(InconsistentSnapshotsError, match=NOT_RECORDED):
                step(g1, other, p, d)
        # intermediate_partition takes the predecessor from g1's record, which
        # a partition of the other graph does not cover
        with pytest.raises(UnknownVertexError, match="partition does not cover the old snapshot"):
            intermediate_partition(g1, partition_of(other, [{0, 1, 2}, {3, 4, 5}]), InitPlan(), d)

    def test_delta_built_from_mutable_containers_keeps_what_was_applied(self):
        # two triangles joined by (2, 3); the caller's list and set change after
        # apply_delta recorded the step, which must not change the delta
        g = graph_of(TRIANGLES + [(2, 3, 1.0)])
        p = louvain(g)
        changes = [EdgeChange(0, 1, 1.0)]
        d = GraphDelta(edge_changes=changes)
        g1 = apply_delta(g, d)
        changes.append(EdgeChange(2, 3, 0.25))
        p1 = dynamo_update(g1, g, p, d)
        assert modularity(g1, p1) == pytest.approx(modularity_pairwise(g1, p1.assignment),
                                                   abs=1e-12)
        assert_exact_aggregates(g1, p1)

        added = {6}
        d = GraphDelta(added, (), [(6, 0, 1.0)])
        g2 = apply_delta(g1, d)
        added.add(7)
        assert_exact_aggregates(g2, dynamo_update(g2, g1, p1, d))

    def test_dead_record_is_refused(self):
        g, p = two_triangles()
        d = GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0),))
        g1 = apply_delta(WeightedGraph(adjacency(g)), d)  # its predecessor dies here
        gc.collect()
        assert g1.derived_from(d) is None
        assert_refused(g1, g, p, d)
        grown = apply_delta(g, GraphDelta(added_vertices=frozenset({6})))
        with pytest.raises(InconsistentSnapshotsError, match=NOT_RECORDED):
            init(g1, grown, p, d)

    def test_intermediate_partition_records_only_a_checked_step(self):
        g, p = two_triangles()
        d = GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0),))
        g1 = apply_delta(g, d)
        plan = init(g1, g, p, d)
        rebuilt = WeightedGraph(adjacency(g1))
        checked = intermediate_partition(g1, p, plan, d)
        assert checked.covers(g1) and not checked.covers(rebuilt)  # records g1
        # an equal copy has no record, so it is refused rather than left unrecorded
        with pytest.raises(InconsistentSnapshotsError, match=NOT_RECORDED):
            intermediate_partition(rebuilt, p, plan, d)
        # so is a partition of another vertex set, before louvain would check it
        smaller = Partition.from_assignment(
            apply_delta(g, GraphDelta(removed_vertices=frozenset({5}))),
            {v: c for v, c in p.assignment.items() if v != 5})
        with pytest.raises(UnknownVertexError, match="partition does not cover the old snapshot"):
            intermediate_partition(g1, smaller, plan, d)


def star_plus_path(degree):
    """Hub 0 joined to 1..degree, which also form a path."""
    return graph_of([(0, v, 1.0) for v in range(1, degree + 1)]
                    + [(v, v + 1, 1.0) for v in range(1, degree)])


class TestOnePassInit:
    def test_each_edge_change_classified_once(self, monkeypatch):
        import dynamo.incremental as incremental
        g = star_plus_path(12)
        p = louvain(g)
        d = GraphDelta(added_vertices=frozenset({20}), removed_vertices=frozenset({0}),
                       edge_changes=(EdgeChange(20, 3, 1.0), EdgeChange(20, 7, 2.0),
                                     EdgeChange(5, 6, -0.5), EdgeChange(20, 11, 1.0),
                                     EdgeChange(1, 12, 0.5)))
        calls = []

        def counting(*args):
            calls.append(args[2])
            return classify(*args)

        monkeypatch.setattr(incremental, "classify", counting)
        g2 = apply_delta(g, d)
        out = dynamo_update(g2, g, p, d)
        assert calls == list(d.edge_changes)
        assert set(out.assignment) == set(g2.vertices)

    def test_removing_a_hub_reads_its_row_a_few_times(self, count_reads):
        g0 = star_plus_path(100)
        p = louvain(g0)
        d = GraphDelta(removed_vertices=frozenset({0}))
        g1 = apply_delta(g0, d)
        count = count_reads(g0)
        plan = init(g1, g0, p, d)
        assert count.reads <= 3  # one read per edge would be 100
        hub = p.community_of(0)
        assert plan.dissolve == frozenset({hub})
        assert plan.seeds == frozenset(range(1, 101))
        assert plan.beta_shift == {c: -float(len(p.members(c)))
                                   for c in p.community_ids if c != hub}

    def test_adding_a_hub_reads_its_row_once(self, count_reads):
        g = graph_of([(v, v + 1, 1.0) for v in range(1, 100)])
        p = louvain(g)
        d = GraphDelta(added_vertices=frozenset({0}),
                       edge_changes=tuple(EdgeChange(0, v, 1.0) for v in range(1, 101)))
        g1 = apply_delta(g, d)
        count = count_reads(g1)
        plan = init(g1, g, p, d)
        assert count.reads == 1
        assert (plan.dissolve, plan.pair_seeds) == (frozenset(), frozenset())
        assert plan.seeds == frozenset(range(101))
        assert plan.beta_shift == {c: float(len(p.members(c))) for c in p.community_ids}

    def test_graphless_partition_compresses_once(self, planted_5k, count_reads):
        # 50 cross-community additions: each merge test reads the community
        # graph, which a partition without one must build, once for the batch
        g, p = planted_5k
        p.community_graph  # finish a pending edit before counting
        ends = sorted(g.vertices)
        pairs = [(u, v) for u, v in zip(ends, reversed(ends))
                 if u < v and p.community_of(u) != p.community_of(v) and not g.weight(u, v)]
        d = GraphDelta(edge_changes=tuple(EdgeChange(u, v, 1.0) for u, v in pairs[:50]))
        assert len(d.edge_changes) == 50
        g1 = apply_delta(g, d)
        bare = Partition.from_assignment(g, p.assignment)
        count = count_reads(g)
        plan = init(g1, g, p, d)
        carried = count.reads
        count = count_reads(g)
        assert init(g1, g, bare, d) == plan
        assert count.reads <= carried + g.num_vertices


class TestIntermediatePartition:
    def test_aggregates_match_rebuild_on_random_churn(self):
        rng = random.Random(71)
        from helpers import random_delta
        for _ in range(60):
            g = random_graph(rng, rng.randint(4, 16), 0.5)
            if g.total_weight == 0:
                continue
            p = louvain(g)
            d = random_delta(rng, g)
            g2 = apply_delta(g, d)
            if g2.total_weight == 0:
                continue
            plan = init(g2, g, p, d)
            inter = intermediate_partition(g2, p, plan, d)
            rebuilt = partition_rebuild_aggregates(g2, inter.assignment)
            assert set(inter.assignment) == set(g2.vertices)
            for c in inter.community_ids:
                assert inter.alpha(c) == pytest.approx(rebuilt.alpha(c), abs=1e-9)
                assert inter.beta(c) == pytest.approx(rebuilt.beta(c), abs=1e-9)
            # its pending community-graph edit, finished on first access
            assert community_graph_mismatch(g2, inter) is None

    def test_deleted_vertices_dropped(self):
        g, p = three_triangles_with_bridges()
        d = GraphDelta(removed_vertices=frozenset({0}))
        g2 = apply_delta(g, d)
        inter = intermediate_partition(g2, p, init(g2, g, p, d), d)
        assert 0 not in inter.assignment
        assert set(inter.assignment) == set(g2.vertices)


class TestDynamoUpdate:
    def test_empty_delta_is_noop_up_to_relabeling(self):
        g, p = two_triangles()
        d = GraphDelta()
        out = dynamo_update(apply_delta(g, d), g, p, d)
        assert nmi(p, out) == pytest.approx(1.0, abs=1e-12)

    def test_heavy_bridge_reaches_exhaustive_optimum(self):
        g, p = two_triangles()
        d = GraphDelta(edge_changes=(EdgeChange(2, 3, 7.0),))
        g2 = apply_delta(g, d)
        out = dynamo_update(g2, g, p, d)
        best, q_best = exhaustive_best_partition(g2)
        assert modularity(g2, out) == pytest.approx(q_best, abs=1e-9)
        assert out.as_sets() == best.as_sets()
        assert out.community_of(2) == out.community_of(3)

    def test_bridge_deletion_restores_triangles(self):
        g, _ = two_triangles()
        bridged = apply_delta(g, GraphDelta(edge_changes=(EdgeChange(2, 3, 7.0),)))
        p = louvain(bridged)
        d = GraphDelta(edge_changes=(EdgeChange(2, 3, -7.0),))
        back = apply_delta(bridged, d)
        out = dynamo_update(back, bridged, p, d)
        assert out.as_sets() == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]

    def test_never_below_intermediate(self):
        rng = random.Random(73)
        from helpers import random_delta
        for _ in range(40):
            g = random_graph(rng, rng.randint(4, 14), 0.5)
            if g.total_weight == 0:
                continue
            p = louvain(g)
            d = random_delta(rng, g)
            g2 = apply_delta(g, d)
            if g2.total_weight == 0:
                continue
            plan = init(g2, g, p, d)
            inter = intermediate_partition(g2, p, plan, d)
            out = louvain(g2, initial=inter)
            assert modularity(g2, out) >= modularity(g2, inter) - 1e-12
            resumed = dynamo_update(g2, g, p, d)
            assert modularity(g2, resumed) >= modularity(g2, inter) - 1e-12

    def test_update_chain_aggregates_stay_exact(self):
        rng = random.Random(79)
        from helpers import random_delta
        g = random_graph(rng, 14, 0.5)
        p = louvain(g)
        for _ in range(12):
            d = random_delta(rng, g)
            g2 = apply_delta(g, d)
            if g2.total_weight == 0:
                break
            p = dynamo_update(g2, g, p, d)
            rebuilt = partition_rebuild_aggregates(g2, p.assignment)
            for c in p.community_ids:
                assert p.alpha(c) == pytest.approx(rebuilt.alpha(c), abs=1e-9)
                assert p.beta(c) == pytest.approx(rebuilt.beta(c), abs=1e-9)
            assert modularity(g2, p) == pytest.approx(
                modularity_pairwise(g2, p.assignment), abs=1e-9)
            g = g2

    def test_empty_delta_evaluates_no_vertex_at_level_0(self, planted_5k, count_reads):
        g, p = planted_5k
        d = GraphDelta()
        g1 = apply_delta(g, d)
        count = count_reads(g1)
        out = dynamo_update(g1, g, p, d)
        assert count.evaluated == 0
        assert out.as_sets() == p.as_sets()

    def test_cross_decrease_evaluates_few_vertices_at_level_0(self, planted_5k, count_reads):
        g, p = planted_5k
        u, v, w = next((u, v, w) for u, v, w in sorted(g.edges())
                       if p.community_of(u) != p.community_of(v))
        d = GraphDelta(edge_changes=(EdgeChange(u, v, -w),))
        g1 = apply_delta(g, d)
        count = count_reads(g1)
        out = dynamo_update(g1, g, p, d)
        # a full sweep would evaluate all 5,000 vertices at least once
        assert 2 <= count.evaluated <= 50
        assert out.as_sets() == p.as_sets()

    def test_vertex_addition_evaluates_few_vertices_at_level_0(self, planted_5k, count_reads):
        # dissolving the three touched communities and re-forming them from
        # singletons evaluates thousands of vertices
        g, p = planted_5k
        targets = sorted(min(p.members(c)) for c in p.community_ids)[:3]
        x = max(g.vertices) + 1
        d = GraphDelta(added_vertices=frozenset({x}),
                       edge_changes=tuple(EdgeChange(x, t, 1.0) for t in targets))
        g1 = apply_delta(g, d)
        count = count_reads(g1)
        out = dynamo_update(g1, g, p, d)
        assert count.evaluated <= 50
        assert out.num_communities == p.num_communities

    def test_intra_increase_evaluates_few_vertices_at_level_0(self, planted_5k, count_reads):
        # dissolving the 250-vertex community and re-forming it from
        # singletons evaluates over 800 vertices
        g, p = planted_5k
        u, v, w = next((u, v, w) for u, v, w in sorted(g.edges())
                       if p.community_of(u) == p.community_of(v))
        x, y = next((x, y) for x in sorted(g.vertices)
                    for y in sorted(p.members(p.community_of(x)))
                    if x < y and g.weight(x, y) == 0.0)
        for d in (GraphDelta(edge_changes=(EdgeChange(u, v, 1.0),)),
                  GraphDelta(edge_changes=(EdgeChange(x, y, 1.0),))):
            g1 = apply_delta(g, d)
            count = count_reads(g1)
            out = dynamo_update(g1, g, p, d)
            assert count.evaluated <= 150
            assert out.as_sets() == p.as_sets()

    def test_iced_dissolves_exactly_one_community(self, planted_5k):
        g, p = planted_5k
        u, v, w = next((u, v, w) for u, v, w in sorted(g.edges())
                       if p.community_of(u) == p.community_of(v))
        d = GraphDelta(edge_changes=(EdgeChange(u, v, -w),))
        plan = init(apply_delta(g, d), g, p, d)
        assert plan.dissolve == frozenset({p.community_of(u)})
        assert plan.seeds == (frozenset(g.neighbors(u)) | frozenset(g.neighbors(v))
                              | p.members(p.community_of(u)))

    def test_vertex_events_shift_carried_communities(self, planted_5k):
        # a newcomer wired into two carried communities and a removed vertex
        # with neighbors in a third: only the removed vertex's community dissolves
        g, p = planted_5k
        first, second, third = sorted(p.community_ids, key=lambda c: min(p.members(c)))[:3]
        r = min(p.members(third))
        x = max(g.vertices) + 1
        wires = [(t, 0.5 + i) for i, t in enumerate(sorted(p.members(first))[:2]
                                                     + sorted(p.members(second))[:3])]
        d = GraphDelta(added_vertices=frozenset({x}), removed_vertices=frozenset({r}),
                       edge_changes=tuple(EdgeChange(x, t, w) for t, w in wires))
        g2 = apply_delta(g, d)
        plan = init(g2, g, p, d)
        assert plan.dissolve == frozenset({third})
        assert plan.pair_seeds == frozenset()
        assert {first, second} <= plan.beta_shift.keys()
        inter = intermediate_partition(g2, p, plan, d)
        rebuilt = partition_rebuild_aggregates(g2, inter.assignment)
        for c in inter.community_ids:
            assert inter.alpha(c) == pytest.approx(rebuilt.alpha(c), abs=1e-9)
            assert inter.beta(c) == pytest.approx(rebuilt.beta(c), abs=1e-9)
        assert community_graph_mismatch(g2, inter) is None

    def test_cross_deletion_reads_few_rows(self, planted_5k, count_reads):
        # every neighbors read of the update, on both snapshots: rebuilding the
        # level-1 graph from the new snapshot alone would read all 5,000 rows
        g0, p = planted_5k
        u, v, w = next((u, v, w) for u, v, w in sorted(g0.edges())
                       if p.community_of(u) != p.community_of(v))
        d = GraphDelta(edge_changes=(EdgeChange(u, v, -w),))
        g1 = apply_delta(g0, d)
        old, new = count_reads(g0), count_reads(g1)
        out = dynamo_update(g1, g0, p, d)
        assert old.reads + new.reads <= 100
        assert out.as_sets() == p.as_sets()
        assert community_graph_mismatch(g1, out) is None

    def test_compress_reads_each_row_once(self, planted_5k, count_reads):
        # the aggregation that an update without a carried graph falls back on
        g, p = planted_5k
        count = count_reads(g)
        h = compress(g, p)
        assert count.reads == g.num_vertices
        assert sorted(h.edges()) == sorted(p.community_graph.edges())

    def test_untouched_communities_share_member_sets(self, planted_5k):
        # local moving rebuilds only the member sets its movers left or joined
        g, p = planted_5k
        u, v, w = next((u, v, w) for u, v, w in sorted(g.edges())
                       if p.community_of(u) != p.community_of(v))
        d = GraphDelta(edge_changes=(EdgeChange(u, v, -w),))
        out = dynamo_update(apply_delta(g, d), g, p, d)
        untouched = [c for c in p.community_ids if u not in p.members(c) and v not in p.members(c)]
        assert len(untouched) == p.num_communities - 2
        assert all(out.members(c) is p.members(c) for c in untouched)

    def test_vertex_removal_keeps_untouched_member_sets(self):
        # a removed vertex with edges dissolves its own community, so no other
        # carried community loses a member and none needs a new set
        g = generate(GenConfig(seed=3, num_communities=10, community_size=60, p_in=0.2,
                               p_out=0.002)).graphs[0]
        p = louvain(g)
        v = next(v for v in sorted(g.vertices)
                 if len({p.community_of(u) for u in (v, *g.neighbors(v))}) == 3)
        d = GraphDelta(removed_vertices=frozenset({v}))
        out = dynamo_update(apply_delta(g, d), g, p, d)
        near = {p.community_of(u) for u in (v, *g.neighbors(v))}
        untouched = [c for c in p.community_ids if c not in near]
        assert len(untouched) == 7
        assert all(out.members(c) is p.members(c) for c in untouched)

    def test_carried_communities_keep_their_ids(self):
        g, p = three_triangles_with_bridges()
        d = GraphDelta(edge_changes=(EdgeChange(6, 7, 1.0),))  # dissolves C = {6, 7, 8}
        g2 = apply_delta(g, d)
        out = dynamo_update(g2, g, p, d)
        assert out.as_sets() == p.as_sets()
        assert all(out.community_of(v) == p.community_of(v) for v in range(6))
        assert out.community_of(6) > max(p.community_ids)
        assert community_graph_mismatch(g2, out) is None

    def test_partition_without_community_graph(self, planted_5k):
        # a partition built by the plain constructor gets its community graph
        # built once; the update is the same as from the carrying partition
        g, p = planted_5k
        bare = Partition(dict(p.assignment), {c: p.members(c) for c in p.community_ids},
                         {c: p.alpha(c) for c in p.community_ids},
                         {c: p.beta(c) for c in p.community_ids})
        assert bare.community_graph is None
        u, v, w = next((u, v, w) for u, v, w in sorted(g.edges())
                       if p.community_of(u) == p.community_of(v))
        d = GraphDelta(edge_changes=(EdgeChange(u, v, 2.0),))
        g2 = apply_delta(g, d)
        out = dynamo_update(g2, g, bare, d)
        assert out.assignment == dynamo_update(g2, g, p, d).assignment
        assert community_graph_mismatch(g2, out) is None

    def test_update_mutates_none_of_its_inputs(self):
        scenario = generate(GenConfig(
            seed=5, num_communities=4, community_size=15, p_in=0.4, p_out=0.03,
            num_snapshots=12, churn=Churn(icea=1, ccea=2, iced=1, cced=2,
                                          vertex_add=1, vertex_del=1)))
        graphs = scenario.graphs

        def state(g, g1, p):
            h = p.community_graph
            return (adjacency(g), {x: g.strength(x) for x in g.vertices},
                    adjacency(g1), dict(p.assignment),
                    {c: (p.members(c), p.alpha(c), p.beta(c)) for c in p.community_ids},
                    adjacency(h), {c: h.self_weight(c) for c in h.vertices})

        p = louvain(graphs[0])
        for k in range(1, len(graphs)):
            before = state(graphs[k - 1], graphs[k], p)
            out = dynamo_update(graphs[k], graphs[k - 1], p, scenario.snapshots[k].delta)
            assert state(graphs[k - 1], graphs[k], p) == before
            assert community_graph_mismatch(graphs[k], out) is None
            p = out

    def test_growth_stream_leaves_few_residual_movers(self):
        # addition-only churn like the growth-events benchmark stream
        scenario = generate(GenConfig(
            seed=1, num_communities=8, community_size=50, p_in=0.2, p_out=0.004,
            num_snapshots=60, weight_range=(1.0, 3.0),
            churn=Churn(icea=3, ccea=2, vertex_add=1)))
        assert scenario.addition_only
        graphs = scenario.graphs
        p = louvain(graphs[0])
        for k in range(1, len(graphs)):
            p = dynamo_update(graphs[k], graphs[k - 1], p, scenario.snapshots[k].delta)
            assert residual_movers(graphs[k], p) <= 0.01 * graphs[k].num_vertices


@pytest.fixture(scope="module")
def blocks_600():
    g = generate(GenConfig(seed=3, num_communities=10, community_size=60, p_in=0.2,
                           p_out=0.002, weight_range=(1.0, 3.0))).graphs[0]
    return g, louvain(g)


class TestIntraIncreaseBatches:
    """Intra-community increases batched with changes that meet their neighbourhoods.

    Each batch's intermediate partition and update must keep alpha, beta and
    the community graph exact, whether the increase's community survives with
    its freed members taken out or another change dissolves it.
    """

    @staticmethod
    def plan_and_check(g, p, d):
        g2 = apply_delta(g, d)
        plan = init(g2, g, p, d)
        assert_exact_aggregates(g2, intermediate_partition(g2, p, plan, d))
        assert_exact_aggregates(g2, dynamo_update(g2, g, p, d))
        return plan

    @staticmethod
    def intra_edges(g, p, c):
        return [(u, v) for u, v, _ in sorted(g.edges())
                if p.community_of(u) == p.community_of(v) == c]

    def test_two_increases_with_overlapping_neighbourhoods(self, blocks_600):
        g, p = blocks_600
        c = p.community_of(0)
        a, b = self.intra_edges(g, p, c)[0]
        x, y = next((x, y) for x, y in self.intra_edges(g, p, c)
                    if x in g.neighbors(a) and not {x, y} & {a, b})
        d = GraphDelta(edge_changes=(EdgeChange(a, b, 1.5), EdgeChange(x, y, 0.7)))
        plan = self.plan_and_check(g, p, d)
        assert plan.dissolve == frozenset()
        assert {a, b, x, y} <= plan.freed < p.members(c)
        assert plan.pair_seeds == frozenset({frozenset({a, b}), frozenset({x, y})})

    def test_increases_free_both_ends_of_a_cross_edge(self, blocks_600):
        # the cross edge (x, y) leaves the community graph once, not twice; it
        # joins the pair of communities with the largest cross weight, which
        # stays positive either way, so finishing the edit cannot repair it
        g, p = blocks_600
        h = p.community_graph
        x, y = max(((x, y) for x, y, _ in sorted(g.edges())
                    if p.community_of(x) != p.community_of(y)),
                   key=lambda e: h.weight(p.community_of(e[0]), p.community_of(e[1])))
        inc = [EdgeChange(v, min(u for u in g.neighbors(v)
                                 if p.community_of(u) == p.community_of(v)), 1.0)
               for v in (x, y)]
        plan = self.plan_and_check(g, p, GraphDelta(edge_changes=tuple(inc)))
        assert plan.dissolve == frozenset()
        assert {x, y} <= plan.freed

    def test_increase_and_decrease_in_one_community(self, blocks_600):
        g, p = blocks_600
        c = p.community_of(0)
        (a, b), (x, y) = self.intra_edges(g, p, c)[:2]
        d = GraphDelta(edge_changes=(EdgeChange(a, b, 1.5), EdgeChange(x, y, -0.5)))
        plan = self.plan_and_check(g, p, d)
        assert plan.dissolve == frozenset({c})
        assert plan.freed == frozenset()

    def test_increase_next_to_a_removed_vertex(self, blocks_600):
        # an endpoint's neighbour in another community is removed: that
        # community dissolves, and the increase's community survives
        g, p = blocks_600
        a, b, r = next((a, b, r) for a, b, _ in sorted(g.edges())
                       if p.community_of(a) == p.community_of(b)
                       for r in sorted(g.neighbors(a)) if p.community_of(r) != p.community_of(a))
        d = GraphDelta(removed_vertices=frozenset({r}), edge_changes=(EdgeChange(a, b, 2.0),))
        plan = self.plan_and_check(g, p, d)
        assert plan.dissolve == frozenset({p.community_of(r)})
        assert {a, b} <= plan.freed < p.members(p.community_of(a))

    def test_increase_pair_overwritten_by_a_merge_pair(self, blocks_600):
        g, p = blocks_600
        c = p.community_of(0)
        a, b = self.intra_edges(g, p, c)[0]
        z = min(v for v in g.vertices if p.community_of(v) != c)
        d = GraphDelta(edge_changes=(EdgeChange(a, b, 1.5), EdgeChange(b, z, 200.0)))
        assert d.edge_changes[1].delta_w > ccea_merge_threshold(g, p, b, z)
        plan = self.plan_and_check(g, p, d)
        assert plan.dissolve == frozenset({c, p.community_of(z)})
        assert plan.freed == frozenset()
        assert plan.pair_seeds == frozenset({frozenset({b, z})})


class TestCommunitySplitOnInternalIncrease:
    # an intra-community addition where the optimum splits the enlarged
    # community while keeping the endpoints together (found by exhaustive
    # search over random graphs, then frozen)
    EDGES = [(0, 1, 1.249), (0, 3, 1.999), (0, 6, 0.759), (1, 5, 0.762),
             (2, 3, 0.668), (3, 4, 0.625), (3, 5, 0.705), (3, 6, 1.128)]

    def test_split_beats_unchanged_and_update_attains_it(self):
        g = graph_of(self.EDGES)
        p, _ = exhaustive_best_partition(g)
        assert p.community_of(2) == p.community_of(4)  # intra-community pair

        d = GraphDelta(edge_changes=(EdgeChange(2, 4, 3.0),))
        g2 = apply_delta(g, d)
        best, q_best = exhaustive_best_partition(g2)

        # the enlarged community splits, yet 2 and 4 stay together
        old_members = p.members(p.community_of(2))
        assert len({best.community_of(v) for v in old_members}) > 1
        assert best.community_of(2) == best.community_of(4)

        q_unchanged = modularity(g2, partition_rebuild_aggregates(g2, p.assignment))
        assert q_best > q_unchanged

        out = dynamo_update(g2, g, p, d)
        assert modularity(g2, out) >= q_unchanged
        assert modularity(g2, out) == pytest.approx(q_best, abs=1e-9)

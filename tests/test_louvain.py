import gc
import random

import pytest

from dynamo.errors import EmptyGraphError, UnknownVertexError
from dynamo.graph import (
    GraphDelta,
    Partition,
    WeightedGraph,
    apply_delta,
    modularity,
    partition_rebuild_aggregates,
)
from dynamo.louvain import compress, local_moving_pass, louvain
from helpers import (
    community_graph_mismatch,
    exhaustive_best_partition,
    graph_of,
    modularity_pairwise,
    partition_of,
    random_graph,
)

TRIANGLES = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]


# bridged(1.0)'s vertices with other edges: the same vertex set, so only the
# recorded graph tells a partition of one from a partition of the other
REWIRED = [(0, 1, 1.0), (0, 3, 1.0), (1, 4, 1.0), (2, 3, 1.0), (2, 5, 1.0), (3, 4, 1.0)]


def bridged(w: float) -> WeightedGraph:
    return graph_of(TRIANGLES + [(2, 3, w)])


class TestLocalMovingPass:
    def test_two_triangles_from_singletons(self):
        g = graph_of(TRIANGLES)
        p = local_moving_pass(g, Partition.singletons(g))
        assert p.as_sets() == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
        assert modularity(g, p) == pytest.approx(0.5, abs=1e-9)
        # exhaustive search confirms 0.5 is the optimum over all partitions
        _, q_best = exhaustive_best_partition(g)
        assert q_best == pytest.approx(0.5, abs=1e-9)

    def test_local_optimum_is_fixed_point(self):
        g = graph_of(TRIANGLES)
        p0 = partition_of(g, [{0, 1, 2}, {3, 4, 5}])
        p = local_moving_pass(g, p0)
        assert p == p0

    def test_single_edge_merges(self):
        g = graph_of([(0, 1, 1.0)])
        p = local_moving_pass(g, Partition.singletons(g))
        assert p.as_sets() == [frozenset({0, 1})]
        # gain is +0.5: from Q=-0.5 to Q=0
        assert modularity(g, p) == pytest.approx(0.0, abs=1e-12)

    def test_emptied_communities_dropped(self):
        g = graph_of(TRIANGLES)
        p = local_moving_pass(g, Partition.singletons(g))
        assert p.num_communities == 2
        assert set(p.community_ids) == {p.community_of(0), p.community_of(3)}

    def test_aggregates_match_rebuild_after_moves(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 20), 0.5)
            if g.total_weight == 0:
                continue
            p = local_moving_pass(g, Partition.singletons(g))
            rebuilt = partition_rebuild_aggregates(g, p.assignment)
            for c in p.community_ids:
                assert p.alpha(c) == pytest.approx(rebuilt.alpha(c), abs=1e-9)
                assert p.beta(c) == pytest.approx(rebuilt.beta(c), abs=1e-9)


    def test_default_start_equals_the_singleton_partition(self):
        # the default start builds no member sets, yet must give what starting
        # from Partition.singletons gives: the same assignment and member sets,
        # aggregates bit for bit, and the community order modularity sums in
        rng = random.Random(41)
        graphs = []
        for _ in range(12):
            g = random_graph(rng, rng.randint(2, 40), rng.uniform(0.05, 0.5))
            if g.total_weight > 0:
                # compress carries alpha as self weights
                graphs += [g, compress(g, local_moving_pass(g, Partition.singletons(g)))]
        # vertex 0 re-added last, so vertex order is not id order
        g = graphs[0]
        g = apply_delta(apply_delta(g, GraphDelta(removed_vertices={0})),
                        GraphDelta({0}, (), [(0, 1, 1.5), (0, 2, 0.5)]))
        graphs.append(g)
        for g in graphs:
            vertices = sorted(g.vertices)
            for seeds in (None, (), vertices[::2], rng.sample(vertices, len(vertices) // 3)):
                ours = local_moving_pass(g, seeds=seeds)
                theirs = local_moving_pass(g, Partition.singletons(g), seeds)
                assert list(ours.assignment.items()) == list(theirs.assignment.items())
                assert list(ours.community_ids) == list(theirs.community_ids)
                for c in ours.community_ids:
                    assert ours.members(c) == theirs.members(c)
                    assert ours.alpha(c).hex() == theirs.alpha(c).hex()
                    assert ours.beta(c).hex() == theirs.beta(c).hex()
                assert ours.covers(g)
                assert modularity(g, ours).hex() == modularity(g, theirs).hex()
            ours, theirs = louvain(g), louvain(g, Partition.singletons(g))
            assert list(ours.assignment.items()) == list(theirs.assignment.items())
            assert [(c, ours.alpha(c).hex(), ours.beta(c).hex()) for c in ours.community_ids] == [
                (c, theirs.alpha(c).hex(), theirs.beta(c).hex()) for c in theirs.community_ids]

    def test_zero_weight_graph_raises(self):
        g = graph_of([], vertices=[0, 1])
        with pytest.raises(EmptyGraphError,
                           match="^local moving undefined for zero-weight graphs$"):
            local_moving_pass(g)

    def test_refuses_a_partition_of_another_graph(self):
        # g1's aggregates would score the pass's result on g2 at Q 0.6944, where
        # its assignment rebuilt on g2 scores 0.2083
        g1, g2 = bridged(1.0), graph_of(REWIRED)
        with pytest.raises(UnknownVertexError,
                           match="^initial partition does not cover the graph$"):
            local_moving_pass(g2, louvain(g1))

    def test_unknown_seed_raises(self):
        g = bridged(1.0)
        with pytest.raises(UnknownVertexError, match="^seed vertex 99 is not in the graph$"):
            local_moving_pass(g, louvain(g), seeds={99})

    def test_result_records_the_graph_a_raw_partition_covers(self):
        # a partition built from its dicts alone covers by vertex set
        g = bridged(1.0)
        p = louvain(g)
        raw = Partition(dict(p.assignment), {c: p.members(c) for c in p.community_ids},
                        {c: p.alpha(c) for c in p.community_ids},
                        {c: p.beta(c) for c in p.community_ids})
        out = local_moving_pass(g, raw)
        assert out.covers(g)
        assert not out.covers(bridged(1.0))  # equal, but another graph


class TestCompress:
    def test_identity_compression_of_singletons(self):
        g = bridged(1.0)
        comp = compress(g, Partition.singletons(g))
        assert comp.num_vertices == g.num_vertices
        assert all(comp.self_weight(v) == 0.0 for v in comp.vertices)
        assert comp.total_weight == pytest.approx(g.total_weight, abs=1e-9)

    def test_two_triangles_with_bridge(self):
        g = bridged(1.0)
        p = partition_of(g, [{0, 1, 2}, {3, 4, 5}])
        comp = compress(g, p)
        assert comp.num_vertices == 2
        assert comp.self_weight(0) == pytest.approx(6.0, abs=1e-12)
        assert comp.self_weight(1) == pytest.approx(6.0, abs=1e-12)
        assert comp.neighbors(0)[1] == pytest.approx(1.0, abs=1e-12)

    def test_single_community_self_weight_two_m(self):
        g = graph_of(TRIANGLES)
        p = partition_of(g, [set(g.vertices)])
        comp = compress(g, p)
        assert comp.num_vertices == 1
        assert comp.self_weight(0) == pytest.approx(2.0 * g.total_weight, abs=1e-9)

    def test_total_weight_preserved(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 25), 0.4)
            if g.total_weight == 0:
                continue
            labels = {v: rng.randrange(4) for v in g.vertices}
            p = partition_rebuild_aggregates(g, labels)
            comp = compress(g, p)
            assert comp.total_weight == pytest.approx(g.total_weight, abs=1e-9)

    def test_modularity_preserved_under_identity_partition(self):
        rng = random.Random(37)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 25), 0.4)
            if g.total_weight == 0:
                continue
            labels = {v: rng.randrange(4) for v in g.vertices}
            p = partition_rebuild_aggregates(g, labels)
            comp = compress(g, p)
            assert modularity(comp, Partition.singletons(comp)) == pytest.approx(
                modularity(g, p), abs=1e-9)

    def test_result_is_weighted_graph_named_by_community_ids(self):
        g = bridged(1.0)
        p = partition_rebuild_aggregates(g, {0: 7, 1: 7, 2: 7, 3: 12, 4: 12, 5: 12})
        comp = compress(g, p)
        assert isinstance(comp, WeightedGraph)
        assert sorted(comp.vertices) == sorted(p.community_ids) == [7, 12]
        assert dict(comp.neighbors(7)) == {12: pytest.approx(1.0, abs=1e-12)}
        assert comp.self_weight(7) == pytest.approx(6.0, abs=1e-12)
        assert comp.strength(7) == pytest.approx(7.0, abs=1e-12)

    def test_equality_tells_self_weights_apart(self):
        g = bridged(1.0)
        comp = compress(g, partition_of(g, [{0, 1, 2}, {3, 4, 5}]))
        plain = graph_of([(0, 1, 1.0)])
        assert dict(comp.neighbors(0)) == dict(plain.neighbors(0))
        assert comp != plain
        assert comp == compress(g, partition_of(g, [{0, 1, 2}, {3, 4, 5}]))
        # zero self weights compare equal to none
        assert compress(plain, Partition.singletons(plain)) == plain

    def test_double_compression_carries_alpha(self):
        g = bridged(1.0)
        p = partition_of(g, [{0, 1, 2}, {3, 4, 5}])
        comp = compress(g, p)
        comp2 = compress(comp, partition_of(comp, [{0, 1}]))
        assert comp2.self_weight(0) == pytest.approx(2.0 * g.total_weight, abs=1e-9)

    def test_refuses_a_partition_of_another_graph(self):
        # g1's aggregates on g2 would give strengths summing to 14.0 where 2m is 12.0
        with pytest.raises(UnknownVertexError, match="^partition does not cover the graph$"):
            compress(graph_of(REWIRED), louvain(bridged(1.0)))


class TestLouvain:
    def test_weak_bridge_keeps_triangles(self):
        g = bridged(0.5)
        p = louvain(g)
        assert p.as_sets() == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
        best, q_best = exhaustive_best_partition(g)
        assert modularity(g, p) == pytest.approx(q_best, abs=1e-9)

    def test_heavy_bridge_pairs_endpoints(self):
        # frozen from the exhaustive oracle: the optimum pairs each triangle's
        # outer vertices and keeps the bridge endpoints 2 and 3 together
        g = bridged(10.0)
        best, q_best = exhaustive_best_partition(g)
        assert best.as_sets() == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})]
        p = louvain(g)
        assert p.community_of(2) == p.community_of(3)
        assert p.as_sets() == best.as_sets()
        assert modularity(g, p) == pytest.approx(q_best, abs=1e-9)

    def test_start_from_optimum_is_identity(self):
        g = bridged(0.5)
        opt = louvain(g)
        again = louvain(g, initial=opt)
        assert again == opt

    def test_monotone_from_initial(self):
        rng = random.Random(41)
        cases = []
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 20), 0.4)
            if g.total_weight == 0:
                continue
            cases.append((g, {v: rng.randrange(3) for v in g.vertices}))
        # compressed graphs carry self weights, like louvain's upper levels
        coarse = random.Random(42)
        for g, _ in list(cases):
            k = coarse.randint(2, max(2, g.num_vertices // 2))
            blocks = partition_rebuild_aggregates(
                g, {v: coarse.randrange(k) for v in g.vertices})
            h = compress(g, blocks)
            cases.append((h, {v: coarse.randrange(3) for v in h.vertices}))
        for g, labels in cases:
            initial = partition_rebuild_aggregates(g, labels)
            out = louvain(g, initial=initial)
            assert modularity(g, out) >= modularity(g, initial) - 1e-12
            assert modularity(g, out) == pytest.approx(
                modularity_pairwise(g, out.assignment), abs=1e-9)

    def test_deterministic(self):
        rng = random.Random(43)
        g = random_graph(rng, 30, 0.3)
        assert louvain(g) == louvain(g)

    def test_community_ids_are_stable(self):
        # level 0 keeps the initial ids, and a community merged at a higher
        # level takes the id of the one it joins: nothing is renumbered
        g = bridged(0.5)
        initial = partition_rebuild_aggregates(g, {0: 7, 1: 7, 2: 9, 3: 12, 4: 12, 5: 13})
        out = louvain(g, initial=initial, seeds=set())
        assert out.as_sets() == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
        assert set(out.community_ids) <= {7, 9, 12, 13}
        assert community_graph_mismatch(g, out) is None
        again = louvain(g, initial=out)
        assert again.assignment == out.assignment
        assert community_graph_mismatch(g, again) is None

    def test_empty_graph_error(self):
        g = graph_of([], vertices=[0, 1])
        with pytest.raises(EmptyGraphError):
            louvain(g)

    @pytest.mark.parametrize("vertices", [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5, 6],
                                          [0, 1, 2, 3, 4, 6]])
    def test_initial_must_cover_graph(self, vertices):
        # missing, extra, and as many vertices as the graph but not the same ones
        g = bridged(0.5)
        other = graph_of([], vertices=vertices)
        with pytest.raises(UnknownVertexError, match="initial partition does not cover"):
            louvain(g, initial=Partition.singletons(other))

    def test_result_records_only_its_own_graph(self):
        # a detection result skips the cover check on its graph and covers no
        # other one, not even one with its vertices but other weights
        g = bridged(0.5)
        p = louvain(g)
        assert p.covers(g)
        assert louvain(g, initial=p).assignment == p.assignment
        caller_built = Partition.from_assignment(g, p.assignment)
        assert caller_built.covers(g)
        for other in (graph_of(TRIANGLES + [(2, 3, 0.5), (5, 6, 1.0)]),
                      graph_of(TRIANGLES[:4]), bridged(2.0)):
            assert not p.covers(other)
            with pytest.raises(UnknownVertexError, match="initial partition does not cover"):
                louvain(other, initial=p)
            with pytest.raises(UnknownVertexError):
                modularity(other, p)

    def test_result_keeps_refusing_a_graph_once_its_own_is_dropped(self):
        # the record is the graph itself, not a weak reference that dies with it:
        # otherwise the vertex sets match and the path's aggregates score the cycle
        path = graph_of([(0, 1, 5.0), (1, 2, 0.1), (2, 3, 5.0), (3, 4, 0.1), (4, 5, 5.0)])
        cycle = graph_of([(0, 1, 0.1), (1, 2, 5.0), (2, 3, 0.1), (3, 4, 5.0), (4, 5, 0.1),
                          (5, 0, 5.0)])
        p = louvain(path)
        with pytest.raises(UnknownVertexError):
            modularity(cycle, p)
        del path
        gc.collect()
        with pytest.raises(UnknownVertexError):
            modularity(cycle, p)

    def test_unknown_seed_raises(self):
        g = bridged(0.5)
        with pytest.raises(UnknownVertexError):
            louvain(g, seeds={0, 99})

    def test_empty_seeds_leave_level_0_untouched(self):
        g = bridged(0.5)
        assert louvain(g, seeds=()).as_sets() == Partition.singletons(g).as_sets()
        # upper levels still run, but only merge whole initial communities
        initial = partition_of(g, [{0, 1}, {2}, {3, 4}, {5}])
        out = louvain(g, initial=initial, seeds=set())
        for block in initial.as_sets():
            assert len({out.community_of(v) for v in block}) == 1
        assert out.as_sets() == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]

    def test_unfolded_aggregates_match_rebuild(self):
        rng = random.Random(53)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 30), 0.3)
            if g.total_weight == 0:
                continue
            p = louvain(g)
            rebuilt = partition_rebuild_aggregates(g, p.assignment)
            for c in p.community_ids:
                assert p.alpha(c) == pytest.approx(rebuilt.alpha(c), abs=1e-9)
                assert p.beta(c) == pytest.approx(rebuilt.beta(c), abs=1e-9)
            assert modularity(g, p) == pytest.approx(
                modularity_pairwise(g, p.assignment), abs=1e-9)
            assert community_graph_mismatch(g, p) is None

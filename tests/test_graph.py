import random

import pytest
from hypothesis import given, settings, strategies as st

from dynamo import (
    DuplicateVertexError,
    EdgeChange,
    EmptyGraphError,
    GraphDelta,
    NegativeWeightError,
    Partition,
    SelfLoopError,
    UnknownVertexError,
    WeightedGraph,
    apply_delta,
    diff,
    modularity,
    partition_rebuild_aggregates,
)
from helpers import modularity_pairwise, random_delta, random_graph

TRIANGLES = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]


def two_triangles() -> WeightedGraph:
    return WeightedGraph.from_edges(TRIANGLES)


class TestWeightedGraph:
    def test_parallel_edges_collapse(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 0, 2.5)])
        assert g.weight(0, 1) == 3.5
        assert g.num_edges == 1
        assert g.total_weight == 3.5

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            WeightedGraph.from_edges([(3, 3, 1.0)])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(NegativeWeightError):
            WeightedGraph.from_edges([(0, 1, 0.0)])
        with pytest.raises(NegativeWeightError):
            WeightedGraph.from_edges([(0, 1, -2.0)])
        for w in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(NegativeWeightError):
                WeightedGraph.from_edges([(0, 1, w)])

    def test_isolated_vertices(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)], vertices=[7])
        assert g.has_vertex(7)
        assert g.strength(7) == 0.0
        assert g.num_vertices == 3

    def test_strength_and_total_weight_consistency(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 30), 0.4)
            for v in g.vertices:
                assert g.strength(v) == pytest.approx(
                    sum(g.neighbors(v).values()), abs=1e-9)
            assert g.total_weight == pytest.approx(
                0.5 * sum(g.strength(v) for v in g.vertices), abs=1e-9)


class TestApplyDelta:
    def test_empty_delta_is_identity(self):
        g = two_triangles()
        assert apply_delta(g, GraphDelta.empty()) == g

    def test_remove_vertex_drops_incident_edges(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        out = apply_delta(g, GraphDelta(removed_vertices=frozenset({1})))
        assert set(out.vertices) == {0}
        assert out.num_edges == 0
        assert out.total_weight == 0.0

    def test_triangle_weight_increase(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        out = apply_delta(g, GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0),)))
        assert out.weight(0, 1) == 2.0
        assert out.total_weight == 4.0
        # strengths recomputed by direct summation
        assert out.strength(0) == 3.0
        assert out.strength(1) == 3.0
        assert out.strength(2) == 2.0

    def test_input_snapshot_unmodified(self):
        g = two_triangles()
        before = g.copy_adjacency()
        apply_delta(g, GraphDelta(edge_changes=(EdgeChange(0, 3, 2.0),),
                                  added_vertices=frozenset({9})))
        assert g.copy_adjacency() == before

    def test_decrease_to_zero_deletes_edge(self):
        g = WeightedGraph.from_edges([(0, 1, 1.5), (1, 2, 1.0)])
        out = apply_delta(g, GraphDelta(edge_changes=(EdgeChange(0, 1, -1.5),)))
        assert not out.has_edge(0, 1)
        assert out.has_vertex(0)

    def test_excessive_decrease_rejected(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        with pytest.raises(NegativeWeightError):
            apply_delta(g, GraphDelta(edge_changes=(EdgeChange(0, 1, -2.0),)))

    def test_unknown_vertex_in_edge_change(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        with pytest.raises(UnknownVertexError):
            apply_delta(g, GraphDelta(edge_changes=(EdgeChange(0, 5, 1.0),)))

    def test_duplicate_vertex_addition(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        with pytest.raises(DuplicateVertexError):
            apply_delta(g, GraphDelta(added_vertices=frozenset({0})))

    def test_remove_unknown_vertex(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        with pytest.raises(UnknownVertexError):
            apply_delta(g, GraphDelta(removed_vertices=frozenset({9})))

    def test_edge_to_added_vertex(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        out = apply_delta(g, GraphDelta(added_vertices=frozenset({2}),
                                        edge_changes=(EdgeChange(1, 2, 0.5),)))
        assert out.weight(1, 2) == 0.5

    def test_vertex_and_removed_overlap_rejected(self):
        with pytest.raises(ValueError):
            GraphDelta(added_vertices=frozenset({3}), removed_vertices=frozenset({3}))


class TestDiff:
    def test_identity(self):
        g = two_triangles()
        assert diff(g, g).is_empty()

    def test_weight_change(self):
        a = WeightedGraph.from_edges([(0, 1, 1.0)])
        b = WeightedGraph.from_edges([(0, 1, 2.5)])
        d = diff(a, b)
        assert d.edge_changes == (EdgeChange(0, 1, 1.5),)

    def test_vertex_removal_lists_edge_deletions(self):
        a = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        b = WeightedGraph.from_edges([(0, 1, 1.0)])
        d = diff(a, b)
        assert d.removed_vertices == frozenset({2})
        assert {(c.u, c.v) for c in d.edge_changes} == {(0, 2), (1, 2)}
        assert apply_delta(a, d) == b

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_round_trip_random(self, seed_a, seed_b):
        rng = random.Random(seed_a * 99991 + seed_b)
        g = random_graph(rng, rng.randint(2, 12), 0.5)
        d = random_delta(rng, g)
        g2 = apply_delta(g, d)
        recovered = diff(g, g2)
        assert apply_delta(g, recovered) == g2


class TestModularity:
    def test_two_triangles_half(self):
        g = two_triangles()
        p = Partition.from_communities(g, [{0, 1, 2}, {3, 4, 5}])
        assert modularity(g, p) == pytest.approx(0.5, abs=1e-9)
        assert modularity_pairwise(g, p.assignment) == pytest.approx(0.5, abs=1e-9)

    def test_single_community_zero(self):
        g = two_triangles()
        p = Partition.from_communities(g, [{0, 1, 2, 3, 4, 5}])
        assert modularity(g, p) == pytest.approx(0.0, abs=1e-12)

    def test_single_edge_singletons(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        assert modularity(g, Partition.singletons(g)) == pytest.approx(-0.5, abs=1e-9)

    def test_empty_graph_error(self):
        g = WeightedGraph.from_edges([], vertices=[0, 1])
        with pytest.raises(EmptyGraphError):
            modularity(g, Partition.singletons(g))

    def test_partition_must_cover_graph(self):
        g = two_triangles()
        p = Partition.from_communities(g, [{0, 1, 2}, {3, 4, 5}])
        bigger = apply_delta(g, GraphDelta(added_vertices=frozenset({6})))
        with pytest.raises(UnknownVertexError):
            modularity(bigger, p)

    def test_form_equivalence_random(self):
        # community-aggregate form against the pairwise double sum
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 50), 0.3)
            if g.total_weight == 0:
                continue
            labels = {v: rng.randrange(4) for v in g.vertices}
            p = partition_rebuild_aggregates(g, labels)
            assert modularity(g, p) == pytest.approx(
                modularity_pairwise(g, labels), abs=1e-9)

    def test_bounds(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 12), 0.6)
            if g.total_weight == 0:
                continue
            labels = {v: rng.randrange(3) for v in g.vertices}
            q = modularity(g, partition_rebuild_aggregates(g, labels))
            assert -1.0 - 1e-9 <= q <= 1.0 + 1e-9


class TestPartitionAggregates:
    def test_two_triangles_aggregates(self):
        g = two_triangles()
        p = partition_rebuild_aggregates(g, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
        for c in p.community_ids:
            assert p.alpha(c) == pytest.approx(6.0, abs=1e-12)
            assert p.beta(c) == pytest.approx(6.0, abs=1e-12)

    def test_singletons_on_unit_edge(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0)])
        p = Partition.singletons(g)
        for c in p.community_ids:
            assert p.alpha(c) == 0.0
            assert p.beta(c) == 1.0

    def test_one_community_unit_triangle(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        p = Partition.from_communities(g, [{0, 1, 2}])
        c = next(iter(p.community_ids))
        assert p.alpha(c) == pytest.approx(6.0, abs=1e-12)
        assert p.beta(c) == pytest.approx(6.0, abs=1e-12)
        assert g.total_weight == 3.0

    def test_beta_sums_to_two_m(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 25), 0.4)
            labels = {v: rng.randrange(5) for v in g.vertices}
            p = partition_rebuild_aggregates(g, labels)
            total_beta = sum(p.beta(c) for c in p.community_ids)
            assert total_beta == pytest.approx(2.0 * g.total_weight, abs=1e-9)

    def test_assignment_must_cover(self):
        g = two_triangles()
        with pytest.raises(UnknownVertexError):
            partition_rebuild_aggregates(g, {0: 0, 1: 0})

    def test_relabeled_canonical(self):
        g = two_triangles()
        p = partition_rebuild_aggregates(g, {0: 9, 1: 9, 2: 9, 3: 4, 4: 4, 5: 4})
        assert p.relabeled() == {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}

import gc
import random
import weakref

import pytest

from dynamo.errors import (
    DuplicateVertexError,
    EmptyGraphError,
    NegativeWeightError,
    SelfLoopError,
    UnknownVertexError,
)
from dynamo.graph import (
    EdgeChange,
    GraphDelta,
    Partition,
    WeightedGraph,
    apply_delta,
    modularity,
    partition_rebuild_aggregates,
)
from dynamo.louvain import louvain
from dynamo.synthgen import generate
from helpers import (
    PLANTED_5K,
    adjacency,
    graph_of,
    modularity_pairwise,
    partition_of,
    random_graph,
)

TRIANGLES = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]


def two_triangles() -> WeightedGraph:
    return graph_of(TRIANGLES)


class TestWeightedGraph:
    def test_parallel_edges_collapse(self):
        g = graph_of([(0, 1, 1.0), (1, 0, 2.5)])
        assert g.weight(0, 1) == 3.5
        assert g.num_edges == 1
        assert g.total_weight == 3.5

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            graph_of([(3, 3, 1.0)])

    def test_isolated_vertices(self):
        g = graph_of([(0, 1, 1.0)], vertices=[7])
        assert 7 in g.vertices
        assert g.strength(7) == 0.0
        assert g.num_vertices == 3

    def test_unknown_vertex_reads_raise(self):
        g = graph_of([(0, 1, 1.0)])
        with pytest.raises(UnknownVertexError, match="^vertex 99 not in graph$"):
            g.neighbors(99)
        with pytest.raises(UnknownVertexError, match="^vertex 99 not in graph$"):
            g.strength(99)

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
        assert apply_delta(g, GraphDelta()) == g

    def test_remove_vertex_drops_incident_edges(self):
        g = graph_of([(0, 1, 1.0)])
        out = apply_delta(g, GraphDelta(removed_vertices=frozenset({1})))
        assert set(out.vertices) == {0}
        assert out.num_edges == 0
        assert out.total_weight == 0.0

    def test_triangle_weight_increase(self):
        g = graph_of([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        out = apply_delta(g, GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0),)))
        assert out.weight(0, 1) == 2.0
        assert out.total_weight == 4.0
        # strengths recomputed by direct summation
        assert out.strength(0) == 3.0
        assert out.strength(1) == 3.0
        assert out.strength(2) == 2.0

    def test_new_edge_holds_the_delta_float(self):
        # a created edge stores the change's own float (0.0 + dw == dw); an
        # existing edge stores old + dw, bit for bit
        dw = float("2.75")
        g = graph_of([(0, 1, 0.1)])
        out = apply_delta(g, GraphDelta(frozenset({2}), frozenset(),
                                        (EdgeChange(1, 2, dw), EdgeChange(0, 1, 0.2))))
        assert out.weight(1, 2) is dw and out.weight(2, 1) is dw
        assert out.weight(0, 1).hex() == (0.1 + 0.2).hex() != 0.3.hex()

    def test_input_snapshot_unmodified(self):
        g = two_triangles()
        before = adjacency(g)
        apply_delta(g, GraphDelta(edge_changes=(EdgeChange(0, 3, 2.0),),
                                  added_vertices=frozenset({9})))
        assert adjacency(g) == before

    def test_shares_untouched_rows_and_matches_rebuild_on_planted_stream(self):
        # every snapshot of the planted 5k stream: strengths and m are
        # bit-identical to a graph built from scratch, the input is unchanged,
        # and rows the delta does not touch are shared, not copied
        g = WeightedGraph.empty()
        for snap in generate(PLANTED_5K).snapshots:
            before = adjacency(g)
            before_strength = {v: g.strength(v) for v in g.vertices}
            before_m = g.total_weight
            g1 = apply_delta(g, snap.delta)
            fresh = WeightedGraph(adjacency(g1))
            assert adjacency(g1) == adjacency(fresh)
            assert all(g1.strength(v) == fresh.strength(v) for v in fresh.vertices)
            assert g1.total_weight == fresh.total_weight
            assert adjacency(g) == before
            assert {v: g.strength(v) for v in g.vertices} == before_strength
            assert g.total_weight == before_m
            touched = {x for ec in snap.delta.edge_changes for x in (ec.u, ec.v)}
            assert all(g1.neighbors(v) is g.neighbors(v)
                       for v in g.vertices if v not in touched)
            g = g1

    def test_decrease_to_zero_deletes_edge(self):
        g = graph_of([(0, 1, 1.5), (1, 2, 1.0)])
        out = apply_delta(g, GraphDelta(edge_changes=(EdgeChange(0, 1, -1.5),)))
        assert out.weight(0, 1) == 0.0
        assert 0 in out.vertices

    def test_decrease_residue_deletes_edge(self):
        # 0.1 + 0.2 - 0.3 leaves about 5.6e-17, not 0.0: a decrease that ends
        # that close to zero deletes the edge
        g = graph_of([(0, 1, 0.1), (1, 2, 1.0)])
        g = apply_delta(g, GraphDelta(edge_changes=(EdgeChange(0, 1, 0.2),)))
        assert 0.0 < g.weight(0, 1) - 0.3 < 1e-12
        out = apply_delta(g, GraphDelta(edge_changes=(EdgeChange(0, 1, -0.3),)))
        assert out.weight(0, 1) == 0.0 and 1 not in out.neighbors(0)
        assert out.total_weight == 1.0

    def test_tiny_increase_is_an_edge(self):
        # every strictly positive, finite weight is an edge, however small
        g = apply_delta(WeightedGraph.empty(),
                        GraphDelta(frozenset({0, 1, 2}), frozenset(), ((0, 1, 1e-13),)))
        assert g.weight(0, 1) == 1e-13 and g.num_edges == 1
        out = apply_delta(g, GraphDelta(edge_changes=((1, 2, 1e-13), (0, 1, 1e-13))))
        assert (out.weight(1, 2), out.weight(0, 1)) == (1e-13, 2e-13)
        assert out.num_edges == 2
        assert out.total_weight == WeightedGraph(adjacency(out)).total_weight > 0.0

    def test_removing_an_aggregated_vertex_keeps_the_survivors_self_weights(self):
        # three triangles in a row, one community each: the level-1 graph is a
        # path of three vertices whose self weights are the triangles' alpha
        g = graph_of(TRIANGLES + [(6, 7, 1.0), (7, 8, 1.0), (6, 8, 1.0),
                                  (2, 3, 0.5), (5, 6, 0.5)])
        h = louvain(g).community_graph
        assert h.num_vertices == 3
        gone = min(h.vertices)
        assert h.self_weight(gone) > 0.0
        out = apply_delta(h, GraphDelta(removed_vertices=frozenset({gone})))
        assert gone not in out.vertices and out.self_weight(gone) == 0.0
        for v in out.vertices:
            assert out.self_weight(v) == h.self_weight(v) > 0.0
            assert out.strength(v) == sum(out.neighbors(v).values()) + out.self_weight(v)
        assert out.total_weight == 0.5 * sum(out.strength(v) for v in out.vertices)

    def test_excessive_decrease_rejected(self):
        g = graph_of([(0, 1, 1.0)])
        with pytest.raises(NegativeWeightError):
            apply_delta(g, GraphDelta(edge_changes=(EdgeChange(0, 1, -2.0),)))

    def test_unknown_vertex_in_edge_change(self):
        g = graph_of([(0, 1, 1.0)])
        with pytest.raises(UnknownVertexError):
            apply_delta(g, GraphDelta(edge_changes=(EdgeChange(0, 5, 1.0),)))

    def test_duplicate_vertex_addition(self):
        g = graph_of([(0, 1, 1.0)])
        with pytest.raises(DuplicateVertexError):
            apply_delta(g, GraphDelta(added_vertices=frozenset({0})))

    def test_remove_unknown_vertex(self):
        g = graph_of([(0, 1, 1.0)])
        with pytest.raises(UnknownVertexError):
            apply_delta(g, GraphDelta(removed_vertices=frozenset({9})))

    def test_edge_to_added_vertex(self):
        g = graph_of([(0, 1, 1.0)])
        out = apply_delta(g, GraphDelta(added_vertices=frozenset({2}),
                                        edge_changes=(EdgeChange(1, 2, 0.5),)))
        assert out.weight(1, 2) == 0.5

    def test_vertex_and_removed_overlap_rejected(self):
        with pytest.raises(ValueError):
            GraphDelta(added_vertices=frozenset({3}), removed_vertices=frozenset({3}))

    @pytest.mark.parametrize("dw", [0.0, float("nan"), float("inf"), float("-inf")])
    def test_zero_or_non_finite_change_rejected(self, dw):
        with pytest.raises(ValueError):
            GraphDelta(edge_changes=(EdgeChange(0, 2, dw),))

    @pytest.mark.parametrize("delta, error, message", [
        (GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0), EdgeChange(2, 2, 1.0))),
         SelfLoopError, "self-loop change on vertex 2"),
        (GraphDelta(edge_changes=(EdgeChange(5, 0, 1.0),)),
         UnknownVertexError, "edge change references unknown vertex 5"),
        (GraphDelta(edge_changes=(EdgeChange(0, 5, 1.0),)),
         UnknownVertexError, "edge change references unknown vertex 5"),
        (GraphDelta(edge_changes=(EdgeChange(6, 5, 1.0),)),
         UnknownVertexError, "edge change references unknown vertex 6"),
        (GraphDelta(edge_changes=(EdgeChange(1, 0, -2.0),)),
         NegativeWeightError, "decrease of 2.0 exceeds weight 1.0 on (1,0)"),
        (GraphDelta(edge_changes=(EdgeChange(0, 2, -1.0),)),
         NegativeWeightError, "decrease of 1.0 exceeds weight 0.0 on (0,2)"),
        (GraphDelta(edge_changes=(EdgeChange(0, 1, 1.7e308), EdgeChange(0, 1, 1.7e308))),
         NegativeWeightError, "weight 1.7e+308 + 1.7e+308 on (0,1) overflows"),
        (GraphDelta(edge_changes=(EdgeChange(0, 1, 1e308), EdgeChange(2, 3, 1e308))),
         NegativeWeightError, "the edge weights sum past the largest float"),
        (GraphDelta(added_vertices=frozenset({9, 0})),
         DuplicateVertexError, "vertex 0 already exists"),
        (GraphDelta(removed_vertices=frozenset({9})),
         UnknownVertexError, "cannot remove unknown vertex 9"),
    ])
    def test_error_messages(self, delta, error, message):
        g = graph_of([(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(error) as info:
            apply_delta(g, delta)
        assert str(info.value) == message

    @pytest.mark.parametrize("kwargs, message", [
        (dict(edge_changes=(EdgeChange(0, 1, 1.0), EdgeChange(0, 2, 0.0))),
         "zero or non-finite edge change 0.0 on (0,2)"),
        (dict(edge_changes=(EdgeChange(0, 1, -0.0), EdgeChange(0, 2, float("nan")))),
         "zero or non-finite edge change -0.0 on (0,1)"),
        (dict(edge_changes=(EdgeChange(3, 1, float("-inf")),)),
         "zero or non-finite edge change -inf on (3,1)"),
        (dict(added_vertices=frozenset({4, 3, 1}), removed_vertices=frozenset({3, 4, 2})),
         "vertices both added and removed: [3, 4]"),
    ])
    def test_invalid_delta_messages(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            GraphDelta(**kwargs)
        assert str(info.value) == message

    def test_delta_is_an_immutable_value(self):
        changes = (EdgeChange(0, 1, 1.0), EdgeChange(1, 2, -0.5))
        d = GraphDelta(frozenset({2}), frozenset({7}), changes)
        same = GraphDelta(added_vertices=frozenset({2}), removed_vertices=frozenset({7}),
                          edge_changes=tuple(changes))
        assert d == same and hash(d) == hash(same) and d is not same
        assert d != GraphDelta(frozenset({2}), frozenset({7}), changes[:1])
        assert d != (frozenset({2}), frozenset({7}), changes)
        assert weakref.ref(d)() is d  # apply_delta records deltas by weak reference
        with pytest.raises(AttributeError):
            d.edge_changes = ()
        with pytest.raises(AttributeError):
            d.note = "extra"
        with pytest.raises(AttributeError):
            del d.added_vertices
        assert (d.added_vertices, d.removed_vertices, d.edge_changes) == (
            frozenset({2}), frozenset({7}), changes)
        assert repr(GraphDelta()) == (
            "GraphDelta(added_vertices=frozenset(), removed_vertices=frozenset(), "
            "edge_changes=())")

    def test_delta_keeps_its_own_copies(self):
        added, removed = {2}, [7]
        changes = [EdgeChange(0, 1, 1.0), (1, 2, -0.5)]
        d = GraphDelta(added, removed, changes)
        same = GraphDelta(frozenset({2}), frozenset({7}),
                          (EdgeChange(0, 1, 1.0), EdgeChange(1, 2, -0.5)))
        assert d == same and hash(d) == hash(same)
        added.add(3)
        removed.append(9)
        changes.append(EdgeChange(2, 3, 0.25))
        assert d == same and hash(d) == hash(same)
        assert d.edge_changes == (EdgeChange(0, 1, 1.0), EdgeChange(1, 2, -0.5))
        assert type(d.added_vertices) is frozenset and type(d.removed_vertices) is frozenset
        frozen = frozenset({4})
        assert GraphDelta(frozen).added_vertices is frozen  # a frozenset is kept as given

    @pytest.mark.parametrize("changes", [[(0, 1)], [(0, 1, 1.0, 2)], [(0, 1), (2, 3, 1.0, 4)]])
    def test_edge_changes_must_be_triples(self, changes):
        with pytest.raises(ValueError):
            GraphDelta(edge_changes=changes)

    def test_records_its_predecessor_and_delta_only(self):
        g = two_triangles()
        d = GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0),))
        g1 = apply_delta(g, d)
        assert g1.derived_from(d) is g
        # an equal delta that is another object, a rebuilt copy, a fresh graph
        assert g1.derived_from(GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0),))) is None
        assert WeightedGraph(adjacency(g1)).derived_from(d) is None
        assert g.derived_from(d) is None

    def test_record_keeps_neither_predecessor_nor_delta_alive(self):
        g = two_triangles()
        d = GraphDelta(edge_changes=(EdgeChange(0, 1, 1.0),))
        g1 = apply_delta(g, d)
        g_ref, d_ref = weakref.ref(g), weakref.ref(d)
        del g
        gc.collect()
        assert g_ref() is None
        assert g1.derived_from(d) is None  # a dead record matches nothing
        del d
        gc.collect()
        assert d_ref() is None

    def test_total_weight_exact_under_cancelling_changes(self):
        # the running sum is exact, so it cannot drift from a rebuilt graph's
        # however much cancels: a huge weight comes and goes around tiny ones
        g = graph_of([(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3)])
        for d in (GraphDelta(edge_changes=(EdgeChange(0, 2, 1e17), EdgeChange(1, 3, 0.7))),
                  GraphDelta(edge_changes=(EdgeChange(0, 2, -1e17),)),
                  GraphDelta(edge_changes=(EdgeChange(0, 1, -0.1), EdgeChange(2, 3, 1e-3))),
                  GraphDelta(removed_vertices=frozenset({3})),
                  GraphDelta(edge_changes=(EdgeChange(1, 2, -0.2),))):
            g = apply_delta(g, d)
            assert g.total_weight == WeightedGraph(adjacency(g)).total_weight
        assert g.total_weight == 0.0


class TestModularity:
    def test_two_triangles_half(self):
        g = two_triangles()
        p = partition_of(g, [{0, 1, 2}, {3, 4, 5}])
        assert modularity(g, p) == pytest.approx(0.5, abs=1e-9)
        assert modularity_pairwise(g, p.assignment) == pytest.approx(0.5, abs=1e-9)

    def test_single_community_zero(self):
        g = two_triangles()
        p = partition_of(g, [{0, 1, 2, 3, 4, 5}])
        assert modularity(g, p) == pytest.approx(0.0, abs=1e-12)

    def test_single_edge_singletons(self):
        g = graph_of([(0, 1, 1.0)])
        assert modularity(g, Partition.singletons(g)) == pytest.approx(-0.5, abs=1e-9)

    def test_empty_graph_error(self):
        g = graph_of([], vertices=[0, 1])
        with pytest.raises(EmptyGraphError):
            modularity(g, Partition.singletons(g))

    def test_partition_must_cover_graph(self):
        g = two_triangles()
        p = partition_of(g, [{0, 1, 2}, {3, 4, 5}])
        bigger = apply_delta(g, GraphDelta(added_vertices=frozenset({6})))
        with pytest.raises(UnknownVertexError):
            modularity(bigger, p)
        # a detection result records the graph it ran on, and no other
        with pytest.raises(UnknownVertexError):
            modularity(bigger, louvain(g))

    def test_recorded_cover_skips_the_vertex_compare(self, monkeypatch):
        g = two_triangles()
        p = louvain(g)
        expected = modularity(g, p)

        def no_vertex_sets(self):
            raise AssertionError("vertex sets compared")
        monkeypatch.setattr(WeightedGraph, "vertices", property(no_vertex_sets))
        assert modularity(g, p) == expected

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
        g = graph_of([(0, 1, 1.0)])
        p = Partition.singletons(g)
        for c in p.community_ids:
            assert p.alpha(c) == 0.0
            assert p.beta(c) == 1.0

    def test_one_community_unit_triangle(self):
        g = graph_of([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        p = partition_of(g, [{0, 1, 2}])
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

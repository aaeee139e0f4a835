import random

import pytest
from hypothesis import given, settings, strategies as st

from dynamo.errors import EmptyGraphError, VertexSetMismatchError
from dynamo.graph import WeightedGraph, modularity, partition_rebuild_aggregates
from dynamo.louvain import louvain
from dynamo.metrics import ConfusionTable, ari, nmi
from helpers import (
    GraphTooLargeError,
    brute_force_best_q,
    exhaustive_best_partition,
    graph_of,
    partition_of,
    random_graph,
)

FOUR = {"a": 0, "b": 0, "c": 1, "d": 1}
FOUR_SPLIT = {"a": 0, "b": 0, "c": 1, "d": 2}      # {{a,b},{c},{d}}
FOUR_CROSSED = {"a": 0, "b": 1, "c": 0, "d": 1}    # {{a,c},{b,d}}


class TestConfusionTable:
    def test_counts_and_sums(self):
        t = ConfusionTable.from_partitions(FOUR, FOUR_SPLIT)
        assert t.n == 4
        assert sum(t.counts.values()) == 4
        for x, total in t.row_sums.items():
            assert total == sum(c for (xx, _), c in t.counts.items() if xx == x)
        for y, total in t.col_sums.items():
            assert total == sum(c for (_, yy), c in t.counts.items() if yy == y)

    def test_vertex_set_mismatch(self):
        with pytest.raises(VertexSetMismatchError):
            ConfusionTable.from_partitions(FOUR, {"a": 0, "b": 0, "z": 1, "d": 1})


class TestNmi:
    def test_identical_partitions(self):
        assert nmi(FOUR, FOUR) == pytest.approx(1.0, abs=1e-12)

    def test_independent_partitions_zero(self):
        assert nmi(FOUR, FOUR_CROSSED) == pytest.approx(0.0, abs=1e-12)

    def test_golden_point_eight(self):
        assert nmi(FOUR, FOUR_SPLIT) == pytest.approx(0.8, abs=1e-9)

    def test_both_single_community_convention(self):
        ones = {v: 0 for v in "abcd"}
        assert nmi(ones, {v: 7 for v in "abcd"}) == 1.0

    def test_one_sided_single_community_is_zero(self):
        ones = {v: 0 for v in "abcd"}
        assert nmi(ones, FOUR) == pytest.approx(0.0, abs=1e-12)

    def test_accepts_partition_objects(self):
        g = graph_of([(0, 1, 1.0), (2, 3, 1.0)])
        p = partition_of(g, [{0, 1}, {2, 3}])
        assert nmi(p, p) == 1.0


class TestAri:
    def test_identical_partitions(self):
        assert ari(FOUR, FOUR) == 1.0

    def test_golden_eight_fourteenths(self):
        # pairs: a=1, b=1, c=0, d=4 -> 2(4-0)/(1+0+8+5)
        assert ari(FOUR, FOUR_SPLIT) == pytest.approx(8.0 / 14.0, abs=1e-9)

    def test_golden_negative_half(self):
        # pairs: a=0, b=2, c=2, d=2 -> 2(0-4)/(4+4+0+8)
        assert ari(FOUR, FOUR_CROSSED) == pytest.approx(-0.5, abs=1e-9)

    def test_all_singletons_identical(self):
        singles = {v: i for i, v in enumerate("abcd")}
        assert ari(singles, dict(singles)) == 1.0

    def test_vertex_set_mismatch(self):
        with pytest.raises(VertexSetMismatchError):
            ari(FOUR, {"a": 0})


@st.composite
def labeling_pairs(draw):
    n = draw(st.integers(2, 24))
    k = draw(st.integers(1, 5))
    a = {v: draw(st.integers(0, k)) for v in range(n)}
    b = {v: draw(st.integers(0, k)) for v in range(n)}
    return a, b


class TestMetricProperties:
    @settings(max_examples=200, deadline=None)
    @given(labeling_pairs())
    def test_symmetry(self, pair):
        a, b = pair
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)
        assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(labeling_pairs(), st.integers(1, 1000), st.integers(1, 1000))
    def test_label_invariance(self, pair, offset_a, offset_b):
        a, b = pair
        ra = {v: c * 7 + offset_a for v, c in a.items()}
        rb = {v: c * 13 + offset_b for v, c in b.items()}
        assert nmi(ra, rb) == pytest.approx(nmi(a, b), abs=1e-12)
        assert ari(ra, rb) == pytest.approx(ari(a, b), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(labeling_pairs())
    def test_nmi_bounds(self, pair):
        a, b = pair
        assert 0.0 <= nmi(a, b) <= 1.0

    @settings(max_examples=150, deadline=None)
    @given(labeling_pairs())
    def test_ari_at_most_one_and_one_iff_identical(self, pair):
        a, b = pair
        value = ari(a, b)
        assert value <= 1.0 + 1e-12
        same = _as_sets(a) == _as_sets(b)
        assert (abs(value - 1.0) < 1e-12) == same


def _as_sets(labels):
    groups = {}
    for v, c in labels.items():
        groups.setdefault(c, set()).add(v)
    return sorted(map(frozenset, groups.values()), key=lambda s: sorted(s))


class TestExhaustiveOracle:
    def test_single_edge(self):
        g = graph_of([(0, 1, 1.0)])
        best, q = exhaustive_best_partition(g)
        assert best.as_sets() == [frozenset({0, 1})]
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_two_triangles(self):
        g = graph_of([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                      (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)])
        best, q = exhaustive_best_partition(g)
        assert best.as_sets() == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
        assert q == pytest.approx(0.5, abs=1e-9)

    def test_empty_vertex_set(self):
        with pytest.raises(EmptyGraphError):
            exhaustive_best_partition(WeightedGraph.empty())

    def test_zero_weight_graph(self):
        g = graph_of([], vertices=[0, 1, 2])
        with pytest.raises(EmptyGraphError):
            exhaustive_best_partition(g)

    def test_size_guard(self):
        g = graph_of([(i, i + 1, 1.0) for i in range(13)])
        with pytest.raises(GraphTooLargeError):
            exhaustive_best_partition(g)

    def test_matches_independent_enumeration(self):
        rng = random.Random(83)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 6), 0.6)
            if g.total_weight == 0:
                continue
            _, q = exhaustive_best_partition(g)
            assert q == pytest.approx(brute_force_best_q(g), abs=1e-9)

    def test_oracle_dominates_louvain_dominates_initial(self):
        rng = random.Random(89)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 10), 0.5)
            if g.total_weight == 0:
                continue
            labels = {v: rng.randrange(3) for v in g.vertices}
            initial = partition_rebuild_aggregates(g, labels)
            refined = louvain(g, initial=initial)
            _, q_best = exhaustive_best_partition(g)
            q_refined = modularity(g, refined)
            q_initial = modularity(g, initial)
            assert q_best >= q_refined - 1e-9
            assert q_refined >= q_initial - 1e-12

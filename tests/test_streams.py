"""Stateful property test: random delta streams through the benchmark harness.

Hypothesis grows a snapshot stream one delta at a time. After every step the
whole stream so far runs through :func:`run_benchmark` with both pipelines, and
every partition it yields is checked against independent oracles: rebuilt
aggregates, the community graph it carries and the pairwise modularity of
``helpers``. An invalid delta must fail with a typed :class:`DynamoError`,
in the run and in :func:`apply_delta` itself, before it is dropped from the
stream. Each valid delta that :func:`apply_delta` folds into the stream must
also match the test's own fold of the stream, edge by edge and in total
weight, bit for bit.
"""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from dynamo.errors import DynamoError
from dynamo.graph import (
    EdgeChange,
    GraphDelta,
    WeightedGraph,
    apply_delta,
    partition_rebuild_aggregates,
)
from dynamo.harness import RunConfig, run_benchmark
from dynamo.ingest import Snapshot
from helpers import adjacency, community_graph_mismatch, modularity_pairwise

WEIGHTS = st.sampled_from([0.5, 1.0, 2.0, 3.5])


def fold(rows: dict, delta: GraphDelta) -> dict:
    """New adjacency rows: ``rows`` after ``delta``, applied here one edge at a time.

    Vertices are added first, then the edge changes in order, then vertices
    are removed with their edges. This stream's decreases take a weight to
    half or to exactly zero, so no tolerance is needed.
    """
    rows = {v: dict(nbrs) for v, nbrs in rows.items()}
    for v in delta.added_vertices:
        rows[v] = {}
    for u, v, dw in delta.edge_changes:
        w = rows[u].get(v, 0.0) + dw
        if w > 0.0:
            rows[u][v] = rows[v][u] = w
        else:
            del rows[u][v], rows[v][u]
    for v in delta.removed_vertices:
        for u in rows.pop(v):
            del rows[u][v]
    return rows


class DeltaStream(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.deltas: list[GraphDelta] = []
        self.graph = WeightedGraph.empty()  # the fold of ``deltas`` by apply_delta
        self.rows: dict = {}  # the same fold, by this test's ``fold``
        self.next_id = 0
        self.expected_q: dict = {}  # (snapshot, algorithm) -> pairwise Q or None
        self.latest: dict = {}  # algorithm -> its partition of the last snapshot run

    def push(self, delta: GraphDelta) -> None:
        g1 = apply_delta(self.graph, delta)
        # the update trusts apply_delta's step, so check it against the test's
        # own fold: every weight, and the running total weight against a graph
        # built from the folded rows (fold copies, so they may be shared), bit for bit
        rows = fold(self.rows, delta)
        assert adjacency(g1) == rows
        assert g1.total_weight == WeightedGraph(rows).total_weight
        self.graph, self.rows = g1, rows
        self.deltas.append(delta)

    def run(self, deltas: list[GraphDelta]) -> list:
        return run_benchmark([Snapshot(k, d) for k, d in enumerate(deltas)], RunConfig(),
                             on_result=self.check_partition)

    def check_partition(self, index, graph, name, p) -> None:
        assert set(p.assignment) == set(graph.vertices)
        rebuilt = partition_rebuild_aggregates(graph, p.assignment)
        assert set(p.community_ids) == set(rebuilt.community_ids)
        for c in p.community_ids:
            assert p.alpha(c) == pytest.approx(rebuilt.alpha(c), abs=1e-9)
            assert p.beta(c) == pytest.approx(rebuilt.beta(c), abs=1e-9)
        if graph.total_weight > 0:  # zero-weight snapshots get plain singletons
            assert community_graph_mismatch(graph, p) is None, community_graph_mismatch(graph, p)
        self.expected_q[index, name] = (
            modularity_pairwise(graph, p.assignment) if graph.total_weight > 0 else None)
        self.latest[name] = p

    def vertices(self) -> list[int]:
        return sorted(self.graph.vertices)

    # -- valid deltas ---------------------------------------------------------

    @rule(data=st.data(), count=st.integers(1, 3))
    def add_vertices(self, data, count):
        new = list(range(self.next_id, self.next_id + count))
        self.next_id += count
        old = self.vertices()
        changes = []
        for i, v in enumerate(new):
            candidates = old + new[:i]
            if not candidates:
                continue
            targets = data.draw(st.lists(st.sampled_from(candidates), max_size=3,
                                         unique=True))
            changes += [EdgeChange(v, t, data.draw(WEIGHTS)) for t in targets]
        self.push(GraphDelta(added_vertices=frozenset(new), edge_changes=tuple(changes)))

    @precondition(lambda self: self.graph.num_edges > 0)
    @rule(data=st.data())
    def decrease_edges(self, data):
        edges = sorted((u, v) for u, v, _ in self.graph.edges())
        # cross-community decreases shift the aggregates of communities that
        # survive the update, but edges inside communities are far more common
        communities = self.latest["dynamo"].assignment
        cross = [(u, v) for u, v in edges if communities[u] != communities[v]]
        if cross and data.draw(st.booleans()):
            edges = cross
        picked = data.draw(st.lists(st.sampled_from(edges), min_size=1, max_size=3,
                                    unique=True))
        changes = []
        for u, v in picked:
            w = self.graph.weight(u, v)
            changes.append(EdgeChange(u, v, data.draw(st.sampled_from([-w / 2, -w]))))
        self.push(GraphDelta(edge_changes=tuple(changes)))

    @precondition(lambda self: self.graph.num_vertices >= 2)
    @rule(data=st.data(), dw=WEIGHTS)
    def increase_edge(self, data, dw):
        u, v = data.draw(st.lists(st.sampled_from(self.vertices()), min_size=2,
                                  max_size=2, unique=True))
        self.push(GraphDelta(edge_changes=(EdgeChange(u, v, dw),)))

    @precondition(lambda self: self.graph.num_vertices > 0)
    @rule(data=st.data())
    def remove_vertex(self, data):
        v = data.draw(st.sampled_from(self.vertices()))
        self.push(GraphDelta(removed_vertices=frozenset({v})))

    @rule()
    def empty_delta(self):
        self.push(GraphDelta())

    # -- invalid deltas -------------------------------------------------------

    @rule(data=st.data(), kind=st.sampled_from(["unknown", "duplicate", "overdraw"]))
    def invalid_delta(self, data, kind):
        unknown = self.next_id + 1000
        if kind == "duplicate" and self.graph.num_vertices > 0:
            bad = GraphDelta(added_vertices=frozenset({data.draw(st.sampled_from(
                self.vertices()))}))
        elif kind == "overdraw" and self.graph.num_edges > 0:
            u, v, w = data.draw(st.sampled_from(sorted(self.graph.edges())))
            bad = GraphDelta(edge_changes=(EdgeChange(u, v, -2.0 * w),))
        elif self.graph.num_vertices > 0:
            bad = GraphDelta(edge_changes=(EdgeChange(self.vertices()[0], unknown, 1.0),))
        else:
            bad = GraphDelta(removed_vertices=frozenset({unknown}))
        with pytest.raises(DynamoError):
            self.run(self.deltas + [bad])
        with pytest.raises(DynamoError):
            apply_delta(self.graph, bad)

    # -- the invariant --------------------------------------------------------

    @invariant()
    def pipelines_match_oracles(self):
        if not self.deltas:
            return
        self.expected_q = {}
        reports = self.run(self.deltas)
        assert len(reports) == 2 * len(self.deltas)
        for r in reports:
            expected = self.expected_q[r.snapshot_index, r.algorithm]
            if expected is None:
                assert r.modularity is None
            else:
                assert r.modularity == pytest.approx(expected, abs=1e-9)


DeltaStream.TestCase.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=200,
    stateful_step_count=10)
TestDeltaStream = DeltaStream.TestCase


@st.composite
def bulk_steps(draw):
    """A start graph's rows and one bulk delta on it.

    The start graph joins pairs of ``old`` vertices. The delta adds ``new``
    vertices, changes many pairs (some several times: increases by any weight
    in [0.5, 8], decreases of a weight of at least 0.5 to half or to exactly
    zero, the weight tracked as the changes are made) and removes vertices
    that it does not add.
    """
    n_old, n_new = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    weights = st.floats(0.5, 8.0)
    pairs = st.tuples(st.integers(0, 23), st.integers(0, 23))
    rows = {v: {} for v in range(n_old)}
    for (u, v), w in draw(st.lists(st.tuples(pairs, weights), min_size=5, max_size=25)):
        u, v = u % max(n_old, 1), v % max(n_old, 1)
        if u != v:
            rows[u][v] = rows[v][u] = rows[u].get(v, 0.0) + w
    current = {(u, v): w for u in rows for v, w in rows[u].items()}
    changes = []
    n = max(n_old + n_new, 1)
    for (u, v), kind, w_up in draw(st.lists(st.tuples(pairs, st.integers(0, 3), weights),
                                            min_size=10, max_size=40)):
        u, v = u % n, v % n
        if u == v:
            continue
        w = current.get((u, v), 0.0)
        # halving only from 0.5 keeps every weight far above the 1e-12 that apply_delta
        # treats as zero, where the fold would keep the edge
        dw = (-w, -w / 2)[kind] if w >= 0.5 and kind < 2 else w_up
        changes.append(EdgeChange(u, v, dw))
        current[u, v] = current[v, u] = w + dw
    removed = frozenset(v for v in draw(st.frozensets(st.integers(0, 11), max_size=3))
                        if v < n_old)
    return rows, GraphDelta(frozenset(range(n_old, n_old + n_new)), removed, tuple(changes))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(bulk_steps())
def test_bulk_apply_delta_matches_the_fold(step):
    # one delta with many changes, applied at once, against the edge-by-edge
    # fold: every weight, every strength and the total weight, bit for bit
    rows, d = step
    g1 = apply_delta(WeightedGraph(rows), d)
    expected = WeightedGraph(fold(rows, d))
    assert adjacency(g1) == adjacency(expected)
    assert {v: g1.strength(v) for v in g1.vertices} == {
        v: expected.strength(v) for v in expected.vertices}
    assert g1.total_weight == expected.total_weight

import weakref

import pytest

from dynamo import harness
from dynamo.graph import GraphDelta, modularity, partition_rebuild_aggregates
from dynamo.harness import RunConfig, run_benchmark
from dynamo.ingest import Snapshot
from dynamo.metrics import ConfusionTable
from dynamo.synthgen import Churn, GenConfig, generate

SCENARIO = GenConfig(seed=11, num_communities=3, community_size=10, p_in=0.5,
                     p_out=0.05, num_snapshots=6,
                     churn=Churn(icea=1, ccea=2, iced=1, cced=1))

# full-size scenario: quality invariants of the incremental path are only
# reliable when one dissolved community (an intra-community change or a
# removed vertex dissolves its own) is a small fraction of the graph
FULL_SIZE = GenConfig(seed=11, num_snapshots=8,
                      churn=Churn(icea=1, ccea=4, iced=1, cced=4,
                                  vertex_add=1, vertex_del=1))


@pytest.fixture(scope="module")
def scenario():
    return generate(SCENARIO)


def strip(rows):
    """Report rows without their timing columns."""
    return [(r.snapshot_index, r.algorithm, r.modularity, r.nmi, r.ari,
             r.num_vertices, r.num_edges, r.num_communities) for r in rows]


class TestRunConfig:
    def test_requires_algorithm(self):
        with pytest.raises(ValueError):
            RunConfig(algorithms=())

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            RunConfig(algorithms=("louvain", "leiden"))

    def test_rejects_bad_repeat(self):
        with pytest.raises(ValueError):
            RunConfig(repeat=0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(algorithms=()), "select at least one algorithm"),
        (dict(algorithms=("louvain", "leiden", "x")), "unknown algorithms: ['leiden', 'x']"),
        (dict(repeat=0), "repeat must be at least 1"),
        (dict(repeat="2"), "repeat must be an int, got '2'"),
    ])
    def test_check_messages(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            RunConfig(**kwargs)
        assert str(info.value) == message

    def test_defaults_compare_as_a_tuple(self):
        assert RunConfig() == (("louvain", "dynamo"), -1.0, 1)
        assert RunConfig(repeat=3, algorithms=("dynamo",)) == (("dynamo",), -1.0, 3)

    def test_replace_checks_its_result(self):
        assert RunConfig()._replace(repeat=2) == RunConfig(repeat=2)
        with pytest.raises(ValueError, match="^repeat must be at least 1$"):
            RunConfig()._replace(repeat=0)

    def test_rejects_nan_refine_threshold(self):
        # NaN compares false with every modularity, so it would switch refinement off
        with pytest.raises(ValueError, match="^refine_threshold must not be NaN$"):
            RunConfig(refine_threshold=float("nan"))

    def test_rejects_non_integer_repeat(self, scenario):
        # refused when configured, not as a TypeError from the timing loop
        with pytest.raises(ValueError, match=r"^repeat must be an int, got 1\.5$"):
            run_benchmark(scenario.snapshots[:2], RunConfig(repeat=1.5))


class TestRunBenchmark:
    def test_no_snapshots_raises(self):
        with pytest.raises(ValueError, match="^no snapshots to process$"):
            run_benchmark([])

    def test_louvain_only_rows(self, scenario):
        reports = run_benchmark(scenario.snapshots[:3],
                                RunConfig(algorithms=("louvain",)))
        assert len(reports) == 3
        assert all(r.algorithm == "louvain" for r in reports)
        assert all(r.nmi is None and r.ari is None for r in reports)

    def test_noop_evolution_scores_one(self):
        cfg = GenConfig(seed=4, num_communities=2, community_size=8, p_in=0.6,
                        p_out=0.02, num_snapshots=3, churn=Churn())
        empty = generate(cfg)
        reports = run_benchmark(empty.snapshots, RunConfig())
        for r in reports:
            if r.algorithm == "dynamo":
                assert r.nmi == pytest.approx(1.0, abs=1e-12)
                assert r.ari == pytest.approx(1.0, abs=1e-12)

    def test_dynamo_alone_without_baseline_has_no_scores(self, scenario):
        reports = run_benchmark(scenario.snapshots[:3],
                                RunConfig(algorithms=("dynamo",)))
        assert all(r.nmi is None and r.ari is None for r in reports)

    def test_cumulative_elapsed_non_decreasing(self, scenario):
        reports = run_benchmark(scenario.snapshots, RunConfig())
        for name in ("louvain", "dynamo"):
            rows = [r for r in reports if r.algorithm == name]
            assert [r.snapshot_index for r in rows] == list(range(len(rows)))
            for a, b in zip(rows, rows[1:]):
                assert b.cumulative_elapsed_ns >= a.cumulative_elapsed_ns

    def test_deterministic_outputs_excluding_timing(self, scenario):
        a = run_benchmark(scenario.snapshots, RunConfig())
        b = run_benchmark(scenario.snapshots, RunConfig())
        c = run_benchmark(iter(scenario.snapshots), RunConfig())  # a one-shot stream
        assert strip(a) == strip(b) == strip(c)

    def test_dynamo_never_below_carried_forward_structure(self):
        # carrying the previous partition onto the next snapshot is the
        # do-nothing baseline; the incremental update must never score below it
        scenario = generate(FULL_SIZE)
        partitions = {}
        reports = run_benchmark(
            scenario.snapshots, RunConfig(algorithms=("dynamo",)),
            on_result=lambda k, graph, name, p: partitions.__setitem__(k, p))
        dynamo_rows = {r.snapshot_index: r for r in reports}
        for k in range(1, len(scenario.snapshots)):
            prev = partitions[k - 1]
            graph = scenario.graphs[k]
            fresh = max(prev.community_ids) + 1
            assignment = {}
            for v in graph.vertices:
                if v in prev.assignment:
                    assignment[v] = prev.assignment[v]
                else:
                    assignment[v] = fresh
                    fresh += 1
            carried = partition_rebuild_aggregates(graph, assignment)
            assert dynamo_rows[k].modularity >= modularity(graph, carried) - 1e-9

    def test_refinement_threshold_forces_static_rerun(self, scenario):
        # with an impossible threshold every dynamo row equals the louvain row
        reports = run_benchmark(scenario.snapshots, RunConfig(refine_threshold=1.1))
        by_snap = {}
        for r in reports:
            by_snap.setdefault(r.snapshot_index, {})[r.algorithm] = r
        for rows in by_snap.values():
            assert rows["dynamo"].modularity == pytest.approx(
                rows["louvain"].modularity, abs=1e-12)
            assert rows["dynamo"].nmi == pytest.approx(1.0, abs=1e-12)

    def test_threshold_below_any_modularity_never_fires(self, scenario, monkeypatch):
        # Q >= -1/2 on every graph: a threshold of -0.5 is checked after each
        # update but never fires, so the dynamo rows stay those of a default run
        default = run_benchmark(scenario.snapshots, RunConfig())
        calls = []

        def counting(graph, partition):
            calls.append(partition)
            return modularity(graph, partition)

        monkeypatch.setattr(harness, "modularity", counting)
        checked = run_benchmark(scenario.snapshots, RunConfig(refine_threshold=-0.5))
        assert strip(checked) == strip(default)
        updates = len(scenario.snapshots) - 1
        assert len(calls) == len(checked) + updates
        louvain_q = [r.modularity for r in checked if r.algorithm == "louvain"]
        dynamo_q = [r.modularity for r in checked if r.algorithm == "dynamo"]
        assert dynamo_q != louvain_q  # a threshold that fired would copy these

    def test_default_threshold_scores_each_row_once(self, scenario, monkeypatch):
        # refine_threshold -1 can never fire, so each row's own score is the
        # only modularity call
        calls = []

        def counting(graph, partition):
            calls.append(partition)
            return modularity(graph, partition)

        monkeypatch.setattr(harness, "modularity", counting)
        reports = run_benchmark(scenario.snapshots, RunConfig(algorithms=("dynamo",)))
        assert len(calls) == sum(r.modularity is not None for r in reports) == len(reports)

    def test_default_run_builds_one_confusion_table_per_snapshot(self, scenario, monkeypatch):
        # NMI and ARI of a dynamo row share one table against the static partition
        calls = []
        build = ConfusionTable.from_partitions

        def counting(c_t, c_r):
            calls.append(c_r)
            return build(c_t, c_r)

        monkeypatch.setattr(ConfusionTable, "from_partitions", staticmethod(counting))
        reports = run_benchmark(scenario.snapshots)
        scored = [r for r in reports if r.algorithm == "dynamo" and r.nmi is not None]
        assert len(calls) == len(scored) == len(scenario.snapshots)

    def test_repeat_averages_timing(self, scenario):
        reports = run_benchmark(scenario.snapshots[:2], RunConfig(repeat=3))
        assert all(r.elapsed_ns > 0 for r in reports)

    def test_default_scenario_incremental_is_faster(self):
        scenario = generate(GenConfig(seed=0))
        reports = run_benchmark(scenario.snapshots, RunConfig())
        totals = {}
        for r in reports:
            totals[r.algorithm] = max(totals.get(r.algorithm, 0), r.cumulative_elapsed_ns)
        assert totals["dynamo"] < totals["louvain"]


class TestDeltaRelease:
    @pytest.mark.parametrize("algorithms", [("dynamo",), ("louvain", "dynamo")])
    def test_a_run_holds_only_the_delta_a_step_reads(self, scenario, monkeypatch, algorithms):
        # the stream hands over fresh deltas that only the run refers to
        refs = []

        def fresh(delta):
            copy = GraphDelta(delta.added_vertices, delta.removed_vertices, delta.edge_changes)
            refs.append(weakref.ref(copy))
            return copy

        statics, updates = [], []
        louvain, dynamo_update = harness.louvain, harness.dynamo_update

        def recorded_louvain(graph):
            statics.append([ref() is not None for ref in refs])
            return louvain(graph)

        def recorded_update(g_t1, g_t, p_t, d):
            updates.append([ref() is not None for ref in refs])
            assert d is refs[-1]()
            return dynamo_update(g_t1, g_t, p_t, d)

        monkeypatch.setattr(harness, "louvain", recorded_louvain)
        monkeypatch.setattr(harness, "dynamo_update", recorded_update)
        stream = (Snapshot(s.index, fresh(s.delta)) for s in scenario.snapshots)
        run_benchmark(stream, RunConfig(algorithms=algorithms))

        n = len(scenario.snapshots)
        # snapshot 0's delta is freed before its static detection starts
        assert statics[:len(algorithms)] == [[False]] * len(algorithms)
        # an update on snapshot k reads delta k, the only one alive
        assert updates == [[False] * k + [True] for k in range(1, n)]
        # a louvain rerun on snapshot k >= 1 sees delta k, kept for the update after it
        assert statics[len(algorithms):] == [[False] * k + [True] for k in range(1, n)
                                             if "louvain" in algorithms]

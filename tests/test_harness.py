import pytest

from dynamo import (
    RunConfig,
    modularity,
    partition_rebuild_aggregates,
    run_benchmark,
)
from dynamo.synthgen import Churn, GenConfig, generate

SCENARIO = GenConfig(seed=11, num_communities=3, community_size=10, p_in=0.5,
                     p_out=0.05, num_snapshots=6,
                     churn=Churn(icea=1, ccea=2, iced=1, cced=1))

# full-size scenario: quality invariants of the incremental path are only
# reliable when one dissolved community is a small fraction of the graph
FULL_SIZE = GenConfig(seed=11, num_snapshots=8,
                      churn=Churn(icea=1, ccea=4, iced=1, cced=4,
                                  vertex_add=1, vertex_del=1))


@pytest.fixture(scope="module")
def scenario():
    return generate(SCENARIO)


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


class TestRunBenchmark:
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

    def test_with_baseline_scores_dynamo_alone(self, scenario):
        reports = run_benchmark(scenario.snapshots[:3],
                                RunConfig(algorithms=("dynamo",), with_baseline=True))
        assert {r.algorithm for r in reports} == {"dynamo"}
        assert all(r.nmi is not None for r in reports)

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
        def strip(rows):
            return [(r.snapshot_index, r.algorithm, r.modularity, r.nmi, r.ari,
                     r.num_vertices, r.num_edges, r.num_communities) for r in rows]
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

import hashlib

import pytest

from dynamo import (
    GraphDelta,
    InfeasibleChurnError,
    apply_delta,
    classify,
    louvain,
    nmi,
    parse_delta_file,
    parse_edge_events,
    slice_snapshots,
)
from dynamo.synthgen import Churn, GenConfig, generate
from helpers import snapshot_graphs

SMALL = GenConfig(seed=5, num_communities=3, community_size=8, p_in=0.5, p_out=0.03,
                  num_snapshots=5,
                  churn=Churn(icea=1, ccea=2, iced=1, cced=1, vertex_add=1, vertex_del=1))


class TestGenConfig:
    def test_detectability_guard(self):
        with pytest.raises(ValueError):
            GenConfig(num_communities=4, community_size=10, p_in=0.1, p_out=0.09)

    def test_basic_validation(self):
        with pytest.raises(ValueError):
            GenConfig(num_communities=1)
        with pytest.raises(ValueError):
            GenConfig(community_size=2)
        with pytest.raises(ValueError):
            GenConfig(weight_range=(0.0, 1.0))
        for weight_range in ((1.0, float("inf")), (float("inf"), float("inf")),
                             (1.0, float("nan"))):
            with pytest.raises(ValueError, match="weight range"):
                GenConfig(weight_range=weight_range)
        with pytest.raises(ValueError):
            GenConfig(p_in=0.1, p_out=0.2, num_communities=2, community_size=50)
        with pytest.raises(ValueError):
            Churn(icea=-1)


class TestGenerate:
    def test_zero_churn_keeps_snapshots_identical(self):
        cfg = GenConfig(seed=1, num_communities=2, community_size=6, p_in=0.6,
                        p_out=0.02, num_snapshots=4, churn=Churn())
        scenario = generate(cfg)
        g0 = scenario.graphs[0]
        for snap, graph in zip(scenario.snapshots[1:], scenario.graphs[1:]):
            assert snap.delta == GraphDelta()
            assert graph == g0

    def test_deterministic_in_seed(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert a.event_text == b.event_text
        assert a.delta_texts == b.delta_texts
        assert a.truth_texts == b.truth_texts

    @pytest.mark.parametrize("cfg, deltas, events", [
        (SMALL, "8b3ce2c5ee8dcf82a88f89d44acccf6868a100ab9e561d8680b1eeef3a50c201",
         "486393b2f9dba3539cbce3153c6e5ad4b0c23777158e165771d086cff64fc885"),
        (GenConfig(seed=9, num_communities=3, community_size=6, p_in=0.5, p_out=0.03,
                   num_snapshots=5, churn=Churn(icea=2, ccea=2, vertex_add=1)),
         "7c3040b76678df6499e57d0c64e7a697c90e3fbbc02db647aa148f3da77e2124",
         "33e7a24ca406ecbbe92646546009c4df29edf8ecc489fd119da212a8c9ce8a45"),
    ])
    def test_texts_match_golden_hashes(self, cfg, deltas, events):
        scenario = generate(cfg)
        assert hashlib.sha256("".join(scenario.delta_texts).encode()).hexdigest() == deltas
        assert hashlib.sha256(scenario.event_text.encode()).hexdigest() == events

    def test_different_seeds_differ(self):
        import dataclasses
        a = generate(SMALL)
        b = generate(dataclasses.replace(SMALL, seed=6))
        assert a.event_text != b.event_text

    def test_deltas_apply_cleanly_and_match_graphs(self):
        scenario = generate(SMALL)
        from dynamo import WeightedGraph
        graph = WeightedGraph.empty()
        assert len(scenario.graphs) == len(scenario.snapshots)
        for snap, expected in zip(scenario.snapshots, scenario.graphs):
            graph = apply_delta(graph, snap.delta)
            assert graph == expected

    def test_labels_agree_with_classify(self):
        scenario = generate(SMALL)
        for k in range(1, len(scenario.snapshots)):
            g_prev = scenario.graphs[k - 1]
            truth_prev = scenario.ground_truth[k - 1]
            delta = scenario.snapshots[k].delta
            for change, kind in scenario.labeled_changes[k]:
                assert classify(g_prev, truth_prev, change, delta) is kind

    def test_ground_truth_covers_graphs(self):
        scenario = generate(SMALL)
        for graph, truth in zip(scenario.graphs, scenario.ground_truth):
            assert set(truth.assignment) == set(graph.vertices)

    def test_louvain_recovers_planted_blocks(self):
        cfg = GenConfig(seed=3, num_communities=4, community_size=30,
                        p_in=0.3, p_out=0.01, num_snapshots=1, churn=Churn())
        scenario = generate(cfg)
        detected = louvain(scenario.graphs[0])
        assert nmi(scenario.ground_truth[0], detected) >= 0.9

    def test_infeasible_churn_reported(self):
        cfg = GenConfig(seed=2, num_communities=2, community_size=3, p_in=0.9,
                        p_out=0.05, num_snapshots=3,
                        churn=Churn(vertex_del=5))
        with pytest.raises(InfeasibleChurnError):
            generate(cfg)

    def test_addition_only_round_trips_through_slicing(self, tmp_path):
        cfg = GenConfig(seed=9, num_communities=3, community_size=6, p_in=0.5,
                        p_out=0.03, num_snapshots=5,
                        churn=Churn(icea=2, ccea=2, vertex_add=1))
        scenario = generate(cfg)
        assert scenario.addition_only
        scenario.write(tmp_path)
        events = parse_edge_events(tmp_path / "events.tsv")
        sliced = slice_snapshots(events, interval=1, t0=0)
        assert len(sliced) == len(scenario.snapshots)
        assert snapshot_graphs(sliced) == scenario.graphs
        for ours, theirs in zip(scenario.snapshots, sliced):
            assert ours.delta == theirs.delta

    def test_written_delta_files_round_trip(self, tmp_path):
        scenario = generate(SMALL)
        scenario.write(tmp_path)
        for snap in scenario.snapshots:
            parsed = parse_delta_file(tmp_path / "deltas" / f"snapshot_{snap.index:04d}.delta")
            assert parsed == snap.delta

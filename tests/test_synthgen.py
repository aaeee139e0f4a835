import hashlib
from collections import Counter

import pytest

from dynamo.errors import InfeasibleChurnError
from dynamo.graph import GraphDelta, Partition, VertexAddition, WeightedGraph, apply_delta
from dynamo.incremental import ChangeKind, classify
from dynamo.ingest import parse_delta_file, parse_edge_events, slice_snapshots
from dynamo.louvain import louvain
from dynamo.metrics import nmi
from dynamo.synthgen import Churn, GenConfig, generate
from helpers import snapshot_graphs

SMALL = GenConfig(seed=5, num_communities=3, community_size=8, p_in=0.5, p_out=0.03,
                  num_snapshots=5,
                  churn=Churn(icea=1, ccea=2, iced=1, cced=1, vertex_add=1, vertex_del=1))

# Several draws of every kind per delta, so a candidate pool whose contents or
# order drift after its first draw changes the texts.
POOLS = GenConfig(seed=11, num_communities=4, community_size=12, p_in=0.5, p_out=0.05,
                  num_snapshots=6, weight_range=(1.0, 3.0),
                  churn=Churn(icea=3, ccea=4, iced=3, cced=4, vertex_add=2, vertex_del=3))

# Two blocks of three vertices: few pairs and edges, so each churn kind runs out.
TINY = dict(num_communities=2, community_size=3, p_in=0.9, p_out=0.05, num_snapshots=2)


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
        with pytest.raises(ValueError, match="^need at least one snapshot$"):
            GenConfig(num_snapshots=0)


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

    def test_pool_draws_match_golden_hashes(self):
        scenario = generate(POOLS)
        for labels in scenario.labeled_changes[1:]:
            kinds = Counter(kind for change, kind in labels)
            assert min(kinds[k] for k in (ChangeKind.ICEA_WI, ChangeKind.CCEA_WI,
                                          ChangeKind.ICED_WD, ChangeKind.CCED_WD)) >= 3
            assert kinds[ChangeKind.VERTEX_DEL] >= 3
            assert sum(isinstance(c, VertexAddition) for c, kind in labels) >= 2

        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()

        assert digest("".join(scenario.delta_texts)) == (
            "2a0c094270ae3e7545662ff40e69d9800d1e5c2cd7b7e07d034eeb6b3ebd80f8")
        assert digest(scenario.event_text) == (
            "dd793429223c6bc64a2c81e9dc3782343de83dd01c62e072d34b6df33a946a10")
        assert digest("".join(scenario.truth_texts)) == (
            "69c9afdaf40b3211c0eef2a913840ee0a451091c700b9dd1aa372ea2d7f43e05")

    @pytest.mark.parametrize("churn, kinds", [(Churn(iced=20, cced=20), 2),
                                              (Churn(ccea=5, cced=20), 1)])
    def test_edges_listed_once_per_decrease_kind(self, monkeypatch, churn, kinds):
        calls = []
        edges = WeightedGraph.edges

        def counting(graph):
            calls.append(None)
            return edges(graph)

        monkeypatch.setattr(WeightedGraph, "edges", counting)
        cfg = GenConfig(seed=4, num_communities=4, community_size=30, p_in=0.3, p_out=0.05,
                        num_snapshots=4, churn=churn)
        generate(cfg)
        assert len(calls) <= kinds * (cfg.num_snapshots - 1)

    def test_newcomer_without_a_drawn_edge_gets_one_block_mate(self):
        # vertex 6 joins block 1 (vertices 3-5) and its random wiring draws no edge
        cfg = GenConfig(seed=0, num_communities=2, community_size=3, p_in=0.4, p_out=0.02,
                        num_snapshots=2, churn=Churn(vertex_add=1))
        scenario = generate(cfg)
        assert scenario.delta_texts[1] == "AV 6\nEW 4 6 1.0\n"
        truth = Partition.from_assignment(scenario.graphs[1], scenario.ground_truth[1])
        assert truth.assignment[6] == truth.assignment[4]

    def test_different_seeds_differ(self):
        import dataclasses
        a = generate(SMALL)
        b = generate(dataclasses.replace(SMALL, seed=6))
        assert a.event_text != b.event_text

    def test_deltas_apply_cleanly_and_match_graphs(self):
        scenario = generate(SMALL)
        graph = WeightedGraph.empty()
        assert len(scenario.graphs) == len(scenario.snapshots)
        for snap, expected in zip(scenario.snapshots, scenario.graphs):
            graph = apply_delta(graph, snap.delta)
            assert graph == expected

    def test_labels_agree_with_classify(self):
        scenario = generate(SMALL)
        for k in range(1, len(scenario.snapshots)):
            g_prev = scenario.graphs[k - 1]
            truth_prev = Partition.from_assignment(g_prev, scenario.ground_truth[k - 1])
            delta = scenario.snapshots[k].delta
            for change, kind in scenario.labeled_changes[k]:
                assert classify(g_prev, truth_prev, change, delta) is kind

    def test_ground_truth_covers_graphs(self):
        scenario = generate(SMALL)
        for graph, truth in zip(scenario.graphs, scenario.ground_truth):
            truth = Partition.from_assignment(graph, truth)
            assert set(truth.assignment) == set(graph.vertices)

    def test_louvain_recovers_planted_blocks(self):
        cfg = GenConfig(seed=3, num_communities=4, community_size=30,
                        p_in=0.3, p_out=0.01, num_snapshots=1, churn=Churn())
        scenario = generate(cfg)
        detected = louvain(scenario.graphs[0])
        assert nmi(scenario.ground_truth[0], detected) >= 0.9

    def test_tiny_weights_are_edges(self):
        # every strictly positive weight is an edge, however small: each planted
        # edge, each increase and each newcomer's edge is in the graphs
        cfg = GenConfig(seed=4, num_communities=2, community_size=8, p_in=0.5, p_out=0.08,
                        num_snapshots=3, churn=Churn(icea=1, ccea=1, vertex_add=1),
                        weight_range=(1e-13, 1e-13))
        scenario = generate(cfg)
        planted = scenario.snapshots[0].delta.edge_changes
        assert scenario.graphs[0].num_edges == len(planted) > 0
        for snap, graph in zip(scenario.snapshots, scenario.graphs):
            assert all(graph.weight(u, v) >= 1e-13 for u, v, _ in snap.delta.edge_changes)

    def test_infeasible_churn_reported(self):
        cfg = GenConfig(seed=2, num_communities=2, community_size=3, p_in=0.9,
                        p_out=0.05, num_snapshots=3,
                        churn=Churn(vertex_del=5))
        with pytest.raises(InfeasibleChurnError):
            generate(cfg)

    @pytest.mark.parametrize("seed, churn, message", [
        (2, Churn(vertex_del=6), "vertex deletions would empty the graph"),
        (2, Churn(icea=1, vertex_del=4), "no block has two vertices left"),
        (26, Churn(ccea=1, vertex_del=3), "fewer than two blocks left"),
        (1, Churn(icea=7), "could not draw an untouched vertex pair"),
        (1, Churn(ccea=10), "could not draw an untouched vertex pair"),
        (1, Churn(iced=7), "no intra-community edge left to decrease"),
        (1, Churn(cced=10), "no cross-community edge left to decrease"),
    ])
    def test_exhausted_churn_messages(self, seed, churn, message):
        with pytest.raises(InfeasibleChurnError) as info:
            generate(GenConfig(seed=seed, churn=churn, **TINY))
        assert str(info.value) == message

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

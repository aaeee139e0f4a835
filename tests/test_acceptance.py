"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1, 2, and 6 share one set of twenty seeded benchmark sequences
(4 communities x 50 vertices, 24 snapshots, 16 changes per snapshot, about 1%
of the edges and well under the 5% churn cap). The churn for these sequences
is cross-community only: with just four communities, any change kind that
dissolves whole neighborhoods rebuilds a quarter of the graph and the
incremental update degenerates to a static rerun, which is outside the regime
the speedup claim targets. All six change kinds are exercised by the property
suites below and by the mixed-churn determinism scenario.
"""

import itertools
import random
import time

import pytest

from dynamo import (
    EdgeChange,
    GraphDelta,
    Partition,
    RunConfig,
    WeightedGraph,
    apply_delta,
    ari,
    ccea_merge_threshold,
    dynamo_update,
    exhaustive_best_partition,
    louvain,
    modularity,
    nmi,
    partition_rebuild_aggregates,
    run_benchmark,
)
from dynamo.cli import main as cli_main
from dynamo.synthgen import Churn, GenConfig, generate
from helpers import modularity_pairwise, random_graph, snapshot_graphs

BENCH_SEEDS = range(20)
BENCH_CONFIG = dict(num_communities=4, community_size=50, p_in=0.3, p_out=0.01,
                    num_snapshots=24, churn=Churn(ccea=8, cced=8))


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")


@pytest.fixture(scope="module")
def benchmark_runs():
    """Twenty seeded sequences with repeat-5 timing plus aggregate oracles."""
    oracle_failures = []

    def check(index, graph, algorithm, partition):
        if algorithm != "dynamo":
            return
        rebuilt = partition_rebuild_aggregates(graph, partition.assignment)
        for c in partition.community_ids:
            if abs(partition.alpha(c) - rebuilt.alpha(c)) > 1e-9 or \
               abs(partition.beta(c) - rebuilt.beta(c)) > 1e-9:
                oracle_failures.append((index, "aggregates"))
                return
        q = modularity(graph, partition)
        if abs(q - modularity_pairwise(graph, partition.assignment)) > 1e-9:
            oracle_failures.append((index, "modularity"))

    start = time.perf_counter()
    per_sequence = []
    for seed in BENCH_SEEDS:
        scenario = generate(GenConfig(seed=seed, **BENCH_CONFIG))
        reports = run_benchmark(scenario.snapshots, RunConfig(repeat=5),
                                on_result=check)
        per_sequence.append(reports)
    elapsed = time.perf_counter() - start
    return per_sequence, oracle_failures, elapsed


def test_criterion_1_modularity_parity(benchmark_runs):
    per_sequence, _, elapsed = benchmark_runs
    gaps = []
    for reports in per_sequence:
        louvain_q = {r.snapshot_index: r.modularity for r in reports
                     if r.algorithm == "louvain"}
        dynamo_q = {r.snapshot_index: r.modularity for r in reports
                    if r.algorithm == "dynamo"}
        for k in louvain_q:
            gaps.append((louvain_q[k] - dynamo_q[k]) / louvain_q[k])
    mean_gap = sum(gaps) / len(gaps)
    max_gap = max(gaps)
    ok = mean_gap <= 0.015 and max_gap <= 0.05 and elapsed <= 120.0
    _report(1, ok, f"mean gap {mean_gap * 100:.4f}% (<=1.5%), "
                   f"max gap {max_gap * 100:.4f}% (<=5%), runtime {elapsed:.1f}s (<=120s)")
    assert mean_gap <= 0.015
    assert max_gap <= 0.05
    assert elapsed <= 120.0


def test_criterion_2_speedup(benchmark_runs):
    per_sequence, _, _ = benchmark_runs
    louvain_total = dynamo_total = 0
    for reports in per_sequence:
        louvain_total += max(r.cumulative_elapsed_ns for r in reports
                             if r.algorithm == "louvain")
        dynamo_total += max(r.cumulative_elapsed_ns for r in reports
                            if r.algorithm == "dynamo")
    ratio = dynamo_total / louvain_total
    _report(2, ratio <= 0.5,
            f"cumulative time ratio {ratio:.3f} (<=0.5) over {len(per_sequence)} sequences")
    assert ratio <= 0.5


def test_criterion_3_merge_threshold_crossover():
    g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                                  (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)])
    p = Partition.from_communities(g, [{0, 1, 2}, {3, 4, 5}])
    canonical = ccea_merge_threshold(g, p, 0, 3)
    assert canonical == pytest.approx(6.0, abs=1e-9)

    rng = random.Random(1009)
    instances = 0
    comparisons = 0
    while instances < 1000:
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
        merged = {v: labels[i] if labels[v] == labels[j] else labels[v]
                  for v in g.vertices}
        for dw in (thr - 0.5, thr - 1e-5, thr + 1e-5, thr + 0.5, thr * 2 + 1.0,
                   0.25, 1.0, 5.0):
            if dw <= 0.0 or abs(dw - thr) < 1e-6:
                continue
            g2 = apply_delta(g, GraphDelta(edge_changes=(EdgeChange(i, j, dw),)))
            q_unchanged = modularity_pairwise(g2, labels)
            q_merged = modularity_pairwise(g2, merged)
            assert (q_merged > q_unchanged) == (dw > thr), (
                f"sign disagreement at dw={dw}, thr={thr}")
            comparisons += 1
        instances += 1
    _report(3, True, f"canonical threshold 6.0 exact; {instances} instances, "
                     f"{comparisons} off-crossover sign agreements")


def test_criterion_4_intra_increase_keeps_pair_together():
    # optimal intra pair stays together after the increase, for the new
    # optimum and for the incremental update
    rng = random.Random(2003)
    instances = 0
    while instances < 500:
        g = random_graph(rng, rng.randint(4, 8), 0.55)
        if g.total_weight == 0:
            continue
        p, _ = exhaustive_best_partition(g)
        pools = [c for c in p.community_ids if len(p.members(c)) >= 2]
        if not pools:
            continue
        c = pools[rng.randrange(len(pools))]
        i, j = rng.sample(sorted(p.members(c)), 2)
        dw = rng.uniform(0.2, 3.0)
        d = GraphDelta(edge_changes=(EdgeChange(i, j, dw),))
        g2 = apply_delta(g, d)
        best, _ = exhaustive_best_partition(g2)
        assert best.community_of(i) == best.community_of(j), (
            f"optimum split the increased pair (instance {instances})")
        out = dynamo_update(g2, g, p, d)
        assert out.community_of(i) == out.community_of(j), (
            f"incremental update split the increased pair (instance {instances})")
        instances += 1
    _report(4, True, f"intra-increase pair cohesion: {instances} instances, zero violations")


def test_criterion_4_pendant_decrease_keeps_pair_together():
    # degree-1 pendant: a weight decrease never separates it, and no
    # separating bi-split beats the unchanged structure
    rng = random.Random(3001)
    instances = 0
    while instances < 500:
        n = rng.randint(4, 8)
        base = random_graph(rng, n - 1, 0.5, connected=True)
        i = n - 1
        j = rng.randrange(n - 1)
        w = rng.uniform(0.5, 2.0)
        g = apply_delta(base, GraphDelta(added_vertices=frozenset({i}),
                                         edge_changes=(EdgeChange(i, j, w),)))
        p, _ = exhaustive_best_partition(g)
        if p.community_of(i) != p.community_of(j):
            continue
        dw = -w * rng.uniform(0.2, 0.8)  # decrease, never a full deletion
        d = GraphDelta(edge_changes=(EdgeChange(i, j, dw),))
        g2 = apply_delta(g, d)

        labels = dict(p.assignment)
        q_unchanged = modularity_pairwise(g2, labels)
        others = [v for v in p.members(p.community_of(i)) if v not in (i, j)]
        fresh = max(labels.values()) + 1
        for r in range(len(others) + 1):
            for side in itertools.combinations(sorted(others), r):
                split = dict(labels)
                for v in (i, *side):
                    split[v] = fresh
                assert q_unchanged >= modularity_pairwise(g2, split) - 1e-12, (
                    f"separating bi-split beat the unchanged structure "
                    f"(instance {instances}, side {side})")

        out = dynamo_update(g2, g, p, d)
        assert out.community_of(i) == out.community_of(j)
        instances += 1
    _report(4, True, f"pendant-decrease pair cohesion: {instances} instances, zero violations")


def test_criterion_4_cross_decrease_strengthens_communities():
    # cross-community decrease strictly raises the two communities' joint term
    rng = random.Random(4001)
    instances = 0
    while instances < 500:
        g = random_graph(rng, rng.randint(6, 12), 0.5)
        if g.total_weight == 0:
            continue
        labels = {v: rng.randrange(3) for v in g.vertices}
        p = partition_rebuild_aggregates(g, labels)
        if p.num_communities < 3:
            continue
        cross = [(u, v, w) for u, v, w in g.edges() if labels[u] != labels[v]]
        if not cross:
            continue
        u, v, w = cross[rng.randrange(len(cross))]
        dw = -w if rng.random() < 0.5 else -w * rng.uniform(0.2, 0.8)
        g2 = apply_delta(g, GraphDelta(edge_changes=(EdgeChange(u, v, dw),)))
        if g2.total_weight <= 0.0:
            continue

        def pair_term(graph):
            part = partition_rebuild_aggregates(graph, labels)
            m = graph.total_weight
            return sum(part.alpha(c) - part.beta(c) ** 2 / (2 * m)
                       for c in (labels[u], labels[v])) / (2 * m)

        assert pair_term(g2) > pair_term(g), f"no strict increase (instance {instances})"
        instances += 1
    _report(4, True, f"cross-decrease strengthening: {instances} instances, zero violations")


def test_criterion_4_new_vertex_joins_single_target_community():
    # new vertex wired into exactly one community: joining beats staying single
    rng = random.Random(5003)
    instances = 0
    while instances < 500:
        g = random_graph(rng, rng.randint(4, 10), 0.5)
        if g.total_weight == 0:
            continue
        labels = {v: rng.randrange(3) for v in g.vertices}
        groups = {}
        for v, c in labels.items():
            groups.setdefault(c, []).append(v)
        c_j, members = sorted(groups.items())[rng.randrange(len(groups))]
        x = max(g.vertices) + 1
        targets = rng.sample(sorted(members), rng.randint(1, min(3, len(members))))
        changes = tuple(EdgeChange(x, t, rng.uniform(0.3, 2.0)) for t in targets)
        g2 = apply_delta(g, GraphDelta(added_vertices=frozenset({x}),
                                       edge_changes=changes))
        merged = {**labels, x: c_j}
        singleton = {**labels, x: max(labels.values()) + 1}
        assert modularity_pairwise(g2, merged) > modularity_pairwise(g2, singleton), (
            f"singleton beat the merge (instance {instances})")
        instances += 1
    _report(4, True, f"single-target attachment: {instances} instances, zero violations")


def test_criterion_4_new_vertex_heaviest_target_dominance():
    # New vertex wired into several communities: the claim under test is that
    # merging into the community with the largest incident weight sum is never
    # worse than merging into any other. KNOWN TO FAIL: by direct evaluation,
    # Q(into p) - Q(into q) is proportional to
    #     2*(s_p - s_q) - dw_total * (beta'_p - beta'_q) / m',
    # so a target community with a large enough strength disadvantage beats a
    # larger incident weight sum. The violations below are genuine; the test
    # states the claim faithfully and is expected to stay red.
    rng = random.Random(6007)
    instances = 0
    violations = 0
    first_example = None
    while instances < 500:
        g = random_graph(rng, rng.randint(6, 10), 0.5)
        if g.total_weight == 0:
            continue
        p, _ = exhaustive_best_partition(g)
        labels = dict(p.assignment)
        groups = {}
        for v, c in labels.items():
            groups.setdefault(c, []).append(v)
        if len(groups) < 2:
            continue
        x = max(g.vertices) + 1
        changes = []
        per_community = {}
        for c, members in sorted(groups.items()):
            count = rng.randint(0, min(2, len(members)))
            for t in rng.sample(sorted(members), count):
                w = rng.uniform(0.3, 2.0)
                changes.append(EdgeChange(x, t, w))
                per_community[c] = per_community.get(c, 0.0) + w
        if len(per_community) < 2:
            continue
        ranked = sorted(per_community.items(), key=lambda kv: -kv[1])
        if ranked[0][1] - ranked[1][1] < 1e-9:
            continue
        g2 = apply_delta(g, GraphDelta(added_vertices=frozenset({x}),
                                       edge_changes=tuple(changes)))
        best_c = ranked[0][0]
        q_best = modularity_pairwise(g2, {**labels, x: best_c})
        margin = min(q_best - modularity_pairwise(g2, {**labels, x: c})
                     for c, _ in ranked[1:])
        if margin < 0:
            violations += 1
            if first_example is None:
                first_example = (sorted(g.edges()), dict(labels), changes, margin)
        instances += 1
    _report(4, violations == 0,
            f"heaviest-target dominance: {violations}/{instances} violations "
            f"(heaviest-target dominance does not hold universally)")
    assert violations == 0, (
        f"{violations} of {instances} instances contradict heaviest-target "
        f"dominance; first counterexample: {first_example}")


def test_criterion_5_louvain_quality():
    # The bound under test: on every one of 100 random connected graphs with
    # at most 8 vertices, greedy detection reaches at least 95% of the
    # exhaustive optimum. KNOWN TO FAIL at a few percent per draw: the greedy
    # sweep has genuine variational traps on tiny graphs (verified: no single
    # vertex or super-vertex move escapes them, and a reference implementation
    # trips at the same rate), occasionally collapsing to a single community
    # while a barely-positive split is optimal. The per-instance multiplicative
    # bound is therefore not attainable by any faithful greedy detector; the
    # test states it faithfully and is expected to stay red.
    rng = random.Random(7001)
    failures = []
    worst = 1.0
    for index in range(100):
        g = random_graph(rng, rng.randint(2, 8), 0.5, connected=True)
        p = louvain(g)
        q = modularity(g, p)
        _, q_best = exhaustive_best_partition(g)
        if q < 0.95 * q_best - 1e-12:
            failures.append((index, q, q_best))
        if q_best > 0:
            worst = min(worst, q / q_best)
    _report(5, not failures,
            f"{len(failures)}/100 graphs below the 0.95 optimum ratio "
            f"(worst ratio {worst:.4f})")
    assert not failures, (
        f"greedy detection fell below 0.95x the exhaustive optimum on "
        f"{len(failures)} of 100 draws: {[(i, round(q, 4), round(qb, 4)) for i, q, qb in failures]}")


def test_criterion_6_incremental_aggregate_oracle(benchmark_runs):
    _, oracle_failures, _ = benchmark_runs
    _report(6, not oracle_failures,
            f"aggregate and pairwise-modularity oracles on every dynamo snapshot: "
            f"{len(oracle_failures)} failures")
    assert oracle_failures == []


def test_criterion_7_metrics_golden_and_invariance():
    c_t = {"a": 0, "b": 0, "c": 1, "d": 1}
    split = {"a": 0, "b": 0, "c": 1, "d": 2}
    crossed = {"a": 0, "b": 1, "c": 0, "d": 1}
    assert nmi(c_t, crossed) == pytest.approx(0.0, abs=1e-9)
    assert nmi(c_t, split) == pytest.approx(0.8, abs=1e-9)
    assert nmi(c_t, c_t) == pytest.approx(1.0, abs=1e-9)
    assert ari(c_t, c_t) == pytest.approx(1.0, abs=1e-9)
    assert ari(c_t, split) == pytest.approx(8.0 / 14.0, abs=1e-9)
    assert ari(c_t, crossed) == pytest.approx(-0.5, abs=1e-9)

    rng = random.Random(8009)
    for _ in range(1000):
        n = rng.randint(2, 30)
        a = {v: rng.randrange(1, 6) for v in range(n)}
        b = {v: rng.randrange(1, 6) for v in range(n)}
        ra = {v: c * 11 + 3 for v, c in a.items()}
        rb = {v: c * 5 + 1 for v, c in b.items()}
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)
        assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)
        assert nmi(ra, rb) == pytest.approx(nmi(a, b), abs=1e-12)
        assert ari(ra, rb) == pytest.approx(ari(a, b), abs=1e-12)
    _report(7, True, "golden values exact; symmetry and label invariance on 1000 pairs")


def test_criterion_8_determinism_and_round_trips(tmp_path):
    mixed = GenConfig(seed=77, num_communities=3, community_size=10, p_in=0.5,
                      p_out=0.06, num_snapshots=6,
                      churn=Churn(icea=1, ccea=2, iced=1, cced=1,
                                  vertex_add=1, vertex_del=1))
    a = generate(mixed)
    b = generate(mixed)
    assert a.event_text == b.event_text
    assert a.delta_texts == b.delta_texts
    assert a.truth_texts == b.truth_texts

    a.write(tmp_path / "scenario")
    from dynamo import load_delta_dir
    snaps = load_delta_dir(tmp_path / "scenario" / "deltas")
    assert snapshot_graphs(snaps) == a.graphs
    for ours, theirs in zip(a.snapshots, snaps):
        assert ours.delta == theirs.delta

    # report files identical apart from timing columns
    outputs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        code = cli_main(["run", "--deltas-dir", str(tmp_path / "scenario" / "deltas"),
                         "--output", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        stripped = [",".join(col for i, col in enumerate(line.split(","))
                             if i not in (5, 6)) for line in rows]
        outputs.append(stripped)
    assert outputs[0] == outputs[1]

    # addition-only event stream reproduces the generated sequence exactly
    addition_only = GenConfig(seed=78, num_communities=3, community_size=8,
                              p_in=0.5, p_out=0.02, num_snapshots=5,
                              churn=Churn(icea=2, ccea=2, vertex_add=1))
    scen = generate(addition_only)
    scen.write(tmp_path / "adds")
    from dynamo import parse_edge_events, slice_snapshots
    sliced = slice_snapshots(parse_edge_events(tmp_path / "adds" / "events.tsv"),
                             interval=1, t0=0)
    assert len(sliced) == len(scen.snapshots)
    assert snapshot_graphs(sliced) == scen.graphs
    for ours, theirs in zip(scen.snapshots, sliced):
        assert ours.delta == theirs.delta
    _report(8, True, "byte-identical generator outputs, stable reports, exact round trips")


def test_criterion_9_community_split_scenario():
    # frozen instance: an intra-community addition where the optimum splits
    # the enlarged community while keeping the endpoints together
    edges = [(0, 1, 1.249), (0, 3, 1.999), (0, 6, 0.759), (1, 5, 0.762),
             (2, 3, 0.668), (3, 4, 0.625), (3, 5, 0.705), (3, 6, 1.128)]
    g = WeightedGraph.from_edges(edges)
    p, _ = exhaustive_best_partition(g)
    assert p.community_of(2) == p.community_of(4)

    d = GraphDelta(edge_changes=(EdgeChange(2, 4, 3.0),))
    g2 = apply_delta(g, d)
    best, q_best = exhaustive_best_partition(g2)
    old_members = p.members(p.community_of(2))
    assert len({best.community_of(v) for v in old_members}) > 1
    assert best.community_of(2) == best.community_of(4)
    q_unchanged = modularity(g2, partition_rebuild_aggregates(g2, p.assignment))
    assert q_best > q_unchanged

    out = dynamo_update(g2, g, p, d)
    q_out = modularity(g2, out)
    ok = abs(q_out - q_best) <= 1e-9
    _report(9, ok, f"update reaches the post-change optimum "
                   f"(Q={q_out:.6f}, optimum={q_best:.6f}, split confirmed)")
    assert q_out == pytest.approx(q_best, abs=1e-9)

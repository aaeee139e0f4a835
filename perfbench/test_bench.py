"""Self-test of the benchmark: ``python -m pytest perfbench -q`` from the repository root.

The tiny workloads below run the whole benchmark (passes, checks, the child
``dynamo run`` and the traced run) in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import bench
from spans import SpanTree

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "deltas": bench.Workload(
        name="tiny-deltas", why="self-test", source="deltas",
        gen=dict(num_communities=4, community_size=25, p_in=0.3, p_out=0.01, num_snapshots=9),
        churn=dict(icea=1, ccea=2, iced=1, cced=2, vertex_add=1, vertex_del=1),
        static_every=4),
    "events": bench.Workload(
        name="tiny-events", why="self-test", source="events",
        gen=dict(num_communities=4, community_size=25, p_in=0.3, p_out=0.01, num_snapshots=9,
                 weight_range=(1.0, 3.0)),
        churn=dict(icea=2, ccea=1, vertex_add=1),
        static_every=4),
}


@pytest.fixture()
def run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(bench, "MIN_UPDATES", 8)
    for wl in TINY.values():
        monkeypatch.setitem(bench.WORKLOADS, wl.name, wl)

    def go(source: str, trace: int) -> tuple[dict, str]:
        code = bench.main(["--workload", TINY[source].name, "--seed", "5",
                           "--seconds", "1", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        return json.loads(out.strip().splitlines()[-1]), out

    return go


@pytest.mark.parametrize("source", ["deltas", "events"])
def test_tiny_workload_prints_every_end_to_end_metric(run, source):
    result, out = run(source, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert len(expected) == 9
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert result["metrics"][name]["value"] > 0
        line = next(line for line in out.splitlines() if line.split()[:1] == [name])
        assert line.split()[2] == unit and "n=" in line


@pytest.mark.parametrize("source", ["deltas", "events"])
def test_traced_run_prints_every_per_layer_metric(run, source):
    result, _ = run(source, 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["louvain.levels_p50"]["value"] >= 1
    assert result["metrics"]["trace.unattributed_pct"]["value"] < 5.0


def test_corrupted_beta_counts_as_failed(run, monkeypatch):
    incremental = sys.modules["dynamo.incremental"]
    graph = sys.modules["dynamo.graph"]
    original = incremental.dynamo_update
    corrupted = []

    def wrong_beta(g_t1, g_t, p_t, d, *args, **kwargs):
        p = original(g_t1, g_t, p_t, d, *args, **kwargs)
        if len(corrupted) >= 1:
            return p
        cids = list(p.community_ids)
        beta = {c: p.beta(c) for c in cids}
        beta[cids[0]] += 1.0
        corrupted.append(cids[0])
        return graph.Partition(dict(p.assignment), {c: p.members(c) for c in cids},
                               {c: p.alpha(c) for c in cids}, beta)

    monkeypatch.setattr(incremental, "dynamo_update", wrong_beta)
    result, out = run("deltas", 0)
    assert corrupted
    assert not result["correct"]
    assert result["failed"] >= 1
    ok_frac = result["metrics"]["ok_frac"]["value"]
    assert ok_frac == 1.0 - result["failed"] / result["attempted"]
    assert "alpha/beta" in out


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "edge-churn-5k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_subtracts_direct_children():
    spans = [
        [0, -1, "a", 0, 100, None],
        [1, 0, "b", 10, 40, None],
        [2, 1, "c", 15, 35, None],
        [3, 0, "b", 50, 60, None],
    ]
    tree = SpanTree(spans)
    assert tree.self_ns(spans[0]) == 100 - 30 - 10
    assert tree.self_ns(spans[1]) == 30 - 20
    assert [s[0] for s in tree.descendants(spans[0], "c")] == [2]
    assert len(tree.kids(spans[0], "b")) == 2

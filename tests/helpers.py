"""Independent oracles and generators shared across the test suite.

Everything here deliberately avoids the library's aggregate bookkeeping:
modularity is evaluated from the raw pairwise definition and set partitions
are enumerated by plain recursion, so these functions can serve as ground
truth for the production code paths.
"""

from __future__ import annotations

import random
from typing import Iterator, Mapping

import numpy as np

from dynamo import GraphDelta, EdgeChange, WeightedGraph, apply_delta


def modularity_pairwise(g, labels: Mapping[int, int]) -> float:
    """Direct double-sum modularity: (1/2m) sum_ij (A_ij - k_i k_j / 2m) [same community]."""
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    a = np.zeros((n, n))
    for v in verts:
        a[index[v], index[v]] = g.self_weight(v)
        for nbr, w in g.neighbors(v).items():
            a[index[v], index[nbr]] = w
    k = a.sum(axis=1)
    two_m = k.sum()
    lab = np.array([labels[v] for v in verts])
    same = lab[:, None] == lab[None, :]
    return float(((a - np.outer(k, k) / two_m) * same).sum() / two_m)


def snapshot_graphs(snapshots) -> list[WeightedGraph]:
    """Every snapshot's graph, folded from the empty graph one delta at a time."""
    graphs = []
    graph = WeightedGraph.empty()
    for snap in snapshots:
        graph = apply_delta(graph, snap.delta)
        graphs.append(graph)
    return graphs


def set_partitions(items: list) -> Iterator[list[list]]:
    """All set partitions of ``items`` by plain recursion (first-element anchoring)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [[first] + block] + smaller[i + 1:]
        yield [[first]] + smaller


def brute_force_best_q(g) -> float:
    """Best modularity over all partitions, via the independent enumerator."""
    verts = sorted(g.vertices)
    best = -np.inf
    for blocks in set_partitions(verts):
        labels = {v: i for i, block in enumerate(blocks) for v in block}
        best = max(best, modularity_pairwise(g, labels))
    return best


def random_graph(rng: random.Random, n: int, p: float,
                 weight_range: tuple[float, float] = (0.5, 2.0),
                 connected: bool = False) -> WeightedGraph:
    """Random weighted graph on vertices 0..n-1; optionally forced connected."""
    lo, hi = weight_range
    edges = []
    present = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, rng.uniform(lo, hi)))
                present.add((u, v))
    if connected:
        # chain any unreached vertices onto a random earlier vertex
        reached = {0}
        adj = {v: set() for v in range(n)}
        for u, v, _ in edges:
            adj[u].add(v)
            adj[v].add(u)
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        for v in range(n):
            if v not in reached:
                u = rng.randrange(v) if v > 0 else 0
                if v > 0 and (min(u, v), max(u, v)) not in present:
                    edges.append((min(u, v), max(u, v), rng.uniform(lo, hi)))
                    present.add((min(u, v), max(u, v)))
                reached.add(v)
    return WeightedGraph.from_edges(edges, vertices=range(n))


def random_delta(rng: random.Random, g: WeightedGraph) -> GraphDelta:
    """A valid random delta for ``g``: adds, removals, increases, decreases."""
    verts = sorted(g.vertices)
    removed = set()
    if len(verts) > 2 and rng.random() < 0.4:
        removed.add(rng.choice(verts))
    alive = [v for v in verts if v not in removed]
    next_id = max(verts) + 1 if verts else 0
    added = set()
    if rng.random() < 0.5:
        added.add(next_id)
    changes: list[EdgeChange] = []
    touched = set()
    for _ in range(rng.randrange(4)):
        if len(alive) < 2:
            break
        u, v = rng.sample(alive, 2)
        key = (min(u, v), max(u, v))
        if key in touched:
            continue
        touched.add(key)
        w = g.weight(u, v)
        if w > 0 and rng.random() < 0.5:
            if rng.random() < 0.5:
                changes.append(EdgeChange(u, v, -w))  # delete
            else:
                changes.append(EdgeChange(u, v, -w * rng.uniform(0.2, 0.8)))
        else:
            changes.append(EdgeChange(u, v, rng.uniform(0.3, 2.0)))
    for k in added:
        if alive:
            changes.append(EdgeChange(k, rng.choice(alive), rng.uniform(0.3, 2.0)))
    return GraphDelta(frozenset(added), frozenset(removed), tuple(changes))

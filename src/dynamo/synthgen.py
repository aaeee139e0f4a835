"""Seeded synthetic evolving networks with planted ground truth.

Snapshot 0 is a planted-partition graph (dense blocks, sparse cross edges);
every later snapshot applies a configured number of changes of each kind,
drawn uniformly from the applicable candidates against the pre-change graph
and the current planted blocks. Everything is a pure function of the seed, so
two runs emit byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import InfeasibleChurnError
from .graph import (
    Change,
    EdgeChange,
    GraphDelta,
    Partition,
    VertexAddition,
    VertexRemoval,
    WeightedGraph,
    apply_delta,
)
from .incremental import ChangeKind
from .ingest import Snapshot, format_delta

_MAX_DRAWS = 200  # resampling cap before a churn request is declared infeasible


@dataclass(frozen=True)
class Churn:
    """Per-snapshot change counts, one field per change kind."""

    icea: int = 0
    ccea: int = 0
    iced: int = 0
    cced: int = 0
    vertex_add: int = 0
    vertex_del: int = 0

    def total(self) -> int:
        return self.icea + self.ccea + self.iced + self.cced + self.vertex_add + self.vertex_del


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    num_communities: int = 4
    community_size: int = 50
    p_in: float = 0.3
    p_out: float = 0.01
    num_snapshots: int = 24
    churn: Churn = field(default_factory=lambda: Churn(icea=1, ccea=6, cced=6))
    weight_range: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.num_communities < 2:
            raise ValueError("need at least 2 communities")
        if self.community_size < 3:
            raise ValueError("need at least 3 vertices per community")
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise ValueError("need 0 <= p_out < p_in <= 1")
        if self.num_snapshots < 1:
            raise ValueError("need at least one snapshot")
        lo, hi = self.weight_range
        if not (0.0 < lo <= hi):
            raise ValueError("weight range must be positive and ordered")
        # detectability guard: expected intra-degree must beat inter-degree
        n = self.num_communities * self.community_size
        intra = self.p_in * (self.community_size - 1)
        inter = self.p_out * (n - self.community_size)
        if intra <= inter:
            raise ValueError(
                f"undetectable configuration: expected intra-degree {intra:.2f} "
                f"<= inter-degree {inter:.2f}"
            )


@dataclass
class GeneratedScenario:
    """A generated snapshot sequence plus its serialized file forms.

    ``graphs[k]`` is snapshot k's graph, the fold of the first k+1 deltas.
    ``labeled_changes[k]`` holds every element of snapshot k's delta with the
    change kind it was drawn as (empty for snapshot 0, which has no
    predecessor to classify against). The event text carries only additions
    and weight increases, so it reproduces the sequence exactly iff the churn
    contains no deletions or vertex removals.
    """

    config: GenConfig
    snapshots: list[Snapshot]
    graphs: list[WeightedGraph]
    ground_truth: list[Partition]
    labeled_changes: list[list[tuple[Change, ChangeKind]]]
    event_text: str
    delta_texts: list[str]
    truth_texts: list[str]

    @property
    def addition_only(self) -> bool:
        c = self.config.churn
        return c.iced == 0 and c.cced == 0 and c.vertex_del == 0

    def write(self, out_dir) -> None:
        """Write events.tsv, deltas/*.delta, and truth/*.tsv under ``out_dir``."""
        out = Path(out_dir)
        (out / "deltas").mkdir(parents=True, exist_ok=True)
        (out / "truth").mkdir(parents=True, exist_ok=True)
        (out / "events.tsv").write_text(self.event_text, encoding="utf-8", newline="\n")
        for k, text in enumerate(self.delta_texts):
            (out / "deltas" / f"snapshot_{k:04d}.delta").write_text(
                text, encoding="utf-8", newline="\n")
        for k, text in enumerate(self.truth_texts):
            (out / "truth" / f"snapshot_{k:04d}.tsv").write_text(
                text, encoding="utf-8", newline="\n")


def generate(cfg: GenConfig) -> GeneratedScenario:
    """Generate a deterministic evolving-network scenario from ``cfg``."""
    rng = random.Random(cfg.seed)
    membership: dict[int, int] = {}
    for block in range(cfg.num_communities):
        for i in range(cfg.community_size):
            membership[block * cfg.community_size + i] = block
    next_vertex = cfg.num_communities * cfg.community_size

    base_edges = _planted_edges(rng, membership, cfg)
    delta0 = GraphDelta(
        frozenset(membership),
        frozenset(),
        tuple(EdgeChange(u, v, w) for (u, v), w in base_edges.items()),
    )
    graph = apply_delta(WeightedGraph.empty(), delta0)
    if graph.total_weight <= 0.0:
        raise InfeasibleChurnError("initial snapshot has no edges")

    snapshots = [Snapshot(0, delta0)]
    graphs = [graph]
    ground_truth = [Partition.from_assignment(graph, membership)]
    labeled: list[list[tuple[Change, ChangeKind]]] = [[]]
    event_lines = [f"{u}\t{v}\t{w!r}\t0" for (u, v), w in base_edges.items()]

    for k in range(1, cfg.num_snapshots):
        delta, labels, next_vertex = _draw_delta(rng, graph, membership, cfg, next_vertex)
        for v in delta.removed_vertices:
            del membership[v]
        graph = apply_delta(graph, delta)
        snapshots.append(Snapshot(k, delta))
        graphs.append(graph)
        ground_truth.append(Partition.from_assignment(graph, membership))
        labeled.append(labels)
        for u, v, dw in delta.edge_changes:
            if dw > 0.0:
                event_lines.append(f"{u}\t{v}\t{dw!r}\t{k}")

    truth_texts = [
        "".join(f"{v}\t{p.assignment[v]}\n" for v in sorted(p.assignment))
        for p in ground_truth
    ]
    return GeneratedScenario(
        config=cfg,
        snapshots=snapshots,
        graphs=graphs,
        ground_truth=ground_truth,
        labeled_changes=labeled,
        event_text="".join(line + "\n" for line in event_lines),
        delta_texts=[format_delta(s.delta) for s in snapshots],
        truth_texts=truth_texts,
    )


def _planted_edges(rng: random.Random, membership: dict[int, int],
                   cfg: GenConfig) -> dict[tuple[int, int], float]:
    """Sample the base planted-partition graph; no vertex is left isolated."""
    lo, hi = cfg.weight_range
    vertices = sorted(membership)
    edges: dict[tuple[int, int], float] = {}
    degree = {v: 0 for v in vertices}
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            p = cfg.p_in if membership[u] == membership[v] else cfg.p_out
            if rng.random() < p:
                edges[(u, v)] = rng.uniform(lo, hi)
                degree[u] += 1
                degree[v] += 1
    for u in vertices:
        if degree[u] == 0:
            # force one intra-block edge so every vertex appears in the stream
            mates = [v for v in vertices if v != u and membership[v] == membership[u]]
            v = mates[rng.randrange(len(mates))]
            key = (u, v) if u < v else (v, u)
            edges[key] = rng.uniform(lo, hi)
            degree[u] += 1
            degree[v] += 1
    return edges


def _draw_delta(
    rng: random.Random,
    graph: WeightedGraph,
    membership: dict[int, int],
    cfg: GenConfig,
    next_vertex: int,
) -> tuple[GraphDelta, list[tuple[Change, ChangeKind]], int]:
    lo, hi = cfg.weight_range
    churn = cfg.churn
    labels: list[tuple[Change, ChangeKind]] = []

    # vertex deletions first: their endpoints are off limits for edge churn
    removed: list[int] = []
    if churn.vertex_del:
        articulation = _articulation_points(graph)
        for _ in range(churn.vertex_del):
            pool = sorted(set(graph.vertices) - set(removed))
            if len(pool) <= 1:
                raise InfeasibleChurnError("vertex deletions would empty the graph")
            preferred = [v for v in pool if v not in articulation]
            choice = (preferred or pool)[rng.randrange(len(preferred or pool))]
            removed.append(choice)
            labels.append((VertexRemoval(choice), ChangeKind.VERTEX_DEL))

    blocked = set(removed)
    alive = sorted(v for v in graph.vertices if v not in blocked)
    by_block: dict[int, list[int]] = {}
    for v in alive:
        by_block.setdefault(membership[v], []).append(v)

    added: list[int] = []
    edge_changes: list[EdgeChange] = []
    touched: set[tuple[int, int]] = set()

    def norm(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    # vertex additions, each wired like a planted member of its block
    new_members: dict[int, int] = {}
    for _ in range(churn.vertex_add):
        k = next_vertex
        next_vertex += 1
        candidate_blocks = sorted(b for b, vs in by_block.items() if vs)
        if not candidate_blocks:
            raise InfeasibleChurnError("no surviving block to attach a new vertex to")
        block = candidate_blocks[rng.randrange(len(candidate_blocks))]
        incident: list[EdgeChange] = []
        for v in alive:
            p = cfg.p_in if membership[v] == block else cfg.p_out
            if rng.random() < p:
                incident.append(EdgeChange(*norm(k, v), rng.uniform(lo, hi)))
        if not incident:
            mates = by_block[block]
            incident.append(EdgeChange(*norm(k, mates[rng.randrange(len(mates))]),
                                       rng.uniform(lo, hi)))
        added.append(k)
        labels.append((VertexAddition(k), ChangeKind.VERTEX_ADD))
        for ec in incident:
            edge_changes.append(ec)
            labels.append((ec, ChangeKind.VERTEX_ADD))
            touched.add(norm(ec.u, ec.v))
        new_members[k] = block

    def draw_pair(same_block: bool) -> tuple[int, int]:
        for _ in range(_MAX_DRAWS):
            if same_block:
                blocks = sorted(b for b, vs in by_block.items() if len(vs) >= 2)
                if not blocks:
                    raise InfeasibleChurnError("no block has two vertices left")
                vs = by_block[blocks[rng.randrange(len(blocks))]]
                u, v = rng.sample(vs, 2)
            else:
                blocks = sorted(b for b, vs in by_block.items() if vs)
                if len(blocks) < 2:
                    raise InfeasibleChurnError("fewer than two blocks left")
                b1, b2 = rng.sample(blocks, 2)
                u = by_block[b1][rng.randrange(len(by_block[b1]))]
                v = by_block[b2][rng.randrange(len(by_block[b2]))]
            if norm(u, v) not in touched:
                return u, v
        raise InfeasibleChurnError("could not draw an untouched vertex pair")

    def draw_existing_edge(same_block: bool) -> tuple[int, int, float]:
        candidates = [
            (u, v, w) for u, v, w in graph.edges()
            if u not in blocked and v not in blocked
            and (membership[u] == membership[v]) == same_block
            and norm(u, v) not in touched
        ]
        if not candidates:
            kind = "intra" if same_block else "cross"
            raise InfeasibleChurnError(f"no {kind}-community edge left to decrease")
        return candidates[rng.randrange(len(candidates))]

    for _ in range(churn.icea):
        u, v = draw_pair(same_block=True)
        ec = EdgeChange(*norm(u, v), rng.uniform(lo, hi))
        edge_changes.append(ec)
        labels.append((ec, ChangeKind.ICEA_WI))
        touched.add(norm(u, v))
    for _ in range(churn.ccea):
        u, v = draw_pair(same_block=False)
        ec = EdgeChange(*norm(u, v), rng.uniform(lo, hi))
        edge_changes.append(ec)
        labels.append((ec, ChangeKind.CCEA_WI))
        touched.add(norm(u, v))
    for _ in range(churn.iced):
        u, v, w = draw_existing_edge(same_block=True)
        dw = -w if rng.random() < 0.5 else -w * rng.uniform(0.3, 0.7)
        ec = EdgeChange(u, v, dw)
        edge_changes.append(ec)
        labels.append((ec, ChangeKind.ICED_WD))
        touched.add(norm(u, v))
    for _ in range(churn.cced):
        u, v, w = draw_existing_edge(same_block=False)
        dw = -w if rng.random() < 0.5 else -w * rng.uniform(0.3, 0.7)
        ec = EdgeChange(u, v, dw)
        edge_changes.append(ec)
        labels.append((ec, ChangeKind.CCED_WD))
        touched.add(norm(u, v))

    membership.update(new_members)
    delta = GraphDelta(frozenset(added), frozenset(removed), tuple(edge_changes))
    return delta, labels, next_vertex


def _articulation_points(g: WeightedGraph) -> set[int]:
    """Cut vertices of ``g`` (iterative lowpoint DFS)."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    points: set[int] = set()
    counter = 0
    for root in sorted(g.vertices):
        if root in disc:
            continue
        root_children = 0
        stack: list[tuple[int, Optional[int], list[int]]] = [
            (root, None, sorted(g.neighbors(root)))]
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            v, parent, nbrs = stack[-1]
            if nbrs:
                child = nbrs.pop()
                if child == parent:
                    continue
                if child in disc:
                    low[v] = min(low[v], disc[child])
                    continue
                disc[child] = low[child] = counter
                counter += 1
                if v == root:
                    root_children += 1
                stack.append((child, v, sorted(g.neighbors(child))))
            else:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[v])
                    if parent != root and low[v] >= disc[parent]:
                        points.add(parent)
        if root_children > 1:
            points.add(root)
    return points

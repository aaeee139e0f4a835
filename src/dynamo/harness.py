"""Benchmark pipeline: static versus incremental detection over a snapshot sequence.

Snapshot 0 always gets full static detection. From snapshot 1 on, the
``louvain`` pipeline reruns static detection from scratch while the ``dynamo``
pipeline updates incrementally from the previous partition, falling back to a
full rerun whenever the refinement threshold fires. A snapshot with zero total
weight gets singletons in every pipeline and no modularity; ``dynamo`` resumes
from those singletons. Wall-clock timing covers detection only (never I/O or
metric computation) and averages over ``repeat`` identical repetitions;
similarity metrics for incremental rows are computed against the same-snapshot
static partition, which serves as the reference. The snapshot stream is folded
one delta at a time, so a run holds two graphs however long the stream is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

from .graph import GraphDelta, Partition, WeightedGraph, apply_delta, modularity
from .incremental import dynamo_update, refine_check
from .ingest import Snapshot, SnapshotReport
from .louvain import DEFAULT_EPSILON, louvain
from .metrics import ari, nmi

ALGORITHMS = ("louvain", "dynamo")

#: optional per-result hook: (snapshot index, graph, algorithm, partition) -> None
ResultHook = Callable[[int, WeightedGraph, str, Partition], None]


@dataclass(frozen=True)
class RunConfig:
    algorithms: tuple[str, ...] = ALGORITHMS
    epsilon: float = DEFAULT_EPSILON
    refine_threshold: float = -1.0
    seed: Optional[int] = None
    repeat: int = 1
    with_baseline: bool = False

    def __post_init__(self):
        if not self.algorithms:
            raise ValueError("select at least one algorithm")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if self.repeat < 1:
            raise ValueError("repeat must be at least 1")


def run_benchmark(
    snapshots: Iterable[Snapshot],
    config: RunConfig = RunConfig(),
    on_result: Optional[ResultHook] = None,
) -> list[SnapshotReport]:
    """Run the configured detectors over ``snapshots`` and build report rows.

    The stream is consumed in one pass that holds only the current snapshot
    graph and its predecessor; rows come back grouped by algorithm.
    """
    pipelines = list(dict.fromkeys(config.algorithms))
    need_baseline = "dynamo" in pipelines and (
        "louvain" in pipelines or config.with_baseline)

    to_run = list(pipelines)
    if need_baseline and "louvain" not in to_run:
        to_run.append("louvain")

    rows: dict[str, list[SnapshotReport]] = {name: [] for name in pipelines}
    partitions: dict[str, Partition] = {}  # each pipeline's latest result
    graph = WeightedGraph.empty()
    for snap in snapshots:
        prev_graph, graph = graph, apply_delta(graph, snap.delta)
        elapsed: dict[str, int] = {}
        scored = graph.total_weight > 0.0
        for name in to_run:
            if not scored:  # Q is undefined on a zero-weight graph: unscored singletons
                step = partial(Partition.singletons, graph)
            elif name == "dynamo" and name in partitions:
                step = _incremental_step(graph, prev_graph, partitions[name], snap.delta, config)
            else:
                step = _static_step(graph, config)
            partitions[name], elapsed[name] = _timed(step, config.repeat)

        for name in pipelines:
            partition = partitions[name]
            score_nmi = score_ari = None
            if name == "dynamo" and need_baseline:
                score_nmi = nmi(partitions["louvain"], partition)
                score_ari = ari(partitions["louvain"], partition)
            cumulative = rows[name][-1].cumulative_elapsed_ns if rows[name] else 0
            rows[name].append(SnapshotReport(
                snapshot_index=snap.index,
                algorithm=name,
                modularity=modularity(graph, partition) if scored else None,
                nmi=score_nmi,
                ari=score_ari,
                elapsed_ns=elapsed[name],
                cumulative_elapsed_ns=cumulative + elapsed[name],
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                num_communities=partition.num_communities,
            ))
            if on_result is not None:
                on_result(snap.index, graph, name, partition)
    if not partitions:
        raise ValueError("no snapshots to process")
    return [row for name in pipelines for row in rows[name]]


def _static_step(graph: WeightedGraph, config: RunConfig) -> Callable[[], Partition]:
    def run() -> Partition:
        return louvain(graph, epsilon=config.epsilon, order_seed=config.seed)
    return run


def _incremental_step(graph: WeightedGraph, prev_graph: WeightedGraph, previous: Partition,
                      delta: GraphDelta, config: RunConfig) -> Callable[[], Partition]:
    def run() -> Partition:
        partition = dynamo_update(
            graph, prev_graph, previous, delta,
            epsilon=config.epsilon, order_seed=config.seed,
        )
        if refine_check(modularity(graph, partition), config.refine_threshold):
            partition = louvain(graph, epsilon=config.epsilon, order_seed=config.seed)
        return partition
    return run


def _timed(step: Callable[[], Partition], repeat: int) -> tuple[Partition, int]:
    """Run ``step`` ``repeat`` times; return its result and the mean elapsed ns."""
    total = 0
    partition = None
    for _ in range(repeat):
        start = time.perf_counter_ns()
        partition = step()
        total += time.perf_counter_ns() - start
    return partition, total // repeat

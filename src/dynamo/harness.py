"""Benchmark pipeline: static versus incremental detection over a snapshot sequence.

Snapshot 0 always gets full static detection. From snapshot 1 on, the
``louvain`` pipeline reruns static detection from scratch while the ``dynamo``
pipeline updates incrementally from the previous partition, falling back to a
full rerun whenever the refinement threshold fires. A snapshot with zero total
weight gets singletons in every pipeline and no modularity; ``dynamo`` resumes
from those singletons. Wall-clock timing covers detection only (never I/O or
metric computation) and averages over ``repeat`` identical repetitions;
when both pipelines run, similarity metrics for incremental rows are computed
against the same-snapshot static partition, which serves as the reference. The
snapshot stream is folded one delta at a time, so a run holds two graphs and at
most the delta a step reads, however long the stream is.
"""

from __future__ import annotations

import math
import time
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional

from .graph import GraphDelta, Partition, WeightedGraph, apply_delta, modularity
from .incremental import dynamo_update
from .ingest import Snapshot, SnapshotReport
from .louvain import louvain
from .metrics import ConfusionTable

ALGORITHMS = ("louvain", "dynamo")

#: optional per-result hook: (snapshot index, graph, algorithm, partition) -> None
ResultHook = Callable[[int, WeightedGraph, str, Partition], None]


class _RunFields(NamedTuple):
    algorithms: tuple[str, ...]
    refine_threshold: float
    repeat: int


class RunConfig(_RunFields):
    """The detectors a run compares, the refinement threshold, and the timing repetitions.

    A threshold of -1 or below never refines; NaN is refused, since it would
    compare false with every modularity.
    """

    __slots__ = ()

    def __new__(cls, algorithms: tuple[str, ...] = ALGORITHMS,
                refine_threshold: float = -1.0, repeat: int = 1) -> RunConfig:
        if not algorithms:
            raise ValueError("select at least one algorithm")
        unknown = set(algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if not isinstance(repeat, int):
            raise ValueError(f"repeat must be an int, got {repeat!r}")
        if repeat < 1:
            raise ValueError("repeat must be at least 1")
        if math.isnan(refine_threshold):
            raise ValueError("refine_threshold must not be NaN")
        return super().__new__(cls, algorithms, refine_threshold, repeat)

    @classmethod
    def _make(cls, iterable) -> RunConfig:  # so that _replace checks its result too
        return cls(*iterable)


def run_benchmark(
    snapshots: Iterable[Snapshot],
    config: RunConfig = RunConfig(),
    on_result: Optional[ResultHook] = None,
) -> list[SnapshotReport]:
    """Run the configured detectors over ``snapshots`` and build report rows.

    The stream is consumed in one pass that holds only the current snapshot
    graph and its predecessor; rows come back grouped by algorithm. A snapshot's
    delta is dropped once applied unless a ``dynamo`` update reads it, so a
    stream that hands over its last reference frees it before detection.
    """
    pipelines = list(dict.fromkeys(config.algorithms))
    rows: dict[str, list[SnapshotReport]] = {name: [] for name in pipelines}
    partitions: dict[str, Partition] = {}  # each pipeline's latest result
    graph = WeightedGraph.empty()
    for snap in snapshots:
        index, delta = snap.index, snap.delta
        del snap  # `delta` may now be the last reference to it
        prev_graph, graph = graph, apply_delta(graph, delta)
        elapsed: dict[str, int] = {}
        scored = graph.total_weight > 0.0
        resumes = scored and "dynamo" in partitions  # a dynamo update reads the delta
        if not resumes:
            del delta  # freed before detection
        for name in pipelines:
            if not scored:  # Q is undefined on a zero-weight graph: unscored singletons
                step = partial(Partition.singletons, graph)
            elif name == "dynamo" and resumes:
                step = _incremental_step(graph, prev_graph, partitions[name], delta, config)
            else:
                step = partial(louvain, graph)
            partitions[name], elapsed[name] = _timed(step, config.repeat)

        num_edges = graph.num_edges
        for name in pipelines:
            partition = partitions[name]
            score_nmi = score_ari = None
            if name == "dynamo" and "louvain" in pipelines:
                table = ConfusionTable.from_partitions(partitions["louvain"], partition)
                score_nmi, score_ari = table.nmi(), table.ari()
            cumulative = rows[name][-1].cumulative_elapsed_ns if rows[name] else 0
            rows[name].append(SnapshotReport(
                snapshot_index=index,
                algorithm=name,
                modularity=modularity(graph, partition) if scored else None,
                nmi=score_nmi,
                ari=score_ari,
                elapsed_ns=elapsed[name],
                cumulative_elapsed_ns=cumulative + elapsed[name],
                num_vertices=graph.num_vertices,
                num_edges=num_edges,
                num_communities=partition.num_communities,
            ))
            if on_result is not None:
                on_result(index, graph, name, partition)
    if not partitions:
        raise ValueError("no snapshots to process")
    return [row for name in pipelines for row in rows[name]]


def _incremental_step(graph: WeightedGraph, prev_graph: WeightedGraph, previous: Partition,
                      delta: GraphDelta, config: RunConfig) -> Callable[[], Partition]:
    def run() -> Partition:
        partition = dynamo_update(graph, prev_graph, previous, delta)
        if (config.refine_threshold > -1.0
                and modularity(graph, partition) < config.refine_threshold):
            partition = louvain(graph)
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

"""Benchmark pipeline: static versus incremental detection over a snapshot sequence.

Snapshot 0 always gets full static detection. From snapshot 1 on, the
``louvain`` pipeline reruns static detection from scratch while the ``dynamo``
pipeline updates incrementally from the previous partition, falling back to a
full rerun whenever the refinement threshold fires. Wall-clock timing covers
detection only (never I/O or metric computation) and averages over ``repeat``
identical repetitions; similarity metrics for incremental rows are computed
against the same-snapshot static partition, which serves as the reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .graph import Partition, modularity
from .incremental import dynamo_update, refine_check
from .ingest import Snapshot, SnapshotReport
from .louvain import DEFAULT_EPSILON, louvain
from .metrics import ari, nmi

ALGORITHMS = ("louvain", "dynamo")

#: optional per-result hook: (snapshot, algorithm, partition) -> None
ResultHook = Callable[[Snapshot, str, Partition], None]


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


@dataclass
class _PipelineResult:
    partitions: list[Partition] = field(default_factory=list)
    elapsed_ns: list[int] = field(default_factory=list)


def run_benchmark(
    snapshots: Sequence[Snapshot],
    config: RunConfig = RunConfig(),
    on_result: Optional[ResultHook] = None,
) -> list[SnapshotReport]:
    """Run the configured detectors over ``snapshots`` and build report rows."""
    if not snapshots:
        raise ValueError("no snapshots to process")

    pipelines = list(dict.fromkeys(config.algorithms))
    need_baseline = "dynamo" in pipelines and (
        "louvain" in pipelines or config.with_baseline)

    to_run = list(pipelines)
    if need_baseline and "louvain" not in to_run:
        to_run.append("louvain")

    results = {name: _run_pipeline(name, snapshots, config) for name in to_run}

    reports: list[SnapshotReport] = []
    for name in pipelines:
        result = results[name]
        baseline = results["louvain"].partitions if (name == "dynamo" and need_baseline) else None
        cumulative = 0
        for snap, partition, elapsed in zip(snapshots, result.partitions, result.elapsed_ns):
            cumulative += elapsed
            score_nmi = score_ari = None
            if baseline is not None:
                reference = baseline[snap.index]
                score_nmi = nmi(reference, partition)
                score_ari = ari(reference, partition)
            reports.append(SnapshotReport(
                snapshot_index=snap.index,
                algorithm=name,
                modularity=modularity(snap.graph, partition),
                nmi=score_nmi,
                ari=score_ari,
                elapsed_ns=elapsed,
                cumulative_elapsed_ns=cumulative,
                num_vertices=snap.graph.num_vertices,
                num_edges=snap.graph.num_edges,
                num_communities=partition.num_communities,
            ))
            if on_result is not None:
                on_result(snap, name, partition)
    return reports


def _run_pipeline(name: str, snapshots: Sequence[Snapshot],
                  config: RunConfig) -> _PipelineResult:
    result = _PipelineResult()
    previous: Optional[Partition] = None
    for k, snap in enumerate(snapshots):
        if name == "louvain" or k == 0:
            step = _static_step(snap, config)
        else:
            step = _incremental_step(snapshots[k - 1], snap, previous, config)
        partition, elapsed = _timed(step, config.repeat)
        result.partitions.append(partition)
        result.elapsed_ns.append(elapsed)
        previous = partition
    return result


def _static_step(snap: Snapshot, config: RunConfig) -> Callable[[], Partition]:
    def run() -> Partition:
        return louvain(snap.graph, epsilon=config.epsilon, order_seed=config.seed)
    return run


def _incremental_step(prev_snap: Snapshot, snap: Snapshot, previous: Partition,
                      config: RunConfig) -> Callable[[], Partition]:
    def run() -> Partition:
        partition = dynamo_update(
            snap.graph, prev_snap.graph, previous, snap.delta,
            epsilon=config.epsilon, order_seed=config.seed,
        )
        if refine_check(modularity(snap.graph, partition), config.refine_threshold):
            partition = louvain(snap.graph, epsilon=config.epsilon,
                                order_seed=config.seed)
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

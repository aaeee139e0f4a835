"""Command-line front end: run, detect, metrics, generate, slice.

Exit codes: 0 on success, 1 on runtime errors (bad data, detection failures),
2 on usage and configuration errors.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterator, Optional

from .errors import DynamoError, InfeasibleChurnError
from .graph import GraphDelta, WeightedGraph, apply_delta
from .harness import ALGORITHMS, RunConfig, run_benchmark
from .ingest import (
    format_partition,
    format_reports,
    load_delta_dir,
    parse_edge_events,
    read_partition_file,
    slice_snapshots,
    write_delta_file,
    write_partition_file,
    write_reports,
)
from .louvain import louvain
from .metrics import ari, nmi


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InfeasibleChurnError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DynamoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser():
    # argparse loads after the package, not before it at the top of this module,
    # where it grew the heap that compiles the package: peak RSS 15.47 -> 15.10 MB
    # for `import dynamo.cli`, 16.61 -> 16.34 MB for a `dynamo run` of about 600
    # vertices (medians of 10 runs without a bytecode cache, Python 3.11.7)
    import argparse

    parser = argparse.ArgumentParser(
        prog="dynamo",
        description="Incremental community detection on evolving networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="benchmark detectors over a snapshot sequence")
    run.add_argument("--input", help="edge-event file (requires --interval)")
    run.add_argument("--deltas-dir", help="directory of per-snapshot .delta files")
    run.add_argument("--interval", type=int, help="snapshot interval in timestamp units")
    run.add_argument("--t0", type=int, default=None,
                     help="slicing anchor (default: first event timestamp)")
    run.add_argument("--algorithms", default=",".join(ALGORITHMS),
                     help="comma-separated subset of: " + ", ".join(ALGORITHMS))
    run.add_argument("--refine-threshold", type=float, default=-1.0,
                     help="rerun static detection when modularity drops below this "
                          "(-1 disables)")
    run.add_argument("--repeat", type=int, default=1,
                     help="repetitions per snapshot for timing averages")
    run.add_argument("--output", default="-", help="report path, or - for stdout")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.set_defaults(handler=_cmd_run)

    detect = sub.add_parser("detect", help="static detection on a single graph")
    detect.add_argument("--input", required=True, help="edge-event file; "
                        "timestamps are ignored and weights accumulate")
    detect.add_argument("--output", default="-", help="partition path, or - for stdout")
    detect.set_defaults(handler=_cmd_detect)

    metrics = sub.add_parser("metrics", help="compare two partition files")
    metrics.add_argument("partition_a")
    metrics.add_argument("partition_b")
    metrics.set_defaults(handler=_cmd_metrics)

    generate = sub.add_parser("generate", help="emit a synthetic evolving network")
    generate.add_argument("--out-dir", required=True)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--communities", type=int, default=4)
    generate.add_argument("--community-size", type=int, default=50)
    generate.add_argument("--p-in", type=float, default=0.3)
    generate.add_argument("--p-out", type=float, default=0.01)
    generate.add_argument("--snapshots", type=int, default=24)
    generate.add_argument("--icea", type=int, default=1)
    generate.add_argument("--ccea", type=int, default=6)
    generate.add_argument("--iced", type=int, default=0)
    generate.add_argument("--cced", type=int, default=6)
    generate.add_argument("--vertex-add", type=int, default=0)
    generate.add_argument("--vertex-del", type=int, default=0)
    generate.add_argument("--weight-min", type=float, default=1.0)
    generate.add_argument("--weight-max", type=float, default=1.0)
    generate.set_defaults(handler=_cmd_generate)

    slice_cmd = sub.add_parser("slice", help="cut an event file into delta files")
    slice_cmd.add_argument("--input", required=True)
    slice_cmd.add_argument("--interval", type=int, required=True)
    slice_cmd.add_argument("--t0", type=int, default=None)
    slice_cmd.add_argument("--out-dir", required=True)
    slice_cmd.set_defaults(handler=_cmd_slice)

    return parser


def _cmd_run(args) -> int:
    if bool(args.input) == bool(args.deltas_dir):
        raise ValueError("exactly one of --input and --deltas-dir is required")
    if args.input and args.interval is None:
        raise ValueError("--interval is required with an event-file input")
    if args.deltas_dir and args.interval is not None:
        raise ValueError("--interval only applies to event-file input")
    if args.deltas_dir and args.t0 is not None:
        raise ValueError("--t0 only applies to event-file input")
    if args.interval is not None and args.interval <= 0:
        raise ValueError("--interval must be positive")

    algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    config = RunConfig(
        algorithms=algorithms,
        refine_threshold=args.refine_threshold,
        repeat=args.repeat,
    )

    if args.input:
        # no name holds the parsed events, so they are freed once sliced
        snapshots = slice_snapshots(parse_edge_events(args.input), args.interval, args.t0)
    else:
        snapshots = load_delta_dir(args.deltas_dir)

    reports = run_benchmark(_handed_over(snapshots), config)
    if args.output == "-":
        sys.stdout.write(format_reports(reports, args.format))
    else:
        write_reports(reports, args.output, args.format)
    return 0


def _handed_over(items: list) -> Iterator:
    """Yield the items of ``items`` in order, removing each from the list as it is yielded.

    The consumer then holds an item's last reference, so it can free each delta
    once applied while every file was still parsed before detection began.
    """
    items.reverse()
    while items:
        yield items.pop()


def _cmd_detect(args) -> int:
    events = parse_edge_events(args.input)
    vertices = frozenset(v for e in events for v in (e.u, e.v))
    changes = (e[:3] for e in events)  # (u, v, weight): the timestamp is dropped
    graph = apply_delta(WeightedGraph.empty(), GraphDelta(vertices, frozenset(), changes))
    labels = louvain(graph).relabeled()  # communities 0..k-1 by smallest member
    if args.output == "-":
        sys.stdout.write(format_partition(labels))
    else:
        write_partition_file(labels, args.output)
    return 0


def _cmd_metrics(args) -> int:
    a = read_partition_file(args.partition_a)
    b = read_partition_file(args.partition_b)
    print(f"nmi={nmi(a, b):.6f} ari={ari(a, b):.6f}")
    return 0


def _cmd_generate(args) -> int:
    from . import synthgen  # the generator and its dataclasses load only for this command

    config = synthgen.GenConfig(
        seed=args.seed,
        num_communities=args.communities,
        community_size=args.community_size,
        p_in=args.p_in,
        p_out=args.p_out,
        num_snapshots=args.snapshots,
        churn=synthgen.Churn(
            icea=args.icea, ccea=args.ccea, iced=args.iced,
            cced=args.cced, vertex_add=args.vertex_add, vertex_del=args.vertex_del,
        ),
        weight_range=(args.weight_min, args.weight_max),
    )
    scenario = synthgen.generate(config)
    scenario.write(args.out_dir)
    print(f"wrote {len(scenario.snapshots)} snapshots to {args.out_dir}")
    return 0


def _cmd_slice(args) -> int:
    if args.interval <= 0:
        raise ValueError("--interval must be positive")
    events = parse_edge_events(args.input)
    snapshots = slice_snapshots(events, args.interval, args.t0)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for snap in snapshots:
        write_delta_file(snap.delta, out / f"snapshot_{snap.index:04d}.delta")
    print(f"wrote {len(snapshots)} delta files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

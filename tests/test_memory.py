"""Memory that the run path's largest steps keep or peak at, traced by tracemalloc.

tracemalloc counts the interpreter's own allocations, so these figures do not
depend on the machine or on what else runs on it, as a process's RSS would.
Each step runs once untraced first, so that nothing it loads on first use is
counted.
"""

import tracemalloc

import pytest

from dynamo.graph import WeightedGraph, apply_delta
from dynamo.ingest import parse_delta_file, parse_edge_events, slice_snapshots
from dynamo.louvain import louvain
from dynamo.synthgen import Churn, GenConfig, generate

# 2,000 vertices in 8 blocks: about 25k edges, all in the first snapshot's delta
PLANTED_2K = GenConfig(seed=3, num_communities=8, community_size=250, p_in=0.1,
                       p_out=2e-4, num_snapshots=1, churn=Churn())

# A delta holds a change in three tuple slots (24 bytes) and shares the parsed
# ids and weights: about 29 bytes per change parsed and 34 sliced here, against
# 85 and 109 while it held one record per change
MAX_BYTES_PER_CHANGE = 48
# on this graph, louvain peaked about 1.38 MB above its start while it built a
# frozenset per vertex for its singleton start, and about 0.66 MB without them
MAX_LOUVAIN_PEAK_BYTES = 1_000_000


def traced(call):
    """``call()``, the bytes it allocated that are still alive, and its peak above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - start, peak - start


@pytest.fixture(scope="module")
def planted_2k(tmp_path_factory):
    out = tmp_path_factory.mktemp("planted_2k")
    generate(PLANTED_2K).write(out)
    return out


def test_parsed_delta_keeps_under_48_bytes_per_change(planted_2k):
    path = planted_2k / "deltas" / "snapshot_0000.delta"
    parse_delta_file(path)
    d, kept, _ = traced(lambda: parse_delta_file(path))
    changes = len(d.edge_changes)
    assert changes >= 20_000
    assert kept / changes < MAX_BYTES_PER_CHANGE, f"{kept / changes:.1f} bytes per change"


def test_sliced_events_keep_under_48_bytes_per_change(planted_2k):
    events = parse_edge_events(planted_2k / "events.tsv")
    slice_snapshots(events, interval=1)
    snapshots, kept, _ = traced(lambda: slice_snapshots(events, interval=1))
    changes = sum(len(s.delta.edge_changes) for s in snapshots)
    assert changes >= 20_000
    assert kept / changes < MAX_BYTES_PER_CHANGE, f"{kept / changes:.1f} bytes per change"


def test_static_louvain_peak(planted_2k):
    g = apply_delta(WeightedGraph.empty(),
                    parse_delta_file(planted_2k / "deltas" / "snapshot_0000.delta"))
    assert g.num_vertices == 2_000
    louvain(g)
    _, _, peak = traced(lambda: louvain(g))
    assert peak < MAX_LOUVAIN_PEAK_BYTES, f"peak {peak} bytes"

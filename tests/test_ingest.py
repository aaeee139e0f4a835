from dataclasses import replace

import pytest

from dynamo import (
    ConflictingDeltaError,
    EdgeChange,
    EdgeEvent,
    EmptyStreamError,
    GraphDelta,
    NegativeWeightError,
    ParseError,
    SelfLoopError,
    SnapshotReport,
    parse_delta_file,
    parse_edge_events,
    read_partition_file,
    slice_snapshots,
    write_delta_file,
    write_partition_file,
    write_reports,
)
from dynamo.ingest import format_delta, format_reports, load_delta_dir
from helpers import graph_of, read_reports, snapshot_graphs


class TestParseEdgeEvents:
    def test_four_field_line(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("0\t1\t1.5\t100\n")
        assert parse_edge_events(path) == [EdgeEvent(0, 1, 1.5, 100)]

    def test_three_field_line_defaults_weight(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("0\t1\t100\n")
        assert parse_edge_events(path) == [EdgeEvent(0, 1, 1.0, 100)]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("# header\n\n0\t1\t5\n")
        assert parse_edge_events(path) == [EdgeEvent(0, 1, 1.0, 5)]

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("0\t0\t1\t5\n")
        with pytest.raises(SelfLoopError):
            parse_edge_events(path)

    def test_non_positive_weight_rejected(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("0\t1\t-1.0\t5\n")
        with pytest.raises(NegativeWeightError):
            parse_edge_events(path)
        for w in ("nan", "inf", "-inf"):
            path.write_text(f"0\t1\t1.0\t4\n0\t1\t{w}\t5\n")
            with pytest.raises(ParseError, match=":2: non-finite"):
                parse_edge_events(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("0\t1\t1.0\t5\nbogus line\n")
        with pytest.raises(ParseError, match=":2"):
            parse_edge_events(path)


class TestSliceSnapshots:
    def test_single_timestamp_single_snapshot(self):
        events = [EdgeEvent(0, 1, 1.0, 50), EdgeEvent(1, 2, 2.0, 50)]
        snaps = slice_snapshots(events, interval=10)
        assert len(snaps) == 1
        assert snapshot_graphs(snaps)[0].total_weight == 3.0

    def test_half_open_boundary(self):
        events = [EdgeEvent(0, 1, 1.0, 0), EdgeEvent(1, 2, 1.0, 10)]
        snaps = slice_snapshots(events, interval=10)
        assert len(snaps) == 2
        assert snaps[1].delta.edge_changes == (EdgeChange(1, 2, 1.0),)
        assert snaps[1].delta.added_vertices == frozenset({2})

    def test_repeated_pairs_accumulate(self):
        events = [EdgeEvent(0, 1, 1.0, 0), EdgeEvent(1, 0, 1.0, 0)]
        snaps = slice_snapshots(events, interval=5)
        assert snapshot_graphs(snaps)[0].weight(0, 1) == 2.0

    def test_cumulative_union_law(self):
        events = [EdgeEvent(0, 1, 1.0, 0), EdgeEvent(1, 2, 1.0, 3),
                  EdgeEvent(2, 3, 0.5, 7), EdgeEvent(0, 3, 1.0, 11)]
        snaps = slice_snapshots(events, interval=4)
        graphs = snapshot_graphs(snaps)
        for k, graph in enumerate(graphs):
            seen = [(e.u, e.v, e.weight) for e in events if e.timestamp < 4 * (k + 1)]
            assert graph == graph_of(seen)
        assert graphs[-1] == graph_of((e.u, e.v, e.weight) for e in events)

    def test_empty_stream_rejected(self):
        with pytest.raises(EmptyStreamError):
            slice_snapshots([], interval=10)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            slice_snapshots([EdgeEvent(0, 1, 1.0, 0)], interval=0)

    def test_explicit_t0(self):
        events = [EdgeEvent(0, 1, 1.0, 100)]
        snaps = slice_snapshots(events, interval=10, t0=95)
        assert len(snaps) == 1

    def test_slicing_deterministic_byte_for_byte(self):
        events = [EdgeEvent(0, 1, 1.25, 0), EdgeEvent(1, 2, 1.0, 3),
                  EdgeEvent(0, 2, 0.5, 7), EdgeEvent(1, 2, 1.0, 7)]
        first = [format_delta(s.delta) for s in slice_snapshots(events, interval=4)]
        second = [format_delta(s.delta) for s in slice_snapshots(list(events), interval=4)]
        assert first == second


class TestDeltaFiles:
    def test_record_forms(self, tmp_path):
        path = tmp_path / "d.delta"
        path.write_text("AV 7\nEW 0 1 -0.5\nDV 3\n")
        d = parse_delta_file(path)
        assert d.added_vertices == frozenset({7})
        assert d.removed_vertices == frozenset({3})
        assert d.edge_changes == (EdgeChange(0, 1, -0.5),)

    def test_conflicting_records(self, tmp_path):
        path = tmp_path / "d.delta"
        path.write_text("AV 3\nDV 3\n")
        with pytest.raises(ConflictingDeltaError):
            parse_delta_file(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "d.delta"
        path.write_text("AV 1\nXX 2\n")
        with pytest.raises(ParseError, match=":2"):
            parse_delta_file(path)

    def test_zero_weight_change_rejected(self, tmp_path):
        path = tmp_path / "d.delta"
        path.write_text("EW 0 1 0.0\n")
        with pytest.raises(ParseError):
            parse_delta_file(path)
        for dw in ("nan", "inf", "-inf"):
            path.write_text(f"AV 0\nAV 2\nEW 0 2 {dw}\n")
            with pytest.raises(ParseError, match=":3: non-finite"):
                parse_delta_file(path)

    def test_self_loop_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "d.delta"
        path.write_text("AV 2\nEW 2 2 1.0\n")
        with pytest.raises(SelfLoopError, match=r"d\.delta:2: self-loop on vertex 2"):
            parse_delta_file(path)

    def test_round_trip(self, tmp_path):
        d = GraphDelta(frozenset({9}), frozenset({2}),
                       (EdgeChange(0, 1, 1.25), EdgeChange(4, 0, -0.75)))
        path = tmp_path / "d.delta"
        write_delta_file(d, path)
        assert parse_delta_file(path) == d

    def test_load_delta_dir(self, tmp_path):
        (tmp_path / "snapshot_0000.delta").write_text(
            "AV 0\nAV 1\nAV 2\nEW 0 1 1.0\nEW 1 2 1.0\n")
        (tmp_path / "snapshot_0001.delta").write_text("EW 0 2 2.0\n")
        snaps = load_delta_dir(tmp_path)
        assert len(snaps) == 2
        graphs = snapshot_graphs(snaps)
        assert graphs[0].total_weight == 2.0
        assert graphs[1].weight(0, 2) == 2.0

    def test_load_empty_dir(self, tmp_path):
        with pytest.raises(EmptyStreamError):
            load_delta_dir(tmp_path)


class TestPartitionFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.tsv"
        write_partition_file({3: 1, 1: 0, 2: 0}, path)
        assert path.read_text() == "1\t0\n2\t0\n3\t1\n"
        assert read_partition_file(path) == {1: 0, 2: 0, 3: 1}

    def test_repeated_vertex_rejected(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("0\t0\n1\t0\n0\t1\n")
        with pytest.raises(ParseError, match=r"p\.tsv:3: vertex 0 listed twice"):
            read_partition_file(path)


def _report(i, algorithm="louvain", nmi=None, ari=None):
    return SnapshotReport(
        snapshot_index=i, algorithm=algorithm, modularity=0.5 + i / 100,
        nmi=nmi, ari=ari, elapsed_ns=1000 + i, cumulative_elapsed_ns=2000 + i,
        num_vertices=10, num_edges=20, num_communities=3,
    )


def _unscored(i):
    """A zero-weight snapshot's row: it has no modularity."""
    return replace(_report(i, "dynamo", nmi=1.0, ari=1.0), modularity=None)


class TestReports:
    def test_empty_reports_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        write_reports([], path)
        assert path.read_text() == (
            "snapshot,algorithm,modularity,nmi,ari,elapsed_ns,"
            "cumulative_elapsed_ns,vertices,edges,communities\n")

    def test_single_row_field_order(self, tmp_path):
        path = tmp_path / "r.csv"
        write_reports([_report(0)], path)
        line = path.read_text().splitlines()[1]
        assert line == "0,louvain,0.5,,,1000,2000,10,20,3"

    def test_csv_round_trip(self, tmp_path):
        reports = [_report(0), _report(1, "dynamo", nmi=0.875, ari=1 / 3), _unscored(2)]
        path = tmp_path / "r.csv"
        write_reports(reports, path)
        assert path.read_text().splitlines()[3] == "2,dynamo,,1.0,1.0,1002,2002,10,20,3"
        assert read_reports(path) == reports

    def test_json_round_trip(self, tmp_path):
        reports = [_report(0), _report(1, "dynamo", nmi=1.0, ari=0.1234567890123),
                   _unscored(2)]
        path = tmp_path / "r.json"
        write_reports(reports, path, fmt="json")
        assert '"modularity": null' in path.read_text()
        assert read_reports(path, fmt="json") == reports

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_utf8_file_is_a_parse_error(self, tmp_path, fmt):
        path = tmp_path / f"r.{fmt}"
        write_reports([_report(0)], path, fmt=fmt)
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(ParseError, match=rf"r\.{fmt}: not UTF-8 text"):
            read_reports(path, fmt=fmt)

    def test_bit_stable(self):
        reports = [_report(0), _report(1, "dynamo", nmi=0.9, ari=0.8)]
        assert format_reports(reports) == format_reports(list(reports))
        assert format_reports(reports, "json") == format_reports(reports, "json")

import pytest
from hypothesis import given, settings, strategies as st

from dynamo.errors import (
    ConflictingDeltaError,
    EmptyStreamError,
    NegativeWeightError,
    ParseError,
    SelfLoopError,
)
from dynamo.graph import EdgeChange, GraphDelta, VertexAddition, VertexRemoval
from dynamo.ingest import (
    EdgeEvent,
    SnapshotReport,
    format_delta,
    format_reports,
    load_delta_dir,
    parse_delta_file,
    parse_edge_events,
    read_partition_file,
    slice_snapshots,
    write_delta_file,
    write_partition_file,
    write_reports,
)
from helpers import graph_of, naive_slices, read_reports, snapshot_graphs


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

    def test_events_share_one_int_per_vertex_id(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("1000\t2000\t5\n2000\t3000\t2.5\t6\n")
        first, second = parse_edge_events(path)
        assert first.v is second.u

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

    def test_records_share_ids_and_a_repeated_weight(self, tmp_path):
        # ids above CPython's small-int cache, so sharing is not the interpreter's
        path = tmp_path / "d.delta"
        path.write_text("AV 1000\nEW 1000 2000 2.5\nEW 2000 3000 2.5\nDV 3000\n"
                        "EW 1000 3000 0.5\nEW 2000 1000 2.5\n")
        d = parse_delta_file(path)
        first, second, third, fourth = d.edge_changes
        assert next(iter(d.added_vertices)) is first.u
        assert first.v is second.u is fourth.u and second.v is third.v
        assert next(iter(d.removed_vertices)) is second.v
        assert first.delta_w is second.delta_w == 2.5  # consecutive lines share one float
        assert fourth.delta_w == 2.5

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


class TestDeltaContract:
    """What a delta offers its readers, however it was built and whatever it stores."""

    TEXT = "EW 2000 5 -0.75\nAV 1000\nEW 1000 2000 2.5\nDV 3000\nEW 5 1000 0.125\nAV 5\n"
    TRIPLES = ((2000, 5, -0.75), (1000, 2000, 2.5), (5, 1000, 0.125))

    def parsed(self, tmp_path) -> GraphDelta:
        path = tmp_path / "d.delta"
        path.write_text(self.TEXT)
        return parse_delta_file(path)

    def test_equal_and_hashed_alike_however_built(self, tmp_path):
        parsed = self.parsed(tmp_path)
        built = GraphDelta(frozenset({5, 1000}), frozenset({3000}),
                           tuple(EdgeChange(*t) for t in self.TRIPLES))
        assert parsed == built and hash(parsed) == hash(built)
        triples = GraphDelta([1000, 5], {3000}, iter(self.TRIPLES))
        assert parsed == triples and hash(parsed) == hash(triples)
        assert parsed != GraphDelta(frozenset({5, 1000}), frozenset({3000}),
                                    tuple(EdgeChange(*t) for t in reversed(self.TRIPLES)))

    def test_edge_changes_are_records_in_file_order(self, tmp_path):
        changes = self.parsed(tmp_path).edge_changes
        assert type(changes) is tuple
        assert all(type(ec) is EdgeChange for ec in changes)
        assert changes == tuple(EdgeChange(*t) for t in self.TRIPLES)
        assert [ec.delta_w for ec in changes] == [-0.75, 2.5, 0.125]

    def test_changes_order(self, tmp_path):
        assert list(self.parsed(tmp_path).changes()) == [
            VertexAddition(5), VertexAddition(1000), VertexRemoval(3000),
            *(EdgeChange(*t) for t in self.TRIPLES)]

    def test_repr_text(self, tmp_path):
        path = tmp_path / "d.delta"
        path.write_text("AV 1000\nDV 7\nEW 1000 7 -0.5\nEW 7 3 2.0\n")
        assert repr(parse_delta_file(path)) == (
            "GraphDelta(added_vertices=frozenset({1000}), removed_vertices=frozenset({7}), "
            "edge_changes=(EdgeChange(u=1000, v=7, delta_w=-0.5), "
            "EdgeChange(u=7, v=3, delta_w=2.0)))")

    def test_format_delta_bytes(self, tmp_path):
        assert format_delta(self.parsed(tmp_path)) == (
            "AV 5\nAV 1000\nDV 3000\nEW 2000 5 -0.75\nEW 1000 2000 2.5\nEW 5 1000 0.125\n")


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
    return _report(i, "dynamo", nmi=1.0, ari=1.0)._replace(modularity=None)


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

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError) as info:
            format_reports([_report(0)], "xml")
        assert str(info.value) == "unknown report format 'xml'"

    def test_bit_stable(self):
        reports = [_report(0), _report(1, "dynamo", nmi=0.9, ari=0.8)]
        assert format_reports(reports) == format_reports(list(reports))
        assert format_reports(reports, "json") == format_reports(reports, "json")


# Every error branch of the two stream readers, pinned with its type and its full
# message. ``{path}`` stands for the file, so each message is checked with its line.
EVENT_ERRORS = [
    ("0\t1\n", ParseError, "{path}:1: expected 3 or 4 tab-separated fields, got 2"),
    ("0\t1\t1.0\t5\t9\n", ParseError, "{path}:1: expected 3 or 4 tab-separated fields, got 5"),
    ("0 1 1.0 5\n", ParseError, "{path}:1: expected 3 or 4 tab-separated fields, got 1"),
    ("x\t1\t5\n", ParseError, "{path}:1: invalid literal for int() with base 10: 'x'"),
    ("0\ty\t1.0\t5\n", ParseError, "{path}:1: invalid literal for int() with base 10: 'y'"),
    ("0\t1\tw\t5\n", ParseError, "{path}:1: could not convert string to float: 'w'"),
    ("0\t1\t1.0\tt\n", ParseError, "{path}:1: invalid literal for int() with base 10: 't'"),
    ("0\t1\t1.5\n", ParseError, "{path}:1: invalid literal for int() with base 10: '1.5'"),
    ("x\t1\tw\tt\n", ParseError, "{path}:1: invalid literal for int() with base 10: 'x'"),
    ("0\t1\tw\tt\n", ParseError, "{path}:1: could not convert string to float: 'w'"),
    ("0\t1\t0\t5\n", NegativeWeightError, "{path}:1: non-positive weight 0.0"),
    ("0\t1\t-0.0\t5\n", NegativeWeightError, "{path}:1: non-positive weight -0.0"),
    ("0\t1\t-1.5\t5\n", NegativeWeightError, "{path}:1: non-positive weight -1.5"),
    ("0\t1\tnan\t5\n", ParseError, "{path}:1: non-finite weight nan"),
    ("0\t1\tinf\t5\n", ParseError, "{path}:1: non-finite weight inf"),
    ("0\t1\t-inf\t5\n", ParseError, "{path}:1: non-finite weight -inf"),
    ("0\t0\t5\n", SelfLoopError, "{path}:1: self-loop on vertex 0"),
    ("3\t3\t-1.0\t5\n", SelfLoopError, "{path}:1: self-loop on vertex 3"),
    ("3\t3\tnan\t5\n", ParseError, "{path}:1: non-finite weight nan"),
    ("# c\n\n0\t1\t5\n  # c\n0\t1\tbad\t5\n", ParseError,
     "{path}:5: could not convert string to float: 'bad'"),
    # after a valid line, whose ids are already converted
    ("0\t1\t5\n1\tx\t5\n", ParseError, "{path}:2: invalid literal for int() with base 10: 'x'"),
    ("0\t1\t5\n1\t1\t5\n", SelfLoopError, "{path}:2: self-loop on vertex 1"),
]

DELTA_ERRORS = [
    ("XX 2\n", ParseError, "{path}:1: unrecognized record 'XX'"),
    ("ew 0 1 1.0\n", ParseError, "{path}:1: unrecognized record 'ew'"),
    ("AV\n", ParseError, "{path}:1: unrecognized record 'AV'"),
    ("AV 1 2\n", ParseError, "{path}:1: unrecognized record 'AV'"),
    ("DV\n", ParseError, "{path}:1: unrecognized record 'DV'"),
    ("DV 1 2\n", ParseError, "{path}:1: unrecognized record 'DV'"),
    ("EW 0 1\n", ParseError, "{path}:1: unrecognized record 'EW'"),
    ("EW 0 1 1.0 2\n", ParseError, "{path}:1: unrecognized record 'EW'"),
    ("AV x\n", ParseError, "{path}:1: invalid literal for int() with base 10: 'x'"),
    ("DV 1.5\n", ParseError, "{path}:1: invalid literal for int() with base 10: '1.5'"),
    ("EW a 1 1.0\n", ParseError, "{path}:1: invalid literal for int() with base 10: 'a'"),
    ("EW 0 b 1.0\n", ParseError, "{path}:1: invalid literal for int() with base 10: 'b'"),
    ("EW 0 1 w\n", ParseError, "{path}:1: could not convert string to float: 'w'"),
    ("EW a b w\n", ParseError, "{path}:1: could not convert string to float: 'w'"),
    ("EW a b 0\n", ParseError, "{path}:1: zero weight change"),
    ("EW 0 1 0\n", ParseError, "{path}:1: zero weight change"),
    ("EW 0 1 -0.0\n", ParseError, "{path}:1: zero weight change"),
    ("EW 0 1 nan\n", ParseError, "{path}:1: non-finite weight change nan"),
    ("EW 0 1 inf\n", ParseError, "{path}:1: non-finite weight change inf"),
    ("EW 0 1 -inf\n", ParseError, "{path}:1: non-finite weight change -inf"),
    ("EW a b nan\n", ParseError, "{path}:1: non-finite weight change nan"),
    ("EW 2 2 1.0\n", SelfLoopError, "{path}:1: self-loop on vertex 2"),
    ("EW 2 2 -1.0\n", SelfLoopError, "{path}:1: self-loop on vertex 2"),
    ("EW 2 2 0.0\n", ParseError, "{path}:1: zero weight change"),
    ("AV 3\nDV 3\nAV 1\nDV 1\n", ConflictingDeltaError,
     "{path}: vertices both added and deleted: [1, 3]"),
    ("AV 3\nDV 3\nXX\n", ParseError, "{path}:3: unrecognized record 'XX'"),
    ("# c\n\nAV 1\n\t# c\nEW 0 1 zero\n", ParseError,
     "{path}:5: could not convert string to float: 'zero'"),
    # after a valid line, whose ids and weight are already converted
    ("EW 0 1 1.0\nEW 0 x 1.0\n", ParseError, "{path}:2: invalid literal for int() with base 10: 'x'"),
    ("EW 0 1 1.0\nAV x\n", ParseError, "{path}:2: invalid literal for int() with base 10: 'x'"),
    ("EW 0 1 1.0\nEW 1 1 1.0\n", SelfLoopError, "{path}:2: self-loop on vertex 1"),
    ("EW 0 1 1.0\nEW 0 1 0.0\n", ParseError, "{path}:2: zero weight change"),
    ("EW 0 1 1.0\nEW 0 1 nan\n", ParseError, "{path}:2: non-finite weight change nan"),
    ("EW 0 1 1.0\nEW 0 1 inf\n", ParseError, "{path}:2: non-finite weight change inf"),
]


def _raised(parse, path):
    with pytest.raises(Exception) as info:
        parse(path)
    return info.type, str(info.value)


class TestReaderErrors:
    @pytest.mark.parametrize("text, error, message", EVENT_ERRORS)
    def test_edge_event_errors(self, tmp_path, text, error, message):
        path = tmp_path / "events.tsv"
        path.write_text(text)
        assert _raised(parse_edge_events, path) == (error, message.format(path=path))

    @pytest.mark.parametrize("text, error, message", DELTA_ERRORS)
    def test_delta_errors(self, tmp_path, text, error, message):
        path = tmp_path / "d.delta"
        path.write_text(text)
        assert _raised(parse_delta_file, path) == (error, message.format(path=path))

    @pytest.mark.parametrize("parse", [parse_edge_events, parse_delta_file])
    def test_non_utf8_bytes(self, tmp_path, parse):
        path = tmp_path / "input"
        path.write_bytes(b"AV 0\n\xff\n")
        assert _raised(parse, path) == (
            ParseError, f"{path}: not UTF-8 text (invalid start byte)")


class TestReaderLayouts:
    # CRLF endings, surrounding whitespace, indented comments, blank lines and a
    # missing final newline all read like the plain layout
    EVENTS = [EdgeEvent(0, 1, 1.5, 100), EdgeEvent(1, 2, 1.0, 101), EdgeEvent(2, 0, 2.0, 101)]
    DELTA = GraphDelta(frozenset({0, 1, 2}), frozenset({7}),
                       (EdgeChange(0, 1, 1.5), EdgeChange(2, 1, -0.25)))

    @pytest.mark.parametrize("text", [
        "0\t1\t1.5\t100\n1\t2\t101\n2\t0\t2.0\t101\n",
        "0\t1\t1.5\t100\r\n1\t2\t101\r\n2\t0\t2.0\t101\r\n",
        "  0\t1\t1.5\t100  \n\t1\t2\t101\t\n 2\t0\t2.0\t101 \n",
        "   # comment\n0\t1\t1.5\t100\n\t# tabbed comment\n1\t2\t101\n2\t0\t2.0\t101\n",
        "0\t1\t1.5\t100\n1\t2\t101\n2\t0\t2.0\t101",
        "\n\n0\t1\t1.5\t100\n   \n\t\n1\t2\t101\n\r\n2\t0\t2.0\t101\n\n",
        "0\t1\t 1.5\t100\n1\t2\t101\n2\t0\t2.0 \t 101\n",
    ], ids=["plain", "crlf", "whitespace", "indented-comments", "no-final-newline",
            "blank-lines", "padded-fields"])
    def test_edge_event_layouts(self, tmp_path, text):
        path = tmp_path / "events.tsv"
        path.write_bytes(text.encode())
        assert parse_edge_events(path) == self.EVENTS

    @pytest.mark.parametrize("text", [
        "AV 0\nAV 1\nAV 2\nDV 7\nEW 0 1 1.5\nEW 2 1 -0.25\n",
        "AV 0\r\nAV 1\r\nAV 2\r\nDV 7\r\nEW 0 1 1.5\r\nEW 2 1 -0.25\r\n",
        "  AV 0  \n\tAV 1\nAV 2 \nDV 7\n EW 0 1 1.5\t\nEW 2 1 -0.25\n",
        "AV\t0\nAV\t1\nAV\t2\nDV\t7\nEW\t0\t1\t1.5\nEW 2\t1  -0.25\n",
        "  # comment\nAV 0\nAV 1\n\t# tabbed\nAV 2\nDV 7\nEW 0 1 1.5\nEW 2 1 -0.25\n",
        "AV 0\nAV 1\nAV 2\nDV 7\nEW 0 1 1.5\nEW 2 1 -0.25",
        "\nAV 0\n\n  \nAV 1\nAV 2\n\t\nDV 7\n\r\nEW 0 1 1.5\nEW 2 1 -0.25\n\n",
    ], ids=["plain", "crlf", "whitespace", "tabs", "indented-comments",
            "no-final-newline", "blank-lines"])
    def test_delta_layouts(self, tmp_path, text):
        path = tmp_path / "d.delta"
        path.write_bytes(text.encode())
        assert parse_delta_file(path) == self.DELTA


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# few vertex ids, so that pairs repeat within and across snapshots
EVENT_STREAMS = st.lists(st.builds(
    EdgeEvent, st.integers(0, 7), st.integers(0, 7),
    st.sampled_from([0.5, 1.0, 1.25]) | st.floats(1e-3, 1e3), st.integers(-6, 40),
).filter(lambda e: e.u != e.v), min_size=1, max_size=40)


@st.composite
def deltas(draw):
    ids = st.integers(-50, 50)
    added = draw(st.frozensets(ids, max_size=8))
    removed = draw(st.frozensets(ids, max_size=8)) - added
    weights = st.floats(allow_nan=False, allow_infinity=False).filter(bool)
    changes = draw(st.lists(st.builds(EdgeChange, ids, ids, weights)
                            .filter(lambda ec: ec.u != ec.v), max_size=20))
    return GraphDelta(added, removed, tuple(changes))


class TestReaderProperties:
    @PROPERTY
    @given(deltas())
    def test_delta_file_round_trip(self, tmp_path_factory, d):
        path = tmp_path_factory.mktemp("delta") / "d.delta"
        write_delta_file(d, path)
        assert parse_delta_file(path) == d

    @PROPERTY
    @given(EVENT_STREAMS, st.integers(1, 7), st.none() | st.integers(-10, 20))
    def test_slicing_matches_the_naive_slicer(self, events, interval, t0):
        snaps = slice_snapshots(events, interval, t0)
        assert [s.index for s in snaps] == list(range(len(snaps)))
        assert [s.delta for s in snaps] == naive_slices(events, interval, t0)

import argparse
import csv
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from dynamo import cli, harness
from dynamo.cli import _build_parser, main
from dynamo.ingest import load_delta_dir
from dynamo.synthgen import Churn, GenConfig, generate
from helpers import read_reports

TRIANGLE_EVENTS = "0\t1\t0\n1\t2\t0\n0\t2\t0\n3\t4\t0\n4\t5\t0\n3\t5\t0\n"
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


# Run in a fresh interpreter: `dynamo run` over a delta directory into a CSV file,
# printing the loaded module names when the report writer is entered and at the end.
LEAN_RUN = """
import sys
from dynamo import cli

write_reports = cli.write_reports
seen = []

def recording(*args, **kwargs):
    seen.append(",".join(sys.modules))
    return write_reports(*args, **kwargs)

cli.write_reports = recording
code = cli.main(["run", "--deltas-dir", sys.argv[1], "--output", sys.argv[2]])
print(code)
print(*seen, sep="\\n")
print(",".join(sys.modules))
"""


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "dynamo.cli", *args],
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def event_file(tmp_path):
    path = tmp_path / "events.tsv"
    path.write_text(TRIANGLE_EVENTS)
    return path


class TestDetect:
    def test_two_triangles_two_communities(self, event_file, tmp_path):
        out = tmp_path / "partition.tsv"
        code, _, _ = run_cli("detect", "--input", str(event_file), "--output", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assignment = dict(line.split("\t") for line in lines)
        assert len(set(assignment.values())) == 2
        assert assignment["0"] == assignment["1"] == assignment["2"]

    def test_empty_graph_exits_one(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# nothing\n")
        code, _, err = run_cli("detect", "--input", str(empty))
        assert code == 1
        assert "error" in err

    def test_idempotent(self, event_file, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["detect", "--input", str(event_file), "--output", str(a)]) == 0
        assert main(["detect", "--input", str(event_file), "--output", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_stdout_matches_output_file(self, event_file, tmp_path, capsys):
        out = tmp_path / "p.tsv"
        assert main(["detect", "--input", str(event_file), "--output", str(out)]) == 0
        assert main(["detect", "--input", str(event_file)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def planted_events() -> str:
    """Three shuffled blocks of 8 on vertices 0..23, weighted, all at time 0."""
    rng = random.Random(11)
    order = list(range(24))
    rng.shuffle(order)
    block = {v: i // 8 for i, v in enumerate(order)}
    return "".join(f"{u}\t{v}\t{rng.choice([1, 2, 3])}.0\t0\n"
                   for u in range(24) for v in range(u + 1, 24)
                   if rng.random() < (0.7 if block[u] == block[v] else 0.04))


# `dynamo detect` output on planted_events() as of the release before
# community ids became stable; label of vertex 0, 1, ..., 23
PLANTED_LABELS = [0, 1, 1, 0, 1, 2, 2, 1, 0, 1, 1, 0, 1, 0, 2, 1, 2, 2, 2, 0, 0, 2, 0, 2]


class TestDetectLabels:
    def test_canonical_labels_match_earlier_release(self, tmp_path, capsys):
        path = tmp_path / "planted.tsv"
        path.write_text(planted_events())
        assert main(["detect", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == "".join(f"{v}\t{c}\n" for v, c in enumerate(PLANTED_LABELS))
        # labels are 0..k-1 in order of each community's smallest member
        first_seen = list(dict.fromkeys(PLANTED_LABELS))
        assert first_seen == list(range(len(first_seen)))


class TestMetrics:
    def test_identical_files(self, tmp_path, capsys):
        p = tmp_path / "p.tsv"
        p.write_text("0\t0\n1\t0\n2\t1\n3\t1\n")
        assert main(["metrics", str(p), str(p)]) == 0
        assert capsys.readouterr().out.strip() == "nmi=1.000000 ari=1.000000"

    def test_golden_pair(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("0\t0\n1\t0\n2\t1\n3\t1\n")
        b.write_text("0\t0\n1\t0\n2\t1\n3\t2\n")
        assert main(["metrics", str(a), str(b)]) == 0
        assert capsys.readouterr().out.strip() == "nmi=0.800000 ari=0.571429"

    def test_mismatched_vertex_sets_exit_one(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("0\t0\n1\t0\n")
        b.write_text("0\t0\n9\t0\n")
        assert main(["metrics", str(a), str(b)]) == 1

    def test_repeated_vertex_exits_one(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("0\t0\n1\t0\n0\t1\n")
        b.write_text("0\t1\n1\t0\n")
        assert main(["metrics", str(a), str(b)]) == 1
        assert capsys.readouterr().err == f"error: {a}:3: vertex 0 listed twice\n"

    def test_three_field_line_exits_one(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        a.write_text("0\t0\n1\t0\t7\n")
        assert main(["metrics", str(a), str(a)]) == 1
        assert capsys.readouterr().err == f"error: {a}:2: expected 2 fields, got 3\n"


@pytest.mark.parametrize("command", [["run", "--deltas-dir", "{dir}"],
                                     ["run", "--input", "{file}", "--interval", "1"],
                                     ["detect", "--input", "{file}"],
                                     ["metrics", "{file}", "{file}"]],
                         ids=["run-deltas", "run-events", "detect", "metrics"])
def test_non_utf8_input_is_a_data_error(tmp_path, capsys, command):
    bad = tmp_path / "snapshot_0000.delta"
    bad.write_bytes(b"AV 0\n\xff\n")
    args = [arg.format(dir=tmp_path, file=bad) for arg in command]
    assert main(args) == 1
    assert f"error: {bad}: not UTF-8 text" in capsys.readouterr().err


def test_strengths_whose_square_overflows_are_scored(tmp_path, capsys):
    # a community's strength past about 1.3e154 squares past the largest float;
    # the run scores it like the same stream with every weight scaled down
    events = [(1, 2, 1e160), (3, 4, 1e160), (2, 3, 1.0)]
    q = {}
    for name, scale in (("huge", 1.0), ("scaled", 1e150)):
        source, out = tmp_path / f"{name}.tsv", tmp_path / f"{name}.csv"
        source.write_text("".join(f"{u}\t{v}\t{w / scale!r}\t0\n" for u, v, w in events))
        assert main(["run", "--input", str(source), "--interval", "1",
                     "--output", str(out)]) == 0, capsys.readouterr().err
        q[name] = [(r.algorithm, r.modularity) for r in read_reports(out)]
    assert [a for a, _ in q["huge"]] == [a for a, _ in q["scaled"]] == ["louvain", "dynamo"]
    for (_, huge), (_, scaled) in zip(q["huge"], q["scaled"]):
        assert huge == pytest.approx(scaled, abs=1e-12)


ONE_PAIR_EVENTS = "1\t2\t1e308\t0\n1\t2\t1e308\t0\n"


@pytest.mark.parametrize("command, text, message", [
    (["run", "--input", "{file}", "--interval", "1"], ONE_PAIR_EVENTS,
     "weights on (1,2) sum past the largest float in snapshot 0"),
    (["detect", "--input", "{file}"], ONE_PAIR_EVENTS, "on (1,2) overflows"),
    (["run", "--deltas-dir", "{dir}"], "AV 1\nAV 2\nEW 1 2 1e308\nEW 1 2 1e308\n",
     "on (1,2) overflows"),
    (["run", "--input", "{file}", "--interval", "1"], "1\t2\t1e308\t0\n3\t4\t1e308\t0\n",
     "the edge weights sum past the largest float"),
], ids=["run-events-one-pair", "detect", "run-deltas", "run-events-two-pairs"])
def test_finite_weights_that_overflow_exit_one(tmp_path, capsys, command, text, message):
    # each weight is finite, but a pair's sum or the total weight is not
    source = tmp_path / "snapshot_0000.delta"
    source.write_text(text)
    args = [arg.format(dir=tmp_path, file=source) for arg in command]
    assert main(args + ["--output", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestGenerate:
    def test_default_flags_create_files(self, tmp_path):
        out = tmp_path / "scenario"
        code = main(["generate", "--out-dir", str(out), "--seed", "1",
                     "--communities", "2", "--community-size", "6",
                     "--p-in", "0.6", "--p-out", "0.08", "--snapshots", "3",
                     "--ccea", "1", "--cced", "1", "--icea", "0"])
        assert code == 0
        assert (out / "events.tsv").exists()
        assert len(list((out / "deltas").glob("*.delta"))) == 3
        assert len(list((out / "truth").glob("*.tsv"))) == 3

    def test_seed_repetition_identical(self, tmp_path):
        args = ["--communities", "2", "--community-size", "6", "--p-in", "0.6",
                "--p-out", "0.08", "--snapshots", "3", "--seed", "42",
                "--icea", "1", "--ccea", "2", "--cced", "1"]
        assert main(["generate", "--out-dir", str(tmp_path / "a"), *args]) == 0
        assert main(["generate", "--out-dir", str(tmp_path / "b"), *args]) == 0
        for name in ("events.tsv", "deltas/snapshot_0002.delta", "truth/snapshot_0002.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_infeasible_churn_exits_two(self, tmp_path):
        code = main(["generate", "--out-dir", str(tmp_path / "x"),
                     "--communities", "2", "--community-size", "3",
                     "--p-in", "0.9", "--p-out", "0.05", "--snapshots", "3",
                     "--vertex-del", "5"])
        assert code == 2

    def test_exhausted_pairs_exit_two(self, tmp_path, capsys):
        code = main(["generate", "--out-dir", str(tmp_path / "x"),
                     "--communities", "2", "--community-size", "3",
                     "--p-in", "0.9", "--p-out", "0.05", "--snapshots", "2",
                     "--icea", "0", "--ccea", "10", "--cced", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: could not draw an untouched vertex pair\n"

    def test_undetectable_config_exits_two(self, tmp_path):
        code = main(["generate", "--out-dir", str(tmp_path / "x"),
                     "--p-in", "0.1", "--p-out", "0.09"])
        assert code == 2

    def test_zero_snapshots_exit_two(self, tmp_path, capsys):
        code = main(["generate", "--out-dir", str(tmp_path / "x"), "--snapshots", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: need at least one snapshot\n"
        assert not (tmp_path / "x").exists()


class TestSlice:
    def test_one_timestamp_one_snapshot(self, event_file, tmp_path):
        out = tmp_path / "deltas"
        assert main(["slice", "--input", str(event_file), "--interval", "10",
                     "--out-dir", str(out)]) == 0
        assert len(list(out.glob("*.delta"))) == 1

    def test_zero_interval_exits_two(self, event_file, tmp_path):
        assert main(["slice", "--input", str(event_file), "--interval", "0",
                     "--out-dir", str(tmp_path / "d")]) == 2

    def test_round_trip_with_generator(self, tmp_path):
        source = tmp_path / "scenario"
        main(["generate", "--out-dir", str(source), "--seed", "8",
              "--communities", "2", "--community-size", "6", "--p-in", "0.6",
              "--p-out", "0.02", "--snapshots", "4",
              "--icea", "1", "--ccea", "1", "--cced", "0"])
        sliced = tmp_path / "sliced"
        assert main(["slice", "--input", str(source / "events.tsv"),
                     "--interval", "1", "--t0", "0", "--out-dir", str(sliced)]) == 0
        for k in range(4):
            name = f"snapshot_{k:04d}.delta"
            ours = (source / "deltas" / name).read_text()
            theirs = (sliced / name).read_text()
            assert sorted(ours.splitlines()) == sorted(theirs.splitlines())


class TestRun:
    def test_louvain_only_rows(self, event_file, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["run", "--input", str(event_file), "--interval", "10",
                     "--algorithms", "louvain", "--output", str(out)])
        assert code == 0
        rows = read_reports(out)
        assert len(rows) == 1
        assert rows[0].nmi is None

    def test_both_algorithms_from_delta_dir(self, tmp_path):
        source = tmp_path / "scenario"
        main(["generate", "--out-dir", str(source), "--seed", "2",
              "--communities", "2", "--community-size", "8", "--p-in", "0.5",
              "--p-out", "0.08", "--snapshots", "4", "--icea", "1",
              "--ccea", "2", "--cced", "1"])
        out = tmp_path / "r.csv"
        code = main(["run", "--deltas-dir", str(source / "deltas"),
                     "--output", str(out)])
        assert code == 0
        rows = read_reports(out)
        assert {r.algorithm for r in rows} == {"louvain", "dynamo"}
        dynamo_rows = [r for r in rows if r.algorithm == "dynamo"]
        assert all(r.nmi is not None for r in dynamo_rows)

    def test_reports_deterministic_excluding_timing(self, tmp_path):
        source = tmp_path / "scenario"
        main(["generate", "--out-dir", str(source), "--seed", "3",
              "--communities", "2", "--community-size", "8", "--p-in", "0.5",
              "--p-out", "0.08", "--snapshots", "3", "--ccea", "2", "--icea", "0",
              "--cced", "1"])
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["run", "--deltas-dir", str(source / "deltas"),
                         "--output", str(out)]) == 0
            rows = read_reports(out)
            outs.append([(r.snapshot_index, r.algorithm, r.modularity, r.nmi,
                          r.ari, r.num_communities) for r in rows])
        assert outs[0] == outs[1]

    @staticmethod
    def six_kind_deltas(tmp_path, weight_range=(1.0, 1.0)) -> Path:
        """The delta directory of a seeded six-kind stream, written under ``tmp_path``."""
        source = tmp_path / "scenario"
        generate(GenConfig(seed=4, num_communities=5, community_size=10, p_in=0.5,
                           p_out=0.04, num_snapshots=12, weight_range=weight_range,
                           churn=Churn(icea=1, ccea=2, iced=1, cced=2,
                                       vertex_add=1, vertex_del=1))).write(source)
        return source / "deltas"

    @classmethod
    def six_kind_report(cls, tmp_path, weight_range=(1.0, 1.0),
                        drop=("elapsed_ns", "cumulative_elapsed_ns")) -> list[list[str]]:
        """A `dynamo run` CSV over a seeded six-kind stream, without the ``drop`` columns."""
        deltas = cls.six_kind_deltas(tmp_path, weight_range)
        out = tmp_path / "r.csv"
        assert main(["run", "--deltas-dir", str(deltas), "--output", str(out)]) == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        keep = [i for i, h in enumerate(rows[0]) if h not in drop]
        assert len(rows) == 25
        return [[row[i] for i in keep] for row in rows]

    @staticmethod
    def rows_hash(rows: list[list[str]], algorithm: str) -> str:
        column = rows[0].index("algorithm")
        chosen = [rows[0]] + [row for row in rows[1:] if row[column] == algorithm]
        return hashlib.sha256("\n".join(map(",".join, chosen)).encode()).hexdigest()

    def test_louvain_rows_match_golden_hash(self, tmp_path):
        # static detection: the hash was taken before the incremental rules
        # changed, and guards that no change to the update path moves a
        # static partition or report
        assert self.rows_hash(self.six_kind_report(tmp_path), "louvain") == (
            "e3fa0495edc41344ed36049bfcb282ae9955922c72e5ecfb59802df6ecda9d26")

    def test_dynamo_rows_match_golden_hash(self, tmp_path):
        # the incremental rows, pinned with the frontier rules for
        # intra-community changes and vertex events
        assert self.rows_hash(self.six_kind_report(tmp_path), "dynamo") == (
            "4bb0203ca415657e1efa815974d3b1ba4959c3c3c250ab8fc7c9d1fd3809cf92")

    @pytest.mark.parametrize("algorithm, digest", [
        ("louvain", "70c9e38f136613c2f349bcdc567cc3cd123dd630676f0da1e3c32b2a4c6e1ed4"),
        ("dynamo", "3e1050371309f12cc1288f93d7211dc7de6e960bc81e6199e8fe95986a387b4c"),
    ])
    def test_noninteger_weight_rows_match_golden_hash(self, tmp_path, algorithm, digest):
        # U(1,3) weights make sums inexact, so a change in summation order can
        # move a partition here; modularity is left out, because such a change
        # may move it in the last bit
        rows = self.six_kind_report(tmp_path, weight_range=(1.0, 3.0),
                                    drop=("elapsed_ns", "cumulative_elapsed_ns", "modularity"))
        assert self.rows_hash(rows, algorithm) == digest

    def test_json_report_matches_golden_hash_and_csv_order(self, tmp_path):
        # the JSON bytes of the stream behind the dynamo golden hash, without the
        # two timing lines of each object; every object lists its fields in the
        # order of the CSV header's columns
        deltas = self.six_kind_deltas(tmp_path)
        out = tmp_path / "r.json"
        assert main(["run", "--deltas-dir", str(deltas), "--output", str(out),
                     "--format", "json"]) == 0
        text = out.read_text()
        kept = [line for line in text.splitlines(keepends=True)
                if not re.match(r' *"(cumulative_)?elapsed_ns": \d+,\n', line)]
        assert len(kept) == text.count("\n") - 2 * 24
        assert hashlib.sha256("".join(kept).encode()).hexdigest() == (
            "22fc2dc2fd37f2ea355f504f1afd632881a2a35d24abc00490a2a446addfdb6a")
        objects = json.loads(text)
        keys = ["snapshot_index", "algorithm", "modularity", "nmi", "ari", "elapsed_ns",
                "cumulative_elapsed_ns", "num_vertices", "num_edges", "num_communities"]
        assert all(list(obj) == keys for obj in objects)
        csv_out = tmp_path / "r.csv"
        assert main(["run", "--deltas-dir", str(deltas), "--output", str(csv_out)]) == 0
        rows = list(csv.reader(io.StringIO(csv_out.read_text())))
        timing = {"elapsed_ns", "cumulative_elapsed_ns"}
        assert len(rows) == len(objects) + 1
        for obj, row in zip(objects, rows[1:]):
            cells = ["" if value is None else repr(value) if isinstance(value, float)
                     else str(value) for value in obj.values()]
            assert [c for c, h in zip(cells, rows[0]) if h not in timing] == [
                c for c, h in zip(row, rows[0]) if h not in timing]

    def test_config_errors_exit_two(self, event_file, tmp_path, capsys):
        assert main(["run", "--input", str(event_file)]) == 2  # missing interval
        assert capsys.readouterr().err == (
            "error: --interval is required with an event-file input\n")
        assert main(["run", "--input", str(event_file), "--interval", "0"]) == 2
        assert capsys.readouterr().err == "error: --interval must be positive\n"
        one_input = "error: exactly one of --input and --deltas-dir is required\n"
        assert main(["run"]) == 2  # no input at all
        assert capsys.readouterr().err == one_input
        assert main(["run", "--input", str(event_file), "--deltas-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == one_input
        assert main(["run", "--deltas-dir", str(tmp_path), "--t0", "3"]) == 2
        assert capsys.readouterr().err == "error: --t0 only applies to event-file input\n"
        assert main(["run", "--deltas-dir", str(tmp_path), "--interval", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: --interval only applies to event-file input\n")
        # RunConfig's own checks surface as usage errors too
        assert main(["run", "--input", str(event_file), "--interval", "5",
                     "--algorithms", "bogus"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown algorithms")
        assert main(["run", "--input", str(event_file), "--interval", "5",
                     "--repeat", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: repeat must be at least 1")

    def test_nan_refine_threshold_exits_two(self, event_file, capsys):
        # NaN compares false with every modularity, so it would switch refinement off
        assert main(["run", "--input", str(event_file), "--interval", "5",
                     "--refine-threshold", "nan"]) == 2
        assert capsys.readouterr().err == "error: refine_threshold must not be NaN\n"

    def test_run_loads_only_what_it_uses(self, tmp_path):
        # neither the generator, the dataclass machinery nor the JSON encoder is on
        # the run path, and the CSV writer loads only once the report is written
        source = tmp_path / "scenario"
        generate(GenConfig(seed=2, num_communities=2, community_size=8, p_in=0.5,
                           p_out=0.08, num_snapshots=4,
                           churn=Churn(icea=1, ccea=2, cced=1))).write(source)
        env = {**os.environ, "PYTHONPATH": str(SRC)}

        def loaded(*args) -> list[str]:
            return subprocess.run([sys.executable, "-c", *args], capture_output=True,
                                  text=True, timeout=300, check=True, env=env).stdout.splitlines()

        [bare] = loaded("import sys; print(','.join(sys.modules))")
        out = tmp_path / "r.csv"
        code, at_write, at_end = loaded(LEAN_RUN, str(source / "deltas"), str(out))
        assert code == "0" and out.read_text().startswith("snapshot,algorithm,")
        bare_set = set(bare.split(","))
        new = set(at_end.split(",")) - bare_set
        assert "dynamo.harness" in new and "dynamo.louvain" in new
        assert not new & {"dataclasses", "inspect", "json", "dynamo.synthgen"}, sorted(new)
        assert "csv" not in set(at_write.split(",")) - bare_set, sorted(new)
        assert "csv" in new or "csv" in bare_set

    def test_stdout_output(self, event_file, capsys):
        assert main(["run", "--input", str(event_file), "--interval", "10",
                     "--algorithms", "louvain"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("snapshot,algorithm,")

    def test_json_format(self, event_file, tmp_path):
        out = tmp_path / "r.json"
        assert main(["run", "--input", str(event_file), "--interval", "10",
                     "--output", str(out), "--format", "json"]) == 0
        rows = read_reports(out, fmt="json")
        assert rows


    def test_edgeless_snapshot_is_unscored_and_dynamo_resumes(self, tmp_path):
        deltas = tmp_path / "deltas"
        deltas.mkdir()
        (deltas / "snapshot_0000.delta").write_text(
            "AV 0\nAV 1\nAV 2\nAV 3\nEW 0 1 1.0\nEW 2 3 1.0\n")
        (deltas / "snapshot_0001.delta").write_text("EW 0 1 -1.0\nEW 2 3 -1.0\n")
        (deltas / "snapshot_0002.delta").write_text("EW 0 1 2.0\nEW 2 3 1.0\n")
        out = tmp_path / "r.csv"
        assert main(["run", "--deltas-dir", str(deltas), "--output", str(out)]) == 0
        assert "1,dynamo,,1.0,1.0," in out.read_text()
        rows = {(r.snapshot_index, r.algorithm): r for r in read_reports(out)}
        assert len(rows) == 6
        for name in ("louvain", "dynamo"):
            assert rows[(0, name)].modularity == pytest.approx(0.5)
            assert rows[(1, name)].modularity is None
            assert (rows[(1, name)].num_edges, rows[(1, name)].num_communities) == (0, 4)
            assert rows[(2, name)].modularity == pytest.approx(4.0 / 9.0)
            assert rows[(2, name)].num_communities == 2

    def test_vertex_only_first_snapshot_is_unscored(self, tmp_path):
        deltas = tmp_path / "deltas"
        deltas.mkdir()
        (deltas / "snapshot_0000.delta").write_text("AV 0\nAV 1\nAV 2\nAV 3\n")
        (deltas / "snapshot_0001.delta").write_text("EW 0 1 1.0\nEW 2 3 1.0\n")
        out = tmp_path / "r.json"
        assert main(["run", "--deltas-dir", str(deltas), "--output", str(out),
                     "--format", "json"]) == 0
        assert '"modularity": null' in out.read_text()
        rows = {(r.snapshot_index, r.algorithm): r for r in read_reports(out, fmt="json")}
        for name in ("louvain", "dynamo"):
            assert rows[(0, name)].modularity is None
            assert rows[(0, name)].num_communities == 4
            assert rows[(1, name)].modularity == pytest.approx(0.5)
            assert rows[(1, name)].num_communities == 2

    def test_tiny_weights_are_edges(self, tmp_path):
        # every strictly positive, finite weight is an edge, however small, so
        # both snapshots are scored: a path whose one community scores 0
        deltas = tmp_path / "deltas"
        deltas.mkdir()
        (deltas / "s0.delta").write_text("AV 0\nAV 1\nAV 2\nEW 0 1 1e-13\n")
        (deltas / "s1.delta").write_text("EW 1 2 1e-13\n")
        out = tmp_path / "r.csv"
        assert main(["run", "--deltas-dir", str(deltas), "--output", str(out)]) == 0
        rows = {(r.snapshot_index, r.algorithm): r for r in read_reports(out)}
        for name in ("louvain", "dynamo"):
            assert [rows[(k, name)].num_edges for k in (0, 1)] == [1, 2]
            assert [rows[(k, name)].modularity for k in (0, 1)] == [
                pytest.approx(0.0, abs=1e-12)] * 2

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_exits_one(self, tmp_path, capsys, weight):
        events = tmp_path / "events.tsv"
        events.write_text(f"0\t1\t1.0\t0\n0\t2\t{weight}\t0\n")
        out = tmp_path / "r.csv"
        assert main(["run", "--input", str(events), "--interval", "1",
                     "--output", str(out)]) == 1
        assert ":2: non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_peak_memory_does_not_grow_with_stream_length(self, tmp_path):
        # a run holds the current snapshot graph and its predecessor only
        peaks = {}
        for n in (4, 32):
            source = tmp_path / f"n{n}"
            generate(GenConfig(seed=3, num_snapshots=n,
                               churn=Churn(ccea=2, cced=2))).write(source)
            tracemalloc.start()
            try:
                assert main(["run", "--deltas-dir", str(source / "deltas"),
                             "--output", str(tmp_path / f"r{n}.csv")]) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[32] < 1.5 * peaks[4], peaks


    def test_hand_over_empties_the_parsed_list(self, tmp_path, monkeypatch):
        # the run, not the CLI, holds each delta once it is handed over
        source = tmp_path / "scenario"
        generate(GenConfig(seed=3, num_snapshots=4)).write(source)
        parsed = []

        def load(directory):
            parsed.append(load_delta_dir(directory))
            return parsed[-1]

        monkeypatch.setattr(cli, "load_delta_dir", load)
        assert main(["run", "--deltas-dir", str(source / "deltas"),
                     "--output", str(tmp_path / "r.csv")]) == 0
        assert parsed == [[]]

    def test_bad_last_file_fails_before_any_detection(self, tmp_path, monkeypatch, capsys):
        source = tmp_path / "deltas"
        source.mkdir()
        (source / "s0.delta").write_text("AV 0\nAV 1\nAV 2\nEW 0 1 1.0\n")
        (source / "s1.delta").write_text("EW 1 2 1.0\n")
        (source / "s2.delta").write_text("EW 0 2 1.0\nEW 0 2 oops\n")
        calls = []
        monkeypatch.setattr(harness, "louvain", lambda graph: calls.append(graph))
        out = tmp_path / "r.csv"
        assert main(["run", "--deltas-dir", str(source), "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {source / 's2.delta'}:2: could not convert string to float: 'oops'\n")
        assert calls == []
        assert not out.exists()


class TestEntrypoint:
    def test_module_invocation(self, event_file):
        code, out, _ = run_cli("run", "--input", str(event_file),
                               "--interval", "10", "--algorithms", "louvain")
        assert code == 0
        assert out.startswith("snapshot,algorithm,")

    def test_run_never_imports_numpy(self, tmp_path):
        # numpy serves only the tests' oracles; the package never imports it, and this
        # runs the `dynamo run` path the source rules only parse
        source = tmp_path / "scenario"
        generate(GenConfig(seed=1, num_communities=2, community_size=8, p_in=0.5,
                           p_out=0.08, num_snapshots=3)).write(source)
        script = ("import sys, dynamo, dynamo.cli\n"
                  "code = dynamo.cli.main(['run', '--deltas-dir', sys.argv[1],\n"
                  "                        '--algorithms', 'dynamo', '--output', sys.argv[2]])\n"
                  "print(code, 'numpy' in sys.modules)\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(source / "deltas"), str(tmp_path / "r.csv")],
            capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 False\n", "")


def readme_cli_section():
    text = README.read_text(encoding="utf-8")
    return text.split("## CLI", 1)[1].split("\n## ", 1)[0]


def readme_cli_flags():
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme_cli_section()))


def subcommand_flags():
    """Long options accepted by each ``dynamo`` subcommand, ``--help`` aside."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
            for name, p in sub.choices.items()}


class TestReadme:
    def test_cli_examples_parse(self):
        # a README example that names a removed flag fails here
        block = readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("dynamo ")]
        assert len(commands) >= 6
        parser = _build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {shlex.join(argv)}")

    def test_every_named_flag_exists(self):
        # prose as well as examples: a stale mention of a removed flag fails here
        accepted = set().union(*subcommand_flags().values())
        assert readme_cli_flags() - accepted == set()

    def test_every_run_flag_is_documented(self):
        assert subcommand_flags()["run"] - readme_cli_flags() == set()

import subprocess
import sys
import tracemalloc

import pytest

from dynamo import read_reports
from dynamo.cli import main
from dynamo.synthgen import Churn, GenConfig, generate

TRIANGLE_EVENTS = "0\t1\t0\n1\t2\t0\n0\t2\t0\n3\t4\t0\n4\t5\t0\n3\t5\t0\n"


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

    def test_undetectable_config_exits_two(self, tmp_path):
        code = main(["generate", "--out-dir", str(tmp_path / "x"),
                     "--p-in", "0.1", "--p-out", "0.09"])
        assert code == 2


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
                         "--output", str(out), "--seed", "5"]) == 0
            rows = read_reports(out)
            outs.append([(r.snapshot_index, r.algorithm, r.modularity, r.nmi,
                          r.ari, r.num_communities) for r in rows])
        assert outs[0] == outs[1]

    def test_config_errors_exit_two(self, event_file, tmp_path):
        assert main(["run", "--input", str(event_file)]) == 2  # missing interval
        assert main(["run", "--input", str(event_file), "--interval", "0"]) == 2
        assert main(["run", "--input", str(event_file), "--interval", "5",
                     "--algorithms", "bogus"]) == 2
        assert main(["run"]) == 2  # no input at all

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


class TestEntrypoint:
    def test_module_invocation(self, event_file):
        code, out, _ = run_cli("run", "--input", str(event_file),
                               "--interval", "10", "--algorithms", "louvain")
        assert code == 0
        assert out.startswith("snapshot,algorithm,")

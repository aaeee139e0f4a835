"""End-to-end and per-layer benchmark of the ``dynamo`` package.

Run from the repository root::

    python3 perfbench/bench.py --workload edge-churn-5k --seed 1 --seconds 30 --trace 0

Each workload is a seeded snapshot stream made by ``dynamo.synthgen`` (cached
under ``perfbench/.cache`` by configuration and seed, never timed). The
benchmark is one single-threaded process. It consumes snapshots in a closed
loop: each delta is processed as soon as the previous update has returned,
because real snapshots arrive far apart compared with an update. A pass is one
cold set-up (ingest before snapshot 0, ``apply_delta`` and static ``louvain``
on snapshot 0) followed by every update in stream order. Passes repeat until
``--seconds`` have elapsed and the workload's minimum update count is reached.
After each of the first three passes, ``dynamo run --algorithms dynamo`` runs
on the same files as a child process, for its wall time and peak RSS.
Interleaving spreads every metric's samples over the whole run: on a shared
2-vCPU host, the speed of identical work swings by up to 1.5x over a few
seconds, so samples taken in one stretch are no steadier than one sample.

Every partition is checked outside the timers against oracles that do not use
the code under test (vertex cover, rebuilt aggregates, an edge-sum modularity,
the static-quality gap), and each child's report is checked against the
in-process pass. With ``--trace 1``, each timed call runs a second time right
after its timing with every public layer function wrapped (see ``spans.py``),
a traced in-process ``dynamo.cli.main`` run follows, and the per-layer metrics
are printed instead of the end-to-end ones; the paired timings give the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from spans import ATTRS, SpanTree, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE_DIR = BENCH_DIR / ".cache"
OUT_DIR = BENCH_DIR / ".out"

EVENTS_FILE = "events.tsv"
DELTAS_DIR = "deltas"
MIN_UPDATES = 100       # update samples per untraced run: >= 10 lie beyond p90
MIN_SETUPS = 5          # set-up samples per run, counting the one that opens each pass
REL_TOL = 1e-9          # aggregate and modularity oracles
MAX_STATIC_GAP = 0.05   # dynamo Q may trail static Q by at most this share
CHILD_RUNS = 3          # dynamo run children per untraced run
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    """One seeded input stream; ``why`` records what the workload is for."""

    name: str
    why: str
    source: str                 # "deltas" (delta files) or "events" (edge-event file)
    gen: dict                   # dynamo.synthgen.GenConfig fields other than seed and churn
    churn: dict                 # dynamo.synthgen.Churn fields
    static_every: int           # static baseline on snapshots k >= 1 with k % static_every == 0


# 26 snapshots: four passes give the 100 updates, and each child run stays short.
_BLOCKS_5K = dict(num_communities=20, community_size=250, p_in=0.06, p_out=1e-4,
                  num_snapshots=26)

WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="edge-churn-5k",
        why="tiny edge deltas on a 5k-vertex graph: the paper's best case, where a "
            "resumed full local-moving sweep dominates each update",
        source="deltas",
        gen=dict(_BLOCKS_5K),
        churn=dict(icea=1, ccea=6, cced=6),
        static_every=6,
    ),
    # Runnable by hand; left out of BENCHMARK.json because a third 5k workload
    # would not fit the benchmark's total run-time budget.
    Workload(
        name="vertex-churn-5k",
        why="all six change kinds with U(1,3) weights: dissolving changes free far "
            "more vertices, so init, intermediate_partition and compress do more work",
        source="deltas",
        gen=dict(_BLOCKS_5K, weight_range=(1.0, 3.0)),
        churn=dict(icea=1, ccea=4, iced=1, cced=4, vertex_add=1, vertex_del=1),
        static_every=6,
    ),
    Workload(
        name="growth-events",
        why="addition-only event file on a small growing graph: the other ingest "
            "path, where each newcomer frees about half the graph and fixed costs weigh",
        source="events",
        gen=dict(num_communities=8, community_size=50, p_in=0.2, p_out=0.004,
                 num_snapshots=200, weight_range=(1.0, 3.0)),
        churn=dict(icea=3, ccea=2, vertex_add=1),
        static_every=10,
    ),
)}

END_TO_END_UNITS = {
    "setup_s": "s", "update_ms_p50": "ms", "update_ms_p90": "ms", "static_ms_p50": "ms",
    "run_s": "s", "run_peak_rss_mb": "MB", "modularity_mean": "Q",
    "nmi_vs_static_mean": "NMI", "ok_frac": "ratio",
}

CHANGE_KINDS = ("ICEA_WI", "CCEA_WI", "ICED_WD", "CCED_WD", "VERTEX_ADD", "VERTEX_DEL")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- loading the package under test ------------------------------------------


def load_package() -> SimpleNamespace:
    """Import ``dynamo`` from this checkout's ``src``; raise if it is absent."""
    if not (SRC / "dynamo" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dynamo package under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("graph", "ingest", "incremental", "louvain", "metrics", "synthgen",
             "harness", "cli")
    mods = {n: importlib.import_module(f"dynamo.{n}") for n in names}
    origin = Path(mods["graph"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"dynamo was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


# -- inputs --------------------------------------------------------------------


def materialize(mods, wl: Workload, seed: int) -> Path:
    """Generate the workload's files for ``seed`` once; later runs reuse them."""
    synth_src = Path(mods.synthgen.__file__).read_bytes()
    key = hashlib.sha256(repr((wl.source, sorted(wl.gen.items()), sorted(wl.churn.items()),
                               seed, hashlib.sha256(synth_src).hexdigest())).encode()
                         ).hexdigest()[:16]
    target = CACHE_DIR / f"{wl.name}-seed{seed}-{key}"
    if target.is_dir():
        return target
    start = time.perf_counter()
    cfg = mods.synthgen.GenConfig(seed=seed, churn=mods.synthgen.Churn(**wl.churn), **wl.gen)
    scenario = mods.synthgen.generate(cfg)
    tmp = CACHE_DIR / f".tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    if wl.source == "events":
        if not scenario.addition_only:
            raise ValueError(f"{wl.name}: an event file cannot carry deletions")
        tmp.mkdir(parents=True)
        (tmp / EVENTS_FILE).write_text(scenario.event_text, encoding="utf-8", newline="\n")
    else:
        (tmp / DELTAS_DIR).mkdir(parents=True)
        for k, text in enumerate(scenario.delta_texts):
            (tmp / DELTAS_DIR / f"snapshot_{k:04d}.delta").write_text(
                text, encoding="utf-8", newline="\n")
    os.replace(tmp, target)
    log(f"generated {wl.name} seed {seed} in {time.perf_counter() - start:.1f} s "
        f"(not a metric)")
    return target


def cli_input_args(wl: Workload, inputs: Path) -> list[str]:
    if wl.source == "events":
        return ["--input", str(inputs / EVENTS_FILE), "--interval", "1"]
    return ["--deltas-dir", str(inputs / DELTAS_DIR)]


# -- correctness oracles -------------------------------------------------------


def edge_sum_modularity(g, assignment) -> float:
    """Q = (1/2m) sum_c (2 w_in(c) - K_c^2 / 2m), summed edge by edge."""
    intra: dict[int, float] = {}
    strength: dict[int, float] = {}
    two_m = 0.0
    for u in g.vertices:
        cu = assignment[u]
        s = 0.0
        for v, w in g.neighbors(u).items():
            s += w
            if assignment[v] == cu:
                intra[cu] = intra.get(cu, 0.0) + w
        strength[cu] = strength.get(cu, 0.0) + s
        two_m += s
    return sum(intra.get(c, 0.0) - k * k / two_m for c, k in strength.items()) / two_m


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def check_partition(mods, g, p) -> tuple[list[str], Optional[float]]:
    """Problems found in partition ``p`` of snapshot ``g``, and its oracle Q if defined."""
    assignment = p.assignment
    if set(assignment) != set(g.vertices):
        return ["does not cover exactly the snapshot's vertices"], None
    problems = []
    listed = 0
    for c in p.community_ids:
        members = p.members(c)
        listed += len(members)
        if any(assignment[v] != c for v in members):
            problems.append(f"community {c} lists members assigned elsewhere")
            break
    if listed != len(assignment):
        problems.append("member sets do not match the assignment")
    rebuilt = mods.graph.partition_rebuild_aggregates(g, assignment)
    if set(rebuilt.community_ids) != set(p.community_ids):
        problems.append("community ids differ from the rebuilt partition")
    else:
        for c in p.community_ids:
            if not (_close(p.alpha(c), rebuilt.alpha(c)) and _close(p.beta(c), rebuilt.beta(c))):
                problems.append(f"alpha/beta of community {c} differ from a rebuild")
                break
    q = edge_sum_modularity(g, assignment)
    q_lib = mods.graph.modularity(g, p)
    if not _close(q_lib, q):
        problems.append(f"modularity {q_lib!r} differs from edge-sum {q!r}")
    return problems, q


# -- measurement -------------------------------------------------------------


@dataclass
class Record:
    """Samples and check outcomes of one set of passes."""

    setup_ns: list[int] = field(default_factory=list)
    update_ns: list[int] = field(default_factory=list)
    static_ns: list[int] = field(default_factory=list)
    run_s: list[float] = field(default_factory=list)             # dynamo run children
    rss_mb: list[float] = field(default_factory=list)
    q: dict[int, float] = field(default_factory=dict)            # first pass, per snapshot
    communities: dict[int, int] = field(default_factory=dict)
    nmi: dict[int, float] = field(default_factory=dict)
    edge_changes: list[int] = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)               # traced runs only
    snapshots: int = 0
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def outcome(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")


@contextmanager
def tracing(tracer: Optional[Tracer]):
    """Wrap the package's layer functions for the duration of the block."""
    if tracer is None:
        yield
        return
    tracer.install({"incremental.init": init_hook})
    try:
        yield
    finally:
        tracer.uninstall()


def first_partition(mods, wl: Workload, inputs: Path) -> tuple:
    """Cold start: ingest before snapshot 0, then its graph and static partition.

    Returns (graph, partition, per-snapshot delta source, snapshot count).
    """
    if wl.source == "deltas":
        source = sorted((inputs / DELTAS_DIR).glob("*.delta"))
        d = mods.ingest.parse_delta_file(source[0])
    else:
        source = mods.ingest.slice_snapshots(
            mods.ingest.parse_edge_events(inputs / EVENTS_FILE), 1)
        d = source[0].delta
    g = mods.graph.apply_delta(mods.graph.WeightedGraph.empty(), d)
    return g, mods.louvain.louvain(g), source, len(source)


def setup(mods, wl: Workload, inputs: Path, rec: Record,
          tracer: Optional[Tracer] = None) -> tuple:
    """Timed, checked :func:`first_partition`."""
    g, p, source, n = timed(rec.setup_ns, tracer, "bench.setup",
                            lambda: first_partition(mods, wl, inputs))
    rec.snapshots = n
    problems, q = check_partition(mods, g, p)
    rec.outcome("set-up", problems)
    if q is not None:
        rec.q.setdefault(0, q)
        rec.communities.setdefault(0, p.num_communities)
    return g, p, source, n


def timed(samples: list[int], tracer: Optional[Tracer], name: str, call):
    """Time ``call()`` into ``samples``; with a tracer, repeat it traced, for spans only.

    Every timed call is a pure function of immutable graphs and partitions, so
    the repeat does the same work, in the same stretch of time as its timing.
    """
    start = time.perf_counter_ns()
    result = call()
    samples.append(time.perf_counter_ns() - start)
    if tracer is not None:
        with tracing(tracer), tracer.span(name):
            call()
    return result


def run_pass(mods, wl: Workload, inputs: Path, rec: Record,
             tracer: Optional[Tracer] = None) -> bool:
    """One closed-loop pass over the whole stream; False if an operation raised."""
    gc.collect()
    try:
        g, p, source, n = setup(mods, wl, inputs, rec, tracer)
    except Exception:
        rec.outcome("set-up", [traceback.format_exc(limit=3)])
        return False
    ing, gr, inc = mods.ingest, mods.graph, mods.incremental

    for k in range(1, n):
        def update():
            d = ing.parse_delta_file(source[k]) if wl.source == "deltas" else source[k].delta
            g1 = gr.apply_delta(g, d)
            return d, g1, inc.dynamo_update(g1, g, p, d)

        try:
            d, g1, p1 = timed(rec.update_ns, tracer, "bench.update", update)
            problems, q = check_partition(mods, g1, p1)
            rec.edge_changes.append(len(d.edge_changes))
            if tracer is not None:
                rec.kinds.update(inc.classify(g, p, change, d).name for change in d.changes())
            if k % wl.static_every == 0:
                ps = timed(rec.static_ns, tracer, "bench.static",
                           lambda: mods.louvain.louvain(g1))
                static_problems, q_static = check_partition(mods, g1, ps)
                rec.outcome(f"static {k}", static_problems)
                if (q is not None and q_static is not None
                        and q_static - q > MAX_STATIC_GAP * abs(q_static)):
                    problems.append(f"Q {q:.6f} trails static Q {q_static:.6f} by over 5%")
                with tracing(tracer):
                    rec.nmi.setdefault(k, mods.metrics.nmi(ps, p1))
                    if tracer is not None:
                        mods.metrics.ari(ps, p1)  # for its span only
        except Exception:
            rec.outcome(f"update {k}", [traceback.format_exc(limit=3)])
            return False
        rec.outcome(f"update {k}", problems)
        if q is not None:
            rec.q.setdefault(k, q)
            rec.communities.setdefault(k, p1.num_communities)
        g, p = g1, p1
    rec.passes += 1
    return True


def check_report(path: Path, rec: Record, what: str) -> None:
    """Compare a ``dynamo run`` CSV report with the in-process pass, row by row."""
    n = rec.snapshots
    rows: dict[int, tuple[float, int]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                if row["algorithm"] == "dynamo":
                    rows[int(row["snapshot"])] = (float(row["modularity"]),
                                                  int(row["communities"]))
    except (OSError, KeyError, ValueError) as exc:
        for k in range(n):
            rec.outcome(f"{what} row {k}", [f"unreadable report: {exc}"])
        return
    for k in range(n):
        problems = []
        if k not in rows:
            problems.append("missing row")
        elif k in rec.q:
            q, communities = rows[k]
            if not _close(q, rec.q[k]):
                problems.append(f"modularity {q!r} != library pass {rec.q[k]!r}")
            if communities != rec.communities[k]:
                problems.append(f"{communities} communities != library pass {rec.communities[k]}")
        rec.outcome(f"{what} row {k}", problems)
    if len(rows) != n:
        rec.outcome(f"{what} rows", [f"{len(rows)} rows for {n} snapshots"])


def run_child(wl: Workload, inputs: Path, work: Path, rec: Record) -> None:
    """One ``dynamo run`` child: record its wall time and peak RSS, check its report."""
    report = work / "report.csv"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), sys.executable, "-m", "dynamo.cli",
           "run", *cli_input_args(wl, inputs), "--algorithms", "dynamo",
           "--output", str(report)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # dynamo run is in the same group
            proc.communicate()
            rec.outcome("dynamo run", [f"no exit within {CHILD_TIMEOUT_S} s"])
            return
    try:
        result = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        rec.outcome("dynamo run", [f"child.py exited {proc.returncode} without a result"])
        return
    rec.run_s.append(result["wall_s"])
    rec.rss_mb.append(result["maxrss_kb"] / 1024.0)
    if result["code"] != 0:
        stderr = err_path.read_text(errors="replace").strip()
        rec.outcome("dynamo run", [f"exit {result['code']}: {stderr[-300:]}"])
    check_report(report, rec, "dynamo run")
    report.unlink(missing_ok=True)


# -- statistics ----------------------------------------------------------------


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return p50(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def ms(ns_values) -> list[float]:
    return [v / 1e6 for v in ns_values]


def end_to_end(rec: Record) -> dict:
    updates = ms(rec.update_ns)
    statics = ms(rec.static_ns)
    qs = [rec.q[k] for k in sorted(rec.q)]
    nmis = [rec.nmi[k] for k in sorted(rec.nmi)]
    return {
        "setup_s": (p50([v / 1e9 for v in rec.setup_ns]), len(rec.setup_ns)),
        "update_ms_p50": (p50(updates), len(updates)),
        "update_ms_p90": (p90(updates), len(updates)),
        "static_ms_p50": (p50(statics), len(statics)),
        "run_s": (p50(rec.run_s), len(rec.run_s)),
        "run_peak_rss_mb": (p50(rec.rss_mb), len(rec.rss_mb)),
        "modularity_mean": (mean(qs), len(qs)),
        "nmi_vs_static_mean": (mean(nmis), len(nmis)),
        "ok_frac": (1.0 - rec.failed / rec.attempted, rec.attempted),
    }


# -- tracing -----------------------------------------------------------------


def init_hook(attrs: dict, args: tuple, kwargs: dict, plan) -> None:
    """Plan size of one ``incremental.init`` call: dissolved, seeds, freed share."""
    g_t1, _, p_t, d = args[:4]
    removed = d.removed_vertices
    carried = sum(len(m) - len(m & removed) for m in
                  (p_t.members(c) for c in p_t.community_ids if c not in plan.dissolve))
    attrs.update(dissolved=len(plan.dissolve), pair_seeds=len(plan.pair_seeds),
                 freed_frac=(g_t1.num_vertices - carried) / g_t1.num_vertices)


def per_layer(tree: SpanTree, rec: Record, delta_input: bool) -> dict:
    """Per-layer metrics from the traced repeats and the traced CLI run.

    ``rec`` holds the untraced timings of the same calls, for the overhead.
    """
    dur, self_ns = tree.duration, tree.self_ns
    out: dict[str, tuple[float, int, str]] = {}

    def put(name, values, unit, reduce=p50):
        values = list(values)
        out[name] = (reduce(values) if values else 0.0, len(values), unit)

    updates = tree.roots("bench.update")
    resumed, lmp, comp, levels, lv_self, applies, inits, inter = [], [], [], [], [], [], [], []
    covered, plans = [], []
    for u in updates:
        du = tree.child(u, "incremental.dynamo_update")
        r = tree.child(du, "louvain.louvain")
        moves = tree.descendants(u, "louvain.local_moving_pass")
        lmp.append(sum(map(dur, moves)) / 1e6)
        levels.append(len(moves))
        comp.append(sum(map(dur, tree.descendants(u, "louvain.compress"))) / 1e6)
        parts = tree.kids(u, "ingest.parse_delta_file") + tree.kids(u, "graph.apply_delta")
        applies += [dur(s) / 1e6 for s in tree.kids(u, "graph.apply_delta")]
        if du:
            i = tree.kids(du, "incremental.init")
            inits += [dur(s) / 1e6 for s in i]
            plans += [s[ATTRS] for s in i if s[ATTRS]]
            m = tree.kids(du, "incremental.intermediate_partition")
            inter += [dur(s) / 1e6 for s in m]
            parts += i + m
        if r:
            lv_self.append(self_ns(r) / 1e6)
            parts.append(r)
        resumed.append(dur(u) / 1e6)
        covered.append(sum(map(dur, parts)) / 1e6)
    put("louvain.local_moving_ms_p50", lmp, "ms")
    put("louvain.levels_p50", levels, "count")
    put("louvain.compress_ms_p50", comp, "ms")
    put("louvain.self_ms_p50", lv_self, "ms")

    statics = tree.roots("bench.static")
    put("louvain.static_local_moving_ms_p50",
        [sum(map(dur, tree.descendants(s, "louvain.local_moving_pass"))) / 1e6
         for s in statics], "ms")
    put("louvain.static_compress_ms_p50",
        [sum(map(dur, tree.descendants(s, "louvain.compress"))) / 1e6 for s in statics], "ms")
    put("louvain.static_levels_p50",
        [len(tree.descendants(s, "louvain.local_moving_pass")) for s in statics], "count")

    passes = max(rec.passes, 1)
    stream = tree.roots("bench.setup") + updates
    mods_spans = [s for root in stream for s in tree.descendants(root, "graph.modularity")]
    put("graph.apply_delta_ms_p50", applies, "ms")
    put("graph.edge_changes_p50", rec.edge_changes, "count")
    out["graph.modularity_ms_sum"] = (sum(map(dur, mods_spans)) / 1e6 / passes,
                                      len(mods_spans), "ms")
    out["graph.modularity_calls"] = (len(mods_spans) / passes, passes, "count")

    put("incremental.init_ms_p50", inits, "ms")
    put("incremental.intermediate_ms_p50", inter, "ms")
    put("incremental.dissolved_p50", [a["dissolved"] for a in plans], "count")
    put("incremental.pair_seeds_p50", [a["pair_seeds"] for a in plans], "count")
    put("incremental.freed_frac_p50", [a["freed_frac"] for a in plans], "ratio")
    put("incremental.freed_frac_p90", [a["freed_frac"] for a in plans], "ratio", p90)
    for kind in CHANGE_KINDS:
        out[f"incremental.changes.{kind.lower()}"] = (rec.kinds[kind] / passes, passes,
                                                      "count")

    # The traced in-process CLI run: ingest is load_delta_dir (parse + assembly)
    # for delta files, parse_edge_events + slice_snapshots for an event file.
    main = (tree.roots("cli.main") or [None])[0]
    load = tree.child(main, "ingest.load_delta_dir")
    if delta_input and load is not None:
        parse = sum(map(dur, tree.kids(load, "ingest.parse_delta_file")))
        total = dur(load)
    else:
        events = tree.child(main, "ingest.parse_edge_events")
        slicing = tree.child(main, "ingest.slice_snapshots")
        parse = dur(events) if events else 0
        total = parse + (dur(slicing) if slicing else 0)
    write = tree.child(main, "ingest.write_reports")
    harness = tree.child(main, "harness.run_benchmark")
    out["ingest.parse_ms"] = (parse / 1e6, 1, "ms")
    out["ingest.slice_ms"] = ((total - parse) / 1e6, 1, "ms")
    out["ingest.load_ms"] = (total / 1e6, 1, "ms")
    out["ingest.write_reports_ms"] = ((dur(write) if write else 0) / 1e6, 1, "ms")
    out["harness.run_benchmark_self_ms"] = ((self_ns(harness) if harness else 0) / 1e6, 1, "ms")
    out["cli.self_ms"] = ((self_ns(main) if main else 0) / 1e6, 1, "ms")

    put("metrics.nmi_ms_p50", [dur(s) / 1e6 for s in tree.roots("metrics.nmi")], "ms")
    put("metrics.ari_ms_p50", [dur(s) / 1e6 for s in tree.roots("metrics.ari")], "ms")

    untraced_p50 = p50(ms(rec.update_ns)) or float("inf")
    traced_p50 = p50(resumed)
    out["speedup_vs_static"] = (p50(ms(rec.static_ns)) / untraced_p50, len(rec.static_ns), "x")
    out["trace.update_ms_p50"] = (traced_p50, len(resumed), "ms")
    out["trace.overhead_pct"] = (100.0 * (traced_p50 - untraced_p50) / untraced_p50,
                                 len(rec.update_ns), "%")
    out["trace.unattributed_pct"] = (100.0 * (sum(resumed) - sum(covered)) / (sum(resumed) or 1),
                                     len(resumed), "%")
    return out


# -- environment stamp ---------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(wl: Workload, seed: int, seconds: int) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(), "workload": wl.name,
        "seed": seed, "seconds": seconds, "gen": wl.gen, "churn": wl.churn,
        "source": wl.source,
    }


# -- main ----------------------------------------------------------------------


def measure(mods, wl: Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, Record]:
    """Metrics as name -> (value, sample count, unit), and the check tally."""
    inputs = materialize(mods, wl, seed)
    work = CACHE_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rec = Record()
        deadline = time.perf_counter() + seconds
        if not trace:
            while (rec.passes == 0 or len(rec.update_ns) < MIN_UPDATES
                   or len(rec.run_s) < CHILD_RUNS or time.perf_counter() < deadline):
                if not run_pass(mods, wl, inputs, rec):
                    break
                if len(rec.run_s) < CHILD_RUNS:
                    run_child(wl, inputs, work, rec)
            while len(rec.setup_ns) < MIN_SETUPS and not rec.failed:
                try:
                    setup(mods, wl, inputs, rec)
                except Exception:
                    rec.outcome("set-up", [traceback.format_exc(limit=3)])
            return {k: (v, n, END_TO_END_UNITS[k])
                    for k, (v, n) in end_to_end(rec).items()}, rec

        tracer = Tracer()
        while rec.passes == 0 or time.perf_counter() < deadline:
            if not run_pass(mods, wl, inputs, rec, tracer):
                break
        report = work / "report.csv"
        with tracing(tracer):
            code = mods.cli.main(["run", *cli_input_args(wl, inputs), "--algorithms", "dynamo",
                                  "--output", str(report)])
        if code != 0:
            rec.outcome("traced cli run", [f"exit {code}"])
        check_report(report, rec, "traced cli run")
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT_DIR / f"{wl.name}-seed{seed}-spans.jsonl")
        return per_layer(SpanTree(tracer.spans), rec, wl.source == "deltas"), rec
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        mods = load_package()
    except (ImportError, OSError) as exc:
        log(f"error: cannot load the package under test: {exc}")
        return 2

    wl = WORKLOADS[args.workload]
    env = environment(wl, args.seed, args.seconds)
    metrics, rec = measure(mods, wl, args.seed, args.seconds, bool(args.trace))

    print(f"{wl.name} seed={args.seed} trace={args.trace}: {wl.why}")
    for name, (value, n, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit:6s} n={n}")
    if not args.trace and metrics["update_ms_p50"][0]:
        speedup = metrics["static_ms_p50"][0] / metrics["update_ms_p50"][0]
        print(f"  (speedup_vs_static = static_ms_p50 / update_ms_p50 = {speedup:.3f}; "
              f"not gated)")
    if not args.trace:
        print(f"  (failed_frac = {rec.failed}/{rec.attempted})")
    for problem in rec.problems:
        print(f"  FAILED {problem}")
    env["samples"] = {name: n for name, (_, n, _) in metrics.items()}
    print("# env " + json.dumps(env, sort_keys=True))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, _, unit) in metrics.items()},
    }
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, env=env), indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

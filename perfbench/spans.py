"""In-memory span recording around the public functions of the ``dynamo`` package.

Tracing works from outside the package: :meth:`Tracer.install` replaces module
attributes with timing wrappers and :meth:`Tracer.uninstall` puts the originals
back. A function re-exported under several modules (``harness`` imports
``dynamo_update``, ``incremental`` imports ``louvain``) is wrapped under each
alias that a caller looks up at call time, with one span name per function.

Modules are resolved through ``importlib``: ``import dynamo.louvain`` would
yield the *function* ``louvain``, because the package re-exports it.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Optional

#: (module, attribute, span name); the span name is the defining layer's.
TARGETS = (
    ("dynamo.graph", "apply_delta", "graph.apply_delta"),
    ("dynamo.graph", "modularity", "graph.modularity"),
    ("dynamo.ingest", "apply_delta", "graph.apply_delta"),
    ("dynamo.ingest", "parse_delta_file", "ingest.parse_delta_file"),
    ("dynamo.ingest", "parse_edge_events", "ingest.parse_edge_events"),
    ("dynamo.ingest", "slice_snapshots", "ingest.slice_snapshots"),
    ("dynamo.ingest", "load_delta_dir", "ingest.load_delta_dir"),
    ("dynamo.ingest", "write_reports", "ingest.write_reports"),
    ("dynamo.incremental", "dynamo_update", "incremental.dynamo_update"),
    ("dynamo.incremental", "init", "incremental.init"),
    ("dynamo.incremental", "intermediate_partition", "incremental.intermediate_partition"),
    ("dynamo.incremental", "louvain", "louvain.louvain"),
    ("dynamo.louvain", "louvain", "louvain.louvain"),
    ("dynamo.louvain", "local_moving_pass", "louvain.local_moving_pass"),
    ("dynamo.louvain", "compress", "louvain.compress"),
    ("dynamo.louvain", "modularity", "graph.modularity"),
    ("dynamo.metrics", "nmi", "metrics.nmi"),
    ("dynamo.metrics", "ari", "metrics.ari"),
    ("dynamo.harness", "run_benchmark", "harness.run_benchmark"),
    ("dynamo.harness", "dynamo_update", "incremental.dynamo_update"),
    ("dynamo.harness", "louvain", "louvain.louvain"),
    ("dynamo.harness", "modularity", "graph.modularity"),
    ("dynamo.harness", "nmi", "metrics.nmi"),
    ("dynamo.harness", "ari", "metrics.ari"),
    ("dynamo.cli", "main", "cli.main"),
    ("dynamo.cli", "run_benchmark", "harness.run_benchmark"),
    ("dynamo.cli", "load_delta_dir", "ingest.load_delta_dir"),
    ("dynamo.cli", "parse_edge_events", "ingest.parse_edge_events"),
    ("dynamo.cli", "slice_snapshots", "ingest.slice_snapshots"),
    ("dynamo.cli", "write_reports", "ingest.write_reports"),
)

# Span record fields: [id, parent id (-1 for a root), name, start ns, end ns, attrs]
ID, PARENT, NAME, START, END, ATTRS = range(6)

#: called as hook(span_attrs, args, kwargs, result) after the span has ended
ResultHook = Callable[[dict, tuple, dict, object], None]


class Tracer:
    """Records nested spans in memory; single-threaded by design."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name,
               time.perf_counter_ns(), 0, None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, hook: Optional[ResultHook] = None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                rec[ATTRS] = {}
                try:
                    hook(rec[ATTRS], args, kwargs, result)
                except Exception as exc:  # a hook must never fail the traced call
                    rec[ATTRS] = {"hook_error": repr(exc)}
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, hooks: Optional[dict[str, ResultHook]] = None) -> None:
        """Wrap every attribute in :data:`TARGETS` that the package still defines."""
        hooks = hooks or {}
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, hooks.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps({
                    "id": rec[ID], "parent": rec[PARENT], "name": rec[NAME],
                    "start_ns": rec[START], "end_ns": rec[END], "attrs": rec[ATTRS],
                }) + "\n")


class SpanTree:
    """Parent/child index over recorded spans, with self-time arithmetic."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: dict[int, list[list]] = {}
        for rec in spans:
            self.children.setdefault(rec[PARENT], []).append(rec)

    @staticmethod
    def duration(rec: list) -> int:
        return rec[END] - rec[START]

    def self_ns(self, rec: list) -> int:
        """Duration minus the time covered by direct children (spans nest strictly)."""
        return self.duration(rec) - sum(self.duration(c) for c in self.children.get(rec[ID], ()))

    def roots(self, name: str) -> list[list]:
        return [rec for rec in self.children.get(-1, ()) if rec[NAME] == name]

    def child(self, rec: Optional[list], name: str) -> Optional[list]:
        """First direct child of ``rec`` called ``name``; None if either is missing."""
        if rec is None:
            return None
        for c in self.children.get(rec[ID], ()):
            if c[NAME] == name:
                return c
        return None

    def kids(self, rec: list, name: str) -> list[list]:
        return [c for c in self.children.get(rec[ID], ()) if c[NAME] == name]

    def descendants(self, rec: list, name: str) -> list[list]:
        found: list[list] = []
        stack = list(self.children.get(rec[ID], ()))
        while stack:
            c = stack.pop()
            if c[NAME] == name:
                found.append(c)
            stack.extend(self.children.get(c[ID], ()))
        return found

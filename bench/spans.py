"""Spans around nodeparse's layers, recorded from outside the program.

``install`` wraps public functions and methods of each module, plus the
private edge sort, at every module name the program looks them up by. Each
call records a span (name, start, end, parent span, op id) in memory; the
spans are written out once, when the run ends. Self time is a span's
duration less the part that its child spans cover. Some wrappers also keep
the counts that the per-layer metrics need and check them against totals
worked out independently (see ``check``).
"""

from __future__ import annotations

import array
import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List

import check

# Span names and the functions behind them. ``engine._ordered_edges`` is the
# edge sort that run() and redundancy_report() use; it has no public name.
FUNCTIONS = {
    "graphs.load_tudataset": ("graphs", "load_tudataset"),
    "graphs.parse_edge_list": ("graphs", "parse_edge_list"),
    "engine.sort": ("engine", "_ordered_edges"),
    "engine.run": ("engine", "run"),
    "engine.run_ordered": ("engine", "run_ordered"),
    "engine.c_multiset_key": ("engine", "c_multiset_key"),
    "engine.serialize_run": ("engine", "serialize_run"),
    "engine.enumerate_encoding_class": ("engine", "enumerate_encoding_class"),
    "terms.serialize_encoding": ("terms", "serialize_encoding"),
    "terms.eval_term_numeric": ("terms", "eval_term_numeric"),
    "analysis.iso_test": ("analysis", "iso_test"),
    "analysis.redundancy_report": ("analysis", "redundancy_report"),
    "cli.main": ("cli", "main"),
}
METHODS = {
    "engine.ParseState.merge_edge": ("engine", "ParseState", "merge_edge"),
    "terms.TermInterner.merge": ("terms", "TermInterner", "merge"),
}
BOOKKEEPING = "bench.bookkeeping"
MODULES = ("graphs", "terms", "engine", "analysis", "oracle", "synthetic", "wl", "cli")

# Per-layer metrics: unit, and how each is made from self times ("self"),
# inclusive times ("incl"), call counts ("calls") and counters ("count").
# Op-phase values are per op; graphs.load_s is the set-up total.
LAYERS = {
    "graphs.load_s": ("s", [("setup", "graphs.load_tudataset"), ("setup", "graphs.parse_edge_list")]),
    "engine.sort_s": ("s", [("self", "engine.sort")]),
    "engine.merge_s": ("s", [("self", "engine.ParseState.merge_edge")]),
    "engine.h_updates": ("count", [("count", "h_updates")]),
    "engine.merges": ("count", [("calls", "engine.ParseState.merge_edge")]),
    "terms.intern_s": ("s", [("incl", "terms.TermInterner.merge")]),
    "terms.interned": ("count", [("count", "interned")]),
    "terms.serialize_s": ("s", [("self", "terms.serialize_encoding"), ("self", "engine.serialize_run")]),
    "terms.key_mb": ("MB", [("count", "key_bytes")]),
    "terms.numeric_s": ("s", [("incl", "terms.eval_term_numeric")]),
    "analysis.enumerate_s": ("s", [("incl", "engine.enumerate_encoding_class")]),
    "analysis.sampled_s": ("s", [("incl", "analysis.iso_test.sampled")]),
    "analysis.runs": ("count", [("count", "runs_exhaustive"), ("count", "runs_sampled")]),
    "analysis.runs_exhaustive": ("count", [("count", "runs_exhaustive")]),
    "analysis.runs_sampled": ("count", [("count", "runs_sampled")]),
    "analysis.decided": ("count", [("count", "decided")]),
    "analysis.redundancy_s": ("s", [("self", "analysis.redundancy_report")]),
    "cli.self_s": ("s", [("self", "cli.main")]),
}


class Tracer:
    """Spans and counters of one run. ``op`` is the id of the op in
    progress, -1 during set-up. The wrappers sum no times; every time
    metric is worked out from the recorded spans by ``tables`` when the run
    ends."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.ids: Dict[str, int] = {}
        self.op = -1
        self.paused = False  # while the benchmark checks an output
        self.stack: List[int] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.calls: List[int] = []  # spans so far, by name id, for the live checks
        self.counts: Counter = Counter()
        self.errors: List[str] = []
        self._bookkeeping = None

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records a span called ``name``."""
        nid = self.ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self.calls.append(0)
        clock = time.perf_counter
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op_id.append(self.op)
            self.end.append(0.0)
            calls[nid] += 1
            self.stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()

        return wrapper

    def hidden(self, fn, *args):
        """Run benchmark-side bookkeeping as a span of its own. ``tables``
        takes such spans out of the self and inclusive times of every span
        around them."""
        if self._bookkeeping is None:
            self._bookkeeping = self.span(BOOKKEEPING, lambda f, *a: f(*a))
        return self._bookkeeping(fn, *args)

    def calls_of(self, name: str) -> int:
        return self.calls[self.ids[name]] if name in self.ids else 0

    def arrays(self):
        """The recorded spans, in the order ``tables`` takes them."""
        return self.name, self.parent, self.op_id, self.start, self.end

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then the span arrays as raw machine values:
        name id, parent index, op id (int32), start, end (float64)."""
        header = dict(header, names=self.names, spans=len(self.name),
                      counts=dict(self.counts), errors=self.errors[:20])
        with path.open("wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in self.arrays():
                arr.tofile(fh)


def tables(names, name, parent, op, start, end):
    """Self and inclusive times and calls keyed by (span name, in op phase),
    from raw spans. A span's self time is its duration less the part its
    child spans cover. Its inclusive time is its duration less the
    bookkeeping spans anywhere beneath it. ``analysis.iso_test.sampled``
    holds the ``iso_test`` spans with no enumeration beneath them."""
    count = len(name)
    ids = {span: i for i, span in enumerate(names)}
    book = ids.get(BOOKKEEPING, -1)
    enum = ids.get("engine.enumerate_encoding_class", -1)
    covered = [0.0] * count
    hidden = [0.0] * count
    enumerates = [False] * count
    # A child is recorded after its parent, so one backward pass sees every
    # child before its parent.
    for i in range(count - 1, -1, -1):
        p = parent[i]
        if p >= 0:
            dur = end[i] - start[i]
            covered[p] += dur
            hidden[p] += dur if name[i] == book else hidden[i]
            if enumerates[i] or name[i] == enum:
                enumerates[p] = True
    self_s, incl_s, calls = defaultdict(float), defaultdict(float), Counter()
    iso = ids.get("analysis.iso_test", -1)
    for i in range(count):
        key = (names[name[i]], op[i] >= 0)
        dur = end[i] - start[i]
        self_s[key] += dur - covered[i]
        incl_s[key] += dur - hidden[i]
        calls[key] += 1
        if name[i] == iso and op[i] >= 0 and not enumerates[i]:
            incl_s[("analysis.iso_test.sampled", True)] += dur - hidden[i]
    return self_s, incl_s, calls


def layer_metrics(self_s, incl_s, calls, counts, ops: int) -> Dict[str, dict]:
    """Per-layer metrics from self/inclusive times and call counts keyed by
    (span name, in op phase) and from named counters."""
    out = {}
    for metric, (unit, parts) in LAYERS.items():
        total = 0.0
        for kind, key in parts:
            if kind == "setup":
                total += incl_s.get((key, False), 0.0)
            elif kind == "count":
                total += counts.get(key, 0) / ops / (1e6 if unit == "MB" else 1)
            else:
                table = {"self": self_s, "incl": incl_s, "calls": calls}[kind]
                total += table.get((key, True), 0) / ops
        out[metric] = {"value": total, "unit": unit}
    return out


def read(path: Path):
    """Inverse of Tracer.write: (header, name, parent, op, start, end)."""
    with path.open("rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in "iiidd":
            arr = array.array(code)
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    return (header, *arrays)


# ---------------------------------------------------------------- install


def install(tracer: Tracer) -> None:
    """Wrap nodeparse's layers in place, at every name they are found by."""
    import importlib

    import nodeparse

    modules = {name: importlib.import_module(f"nodeparse.{name}") for name in MODULES}
    sites = [nodeparse, *modules.values()]
    hooks = _hooks(tracer)
    for span_name, (mod, attr) in FUNCTIONS.items():
        orig = getattr(modules[mod], attr)
        wrapped = tracer.span(span_name, orig)
        wrapped = hooks.get(span_name, lambda w, o: w)(wrapped, orig)
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is orig:
                    setattr(site, key, wrapped)
    for span_name, (mod, cls_name, attr) in METHODS.items():
        cls = getattr(modules[mod], cls_name)
        orig = getattr(cls, attr)
        wrapped = tracer.span(span_name, orig)
        setattr(cls, attr, hooks.get(span_name, lambda w, o: w)(wrapped, orig))
    # Leaves are counted but get no span: every run makes one per vertex.
    interner = modules["terms"].TermInterner
    interner.leaf = hooks["terms.TermInterner.merge"](interner.leaf, interner.leaf)
    # iter_all_runs yields runs lazily; count and check each one as it comes.
    engine = modules["engine"]
    orig_iter = engine.iter_all_runs

    @functools.wraps(orig_iter)
    def iter_all_runs(graph, *args, **kwargs):
        if tracer.paused:
            yield from orig_iter(graph, *args, **kwargs)
            return
        merges = tracer.calls_of("engine.ParseState.merge_edge")
        for result in orig_iter(graph, *args, **kwargs):
            tracer.counts["runs_exhaustive"] += 1
            tracer.hidden(_after_run, tracer, graph, result, merges)
            merges = tracer.calls_of("engine.ParseState.merge_edge")
            yield result

    engine.iter_all_runs = iter_all_runs
    analysis = modules["analysis"]
    if analysis.iter_all_runs is orig_iter:
        analysis.iter_all_runs = iter_all_runs


def _after_run(tracer: Tracer, graph, result, merges_before: int) -> None:
    merges = tracer.calls_of("engine.ParseState.merge_edge") - merges_before
    if merges != graph.num_edges:
        tracer.errors.append(
            f"run with {merges} merge_edge spans on a {graph.num_edges}-edge input")
    if result.variant == "npa":
        tracer.counts["h_updates"] += check.h_updates(graph.num_vertices, result.edge_order)


def _hooks(tracer: Tracer):
    """Counting and checking around particular spans, keyed by span name;
    each takes (wrapped, original) and returns the callable to install."""
    merge_name = "engine.ParseState.merge_edge"

    def run(wrapped, orig):
        @functools.wraps(orig)
        def hook(graph, *args, **kwargs):
            if tracer.paused:
                return orig(graph, *args, **kwargs)
            before = tracer.calls_of(merge_name)
            result = wrapped(graph, *args, **kwargs)
            tracer.hidden(_after_run, tracer, graph, result, before)
            return result
        return hook

    def interner(wrapped, orig):
        @functools.wraps(orig)
        def hook(self, *args, **kwargs):
            if tracer.paused:
                return orig(self, *args, **kwargs)
            before = len(self)
            result = wrapped(self, *args, **kwargs)
            tracer.counts["interned"] += len(self) - before
            return result
        return hook

    def key(wrapped, orig):
        @functools.wraps(orig)
        def hook(*args, **kwargs):
            if tracer.paused:
                return orig(*args, **kwargs)
            result = wrapped(*args, **kwargs)
            tracer.counts["key_bytes"] += sum(map(len, result))
            return result
        return hook

    def enumerate_class(wrapped, orig):
        @functools.wraps(orig)
        def hook(graph, *args, **kwargs):
            if tracer.paused:
                return orig(graph, *args, **kwargs)
            before = tracer.counts["runs_exhaustive"]
            result = wrapped(graph, *args, **kwargs)
            runs = tracer.counts["runs_exhaustive"] - before
            bound = check.order_count(graph.edges)
            if runs > bound:
                tracer.errors.append(f"enumeration made {runs} runs, over {bound} orders")
            return result
        return hook

    def iso(wrapped, orig):
        @functools.wraps(orig)
        def hook(*args, **kwargs):
            if tracer.paused:
                return orig(*args, **kwargs)
            runs = tracer.calls_of("engine.run")
            verdict = wrapped(*args, **kwargs)
            tracer.counts["runs_sampled"] += tracer.calls_of("engine.run") - runs
            tracer.counts["decided"] += verdict.status != "unknown"
            return verdict
        return hook

    return {
        "engine.run": run,
        "engine.run_ordered": run,
        "terms.TermInterner.merge": interner,
        "engine.c_multiset_key": key,
        "engine.enumerate_encoding_class": enumerate_class,
        "analysis.iso_test": iso,
    }

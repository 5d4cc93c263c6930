"""One workload in one fresh interpreter.

Started by run.py with PYTHONHASHSEED fixed and the program's ``src`` on
PYTHONPATH. It imports nodeparse and loads the generated inputs through the
program's loaders (set-up), then acts as a single closed-loop caller: whole
rounds of the workload's ops, each op starting when the previous one
returned, until the ops have taken ``--seconds`` in total. An untimed
round before them checks every output (see check.py); the timed rounds must
repeat it exactly. The last line printed is one JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import check


class Workload:
    """Inputs, the op, and the checks of one workload.

    ``op(i)`` is the timed call; ``payload(i, out)`` is what the matching
    CLI command prints for it; ``check(i, out)`` returns error strings.
    """

    def __init__(self, np, manifest: dict, work: Path):
        self.np = np
        self.manifest = manifest
        self.work = work

    @functools.cached_property
    def graphs(self):
        """The generated graphs that the checks compare against; built in
        the check round, after set-up."""
        return [(n, labels, [tuple(e) for e in edges])
                for n, labels, edges in self.manifest.get("graphs", [])]

    def load_files(self):
        return [self.np.parse_edge_list((self.work / f).read_text())
                for f in self.manifest["files"]]

    def failed(self, i: int, out) -> bool:
        return False

    def fingerprint(self, out):
        return out

    def check_permuted(self, i: int, text: str) -> list:
        """A vertex-permuted copy replayed under the transported edge order
        must give the same C key."""
        n, labels, edges = self.graphs[i]
        parsed = check.RunText(text)
        perm = list(range(n))
        random.Random(i).shuffle(perm)
        pn, plabels, pedges = check.permute((n, labels, edges), perm)
        copy = self.np.LabeledGraph(pn, tuple(pedges), tuple(plabels))
        order = [(perm[a], perm[b]) for a, b in parsed.order]
        key = self.np.c_multiset_key(self.np.run_ordered(copy, order))
        if list(key) != sorted(parsed.c):
            return ["permuted copy under the transported order gives another C key"]
        return []


class TuMolecules(Workload):
    """One op: what ``encode DIR`` and ``stats DIR --mode all`` compute for
    one graph of the dataset."""

    def __init__(self, np, manifest, work):
        super().__init__(np, manifest, work)
        name = manifest["dataset"]
        self.loaded = [g for g, _ in np.load_tudataset(work / name, name)]
        self.ops = len(self.loaded)
        self.modes = np.engine.EDGE_MODES

    def op(self, i):
        np = self.np
        g = self.loaded[i]
        text = np.serialize_run(np.run(g, np.SortConfig()))
        reports = [
            np.redundancy_report(g, np.SortConfig(edge_mode=mode, seed=np.engine.derive_seed(0, i)))
            for mode in self.modes
        ]
        return text, [(r.log10_edge_orders, r.log10_orientation_factor, r.levels) for r in reports]

    def payload(self, i, out):
        return len(f"graph {i} class {self.manifest['classes'][i]}\n") + len(out[0])

    def check(self, i, out):
        text, reports = out
        errors = check.check_encoding(self.graphs[i], check.RunText(text))
        for report in reports:
            errors += check.check_report(self.graphs[i], report)
        if not errors and i % 50 == 0:
            errors += self.check_permuted(i, text)
        return errors

    def fingerprint(self, out):
        return len(out[0]), hash(out[0]), tuple(out[1])


class Hubs(Workload):
    """One op: ``encode FILE`` on one hub graph."""

    def __init__(self, np, manifest, work):
        super().__init__(np, manifest, work)
        self.loaded = self.load_files()
        self.ops = len(self.loaded)

    def op(self, i):
        np = self.np
        return np.serialize_run(np.run(self.loaded[i], np.SortConfig()))

    def payload(self, i, out):
        return len(out)

    def check(self, i, out):
        errors = check.check_encoding(self.graphs[i], check.RunText(out))
        if not errors and i % 4 == 0:
            errors += self.check_permuted(i, out)
        return errors

    def fingerprint(self, out):
        return len(out), hash(out)


class Iso(Workload):
    """One op: ``iso A B`` with the CLI defaults (K=5, guard 5)."""

    COPIES = ("exhaustive-copy", "sampled-copy")

    def __init__(self, np, manifest, work):
        super().__init__(np, manifest, work)
        self.pairs = manifest["pairs"]
        self.loaded = [
            [np.parse_edge_list((work / f).read_text()) for f in pair["files"]]
            for pair in self.pairs
        ]
        self.ops = len(self.pairs)

    def op(self, i):
        np = self.np
        g, h = self.loaded[i]
        verdict = np.iso_test(g, h, k=5, config=np.SortConfig(), guard_edges=5)
        return verdict.status, verdict.samples_tried

    def payload(self, i, out):
        return len(f"verdict {out[0]} samples_tried={out[1]}\n")

    def check(self, i, out):
        pair = self.pairs[i]
        status = out[0]
        a, b = [(n, labels, [tuple(e) for e in edges]) for n, labels, edges in pair["graphs"]]
        guarded = max(len(a[2]), len(b[2])) <= 5
        if status not in ("isomorphic", "non-isomorphic", "unknown"):
            return [f"pair {i}: unknown verdict {status!r}"]
        if guarded and status == "unknown":
            return [f"pair {i} ({pair['kind']}): no verdict within the guard"]
        if status == "isomorphic" and pair["kind"] not in self.COPIES and not check.isomorphic(a, b):
            return [f"pair {i} ({pair['kind']}): isomorphic, but the oracle disagrees"]
        if status == "non-isomorphic" and check.isomorphic(a, b):
            return [f"pair {i} ({pair['kind']}): non-isomorphic, but the oracle disagrees"]
        return []

    def failed(self, i, out):
        # analysis.iso_test never proves non-isomorphism above the guard, not
        # even when n, m or the label multiset differ.
        return self.pairs[i]["kind"] == "fault" and out[0] == "unknown"


class Numeric(Workload):
    """One op: ``encode FILE --numeric-check`` through the CLI's main()."""

    def __init__(self, np, manifest, work):
        super().__init__(np, manifest, work)
        import nodeparse.cli

        self.cli = nodeparse.cli
        # Set-up loads the files as for the other workloads; each op then
        # reads its file again, as the CLI does.
        self.loaded = self.load_files()
        self.ops = len(self.loaded)
        self.paths = [str(work / f) for f in manifest["files"]]

    def op(self, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["encode", self.paths[i], "--numeric-check"])
        return code, buf.getvalue()

    def payload(self, i, out):
        return len(out[1])

    def check(self, i, out):
        code, text = out
        if code != 0:
            return [f"class {i}: exit code {code}"]
        return check.check_numeric(self.graphs[i], check.RunText(text, keep_terms=True))


WORKLOADS = {"tu-molecules": TuMolecules, "hubs": Hubs, "iso": Iso, "numeric": Numeric}


def mid(times: list) -> float:
    """The mean of the op times ranked from p40 to p60: a smoothed median.
    On numeric the exact median falls among the classes just above the gap
    between cheap and bignum-heavy ops, the classes whose time moves most
    with the load on a shared host; averaging the middle fifth of the ops
    follows the median but moves less with that load."""
    ordered = sorted(times)
    lo = 2 * len(ordered) // 5
    hi = max(lo + 1, -(-3 * len(ordered) // 5))
    return statistics.fmean(ordered[lo:hi])


def tail(times: list) -> float:
    """The op time with max(10, 5% of the ops) ops above it: the highest
    percentile that has at least ten ops beyond it, but not above p95. On a
    shared 2-core VM, stalls of a few ms hit one or two short ops in a
    hundred; past p95 they, not the program, would set the figure."""
    ordered = sorted(times)
    return ordered[max(0, len(ordered) - 1 - max(10, len(ordered) // 20))]


def measure(workload, seconds: float, tracer=None) -> dict:
    """A check round, then timed rounds until the ops have taken
    ``seconds``. The check round is not timed or traced: it checks every
    output and warms caches, so that no check runs between timed ops."""
    errors, prints = [], {}
    out_bytes = 0
    if tracer is not None:
        tracer.paused = True
    for i in range(workload.ops):
        out = workload.op(i)
        out_bytes += workload.payload(i, out)
        errors += workload.check(i, out)
        prints[i] = workload.fingerprint(out)
        del out
    if tracer is not None:
        tracer.paused = False
    times = []
    failed = rounds = 0
    clock = time.perf_counter
    while not rounds or sum(times) < seconds:
        for i in range(workload.ops):
            if tracer is not None:
                tracer.op = len(times)
            t0 = clock()
            out = workload.op(i)
            times.append(clock() - t0)
            failed += workload.failed(i, out)
            if workload.fingerprint(out) != prints[i]:
                errors.append(f"op {i}: output of timed round {rounds + 1} differs from the check round")
            del out
        rounds += 1
    return {"times": times, "errors": errors, "failed": failed, "rounds": rounds,
            "out_bytes": out_bytes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    manifest = json.loads((args.work / "manifest.json").read_text())
    if args.trace:
        import spans

    # Set-up: a cold import of the program in this fresh process, and the
    # inputs loaded through its loaders.
    t0 = time.perf_counter()
    import nodeparse

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    workload = WORKLOADS[args.workload](nodeparse, manifest, args.work)
    setup_s = time.perf_counter() - t0

    res = measure(workload, args.seconds, tracer)
    times = res["times"]
    errors = res["errors"]
    if tracer is not None:
        errors += tracer.errors
        tables = spans.tables(tracer.names, *tracer.arrays())
        metrics = spans.layer_metrics(*tables, tracer.counts, len(times))
        if args.spans:
            tracer.write(args.spans, {
                "workload": args.workload, "seed": manifest["seed"], "ops": len(times),
                "rounds": res["rounds"], "op_p50_ms": mid(times) * 1e3,
            })
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_p50_ms": {"value": mid(times) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": tail(times) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "out_mb": {"value": res["out_bytes"] / 1e6, "unit": "MB"},
        }
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": not errors, "attempted": len(times), "failed": res["failed"],
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: small runs of every workload, and for each
output check a corrupted output that it must reject.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

import nodeparse  # noqa: E402
from nodeparse.oracle import are_isomorphic_bruteforce  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_checks_out(workload, trace):
    result = bench_run(workload, trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = 4 / 8 if workload == "iso" else 0  # four fault pairs of eight
    assert result["failed"] == expected * result["attempted"]
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if trace:
        header = spans.read(ROOT / "bench" / "results" / f"{workload}-seed3.spans")[0]
        assert header["errors"] == []
        assert header["ops"] == result["attempted"]
        per_op = {name: m["value"] for name, m in result["metrics"].items()}
        if workload == "numeric":  # one run of three merges per op
            assert per_op["engine.merges"] == 3
        if workload == "iso":  # two exhaustive ops of eight, 2 * 5! * 2^4 runs each
            assert per_op["analysis.runs_exhaustive"] == 2 * 3840 / 8
            assert 2 / 8 <= per_op["analysis.decided"] <= 3 / 8


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(spans.LAYERS)


# ---------------------------------------------------------------- references


def test_numeric_classes_are_the_338_classes():
    assert len(gen.numeric_classes()) == 338


def test_order_count():
    path5 = [(i, i + 1) for i in range(5)]
    assert check.order_count(path5) == 120 * 32
    assert check.order_count([(0, 1), (0, 1), (1, 1)]) == 3 * 4


def test_isomorphism_oracle_agrees_with_the_programs_oracle():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(2, 6)
        labels = rng.choices((1, 2), k=n)
        edges = [tuple(sorted(rng.choices(range(n), k=2))) for _ in range(rng.randint(1, 6))]
        g = (n, labels, edges)
        h = check.permute(g, rng.sample(range(n), n)) if rng.random() < 0.5 else \
            (n, rng.sample(labels, n), [tuple(sorted(rng.choices(range(n), k=2))) for _ in edges])
        want = are_isomorphic_bruteforce(*(nodeparse.LabeledGraph(k, tuple(e), tuple(lab))
                                           for k, lab, e in (g, h)))
        assert check.isomorphic(g, h) == want


def test_tail_has_ten_ops_beyond_it_up_to_p95():
    times = list(range(1, 101))
    random.Random(1).shuffle(times)
    assert worker.tail(times) == 90
    assert worker.tail(list(range(1, 5001))) == 4750


def test_mid_is_the_mean_of_the_middle_fifth():
    times = list(range(1, 101))
    random.Random(1).shuffle(times)
    assert worker.mid(times) == sum(range(41, 61)) / 20
    assert worker.mid([7.0]) == 7.0
    assert worker.mid([3.0, 1.0]) == 2.0


# ---------------------------------------------------------------- corruptions


def corrupt_line(text: str, prefix: str, edit) -> str:
    lines = text.split("\n")
    i = max(k for k, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = edit(lines[i])
    return "\n".join(lines)


@pytest.fixture(scope="module")
def hubs(tmp_path_factory):
    work = tmp_path_factory.mktemp("hubs")
    manifest = gen.generate("hubs", 0, work, small=True)
    return worker.Hubs(nodeparse, manifest, work)


def test_encode_check_passes_and_rejects_corruptions(hubs):
    out = hubs.op(0)
    assert hubs.check(0, out) == []
    graph = hubs.graphs[0]

    def rejected(text):
        return check.check_encoding(graph, check.RunText(text)) != []

    # a W counter changed
    assert rejected(corrupt_line(out, "W ", lambda s: s[:-2] + str(int(s[-2]) ^ 1) + ")"))
    assert rejected(corrupt_line(out, "W ", lambda s: ""))  # a W entry missing
    assert rejected(corrupt_line(out, "C ", lambda s: ""))  # a component missing
    assert rejected(corrupt_line(out, "edge ", lambda s: s[:-1] + str(1 - int(s[-1]))))
    m = len(graph[2])
    assert rejected(corrupt_line(out, "levels ", lambda s: f"levels {m + 1}"))
    assert rejected(corrupt_line(out, "levels ", lambda s: "levels 0"))


def test_permuted_copy_check_rejects_another_c_key(hubs):
    out = hubs.op(0)
    bad = corrupt_line(out, "C ", lambda s: s.replace("L(1)", "L(9)", 1))
    assert check.check_encoding(hubs.graphs[0], check.RunText(bad)) == []
    assert hubs.check(0, bad) != []


def test_report_check_rejects_corruptions(tmp_path):
    manifest = gen.generate("tu-molecules", 0, tmp_path, small=True)
    tu = worker.TuMolecules(nodeparse, manifest, tmp_path)
    text, reports = tu.op(1)
    assert tu.check(1, (text, reports)) == []
    orders, orient, levels = reports[0]
    m = len(tu.graphs[1][2])
    for bad in [(orders, orient, m + 1), (-1.0, orient, levels),
                (orders, orient + 0.1, levels)]:
        assert tu.check(1, (text, [bad] + reports[1:])) != []


def test_numeric_check_rejects_corruptions(tmp_path):
    manifest = gen.generate("numeric", 0, tmp_path, small=True)
    nm = worker.Numeric(nodeparse, manifest, tmp_path)
    i = next(k for k, (_, _, edges) in enumerate(nm.graphs) if edges)
    code, text = nm.op(i)
    assert nm.check(i, (code, text)) == []
    # The first merge's first child is a leaf; a changed h changes its y
    # but none of the counters.
    lines = text.split("\n")
    k = next(k for k, line in enumerate(lines) if line.startswith("W (M"))
    lines[k] = re.sub(r"\(L\((\d+)\),(\d+),", lambda m: f"(L({m[1]}),{int(m[2]) + 1},",
                      lines[k], count=1)
    bumped = "\n".join(lines)
    assert bumped != text
    assert check.check_encoding(nm.graphs[i], check.RunText(bumped)) == []
    assert nm.check(i, (code, bumped)) != []
    failed = text.replace("numeric-check ok", "numeric-check FAILED")
    assert nm.check(i, (code, failed)) != []
    assert nm.check(i, (1, text)) != []


def test_numeric_check_rejects_a_y_off_by_one(tmp_path, monkeypatch):
    manifest = gen.generate("numeric", 0, tmp_path, small=True)
    nm = worker.Numeric(nodeparse, manifest, tmp_path)
    i = next(k for k, (_, _, edges) in enumerate(nm.graphs) if edges)
    out = nm.op(i)
    assert nm.check(i, out) == []
    value = check.term_value
    monkeypatch.setattr(check, "term_value", lambda tree, memo: value(tree, memo) + 1)
    assert nm.check(i, out) != []


def test_iso_check_rejects_flipped_verdicts(tmp_path):
    manifest = gen.generate("iso", 0, tmp_path, small=True)
    iso = worker.Iso(nodeparse, manifest, tmp_path)
    kinds = {pair["kind"]: i for i, pair in enumerate(iso.pairs)}
    for kind, i in kinds.items():
        out = iso.op(i)
        assert iso.check(i, out) == [], kind
        assert iso.failed(i, out) == (kind == "fault")
    assert iso.check(kinds["exhaustive-copy"], ("non-isomorphic", 0)) != []
    assert iso.check(kinds["exhaustive-distinct"], ("isomorphic", 0)) != []
    assert iso.check(kinds["exhaustive-distinct"], ("unknown", 0)) != []
    assert iso.check(kinds["near-miss"], ("isomorphic", 1)) != []
    assert iso.check(kinds["fault"], ("isomorphic", 1)) != []


def test_a_round_that_differs_from_the_first_is_an_error():
    class Drifting(worker.Workload):
        """One op whose output changes on every call."""

        ops = 0

        def __init__(self):
            self.calls = 0

        def op(self, i):
            self.calls += 1
            return self.calls

        def payload(self, i, out):
            return 0

        def check(self, i, out):
            return []

    assert worker.measure(Drifting(), seconds=0)["errors"] == []
    drifting = Drifting()
    drifting.ops = 1
    res = worker.measure(drifting, seconds=0)
    assert any("differs from the check round" in e for e in res["errors"])


def test_trace_flags_runs_with_the_wrong_merge_count():
    g = nodeparse.LabeledGraph(3, ((0, 1), (1, 2)), (1, 1, 1))
    result = nodeparse.run(g, nodeparse.SortConfig())
    tracer = spans.Tracer()
    spans._after_run(tracer, g, result, merges_before=0)
    assert tracer.errors  # no merge_edge span was recorded for a 2-edge run
    assert tracer.counts["h_updates"] == check.h_updates(3, result.edge_order)


def test_tables_take_bookkeeping_out_of_every_span_around_it():
    names = ["analysis.iso_test", "engine.enumerate_encoding_class", spans.BOOKKEEPING,
             "engine.run"]
    # Op 0: iso_test > enumeration > bookkeeping. Op 1, sampled: iso_test >
    # run, then bookkeeping.
    name = [0, 1, 2, 0, 3, 2]
    parent = [-1, 0, 1, -1, 3, 3]
    op = [0, 0, 0, 1, 1, 1]
    start = [0.0, 1.0, 2.0, 20.0, 21.0, 25.0]
    end = [10.0, 9.0, 5.0, 30.0, 24.0, 27.0]
    self_s, incl_s, calls = spans.tables(names, name, parent, op, start, end)
    assert incl_s[("engine.enumerate_encoding_class", True)] == 8 - 3
    assert self_s[("engine.enumerate_encoding_class", True)] == 8 - 3
    assert incl_s[("analysis.iso_test", True)] == (10 - 3) + (10 - 2)
    assert self_s[("analysis.iso_test", True)] == (10 - 8) + (10 - 3 - 2)
    assert incl_s[("analysis.iso_test.sampled", True)] == 10 - 2
    assert calls[("analysis.iso_test", True)] == 2

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from nodeparse import LabeledGraph, SortConfig, cli, gen_npba_hard, run, serialize_edge_list, terms
from nodeparse.cli import main
from nodeparse.reference import reference_run
from nodeparse.terms import MergeTerm, TermInterner, eval_term_numeric, r_combine

from helpers import (
    DENSE_12,
    random_config,
    random_multigraph,
    widest_pairing_value,
    write_tu_fixture,
)


def invoke(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(serialize_edge_list(graph) + "\n")
    return str(path)


def test_encode_k2(tmp_path, capsys):
    k2 = write_graph(tmp_path, "k2.graph", LabeledGraph(2, ((0, 1),), (1, 1)))
    code, out, _ = invoke(capsys, ["encode", k2, "--seed", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("config ")
    assert sum(1 for l in lines if l.startswith("W ")) == 3
    assert sum(1 for l in lines if l.startswith("C ")) == 1
    assert "levels 1" in lines


def test_encode_is_byte_deterministic(tmp_path, capsys):
    g = LabeledGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)), (1, 2, 1, 2))
    path = write_graph(tmp_path, "c4.graph", g)
    argv = ["encode", path, "--seed", "17", "--mode", "none"]
    _, out1, _ = invoke(capsys, argv)
    _, out2, _ = invoke(capsys, argv)
    assert out1 == out2


def test_encode_numeric_check(tmp_path, capsys):
    path = write_graph(tmp_path, "p3.graph", LabeledGraph(3, ((0, 1), (1, 2)), (1, 2, 3)))
    code, out, _ = invoke(capsys, ["encode", path, "--numeric-check"])
    assert code == 0
    assert "numeric-check ok" in out


def test_encode_npba_on_hard_pair(tmp_path, capsys):
    pairs = gen_npba_hard()
    parallel = write_graph(tmp_path, "parallel.graph", pairs[0][0])
    loops = write_graph(tmp_path, "loops.graph", pairs[1][0])
    outputs = []
    for path in (parallel, loops):
        code, out, _ = invoke(capsys, ["encode", path, "--variant", "npba", "--seed", "1"])
        assert code == 0
        # merge encodings are the W entries after the two vertex leaves
        outputs.append([l for l in out.splitlines() if l.startswith("W ")][2:])
    assert outputs[0] == outputs[1]


def test_encode_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("n=2 labels=1 e=0-1\n")
    code, _, err = invoke(capsys, ["encode", str(bad)])
    assert code == 1
    assert "error:" in err


def test_encode_tudataset_directory(tmp_path, capsys):
    graphs = [
        (LabeledGraph(2, ((0, 1),), (1, 1)), 1),
        (LabeledGraph(3, ((0, 1), (1, 2)), (1, 2, 1)), 2),
    ]
    d = write_tu_fixture(tmp_path / "TINY", "TINY", graphs)
    code, out, _ = invoke(capsys, ["encode", str(d)])
    assert code == 0
    assert "graph 0 class 1" in out
    assert "graph 1 class 2" in out


def test_iso_exit_codes(tmp_path, capsys):
    tri = LabeledGraph(3, ((0, 1), (1, 2), (0, 2)), (1, 1, 1))
    a = write_graph(tmp_path, "a.graph", tri)
    b = write_graph(tmp_path, "b.graph", tri.permuted([2, 0, 1]))
    code, out, _ = invoke(capsys, ["iso", a, b])
    assert code == 0 and "verdict isomorphic" in out

    c6 = LabeledGraph(6, tuple((i, (i + 1) % 6) for i in range(6)), (1,) * 6)
    halves = LabeledGraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)), (1,) * 6)
    f1 = write_graph(tmp_path, "c6.graph", c6)
    f2 = write_graph(tmp_path, "tt.graph", halves)
    # 6 edges exceed the default exhaustive guard: sampling cannot prove
    # non-isomorphism, so the verdict stays unknown
    code, out, _ = invoke(capsys, ["iso", f1, f2, "-K", "2"])
    assert code == 2 and "verdict unknown" in out
    # ... but a raised guard decides it exactly
    code, out, _ = invoke(capsys, ["iso", f1, f2, "--guard-edges", "6"])
    assert code == 1 and "verdict non-isomorphic" in out

    # a missing file or a directory is an error (4), not a non-isomorphic verdict (1)
    for files in ([a, str(tmp_path / "missing.graph")], [str(tmp_path), a], [a, str(tmp_path)]):
        code, _, err = invoke(capsys, ["iso", *files])
        assert code == 4 and err.startswith("error:") and len(err.splitlines()) == 1


def test_gen_rejects_a_flag_the_family_does_not_take(tmp_path, capsys):
    for family, flag in (
        ("gnn-hard", "--count=5"), ("npba-hard", "--count=3"), ("erdos", "--degree=4"),
        ("erdos-labels", "--single-node-class2"), ("random-regular", "--edge-prob=0.3"),
    ):
        code, _, err = invoke(capsys, ["gen", family, str(tmp_path / family), flag])
        assert code == 1 and err.startswith("error:") and len(err.splitlines()) == 1
        assert family in err and not (tmp_path / family).exists()


def test_gen_rejects_negative_sizes(tmp_path, capsys):
    for family, flags, name in (
        ("erdos", ["--count", "-1"], "count"),
        ("random-regular", ["--degree", "-2", "--count", "1"], "degree"),
    ):
        out = tmp_path / family
        code, _, err = invoke(capsys, ["gen", family, str(out), *flags])
        assert code == 1 and err.startswith("error:") and len(err.splitlines()) == 1
        assert name in err and not out.exists()


def test_gen_families(tmp_path, capsys):
    code, out, _ = invoke(capsys, ["gen", "gnn-hard", str(tmp_path / "gh")])
    assert code == 0 and "wrote 32 graphs" in out
    assert len(list((tmp_path / "gh").glob("*.graph"))) == 32
    manifest = json.loads((tmp_path / "gh" / "manifest.json").read_text())
    assert manifest["family"] == "gnn-hard"

    code, out, _ = invoke(capsys, ["gen", "npba-hard", str(tmp_path / "nh")])
    assert code == 0 and "wrote 36 graphs" in out

    with pytest.raises(SystemExit):
        main(["gen", "mystery", str(tmp_path / "x")])


def test_gen_is_deterministic(tmp_path, capsys):
    argv1 = ["gen", "random-regular", str(tmp_path / "r1"), "--seed", "5", "--count", "3"]
    argv2 = ["gen", "random-regular", str(tmp_path / "r2"), "--seed", "5", "--count", "3"]
    invoke(capsys, argv1)
    invoke(capsys, argv2)
    for i in range(3):
        name = f"graph_{i:04d}.graph"
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_stats_on_generated_collection(tmp_path, capsys):
    invoke(capsys, ["gen", "npba-hard", str(tmp_path / "nh")])
    code, out, _ = invoke(capsys, ["stats", str(tmp_path / "nh"), "--mode", "none"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("config ")
    assert any(l.startswith("none") and " 36 " in l for l in lines)

    code, out2, _ = invoke(capsys, ["stats", str(tmp_path / "nh"), "--mode", "all"])
    assert code == 0
    assert sum(1 for l in out2.splitlines() if l.split() and l.split()[0] in
               ("none", "one-deg", "two-degs", "degs-and-labels")) == 4


def test_stats_on_foreign_manifest_errors(tmp_path, capsys):
    # a manifest.json that is not a collection manifest, shaped like the
    # benchmark's: graphs as [n, labels, edges] triples
    foreign = tmp_path / "foreign"
    foreign.mkdir()
    (foreign / "manifest.json").write_text(json.dumps(
        {"files": ["g.graph"], "graphs": [[2, [1, 1], [[0, 1]]]], "seed": 7}))
    (foreign / "g.graph").write_text("n=2 labels=1,1 e=0-1\n")
    code, _, err = invoke(capsys, ["stats", str(foreign)])
    assert code == 1
    assert err.splitlines() == [
        f"error: {foreign / 'manifest.json'} is not a collection manifest: it needs a"
        " 'graphs' list of records with 'file' and 'class_id'"
    ]


def test_stats_empty_dir_errors(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = invoke(capsys, ["stats", str(empty)])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("loops, line", [
    (3, "numeric-check ok (3/4 encodings verified; overflow entries skipped)"),
    (4, "numeric-check ok (4/5 encodings verified; overflow entries skipped)"),
])
def test_numeric_refusal_builds_no_wide_value(tmp_path, capsys, loops, line):
    # a budget one bit above the second-to-last y refuses only the last one
    graph = LabeledGraph(1, ((0, 0),) * loops, (1,))
    w = run(graph, SortConfig()).w
    budget = eval_term_numeric(w[-2].y).bit_length() + 1
    path = write_graph(tmp_path, "loops.graph", graph)
    with widest_pairing_value() as widest:
        assert eval_term_numeric(w[-1].y, budget) is None
        _, out, _ = invoke(
            capsys, ["encode", path, "--numeric-check", "--bit-budget", str(budget)]
        )
    assert out.splitlines()[-1] == line
    assert widest[0] <= budget + 2


def _numeric_check_line(monkeypatch, capsys, tmp_path, tamper):
    path = write_graph(tmp_path, "p3.graph", LabeledGraph(3, ((0, 1), (1, 2)), (1, 2, 3)))
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda graph, config: tamper(real_run(graph, config)))
    code, out, _ = invoke(capsys, ["encode", path, "--numeric-check"])
    assert code == 0
    return out.splitlines()[-1]


def _with_last_w(result, enc):
    return replace(result, w=result.w[:-1] + (enc,))


def test_numeric_check_reports_counter_mismatch(monkeypatch, capsys, tmp_path):
    def bump_m1(result):
        last = result.w[-1]
        return _with_last_w(result, last._replace(m1=last.m1 + 1))

    line = _numeric_check_line(monkeypatch, capsys, tmp_path, bump_m1)
    assert line == "numeric-check FAILED (m-counter mismatch)"


def test_numeric_check_reports_y_mismatch(monkeypatch, capsys, tmp_path):
    def swap_h(result):
        last = result.w[-1]
        left, right = last.y.left, last.y.right
        y = TermInterner().merge(left._replace(h=left.h + 1), right, last.y.b)
        return _with_last_w(result, last._replace(y=y))

    line = _numeric_check_line(monkeypatch, capsys, tmp_path, swap_h)
    assert line == "numeric-check FAILED (y mismatch)"


@pytest.mark.parametrize("variant", ["npa", "npba"])
def test_numeric_check_pairs_once_per_merge(tmp_path, capsys, monkeypatch, catalog_3edges, variant):
    # the replay pairs once per edge; folding the W terms reuses its values
    calls = [0]
    real_sym_pair = terms.sym_pair

    def counting_sym_pair(i, j):
        calls[0] += 1
        return real_sym_pair(i, j)

    monkeypatch.setattr(terms, "sym_pair", counting_sym_pair)
    for idx, graph in enumerate(catalog_3edges):
        path = write_graph(tmp_path, f"g{idx}.graph", graph)
        calls[0] = 0
        code, out, _ = invoke(capsys, ["encode", path, "--variant", variant, "--numeric-check"])
        assert code == 0
        assert out.splitlines()[-1].startswith("numeric-check ok")
        assert calls[0] == graph.num_edges, (graph, calls[0])


def _numeric_check_fresh(graph, result, bit_budget):
    """Reference for ``cli._numeric_check``: the same bignum replay, then
    every W term evaluated afresh by ``eval_term_numeric``."""
    def combine(t1, t2, b):
        return r_combine(*t1, *t2, b, bit_budget)

    numeric, _, _ = reference_run(
        graph.num_vertices, graph.labels, result.edge_order, result.variant, combine
    )

    checked = 0
    for w_enc, (y_num, m1_num, m2_num) in zip(result.w, numeric):
        if (m1_num, m2_num) != (w_enc.m1, w_enc.m2):
            return "numeric-check FAILED (m-counter mismatch)"
        if y_num is None:
            continue
        if eval_term_numeric(w_enc.y, bit_budget) != y_num:
            return "numeric-check FAILED (y mismatch)"
        checked += 1
    suffix = "; overflow entries skipped" if checked < len(result.w) else ""
    return f"numeric-check ok ({checked}/{len(result.w)} encodings verified{suffix})"


def _bump_child(field):
    def tamper(rng, node):
        left, right = node.left, node.right
        if rng.random() < 0.5:
            left = left._replace(**{field: getattr(left, field) + rng.choice((-1, 1))})
        else:
            right = right._replace(**{field: getattr(right, field) + rng.choice((-1, 1))})
        return MergeTerm(left, right, node.b)
    return tamper


_Y_TAMPERS = (
    _bump_child("h"),
    _bump_child("m2"),
    lambda rng, node: MergeTerm(node.left, node.right, 1 - node.b),
    lambda rng, node: MergeTerm(node.right, node.left, node.b),
)


def test_numeric_check_matches_fresh_evaluation():
    rng = random.Random(1212)
    kinds = set()
    for _ in range(300):
        graph = random_multigraph(rng, max_vertices=5, max_edges=4)
        for variant in ("npa", "npba"):
            result = run(graph, random_config(rng, variant))
            results = [result]
            if graph.num_edges:
                i = rng.randrange(graph.num_vertices, len(result.w))
                enc = result.w[i]
                tamper = rng.choice(_Y_TAMPERS)
                for bad in (enc._replace(y=tamper(rng, enc.y)), enc._replace(m1=enc.m1 + 1)):
                    results.append(replace(result, w=result.w[:i] + (bad,) + result.w[i + 1:]))
            for budget in (0, 40, 700, 12000):
                for res in results:
                    line = cli._numeric_check(graph, res, budget)
                    assert line == _numeric_check_fresh(graph, res, budget)
                    if line.startswith("numeric-check ok"):
                        line = "skipped" if "skipped" in line else "ok"
                    kinds.add(line)
    assert kinds == {
        "ok",
        "skipped",
        "numeric-check FAILED (m-counter mismatch)",
        "numeric-check FAILED (y mismatch)",
    }


def test_iso_rejects_nonpositive_k(tmp_path, capsys):
    graph = LabeledGraph(8, tuple((i, i + 1) for i in range(7)), (1,) * 8)
    p8 = write_graph(tmp_path, "p8.graph", graph)
    code, out, err = invoke(capsys, ["iso", p8, p8, "-K", "-3"])
    assert code == 4
    assert "verdict" not in out
    assert err == "error: k must be >= 1\n"


def test_encode_rejects_negative_bit_budget(tmp_path, capsys):
    k2 = write_graph(tmp_path, "k2.graph", LabeledGraph(2, ((0, 1),), (1, 1)))
    code, out, err = invoke(capsys, ["encode", k2, "--numeric-check", "--bit-budget", "-5"])
    assert code == 1
    assert out == ""
    assert err == "error: --bit-budget must be >= 0\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux-only")
def test_encode_out_of_memory_is_an_error_line(tmp_path):
    # DENSE_12's text key outgrows a 256 MB address space; the cap is set in
    # the child only, which stops at under 200 MB resident in well under 1 s
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    path = write_graph(tmp_path, "dense.graph", DENSE_12)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "nodeparse.cli", "encode", path],
        env=env, capture_output=True, text=True, preexec_fn=cap_address_space, timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: out of memory: this input is too large for encode\n"


def test_iso_out_of_memory_exits_4(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "iso_test", exhausted)
    k2 = write_graph(tmp_path, "k2.graph", LabeledGraph(2, ((0, 1),), (1, 1)))
    code, out, err = invoke(capsys, ["iso", k2, k2])
    assert code == 4
    assert "verdict" not in out
    assert err == "error: out of memory: this input is too large for iso\n"

import ast
import importlib
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from nodeparse import (
    GuardExceeded,
    LabeledGraph,
    SortConfig,
    enumerate_encoding_class,
    iso_test,
    reference,
    run,
    run_npba,
    run_ordered,
    sample_orderings,
    serialize_encoding,
    serialize_run,
    shared_subgraph_bound,
    sort_edges,
)
from nodeparse.engine import (
    ParseState,
    c_multiset_key,
    iter_all_runs,
    iter_c_multisets,
    iter_least_w,
    sort_key,
)
from nodeparse.graphs import Components
from nodeparse.terms import TermInterner, eval_term_numeric

import reference_numeric as ref
from helpers import (
    DENSE_12,
    counted_merges,
    random_config,
    random_multigraph,
    random_oriented_order,
    random_permutation,
)


def h_values(state):
    """Every vertex's h-value: its potential in the state's components."""
    return [state.comps.value(v) for v in range(state.graph.num_vertices)]


def test_single_edge_worked_example():
    g = LabeledGraph(2, ((0, 1),), (1, 2))
    r = run_ordered(g, [(0, 1)])
    assert len(r.w) == 3 and len(r.c) == 1
    assert [serialize_encoding(e) for e in r.w[:2]] == ["(L(1),0,2)", "(L(2),0,3)"]
    merged = r.c[0]
    assert (merged.m1, merged.m2) == (6, 12)
    # the first-component slot records the shifted endpoint value 1 + 6
    assert serialize_encoding(merged) == "(M(b=0; (L(1),7,0,2), (L(2),2,0,3)),6,12)"
    assert eval_term_numeric(merged.y) == ref.combine((0, 7, 0, 2), (0, 2, 0, 3), 0)
    assert r.levels == 1


def test_single_edge_h_shift_hits_first_component_only():
    g = LabeledGraph(2, ((0, 1),), (1, 2))
    state = ParseState(g, TermInterner())
    state.merge_edge(0, 1, "npa")
    assert h_values(state) == [7, 2]
    # opposite orientation shifts the other side
    state2 = ParseState(g, TermInterner())
    state2.merge_edge(1, 0, "npa")
    assert h_values(state2) == [1, 8]


def test_self_loop_is_same_component_merge():
    g = LabeledGraph(1, ((0, 0),), (1,))
    r = run_ordered(g, [(0, 0)])
    assert r.same_component[0] == 1
    assert len(r.c) == 1
    assert r.levels == 1


def test_levels():
    two_edges = LabeledGraph(4, ((0, 1), (2, 3)), (1,) * 4)
    assert run_ordered(two_edges, [(0, 1), (2, 3)]).levels == 1
    p4 = LabeledGraph(4, ((0, 1), (1, 2), (2, 3)), (1,) * 4)
    assert run_ordered(p4, [(0, 1), (1, 2), (2, 3)]).levels == 3
    edgeless = LabeledGraph(3, (), (1, 1, 1))
    assert run(edgeless, SortConfig()).levels == 0


def classes(comps):
    groups = {}
    for v in range(len(comps.parent)):
        groups.setdefault(comps.find(v), set()).add(v)
    return {frozenset(group) for group in groups.values()}


def replay_with_checks(graph, result, interner):
    """Replay a run's realized edge order through ParseState and check after
    every merge that it reproduces the run's W entry, that the components
    are exactly the connectivity classes of the processed edge prefix (so
    pairwise disjoint and connected) and, for npa, that the h-values within
    each component are pairwise distinct."""
    state = ParseState(graph, interner)
    for step, (va, vb) in enumerate(result.edge_order):
        b, enc = state.merge_edge(va, vb, result.variant)
        assert (b, enc) == (result.same_component[step], result.w[graph.num_vertices + step])
        expected = Components(graph.num_vertices)
        for a, c in result.edge_order[: step + 1]:
            expected.union(expected.find(a), expected.find(c))
        assert classes(state.comps) == classes(expected)
        if result.variant == "npa":
            for group in classes(state.comps):
                assert len({state.comps.value(v) for v in group}) == len(group)


def test_w_and_c_shapes(rng):
    for _ in range(20):
        g = random_multigraph(rng)
        it = TermInterner()
        r = run(g, random_config(rng), interner=it)
        replay_with_checks(g, r, it)
        assert len(r.w) == g.num_vertices + g.num_edges
        assert len(r.c) == g.num_components()
        assert not Counter(r.c) - Counter(r.w)  # C is a sub-multiset of W
        assert all(e.m1 == 0 for e in r.w[: g.num_vertices])
        assert all(e.m1 > 0 for e in r.w[g.num_vertices:])


def test_same_seed_reproduces_run(rng):
    for _ in range(10):
        g = random_multigraph(rng)
        cfg = random_config(rng)
        assert serialize_run(run(g, cfg)) == serialize_run(run(g, cfg))


def test_sort_edges_determinism_and_tie_block():
    triangle = LabeledGraph(3, ((0, 1), (1, 2), (0, 2)), (1, 1, 1))
    for mode in ("none", "one-deg", "two-degs", "degs-and-labels"):
        cfg = SortConfig(edge_mode=mode, seed=11)
        assert sort_edges(triangle, cfg) == sort_edges(triangle, cfg)
    orders = {
        tuple(sort_edges(triangle, SortConfig(edge_mode="none", seed=s)))
        for s in range(40)
    }
    assert len(orders) > 1  # ties really are permuted


def test_sort_keys_hand_example():
    # path a-b-c with labels 1,1,2: two-degs ties, degs-and-labels does not
    path = LabeledGraph(3, ((0, 1), (1, 2)), (1, 1, 2))
    seen = set()
    for s in range(30):
        cfg = SortConfig(edge_mode="two-degs", endpoint_mode="by-level", seed=s)
        seen.add(tuple(sort_edges(path, cfg)))
    assert seen == {((0, 1), (1, 2)), ((1, 2), (0, 1))}
    for s in range(30):
        cfg = SortConfig(edge_mode="degs-and-labels", endpoint_mode="by-level", seed=s)
        # key [2,1,1,1] sorts before [2,1,2,1], deterministically
        assert sort_edges(path, cfg) == [(0, 1), (1, 2)]


def test_sort_key_is_the_descending_degree_and_label_pairs(rng):
    for _ in range(50):
        g = random_multigraph(rng, max_vertices=5, max_edges=8, max_label=3)
        degrees = g.degrees()
        for a, b in g.edges:
            degs = sorted((degrees[a], degrees[b]), reverse=True)
            labs = sorted((g.labels[a], g.labels[b]), reverse=True)
            for edge in ((a, b), (b, a)):
                assert sort_key(edge, degrees, g.labels, "none") == ()
                assert sort_key(edge, degrees, g.labels, "one-deg") == tuple(degs[:1])
                assert sort_key(edge, degrees, g.labels, "two-degs") == tuple(degs)
                assert sort_key(edge, degrees, g.labels, "degs-and-labels") == tuple(degs + labs)


def test_self_loop_degree_in_sort_key():
    # loop vertex has degree 3; the loop edge key is [3,3], the plain edge [3,1]
    g = LabeledGraph(2, ((0, 0), (0, 1)), (1, 1))
    for s in range(10):
        cfg = SortConfig(edge_mode="two-degs", endpoint_mode="by-level", seed=s)
        assert sort_edges(g, cfg) == [(0, 1), (0, 0)]


def test_by_level_orients_lower_level_first():
    p3 = LabeledGraph(3, ((0, 1), (1, 2)), (1, 2, 3))
    cfg = SortConfig(edge_mode="degs-and-labels", endpoint_mode="by-level", seed=5)
    r = run(p3, cfg)
    # first processed edge builds a level-1 component; the second edge must
    # put the still-level-0 leaf on the v_a side
    first, second = r.edge_order
    leaf = ({0, 1, 2} - set(first)).pop()
    assert second[0] == leaf


def test_sample_orderings_k1_matches_run(rng):
    g = random_multigraph(rng)
    cfg = random_config(rng)
    (only,) = sample_orderings(g, cfg, 1)
    assert serialize_run(only) == serialize_run(run(g, cfg))


def test_sample_orderings_loops_only_graph_is_tie_free():
    g = LabeledGraph(3, ((0, 0), (1, 1), (2, 2)), (1, 2, 3))
    for sv in ("random", "by-level"):
        cfg = SortConfig(edge_mode="degs-and-labels", endpoint_mode=sv, seed=9)
        runs = sample_orderings(g, cfg, 5)
        texts = {serialize_run(r) for r in runs}
        assert len(texts) == 1


def test_sample_orderings_variability():
    triangle = LabeledGraph(3, ((0, 1), (1, 2), (0, 2)), (1, 1, 1))
    runs = sample_orderings(triangle, SortConfig(seed=1), 8)
    assert len({r.edge_order for r in runs}) > 1


def test_run_ordered_validates_cover():
    g = LabeledGraph(3, ((0, 1), (1, 2)), (1, 1, 1))
    with pytest.raises(ValueError):
        run_ordered(g, [(0, 1)])
    with pytest.raises(ValueError):
        run_ordered(g, [(0, 1), (0, 1)])


def test_enumerate_single_vertex_and_guard():
    single = LabeledGraph(1, (), (4,))
    assert len(enumerate_encoding_class(single)) == 1
    seven = LabeledGraph(2, tuple((0, 1) for _ in range(7)), (1, 1))
    with pytest.raises(GuardExceeded):
        enumerate_encoding_class(seven)


def test_enumerate_triangle_invariant_under_relabeling():
    k3 = LabeledGraph(3, ((0, 1), (1, 2), (0, 2)), (1, 1, 1))
    assert enumerate_encoding_class(k3) == enumerate_encoding_class(k3.permuted([2, 0, 1]))
    p4 = LabeledGraph(4, ((0, 1), (1, 2), (2, 3)), (1,) * 4)
    assert enumerate_encoding_class(k3).isdisjoint(enumerate_encoding_class(p4))


def image_by_runs(graph, variant):
    """The per-order rule: the C multiset key of every run of every edge
    order and orientation, each run replayed from scratch."""
    return {c_multiset_key(r) for r in iter_all_runs(graph, variant=variant)}


def test_enumerate_equals_the_per_order_rule_on_the_catalog(catalog_small):
    for g in catalog_small:
        for variant in ("npa", "npba"):
            assert enumerate_encoding_class(g, variant) == image_by_runs(g, variant), (g, variant)


def test_enumerate_equals_the_per_order_rule_on_five_edges():
    rng = random.Random(55)
    loops = parallel = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(5))
        g = LabeledGraph(n, edges, tuple(rng.choices((1, 2, 3), k=n)))
        loops += any(a == b for a, b in g.edges)
        parallel += len(set(g.edges)) < 5
        for variant in ("npa", "npba"):
            assert enumerate_encoding_class(g, variant) == image_by_runs(g, variant), (g, variant)
    assert loops >= 100 and parallel >= 100


# The shapes of the benchmark's exhaustive iso pairs: four distinct non-loop
# edges touching all five vertices, plus a loop at each place up to symmetry.
_PATH = ((0, 1), (1, 2), (2, 3), (3, 4))
_STAR = ((0, 1), (0, 2), (0, 3), (0, 4))
_CHAIR = ((0, 1), (1, 2), (0, 3), (0, 4))
_TRIANGLE_EDGE = ((0, 1), (1, 2), (0, 2), (3, 4))
FIVE_EDGE_SHAPES = [
    LabeledGraph(5, edges + ((loop, loop),), (1, 2, 1, 3, 1))
    for edges, loops in (
        (_PATH, (0, 1, 2)), (_STAR, (0, 1)), (_CHAIR, (0, 1, 2, 3)), (_TRIANGLE_EDGE, (0, 3))
    )
    for loop in loops
]


def test_enumeration_reaches_each_parse_state_once():
    # one run per order makes 5! * 2^4 runs of 5 merges, 9,600 merges
    assert len(FIVE_EDGE_SHAPES) == 11
    for g in FIVE_EDGE_SHAPES:
        with counted_merges() as merges:
            enumerate_encoding_class(g)
        assert merges[0] <= 4000, (g, merges[0])


def test_least_w_search_makes_no_more_merges_than_the_image():
    # counts merges, times nothing
    rng = random.Random(13)
    graphs = FIVE_EDGE_SHAPES + [
        random_multigraph(rng, max_vertices=5, max_edges=5) for _ in range(60)
    ]
    for g in graphs:
        with counted_merges() as search:
            list(iter_least_w(g))
        with counted_merges() as image:
            list(iter_c_multisets(g))
        assert search[0] <= image[0], (g, search[0], image[0])
    # the benchmark's pairs at the guard: a permuted copy, and the next shape
    # (same labels) permuted; collecting one shape's whole image takes up to
    # 3,481 merges, and these 22 iso_test calls make at most 44 each
    for i, g in enumerate(FIVE_EDGE_SHAPES):
        partner = FIVE_EDGE_SHAPES[(i + 1) % len(FIVE_EDGE_SHAPES)]
        for other, status in ((g, "isomorphic"), (partner, "non-isomorphic")):
            h = other.permuted(random_permutation(rng, other.num_vertices))
            with counted_merges() as merges:
                assert iso_test(g, h).status == status, (g, h)
            assert merges[0] <= 44, (g, h, merges[0])


def test_iso_memory_on_a_six_edge_star_copy():
    # counts memory, times nothing; the star's 720 automorphisms keep up to
    # 720 states on the search's frontier
    star = LabeledGraph(7, tuple((0, v) for v in range(1, 7)), (1,) * 7)
    copy = star.permuted([3, 6, 0, 5, 1, 4, 2])
    tracemalloc.start()
    try:
        verdict = iso_test(star, copy, guard_edges=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status == "isomorphic"
    assert peak < 4 << 20, peak


def test_enumeration_memory_on_a_six_edge_star():
    # counts memory and merges, times nothing; one run per order makes
    # 6! * 2^6 runs of 6 merges, 276,480 merges
    star = LabeledGraph(7, tuple((0, v) for v in range(1, 7)), (1,) * 7)
    with counted_merges() as merges:
        tracemalloc.start()
        try:
            image = enumerate_encoding_class(star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(image) == 64
    assert peak < 16 << 20, peak
    assert merges[0] <= 100_000, merges[0]


def test_npba_single_edge_matches_npa_component_count():
    g = LabeledGraph(2, ((0, 1),), (1, 2))
    cfg = SortConfig(seed=0)
    assert len(run_npba(g, cfg).c) == len(run(g, cfg).c)


def test_npba_hard_pair_behavior():
    parallel = LabeledGraph(2, ((0, 1), (0, 1)), (1, 1))
    loops = LabeledGraph(2, ((0, 0), (0, 0)), (1, 1))
    it = TermInterner()
    cfg = SortConfig(seed=3)
    npba_p = run_npba(parallel, cfg, interner=it)
    npba_l = run_npba(loops, cfg, interner=it)
    assert npba_p.merge_multiset() == npba_l.merge_multiset()
    npa_p = run(parallel, cfg, interner=it)
    npa_l = run(loops, cfg, interner=it)
    assert set(npa_p.merge_multiset()).isdisjoint(npa_l.merge_multiset())
    assert npa_p.same_component[0] == 0
    assert npa_l.same_component[0] == 1


def test_matches_reference_numeric(rng):
    for _ in range(40):
        g = random_multigraph(rng, max_vertices=5, max_edges=3, max_label=3)
        order = random_oriented_order(rng, g)
        for variant in ("npa", "npba"):
            r = run_ordered(g, order, variant=variant)
            w_ref, c_ref, h_ref = reference.reference_run(
                g.num_vertices, g.labels, order, variant, ref.combine
            )
            assert [(e.m1, e.m2) for e in r.w] == [(m1, m2) for _, m1, m2 in w_ref]
            assert [eval_term_numeric(e.y) for e in r.w] == [y for y, _, _ in w_ref]
            assert Counter((eval_term_numeric(e.y), e.m1, e.m2) for e in r.c) == Counter(c_ref)
            if variant == "npa":
                state = ParseState(g, TermInterner())
                for va, vb in order:
                    state.merge_edge(va, vb, "npa")
                assert h_values(state) == h_ref


def test_h_after_every_merge_matches_reference(rng):
    # y is not compared here, so the reference skips it and runs reach 8 edges
    def no_y(t1, t2, b):
        return 0

    for _ in range(150):
        g = random_multigraph(rng, max_vertices=6, max_edges=8, max_label=3)
        order = random_oriented_order(rng, g)
        state = ParseState(g, TermInterner())
        assert h_values(state) == list(g.labels)
        for step, (va, vb) in enumerate(order, 1):
            state.merge_edge(va, vb, "npa")
            _, _, h_ref = reference.reference_run(g.num_vertices, g.labels, order[:step], "npa", no_y)
            assert h_values(state) == h_ref, (g, order[:step])


def test_reference_replay_imports_no_package_module():
    # the replay cross-checks the engine, so it may share no code with it
    for node in ast.walk(ast.parse(Path(reference.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "nodeparse", ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "nodeparse" for a in node.names), ast.dump(node)


def test_invariant_checks_pass_on_random_runs(rng):
    for _ in range(25):
        g = random_multigraph(rng, max_vertices=6, max_edges=8)
        for variant in ("npa", "npba"):
            it = TermInterner()
            replay_with_checks(g, run(g, random_config(rng, variant=variant), interner=it), it)


def test_config_validation():
    with pytest.raises(ValueError):
        SortConfig(edge_mode="bogus")
    with pytest.raises(ValueError):
        SortConfig(endpoint_mode="bogus")
    with pytest.raises(ValueError):
        SortConfig(variant="bogus")


def test_c_multiset_key_is_order_free():
    g = LabeledGraph(4, ((0, 1), (2, 3)), (1, 2, 1, 2))
    r1 = run_ordered(g, [(0, 1), (2, 3)])
    r2 = run_ordered(g, [(2, 3), (0, 1)])
    assert c_multiset_key(r1) == c_multiset_key(r2)


def test_serialized_c_lines_equal_c_multiset_key(rng):
    # C is a multiset in root order; its printed lines are the sorted key,
    # and the W lines are serialize_encoding's keys in production order
    seen_components = set()
    for _ in range(60):
        g = random_multigraph(rng, max_vertices=7, max_edges=4)
        for variant in ("npa", "npba"):
            r = run(g, random_config(rng, variant=variant))
            lines = serialize_run(r).splitlines()
            c_lines = tuple(line[2:] for line in lines if line.startswith("C "))
            assert c_lines == c_multiset_key(r)
            assert lines[-len(c_lines):] == [f"C {key}" for key in c_lines]
            w_lines = [line for line in lines if line.startswith("W ")]
            assert w_lines == [f"W {serialize_encoding(e)}" for e in r.w]
            seen_components.add(len(r.c))
    assert max(seen_components) >= 3


def test_dense_graph_runs_build_no_key():
    # runs build terms only, so memory stays small; counts memory, times nothing
    for config in (SortConfig(), SortConfig(endpoint_mode="by-level", variant="npba", seed=5)):
        tracemalloc.start()
        try:
            r = run(DENSE_12, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(r.w) == 49
        assert peak < 1 << 20, (config, peak)
    assert shared_subgraph_bound(DENSE_12, DENSE_12) == 49
    # iso_test's sampled branch compares its own runs by identity: a pair
    # that stays undecided builds no key
    plus_one = LabeledGraph(12, DENSE_12.edges + ((0, 1),), DENSE_12.labels)
    tracemalloc.start()
    try:
        verdict = iso_test(DENSE_12, plus_one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (verdict.status, verdict.samples_tried) == ("unknown", 5)
    assert peak < 1 << 20, peak
    # an isomorphic sampled verdict is decided by identity too, and builds
    # no key
    tracemalloc.start()
    try:
        verdict = iso_test(DENSE_12, DENSE_12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (verdict.status, verdict.samples_tried) == ("isomorphic", 1)
    assert peak < 1 << 20, peak


def test_benchmark_hooks_resolve():
    # bench/spans.py wraps these names by lookup; its tables are read as
    # literals, so this imports nothing from the benchmark
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "METHODS")
    }
    assert tables["FUNCTIONS"] and tables["METHODS"]
    hooks = [
        *tables["FUNCTIONS"].values(),
        *tables["METHODS"].values(),
        ("engine", "iter_all_runs"),
        ("analysis", "iter_all_runs"),
        ("terms", "TermInterner", "leaf"),
    ]
    for mod, *attrs in hooks:
        obj = importlib.import_module(f"nodeparse.{mod}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), (mod, attrs)
    # the benchmark swaps analysis's copy only when it is the engine's own
    assert importlib.import_module("nodeparse.analysis").iter_all_runs is iter_all_runs

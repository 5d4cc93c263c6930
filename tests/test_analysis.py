import math
import random
from collections import Counter, defaultdict
from dataclasses import replace
from itertools import permutations

import pytest

from nodeparse import (
    GuardExceeded,
    LabeledGraph,
    SortConfig,
    are_isomorphic_bruteforce,
    contains_subgraph,
    count_shared_subgraphs,
    dataset_stats,
    detect_subgraph_class,
    gen_random_regular,
    iso_test,
    keyed_edges,
    redundancy_report,
    run,
    run_ordered,
    serialize_encoding,
    shared_subgraph_bound,
    sort_edges,
)
from nodeparse import analysis, engine
from nodeparse.analysis import ISOMORPHIC, NON_ISOMORPHIC, UNKNOWN
from nodeparse.engine import (
    EDGE_MODES,
    ENDPOINT_MODES,
    c_multiset_key,
    iter_all_runs,
    iter_least_w,
    sample_seed,
    sort_key,
)
from nodeparse.synthetic import disjoint_union
from nodeparse.terms import TermInterner

from helpers import (
    multigraph_catalog,
    random_config,
    random_multigraph,
    random_permutation,
    two_pass_redundancy_report,
)

TRIANGLE = LabeledGraph(3, ((0, 1), (1, 2), (0, 2)), (1, 1, 1))
P4 = LabeledGraph(4, ((0, 1), (1, 2), (2, 3)), (1,) * 4)


def test_iso_relabeled_triangle():
    verdict = iso_test(TRIANGLE, TRIANGLE.permuted([1, 2, 0]))
    assert verdict.status == ISOMORPHIC
    assert verdict.exit_code == 0


def test_iso_c4_vs_two_parallel_pairs():
    c4 = LabeledGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)), (1,) * 4)
    two_c2 = LabeledGraph(4, ((0, 1), (0, 1), (2, 3), (2, 3)), (1,) * 4)
    verdict = iso_test(c4, two_c2)
    assert verdict.status == NON_ISOMORPHIC
    assert verdict.exit_code == 1


def test_iso_sampling_is_one_sided():
    pairs = gen_random_regular(count=2, n=8, degree=4, seed=5)
    g, h = pairs[0][0], pairs[1][0]
    verdict = iso_test(g, h, k=1)
    assert verdict.status == UNKNOWN
    assert verdict.samples_tried == 1
    assert verdict.exit_code == 2


def test_iso_sampling_finds_identical_graph():
    pairs = gen_random_regular(count=1, n=8, degree=4, seed=6)
    g = pairs[0][0]
    verdict = iso_test(g, LabeledGraph(g.num_vertices, g.edges, g.labels), k=3)
    assert verdict.status == ISOMORPHIC
    assert verdict.witness is not None


def test_iso_never_contradicts_oracle_on_small_pairs(rng):
    for _ in range(40):
        g = random_multigraph(rng, max_vertices=4, max_edges=4, max_label=2)
        h = random_multigraph(rng, max_vertices=4, max_edges=4, max_label=2)
        verdict = iso_test(g, h)
        assert verdict.status in (ISOMORPHIC, NON_ISOMORPHIC)
        assert (verdict.status == ISOMORPHIC) == are_isomorphic_bruteforce(g, h)


def _sampled_iso_by_keys(g, h, k, config):
    # the sampled rule stated on canonical keys: one set of c_multiset_key
    # per side over the sample_seed schedule, the least common key as witness
    interner = TermInterner()
    keys_g, keys_h = set(), set()
    for i in range(k):
        cfg = replace(config, seed=sample_seed(config.seed, i), variant="npa")
        keys_g.add(c_multiset_key(run(g, cfg, interner=interner)))
        keys_h.add(c_multiset_key(run(h, cfg, interner=interner)))
        common = keys_g & keys_h
        if common:
            return ISOMORPHIC, min(common), i + 1
    return UNKNOWN, None, k


def _iso_pairs(rng, count):
    """``count`` pairs (g, h), each with a guard of 0 to 2 edges drawn
    first: permuted copies, one edge redrawn, unrelated graphs, and the same
    components at other multiplicities, in turn."""
    for i in range(count):
        guard = rng.randint(0, 2)
        g = random_multigraph(rng, max_vertices=5, max_edges=6)
        if i % 4 == 0:
            h = g.permuted(random_permutation(rng, g.num_vertices))
        elif i % 4 == 1:  # same vertices and labels, one edge redrawn
            n = g.num_vertices
            h = LabeledGraph(n, g.edges[1:] + ((rng.randrange(n), rng.randrange(n)),), g.labels)
        elif i % 4 == 2:
            h = random_multigraph(rng, max_vertices=5, max_edges=6)
        else:  # the same components, at other multiplicities
            a, b = (random_multigraph(rng, max_vertices=2, max_edges=2) for _ in range(2))
            g = disjoint_union(disjoint_union(a, a), b)
            h = disjoint_union(a, disjoint_union(b, b))
        yield guard, g, h


def test_sampled_iso_by_identity_equals_the_key_rule(rng):
    statuses = Counter()
    for guard, g, h in _iso_pairs(rng, 320):
        if max(g.num_edges, h.num_edges) <= guard:
            continue  # the exhaustive branch
        k = rng.randint(1, 6)
        config = random_config(rng)
        verdict = iso_test(g, h, k=k, config=config, guard_edges=guard)
        want = _sampled_iso_by_keys(g, h, k, config)
        assert (verdict.status, verdict.witness, verdict.samples_tried) == want, (g, h)
        statuses[verdict.status] += 1
    assert statuses[ISOMORPHIC] >= 60 and statuses[UNKNOWN] >= 60


def _graph_with_edges(rng, m):
    n = rng.randint(2, 5)
    edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
    return LabeledGraph(n, edges, tuple(rng.choices((1, 2), k=n)))


def _exhaustive_iso_by_keys(g, h, guard):
    # the exhaustive rule stated on canonical keys: the C multiset key of
    # every run of every order, per side, the least common key as witness
    keys_g, keys_h = (
        {c_multiset_key(r) for r in iter_all_runs(x, guard_edges=guard)} for x in (g, h)
    )
    common = keys_g & keys_h
    if common:
        return ISOMORPHIC, min(common), 0
    return NON_ISOMORPHIC, None, 0


def test_exhaustive_iso_by_identity_equals_the_key_rule(rng):
    pairs = []
    for _ in range(40):  # permuted copies, one edge redrawn, unrelated graphs
        g, other = (_graph_with_edges(rng, rng.randint(3, 5)) for _ in range(2))
        n = g.num_vertices
        redrawn = LabeledGraph(n, g.edges[1:] + ((rng.randrange(n), rng.randrange(n)),), g.labels)
        copy = g.permuted(random_permutation(rng, n))
        pairs += [(5, g, copy), (5, g, redrawn), (5, g, other)]
    pairs += [
        (guard, g, h)
        for guard, g, h in _iso_pairs(rng, 320)
        if max(g.num_edges, h.num_edges) <= guard
    ]
    statuses = Counter()
    for guard, g, h in pairs:
        verdict = iso_test(g, h, guard_edges=guard)
        want = _exhaustive_iso_by_keys(g, h, guard)
        assert (verdict.status, verdict.witness, verdict.samples_tried) == want, (g, h)
        statuses[verdict.status] += 1
    assert statuses[ISOMORPHIC] >= 60 and statuses[NON_ISOMORPHIC] >= 60


def test_exhaustive_iso_on_the_catalog(catalog_small):
    # the catalog holds one graph per class, so every pair that the vertex
    # prefix (n, m, sorted labels) cannot tell apart is non-isomorphic
    rng = random.Random(1401)
    groups = defaultdict(list)
    for g in catalog_small:
        groups[g.num_vertices, g.num_edges, tuple(sorted(g.labels))].append(g)
    pairs = 0
    for group in groups.values():
        for i, g in enumerate(group):
            for h in group[i + 1:]:
                assert iso_test(g, h).status == NON_ISOMORPHIC, (g, h)
                pairs += 1
    assert pairs == 64_970
    for g in catalog_small:
        twin = g.permuted(random_permutation(rng, g.num_vertices))
        assert iso_test(g, twin).status == ISOMORPHIC, (g, twin)
    assert len(catalog_small) == 1_382


def _edge_keys(graph):
    """The sorted ``degs-and-labels`` keys of the graph's edges."""
    degrees = graph.degrees()
    return sorted(sort_key(e, degrees, graph.labels, "degs-and-labels") for e in graph.edges)


def _same_steps(g, h):
    interner = TermInterner()
    return all(a == b for a, b in zip(iter_least_w(g, interner), iter_least_w(h, interner)))


def test_sort_order_search_on_the_catalog(catalog_small):
    # iso_test settles all but 278 of the catalog's same-prefix pairs by
    # their edge keys; the search alone must still tell every pair apart
    rng = random.Random(1902)
    groups = defaultdict(list)
    for g in catalog_small:
        groups[g.num_vertices, g.num_edges, tuple(sorted(g.labels))].append(g)
    pairs = same_keys = 0
    for group in groups.values():
        for i, g in enumerate(group):
            for h in group[i + 1:]:
                assert not _same_steps(g, h), (g, h)
                pairs += 1
                same_keys += _edge_keys(g) == _edge_keys(h)
    assert (pairs, same_keys) == (64_970, 278)
    for g in catalog_small:
        twin = g.permuted(random_permutation(rng, g.num_vertices))
        assert _same_steps(g, twin), (g, twin)
    assert len(catalog_small) == 1_382


def _swapped(rng, g):
    """g with the far endpoints of two edges exchanged, which keeps every
    vertex's degree."""
    edges = list(g.edges)
    i, j = rng.sample(range(len(edges)), 2)
    (a, b), (c, d) = edges[i], edges[j]
    if rng.getrandbits(1):
        c, d = d, c
    edges[i], edges[j] = (a, d), (c, b)
    return LabeledGraph(g.num_vertices, tuple(edges), g.labels)


def test_sort_order_search_against_permutations_and_the_oracle(rng):
    # loops and parallel edges included, at guard 6; the pairs that reach
    # the search share n, labels, degrees and edge keys
    statuses = Counter()
    for _ in range(2000):
        g = random_multigraph(rng, max_vertices=6, max_edges=6, max_label=2)
        perm = random_permutation(rng, g.num_vertices)
        assert _same_steps(g, g.permuted(perm)), (g, perm)
        if g.num_edges < 2:
            continue
        h = g
        for _ in range(rng.randint(1, 2)):
            h = _swapped(rng, h)
        h = h.permuted(perm)
        if _edge_keys(h) != _edge_keys(g):
            continue
        verdict = iso_test(g, h, guard_edges=6)
        assert (verdict.status == ISOMORPHIC) == are_isomorphic_bruteforce(g, h), (g, h)
        statuses[verdict.status] += 1
    assert statuses[ISOMORPHIC] >= 400 and statuses[NON_ISOMORPHIC] >= 60, statuses


def test_shared_bound_self_pair_is_full():
    for g in (TRIANGLE, P4):
        assert shared_subgraph_bound(g, g) == g.num_vertices + g.num_edges


def test_shared_bound_disjoint_label_alphabets():
    g = LabeledGraph(2, ((0, 1),), (1, 1))
    h = LabeledGraph(2, ((0, 1),), (2, 2))
    assert shared_subgraph_bound(g, h, k=3) == 0


def test_shared_bound_p3_vs_triangle():
    p3 = LabeledGraph(3, ((0, 1), (1, 2)), (1, 1, 1))
    bound = shared_subgraph_bound(p3, TRIANGLE, k=4)
    brute = count_shared_subgraphs(p3, TRIANGLE)
    assert 4 <= bound <= brute  # three leaves and a single-edge match at least


def test_shared_bound_never_exceeds_bruteforce(rng):
    for _ in range(25):
        g = random_multigraph(rng, max_vertices=4, max_edges=3, max_label=2)
        h = random_multigraph(rng, max_vertices=4, max_edges=3, max_label=2)
        assert shared_subgraph_bound(g, h, k=3) <= count_shared_subgraphs(g, h)


def test_detect_examples():
    vertex = LabeledGraph(1, (), (1,))
    assert detect_subgraph_class(vertex, TRIANGLE)
    assert not detect_subgraph_class(LabeledGraph(1, (), (9,)), TRIANGLE)
    paw = LabeledGraph(4, ((0, 1), (1, 2), (0, 2), (2, 3)), (1,) * 4)
    assert detect_subgraph_class(TRIANGLE, paw)
    assert not detect_subgraph_class(TRIANGLE, P4)


def test_detect_guard():
    big = LabeledGraph(3, tuple((0, 1) for _ in range(6)), (1, 1, 1))
    with pytest.raises(GuardExceeded):
        detect_subgraph_class(TRIANGLE, big)


def test_detect_agrees_with_bruteforce_exhaustively():
    catalog = multigraph_catalog(max_vertices=3, max_edges=2, labels=(1, 2))
    for s in catalog:
        for g in catalog:
            assert detect_subgraph_class(s, g) == contains_subgraph(g, s), (
                f"disagreement for s={s} g={g}"
            )


def test_detect_agrees_with_bruteforce_sampled(rng):
    for _ in range(30):
        s = random_multigraph(rng, max_vertices=4, max_edges=3, max_label=2)
        g = random_multigraph(rng, max_vertices=5, max_edges=4, max_label=2)
        assert detect_subgraph_class(s, g) == contains_subgraph(g, s)


def test_redundancy_no_ties():
    # distinct degree/label keys everywhere: zero edge-order redundancy
    path = LabeledGraph(3, ((0, 1), (1, 2)), (1, 1, 2))
    rep = redundancy_report(path, SortConfig(edge_mode="degs-and-labels", seed=0))
    assert rep.log10_edge_orders == 0.0
    assert rep.log10_orientation_factor == pytest.approx(2 * math.log10(2))


def test_redundancy_triangle_single_group():
    for mode in ("none", "one-deg", "two-degs", "degs-and-labels"):
        rep = redundancy_report(TRIANGLE, SortConfig(edge_mode=mode, seed=1))
        assert rep.log10_edge_orders == pytest.approx(math.log10(6))
        assert rep.levels in (2, 3)


def test_redundancy_k2_singleton():
    k2 = LabeledGraph(2, ((0, 1),), (1, 1))
    rep = redundancy_report(k2, SortConfig(seed=0))
    assert rep.log10_edge_orders == 0.0
    assert rep.log10_orientation_factor == pytest.approx(math.log10(2))
    assert rep.levels == 1
    assert set(rep.to_dict()) == {
        "log10_edge_orders", "log10_orientation_factor", "levels",
    }
    assert "levels 1" in rep.to_text()


def test_redundancy_disconnected_tie_groups_multiply_separately():
    # two disjoint K2s with equal keys: one tie block, two groups of one
    g = LabeledGraph(4, ((0, 1), (2, 3)), (1,) * 4)
    rep = redundancy_report(g, SortConfig(edge_mode="none", seed=0))
    assert rep.log10_edge_orders == 0.0
    assert rep.log10_orientation_factor == pytest.approx(2 * math.log10(2))


def test_redundancy_bounds_distinct_outputs(rng):
    # distinct W outputs over all key-ascending orders never exceed the bound
    catalog = multigraph_catalog(max_vertices=4, max_edges=3, labels=(1, 2))
    sample = rng.sample(catalog, 40)
    for g in sample:
        for mode in ("none", "two-degs"):
            cfg = SortConfig(edge_mode=mode, seed=0)
            rep = redundancy_report(g, cfg)
            degrees = g.degrees()
            keys = {e: sort_key(e, degrees, g.labels, mode) for e in set(g.edges)}
            outputs = set()
            for perm in set(permutations(g.edges)):
                if any(keys[perm[i]] > keys[perm[i + 1]] for i in range(len(perm) - 1)):
                    continue
                r = run_ordered(g, list(perm))
                outputs.add(tuple(sorted(serialize_encoding(e) for e in r.w)))
            assert len(outputs) <= 10 ** rep.log10_edge_orders * (1 + 1e-9)


def _naive_log10_edge_orders(g, cfg):
    """Tie groups by transitive closure over the components of the edges
    before each equal-key block, with components kept as explicit sets."""
    degrees = g.degrees()
    ordered = sort_edges(g, cfg)
    keys = [sort_key(tuple(sorted(e)), degrees, g.labels, cfg.edge_mode) for e in ordered]
    comp = {v: frozenset([v]) for v in range(g.num_vertices)}
    total = 0.0
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and keys[j] == keys[i]:
            j += 1
        groups = []  # (block-start components touched, edge count)
        for a, b in ordered[i:j]:
            touched, count = {comp[a], comp[b]}, 1
            for group in [gr for gr in groups if gr[0] & touched]:
                groups.remove(group)
                touched |= group[0]
                count += group[1]
            groups.append((touched, count))
        total += sum(math.log10(math.factorial(count)) for _, count in groups)
        for a, b in ordered[i:j]:
            joined = comp[a] | comp[b]
            for v in joined:
                comp[v] = joined
        i = j
    return total


def test_redundancy_report_matches_runs_and_naive_tie_groups(rng):
    for _ in range(60):
        g = random_multigraph(rng, max_vertices=7, max_edges=9)
        seed = rng.getrandbits(32)
        for mode in EDGE_MODES:
            for sv in ENDPOINT_MODES:
                cfg = SortConfig(edge_mode=mode, endpoint_mode=sv, seed=seed)
                rep = redundancy_report(g, cfg)
                assert rep.levels == run(g, cfg).levels
                assert rep.log10_edge_orders == pytest.approx(
                    _naive_log10_edge_orders(g, cfg), abs=1e-9
                )


def _sort_cases(rng, catalog_3edges):
    """Random multigraphs (loops and parallel edges included) and the 3-edge
    catalog, each with several seeds."""
    graphs = [random_multigraph(rng, max_vertices=5, max_edges=8) for _ in range(40)]
    graphs += [random_multigraph(rng, max_vertices=9, max_edges=18) for _ in range(20)]
    graphs += catalog_3edges
    return [(g, (0, 1, rng.getrandbits(63))) for g in graphs]


def test_keyed_edges_are_the_unoriented_sort(rng, catalog_3edges):
    for g, seeds in _sort_cases(rng, catalog_3edges):
        degrees = g.degrees()
        for mode in EDGE_MODES:
            for seed in seeds:
                cfg = SortConfig(edge_mode=mode, seed=seed)
                keyed = keyed_edges(g, cfg)
                # by-level sorts with the same draws and orients nothing
                assert [e for _, e in keyed] == sort_edges(
                    g, replace(cfg, endpoint_mode="by-level")
                )
                assert [k for k, _ in keyed] == [
                    sort_key(e, degrees, g.labels, mode) for _, e in keyed
                ]
                assert keyed_edges(g, replace(cfg, endpoint_mode="by-level")) == keyed


def test_redundancy_report_equals_the_two_pass_reference(rng, catalog_3edges):
    for g, seeds in _sort_cases(rng, catalog_3edges):
        for mode in EDGE_MODES:
            for sv in ENDPOINT_MODES:
                for seed in seeds:
                    cfg = SortConfig(edge_mode=mode, endpoint_mode=sv, seed=seed)
                    got = redundancy_report(g, cfg)
                    want = two_pass_redundancy_report(g, cfg)
                    assert got.log10_edge_orders == want.log10_edge_orders
                    assert got.log10_orientation_factor == want.log10_orientation_factor
                    assert got.levels == want.levels


def test_redundancy_report_computes_each_sort_key_once(rng, monkeypatch):
    calls = [0]
    real = engine.sort_key

    def counted(*args):
        calls[0] += 1
        return real(*args)

    # every binding of the function, so a second keying pass would count too
    for module in (engine, analysis):
        if hasattr(module, "sort_key"):
            monkeypatch.setattr(module, "sort_key", counted)
    for _ in range(30):
        g = random_multigraph(rng, max_vertices=7, max_edges=12)
        for mode in EDGE_MODES:
            for sv in ENDPOINT_MODES:
                calls[0] = 0
                redundancy_report(g, SortConfig(edge_mode=mode, endpoint_mode=sv, seed=7))
                assert calls[0] == g.num_edges


def test_dataset_stats_singleton_k2():
    k2 = LabeledGraph(2, ((0, 1),), (1, 1))
    stats = dataset_stats([k2], SortConfig(seed=0))
    assert stats["count"] == 1
    assert stats["median_log10_edge_orders"] == 0.0
    assert stats["mean_levels"] == 1.0


def test_dataset_stats_empty_refusal():
    with pytest.raises(ValueError):
        dataset_stats([], SortConfig())


@pytest.mark.parametrize("k", [0, -3])
def test_iso_rejects_nonpositive_k(k):
    p8 = LabeledGraph(8, tuple((i, i + 1) for i in range(7)), (1,) * 8)
    with pytest.raises(ValueError, match="k must be >= 1"):
        iso_test(p8, p8, k=k)
    with pytest.raises(ValueError, match="k must be >= 1"):
        iso_test(TRIANGLE, TRIANGLE, k=k)

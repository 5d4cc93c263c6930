"""Consumers of encoding runs: isomorphism verdicts, shared-subgraph bounds,
subgraph-class detection, and class-redundancy statistics."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from .engine import (
    SortConfig,
    derive_seed,
    iter_all_runs,
    iter_least_w,
    keyed_edges,
    run,
    sample_seed,
    search_order,
)
from .graphs import Components, LabeledGraph
from .oracle import GuardExceeded
from .terms import TermInterner

EXHAUSTIVE_EDGE_GUARD = 5

ISOMORPHIC = "isomorphic"
NON_ISOMORPHIC = "non-isomorphic"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class IsoVerdict:
    """Outcome of an isomorphism test.

    ``isomorphic`` is only issued on exact equality of interned terms
    (hence certified); ``non-isomorphic`` only within the guard, from the
    least-W search over sort-order runs, or from differing n, label
    multisets or edge-key multisets, which no isomorphism changes.
    Sampling never produces a false negative, only ``unknown``. Both
    branches put both graphs through one interner and compare terms by
    identity, so neither builds text. The encodings are
    isomorphism-injective, so an ``isomorphic`` status certifies itself:
    equal C multisets through one interner are its proof.
    """

    status: str
    samples_tried: int = 0

    @property
    def exit_code(self) -> int:
        return {ISOMORPHIC: 0, NON_ISOMORPHIC: 1, UNKNOWN: 2}[self.status]


def iso_test(
    g: LabeledGraph,
    h: LabeledGraph,
    k: int = 5,
    config: Optional[SortConfig] = None,
    guard_edges: int = EXHAUSTIVE_EDGE_GUARD,
) -> IsoVerdict:
    """Decide isomorphism exactly when both graphs fit the guard, otherwise
    compare K sampled runs from each side.

    Within the guard, n, the sorted labels (W's vertex prefix) and the
    sorted ``degs-and-labels`` edge keys (:func:`~nodeparse.engine.sort_key`,
    which fix m) are compared first: an isomorphism keeps all three, so a
    difference gives ``non-isomorphic`` with no search. Then both graphs'
    least W sequences over their sort-order runs
    (:func:`~nodeparse.engine.iter_least_w`) are walked in lockstep through
    one interner: the first step whose least entries differ gives
    ``non-isomorphic``, and equal entries at every step give
    ``isomorphic``. That least W sequence is a canonical form under npa
    (the proof is in ``iter_least_w``), so these are the verdicts that
    comparing the graphs' whole images gives.

    Above the guard, each side's K runs are kept as identity multisets of
    their C encodings, and the first sample at which the two sides share
    one gives ``isomorphic``; otherwise the verdict is ``unknown``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if config is None:
        config = SortConfig()
    if g.num_edges <= guard_edges and h.num_edges <= guard_edges:
        if _invariants(g) != _invariants(h):
            return IsoVerdict(NON_ISOMORPHIC)
        # One interner for both searches: W entries compare by identity.
        interner = TermInterner()
        steps = zip(
            iter_least_w(g, interner, guard_edges),
            iter_least_w(h, interner, guard_edges),
        )
        if any(a != b for a, b in steps):
            return IsoVerdict(NON_ISOMORPHIC)
        return IsoVerdict(ISOMORPHIC)

    # One interner for both sides: equal C multisets are equal identity
    # multisets.
    interner = TermInterner()
    seen_g, seen_h = set(), set()
    for i in range(k):
        cfg = replace(config, seed=sample_seed(config.seed, i), variant="npa")
        for graph, seen in ((g, seen_g), (h, seen_h)):
            seen.add(frozenset(run(graph, cfg, interner=interner).c_multiset().items()))
        if not seen_g.isdisjoint(seen_h):
            return IsoVerdict(ISOMORPHIC, samples_tried=i + 1)
    return IsoVerdict(UNKNOWN, samples_tried=k)


def _invariants(graph: LabeledGraph) -> tuple:
    """n, the sorted labels and the sorted edge keys of the sort that
    :func:`~nodeparse.engine.iter_least_w` follows: isomorphic graphs agree
    on all three."""
    keys = [key for key, _ in search_order(graph)]
    return graph.num_vertices, sorted(graph.labels), keys


def shared_subgraph_bound(
    g: LabeledGraph,
    h: LabeledGraph,
    k: int = 1,
    config: Optional[SortConfig] = None,
) -> int:
    """Certified lower bound on the number of shared subgraphs.

    Maximum over K seed-paired runs of the multiset-intersection size of the
    two full encoding multisets; every matched element certifies one
    isomorphic shared subgraph.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if config is None:
        config = SortConfig()
    interner = TermInterner()
    best = 0
    for i in range(k):
        cfg = replace(config, seed=sample_seed(config.seed, i))
        wg = run(g, cfg, interner=interner).w_multiset()
        wh = run(h, cfg, interner=interner).w_multiset()
        best = max(best, sum((wg & wh).values()))
    return best


def _distinct_w_multisets(
    graph: LabeledGraph, interner: TermInterner, guard_edges: int
) -> List[Counter]:
    # Terms of one interner are equal exactly when identical, so the
    # multiset's items key it without building any string.
    seen: Dict[frozenset, Counter] = {}
    for r in iter_all_runs(graph, variant="npa", interner=interner, guard_edges=guard_edges):
        w = r.w_multiset()
        seen.setdefault(frozenset(w.items()), w)
    return list(seen.values())


def detect_subgraph_class(
    s: LabeledGraph, g: LabeledGraph, guard_edges: int = 5
) -> bool:
    """True iff some run of ``g`` contains some run of ``s`` as a sub-multiset
    of encodings, which certifies (and exactly characterizes, over all
    orderings) that ``g`` has a subgraph isomorphic to ``s``."""
    if g.num_edges > guard_edges:
        raise GuardExceeded(
            f"subgraph detection guard {guard_edges} exceeded: {g.num_edges} edges"
        )
    if s.num_edges > g.num_edges or s.num_vertices > g.num_vertices:
        return False
    if Counter(s.labels) - Counter(g.labels):
        return False  # vertex encodings alone cannot be covered
    interner = TermInterner()
    candidates_s = _distinct_w_multisets(s, interner, guard_edges)
    candidates_g = _distinct_w_multisets(g, interner, guard_edges)
    for ws in candidates_s:
        for wg in candidates_g:
            if not ws - wg:
                return True
    return False


@dataclass(frozen=True)
class RedundancyReport:
    """Upper-bound statistics on how many distinct outputs one isomorphism
    class can receive under a sort configuration."""

    log10_edge_orders: float
    log10_orientation_factor: float
    levels: int


def _log10_factorial(t: int) -> float:
    return math.lgamma(t + 1) / math.log(10.0)


def redundancy_report(graph: LabeledGraph, config: SortConfig) -> RedundancyReport:
    """Tie-block analysis of the sorted edge sequence.

    Within each maximal equal-key block, edges are grouped by transitive
    overlap of their endpoint components as of the block start; only the
    order within a group affects the output, so the edge-order count is the
    product of group-size factorials. The orientation factor counts 2 per
    edge whose endpoints lie in different block-start components, in every
    block, one-edge blocks included. Groups are frozen at block start,
    which can overcount slightly when merges inside a block link previously
    disjoint groups; the result is still an upper bound. ``levels`` is the
    level count a run under ``config`` reaches, found from the same pass over
    the components, without building any term. The report makes the sort's
    m draws (:func:`~nodeparse.engine.keyed_edges`) and draws no
    orientation.
    """
    keyed = keyed_edges(graph, config)
    comps = Components(graph.num_vertices)
    find, union = comps.find, comps.union

    log_orders = 0.0
    p = 0
    i = 0
    m = len(keyed)
    while i < m:
        key = keyed[i][0]
        j = i + 1
        while j < m and keyed[j][0] == key:
            j += 1
        roots = [(find(a), find(b)) for _, (a, b) in keyed[i:j]]
        for r1, r2 in roots:
            if r1 != r2:
                p += 1
            union(find(r1), find(r2))
        # The block's edges have now joined the block-start components they
        # touch transitively, so each tie group ends in one component.
        sizes: Dict[int, int] = {}
        for r1, _ in roots:
            root = find(r1)
            sizes[root] = sizes.get(root, 0) + 1
        for t in sizes.values():
            if t > 1:
                log_orders += _log10_factorial(t)
        i = j

    return RedundancyReport(
        log10_edge_orders=log_orders,
        log10_orientation_factor=p * math.log10(2.0),
        levels=max(comps.level.values()),
    )


def dataset_stats(
    graphs: Sequence[LabeledGraph], config: SortConfig
) -> Dict[str, float]:
    """Aggregate redundancy statistics over a graph collection.

    Per-graph runs are seeded deterministically from the config seed and the
    graph's position.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("dataset_stats requires a non-empty collection")
    orders: List[float] = []
    levels: List[int] = []
    for idx, g in enumerate(graphs):
        cfg = replace(config, seed=derive_seed(config.seed, idx))
        rep = redundancy_report(g, cfg)
        orders.append(rep.log10_edge_orders)
        levels.append(rep.levels)
    return {
        "count": len(graphs),
        "median_log10_edge_orders": statistics.median(orders),
        "mean_levels": statistics.fmean(levels),
    }

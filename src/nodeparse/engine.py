"""Edge-parsing engine: sorted edge consumption over a union-find of components,
producing interned encoding multisets.

One run processes every edge once. Each merge combines the encodings of the
two endpoint components (or one component with itself) through the injective
combiner, then shifts every h-value in the first component by the fresh m1.
The h-values are the potentials of :class:`~nodeparse.graphs.Components`, so
that shift is one addition at the component's root, not one per member.
Components stay pairwise disjoint and connected throughout, and within a
component all h-values stay pairwise distinct; the tests replay runs merge by
merge and check both.

The multivalued image of a graph (its C multisets over every edge order and
orientation) comes from a depth-first search over parse states that visits
each distinct state once (:func:`iter_c_multisets`), not from one run per
order. A breadth-first search over the same states that follows only the
sort-order runs and keeps only their least W prefixes
(:func:`iter_least_w`) finds a canonical form instead.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, replace
from itertools import permutations, product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .graphs import Components, LabeledGraph
from .oracle import GuardExceeded
from .terms import (
    CEncoding,
    Child,
    EncodingTerm,
    TermInterner,
    encoding_compare,
    encoding_key,
    term_key,
)

EDGE_MODES = ("none", "one-deg", "two-degs", "degs-and-labels")
ENDPOINT_MODES = ("random", "by-level")
VARIANTS = ("npa", "npba")

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SortConfig:
    """Everything that determines a run on a given graph.

    The seed fully determines all random tie-breaking: edge order within tie
    blocks and endpoint orientation.
    """

    edge_mode: str = "degs-and-labels"
    endpoint_mode: str = "random"
    variant: str = "npa"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.edge_mode not in EDGE_MODES:
            raise ValueError(f"edge_mode must be one of {EDGE_MODES}")
        if self.endpoint_mode not in ENDPOINT_MODES:
            raise ValueError(f"endpoint_mode must be one of {ENDPOINT_MODES}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


@dataclass(frozen=True)
class EncodingRun:
    """Result of one engine execution.

    ``w`` holds all n+m encodings in production order (vertex encodings
    first); ``c`` holds the final-component encodings, one per connected
    component, as a multiset: its order (by component root) carries no
    meaning. A run builds terms only: callers that print encodings or compare
    them across interners build the canonical key on demand
    (:func:`c_multiset_key`, :func:`serialize_run`). ``edge_order`` is the
    realized oriented trace, sufficient to replay the run exactly via
    :func:`run_ordered`; ``same_component`` holds the bit b of each of its
    edges (1 when both endpoints were already in one component).
    """

    w: Tuple[CEncoding, ...]
    c: Tuple[CEncoding, ...]
    levels: int
    edge_order: Tuple[Tuple[int, int], ...]
    same_component: Tuple[int, ...]
    variant: str

    def w_multiset(self) -> Counter:
        return Counter(self.w)

    def c_multiset(self) -> Counter:
        return Counter(self.c)

    def merge_multiset(self) -> Counter:
        """Edge-merge encodings only (vertex encodings excluded)."""
        return Counter(self.w[len(self.w) - len(self.edge_order):])


def _c_key(c: Iterable[CEncoding], memo: Dict[EncodingTerm, str]) -> Tuple[str, ...]:
    return tuple(sorted(encoding_key(e, memo) for e in c))


def c_multiset_key(run: EncodingRun) -> Tuple[str, ...]:
    """Canonical, cross-process key of the final-component multiset."""
    return _c_key(run.c, {})


def serialize_run(run: EncodingRun) -> str:
    """Line-oriented text form: levels, edge trace, W, then C sorted."""
    memo: Dict[EncodingTerm, str] = {}
    parts = [f"levels {run.levels}\n"]
    for step, ((va, vb), b) in enumerate(zip(run.edge_order, run.same_component), 1):
        parts.append(f"edge {step} {va}-{vb} b={b}\n")
    for enc in run.w:
        # serialize_encoding's form; only the final join copies the term text
        parts += ("W (", term_key(enc.y, memo), f",{enc.m1},{enc.m2})\n")
    for key in _c_key(run.c, memo):
        parts += ("C ", key, "\n")
    return "".join(parts)


class ParseState:
    """Components of the processed edges plus, per component root, its
    encoding and its largest h-value. A vertex's h-value is its potential in
    ``comps`` (``comps.value(v)``), so shifting a component costs one addition
    at its root. Entries of roots that a join absorbed stay behind in ``enc``
    and ``max_h`` and are never read again."""

    def __init__(self, graph: LabeledGraph, interner: TermInterner):
        self.graph = graph
        self.interner = interner
        self.comps = Components(graph.num_vertices)
        for v, label in enumerate(graph.labels):
            self.comps.shift(v, label)
        self.max_h: List[int] = list(graph.labels)
        self.enc: List[CEncoding] = [
            CEncoding(interner.leaf(label), 0, label + 1) for label in graph.labels
        ]

    def merge_edge(self, va: int, vb: int, variant: str) -> Tuple[int, CEncoding]:
        """Process one edge; returns its same-component bit and the merged
        encoding."""
        comps = self.comps
        r1, r2 = comps.find(va), comps.find(vb)
        b = 1 if r1 == r2 else 0
        result, shift = _merge_step(
            self.interner, self.enc[r1], self.enc[r2],
            comps.value(va), comps.value(vb), b, variant,
        )
        # h shifts on the first component only; when b=1 that is the whole
        # merged component.
        comps.shift(r1, shift)
        top = max(self.max_h[r1] + shift, self.max_h[r2])
        root = comps.union(r1, r2)
        self.enc[root] = result
        self.max_h[root] = top
        if variant == "npa":
            assert result.m2 > top  # m2 dominates every h-value
        return b, result


def _merge_step(
    interner: TermInterner,
    e1: CEncoding,
    e2: CEncoding,
    ha: int,
    hb: int,
    b: int,
    variant: str,
) -> Tuple[CEncoding, int]:
    """One merge: the encoding made from the endpoint components' encodings
    e1, e2 and the endpoints' h-values ha, hb before the merge, and the shift
    that every h-value of the first component then takes."""
    m1_new = e1.m2 + e2.m2 + 1
    m2_new = 2 * e1.m2 + 2 * e2.m2 + 2
    if variant == "npa":
        # Each child tuple records its endpoint's post-merge h-value.
        # The shifted side lands strictly above m1_new and the unshifted
        # side strictly below it, so the unordered pair still identifies
        # which component absorbed the shift; recording pre-shift values
        # instead loses that bit and collapses non-isomorphic graphs
        # (e.g. a loop on a path's end vs on its middle vertex).
        c1 = Child(e1.y, ha + m1_new, e1.m1, e1.m2)
        c2 = Child(e2.y, hb + (m1_new if b else 0), e2.m1, e2.m2)
        return CEncoding(interner.merge(c1, c2, b), m1_new, m2_new), m1_new
    c1 = Child(e1.y, 0, e1.m1, e1.m2)
    c2 = Child(e2.y, 0, e2.m1, e2.m2)
    return CEncoding(interner.merge(c1, c2, 0), m1_new, m2_new), 0


def _rng_for(graph: LabeledGraph, seed: int) -> random.Random:
    payload = repr((seed & _SEED_MASK, graph.num_vertices, graph.labels, graph.edges))
    digest = hashlib.sha256(payload.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def derive_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(
        (seed & _SEED_MASK).to_bytes(8, "big") + index.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def sample_seed(seed: int, index: int) -> int:
    """Seed of sampled run ``index``: the seed itself for run 0, then seeds
    derived deterministically from it."""
    return seed if index == 0 else derive_seed(seed, index)


def sort_key(
    edge: Tuple[int, int], degrees: Sequence[int], labels: Sequence[int], mode: str
) -> Tuple[int, ...]:
    if mode == "none":
        return ()
    a, b = edge
    deg1, deg2 = degrees[a], degrees[b]
    if deg1 < deg2:
        deg1, deg2 = deg2, deg1
    if mode == "one-deg":
        return (deg1,)
    if mode == "two-degs":
        return (deg1, deg2)
    lab1, lab2 = labels[a], labels[b]
    if lab1 < lab2:
        lab1, lab2 = lab2, lab1
    return (deg1, deg2, lab1, lab2)


def _keyed_order(
    graph: LabeledGraph, config: SortConfig, rng: random.Random
) -> List[Tuple[Tuple[int, ...], float, int]]:
    """(key, draw, edge index) triples in ascending order: one draw per edge,
    so ties are permuted uniformly."""
    degrees = graph.degrees()
    labels = graph.labels
    mode = config.edge_mode
    return sorted(
        (sort_key(e, degrees, labels, mode), rng.random(), i)
        for i, e in enumerate(graph.edges)
    )


def _ordered_edges(
    graph: LabeledGraph, config: SortConfig, rng: random.Random
) -> List[Tuple[int, int]]:
    """Edges in ascending key order, ties permuted uniformly; orientation is
    drawn here for the random endpoint mode and left normalized otherwise."""
    edges = graph.edges
    ordered = [edges[i] for _, _, i in _keyed_order(graph, config, rng)]
    if config.endpoint_mode == "random":
        oriented = []
        for a, b in ordered:
            if a != b and rng.getrandbits(1):
                a, b = b, a
            oriented.append((a, b))
        return oriented
    return ordered


def keyed_edges(
    graph: LabeledGraph, config: SortConfig
) -> List[Tuple[Tuple[int, ...], Tuple[int, int]]]:
    """(sort key, edge) pairs in the order :func:`sort_edges` gives the
    edges, made from the same draws, with each edge left normalized: no
    orientation is drawn. Equal-key runs of the result are the tie blocks."""
    edges = graph.edges
    return [
        (key, edges[i])
        for key, _, i in _keyed_order(graph, config, _rng_for(graph, config.seed))
    ]


def sort_edges(graph: LabeledGraph, config: SortConfig) -> List[Tuple[int, int]]:
    """The ordered, oriented edge sequence a run with this config would use.

    For the by-level endpoint mode the orientation depends on component
    levels at processing time, so the pairs returned here keep the normalized
    orientation and the run resolves them on the fly.
    """
    return _ordered_edges(graph, config, _rng_for(graph, config.seed))


def _execute(
    graph: LabeledGraph,
    oriented_edges: Sequence[Tuple[int, int]],
    variant: str,
    interner: TermInterner,
    by_level_rng: Optional[random.Random] = None,
) -> EncodingRun:
    state = ParseState(graph, interner)
    comps = state.comps
    w: List[CEncoding] = list(state.enc)
    trace: List[Tuple[int, int]] = []
    bits: List[int] = []
    for va, vb in oriented_edges:
        if by_level_rng is not None:
            l1 = comps.level[comps.find(va)]
            l2 = comps.level[comps.find(vb)]
            if l1 > l2 or (l1 == l2 and va != vb and by_level_rng.getrandbits(1)):
                va, vb = vb, va
        b, result = state.merge_edge(va, vb, variant)
        w.append(result)
        trace.append((va, vb))
        bits.append(b)
    roots = sorted(comps.level)
    return EncodingRun(
        w=tuple(w),
        c=tuple(state.enc[r] for r in roots),
        levels=max(comps.level[r] for r in roots),
        edge_order=tuple(trace),
        same_component=tuple(bits),
        variant=variant,
    )


def run(
    graph: LabeledGraph,
    config: SortConfig,
    interner: Optional[TermInterner] = None,
) -> EncodingRun:
    """One full parsing run under a sort configuration."""
    if interner is None:
        interner = TermInterner()
    rng = _rng_for(graph, config.seed)
    oriented = _ordered_edges(graph, config, rng)
    by_level_rng = rng if config.endpoint_mode == "by-level" else None
    return _execute(graph, oriented, config.variant, interner, by_level_rng=by_level_rng)


def run_npba(
    graph: LabeledGraph,
    config: SortConfig,
    interner: Optional[TermInterner] = None,
) -> EncodingRun:
    """Baseline-variant run: merges ignore h-values and the same-component
    indicator, and no h updates happen. Same parsing loop otherwise."""
    return run(graph, replace(config, variant="npba"), interner=interner)


def run_ordered(
    graph: LabeledGraph,
    oriented_edges: Sequence[Tuple[int, int]],
    variant: str = "npa",
    interner: Optional[TermInterner] = None,
) -> EncodingRun:
    """Run with an explicit edge order and orientation (no randomness).

    The sequence must cover the graph's edge multiset exactly; every pair is
    taken as (v_a, v_b) literally.
    """
    norm = Counter((a, b) if a <= b else (b, a) for a, b in oriented_edges)
    if norm != Counter(graph.edges):
        raise ValueError("oriented_edges must cover the graph's edge multiset exactly")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if interner is None:
        interner = TermInterner()
    return _execute(graph, list(oriented_edges), variant, interner)


def sample_orderings(
    graph: LabeledGraph,
    config: SortConfig,
    k: int,
    interner: Optional[TermInterner] = None,
) -> List[EncodingRun]:
    """K independent runs, seeded by :func:`sample_seed`."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if interner is None:
        interner = TermInterner()
    return [
        run(graph, replace(config, seed=sample_seed(config.seed, i)), interner=interner)
        for i in range(k)
    ]


def iter_all_runs(
    graph: LabeledGraph,
    variant: str = "npa",
    interner: Optional[TermInterner] = None,
    guard_edges: int = 6,
) -> Iterable[EncodingRun]:
    """Every run over every edge permutation and endpoint orientation, each
    replayed from scratch.

    This is the superset of what any sort function can realize, which is what
    makes the resulting multivalued image complete. Cost is m! * 2^m runs;
    guarded accordingly. Callers that need only the C multisets use
    :func:`iter_c_multisets`, which reaches each distinct parse state once.
    """
    _check_guard(graph, guard_edges)
    if interner is None:
        interner = TermInterner()
    for perm in sorted(set(permutations(graph.edges))):
        choices = (((a, b),) if a == b else ((a, b), (b, a)) for a, b in perm)
        for oriented in product(*choices):
            yield _execute(graph, list(oriented), variant, interner)


def _check_guard(graph: LabeledGraph, guard_edges: int) -> None:
    if graph.num_edges > guard_edges:
        raise GuardExceeded(
            f"exhaustive enumeration guard {guard_edges} exceeded: {graph.num_edges} edges"
        )


# A parse state, as :func:`iter_c_multisets` describes it.
_State = Tuple[tuple, Tuple[int, ...], Tuple[int, ...], Tuple[Optional[CEncoding], ...]]


def _start_state(graph: LabeledGraph, interner: TermInterner) -> _State:
    leaves = tuple(CEncoding(interner.leaf(label), 0, label + 1) for label in graph.labels)
    return graph.edges, tuple(range(graph.num_vertices)), graph.labels, leaves


def _expand(
    state: _State, interner: TermInterner, variant: str, width: Optional[int] = None
) -> Iterable[Tuple[CEncoding, tuple]]:
    """Every merge one step can make from ``state`` by one of its first
    ``width`` remaining edges (all of them when None), as (merged encoding,
    move); :func:`_successor` turns a move into the next state, so a caller
    that drops the encoding builds no state. Each edge is tried once per
    parallel class, both orientations across two components and one inside
    a component: a parallel copy, and the second orientation inside one
    component, give the same successor."""
    edges, comp, h, enc = state
    for i, (a, b) in enumerate(edges[:width]):
        if i and edges[i - 1] == (a, b):
            continue
        rest = edges[:i] + edges[i + 1:]
        # Within one component both orientations give the same unordered
        # pair of children and shift the same vertices.
        for va, vb in ((a, b),) if comp[a] == comp[b] else ((a, b), (b, a)):
            l1, l2 = comp[va], comp[vb]
            result, shift = _merge_step(
                interner, enc[l1], enc[l2], h[va], h[vb], int(l1 == l2), variant
            )
            yield result, (rest, l1, l2, shift)


def _successor(state: _State, result: CEncoding, move) -> _State:
    _, comp, h, enc = state
    rest, l1, l2, shift = move
    if shift:
        h = tuple(x + shift if l == l1 else x for l, x in zip(comp, h))
    keep, gone = (l1, l2) if l1 < l2 else (l2, l1)
    enc_next = list(enc)
    enc_next[gone] = None
    enc_next[keep] = result
    return rest, tuple(keep if l == gone else l for l in comp), h, tuple(enc_next)


def iter_c_multisets(
    graph: LabeledGraph, variant: str = "npa", guard_edges: int = 6
) -> Iterable[frozenset]:
    """Each distinct C multiset over every edge order and orientation, once,
    as the items of a Counter of interned encodings: the same set as the
    runs of :func:`iter_all_runs` give, found by a depth-first search over
    parse states instead of one run per order.

    A state is (remaining edges, the least vertex of each vertex's
    component, the h-values, the encoding of each such least vertex with
    the entries of absorbed components cleared). Equal states have equal
    futures, so the search expands each one once: merges on disjoint
    components commute, and their orders meet again in one state
    (partial-order reduction; Godefroid, LNCS 1032, 1996). Only states with
    at least 2 edges left are remembered: one with 1 left has at most 2
    successors, and merging them again costs less than storing it. The
    first C multiset comes after at most m(m+1) merges. Each call interns
    through its own :class:`~nodeparse.terms.TermInterner`. The whole image
    serves :func:`enumerate_encoding_class`; deciding isomorphism needs
    only :func:`iter_least_w`, which expands a subset of these states.
    """
    _check_guard(graph, guard_edges)
    interner = TermInterner()
    start = _start_state(graph, interner)
    if not graph.edges:
        yield frozenset(Counter(start[3]).items())
        return
    stack = [start]
    seen = set()
    found = set()
    while stack:
        state = stack.pop()
        for result, move in _expand(state, interner, variant):
            rest, l1, l2, _ = move
            if not rest:
                # C: the merged encoding and every other current one
                c = Counter(
                    e for v, e in enumerate(state[3]) if e is not None and v != l1 and v != l2
                )
                c[result] += 1
                c = frozenset(c.items())
                if c not in found:
                    found.add(c)
                    yield c
                continue
            nxt = _successor(state, result, move)
            if len(rest) >= 2:
                if nxt in seen:
                    continue
                seen.add(nxt)
            stack.append(nxt)


def search_order(graph: LabeledGraph) -> List[Tuple[Tuple[int, ...], Tuple[int, int]]]:
    """(key, edge) pairs sorted: each edge with its ``degs-and-labels``
    :func:`sort_key`, in the order :func:`iter_least_w` starts from. The
    keys depend only on endpoint degrees and labels, so isomorphic graphs
    have equal key sequences."""
    degrees = graph.degrees()
    return sorted((sort_key(e, degrees, graph.labels, "degs-and-labels"), e) for e in graph.edges)


def iter_least_w(
    graph: LabeledGraph,
    interner: Optional[TermInterner] = None,
    guard_edges: int = 6,
) -> Iterable[CEncoding]:
    """The merge entries of the graph's least npa W sequence over its
    sort-order runs, one per step. A sort-order run takes the edges in an
    order that never decreases in the ``degs-and-labels``
    :func:`sort_key`, ties in any order, each edge in either orientation;
    of the W sequences these runs realize, this is the lexicographically
    least under :func:`~nodeparse.terms.encoding_compare`.

    W's vertex prefix is the same for every order (the leaves of the
    labels, sorted as a multiset), so the sequence is decided by its m
    merge entries. The search runs breadth first over the parse states of
    :func:`iter_c_multisets`, from the edges in :func:`search_order`. After t
    steps every state it keeps has taken t edges carrying the t least keys,
    so the least key left, and the number w of edges that carry it, are
    the same for all of them, and those edges are the first w of each
    state's remaining tuple. Its frontier after step t holds exactly the
    states that the t-entry sort-order prefixes equal to the least one
    reach: it expands every frontier state by its first w edges, yields
    the least new entry, and keeps only the successors that made it,
    deduped exactly on the whole state. Every kept state can be run to the
    end in key order, so a prefix that is not least cannot start the least
    sequence, and pruning it loses nothing.

    The least sequence is a canonical form, for these reasons:

    - An isomorphism keeps degrees and labels, so it maps each edge to an
      edge of the same key, and each sort-order run of one graph to a
      sort-order run of the other with the same entries. So isomorphic
      graphs realize the same sort-order W sequences, and have the same
      least one.
    - Under npa, equal W sequences give equal C multisets, whatever runs
      realize them. A merge absorbs the current encodings of its endpoint
      components, and its term names them: its two children when b=0, and
      the one component's encoding, twice, when b=1. An absorbed encoding
      is never current again, and every other entry of W stays current to
      the end. So C is the multiset W less the encodings that the merges'
      children name (once for a b=1 merge), which is a function of W.
      (Under npba every merge records b=0, so this step fails there.)
    - Equal C multisets certify isomorphism under npa (the encoding's
      certifying property).

    So two graphs with the same n, m and sorted labels are isomorphic
    exactly when, through one interner, their searches yield equal entries
    at every step. The search expands each state it keeps once, by some of
    the edges that :func:`iter_c_multisets` tries there, and that search
    expands every reachable state at least once, so this one never makes
    more merges. The last step builds no states: nothing is left to
    expand.
    """
    _check_guard(graph, guard_edges)
    if interner is None:
        interner = TermInterner()
    keyed = search_order(graph)
    keys = [key for key, _ in keyed]
    _, comp, h, enc = _start_state(graph, interner)
    frontier = [(tuple(e for _, e in keyed), comp, h, enc)]
    for t, key in enumerate(keys):
        width = keys[t:].count(key)
        least = None
        reached = set()
        for state in frontier:
            for result, move in _expand(state, interner, "npa", width):
                if least is None:
                    least = result
                elif result != least:
                    if encoding_compare(result, least) > 0:
                        continue
                    least = result
                    reached = set()
                if move[0]:
                    reached.add(_successor(state, result, move))
        yield least
        frontier = list(reached)


def enumerate_encoding_class(
    graph: LabeledGraph, variant: str = "npa", guard_edges: int = 6
) -> set:
    """The complete multivalued image of the graph's isomorphism class:
    the set of final-component multisets over all orderings, each as its
    sorted canonical keys. Isomorphic graphs yield identical sets. The
    multisets come from :func:`iter_c_multisets`, each distinct one once as
    (encoding, count) items, and one memo of term keys serves them all."""
    memo: Dict[EncodingTerm, str] = {}
    return {
        _c_key((e for e, count in c for _ in range(count)), memo)
        for c in iter_c_multisets(graph, variant=variant, guard_edges=guard_edges)
    }

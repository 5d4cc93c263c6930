"""Shared test utilities: random instances, exhaustive catalogs, TU fixtures."""

import contextlib
import math
import random
from collections import Counter
from itertools import combinations_with_replacement, product
from pathlib import Path
from typing import List, Optional, Sequence, Tuple
from unittest import mock

from nodeparse import (
    LabeledGraph,
    RedundancyReport,
    SortConfig,
    canonical_form,
    parse_edge_list,
    sort_edges,
    terms,
)
from nodeparse.engine import EDGE_MODES, ENDPOINT_MODES, sort_key
from nodeparse.graphs import Components

# A 12-vertex, 37-edge graph whose default run closes many cycles in the
# component that absorbs most merges; its tree-form C key is hundreds of MB.
DENSE_12 = parse_edge_list(
    "n=12 labels=1,1,1,1,1,1,1,1,1,1,1,1 e=0-1,0-2,0-5,0-8,0-9,0-11,1-3,1-4,"
    "1-7,2-3,2-6,2-7,2-8,2-10,2-11,3-5,3-6,3-7,3-8,3-9,4-5,4-7,4-8,4-9,5-6,"
    "5-7,5-8,5-9,6-7,6-8,6-9,6-10,7-9,8-9,8-10,8-11,9-11"
)


@contextlib.contextmanager
def widest_pairing_value():
    """Record, in ``widest[0]``, the bit length of the widest value that
    ``terms.cantor_pair`` or ``terms.sym_pair`` builds inside the block."""
    widest = [0]
    real_cantor, real_sym = terms.cantor_pair, terms.sym_pair

    def cantor(i, j):
        value = real_cantor(i, j)
        widest[0] = max(widest[0], value.bit_length())
        return value

    def sym(i, j):
        s, p = real_sym(i, j)
        widest[0] = max(widest[0], s.bit_length(), p.bit_length())
        return s, p

    with mock.patch.object(terms, "cantor_pair", cantor), mock.patch.object(
        terms, "sym_pair", sym
    ):
        yield widest


@contextlib.contextmanager
def counted_merges():
    """Count, in ``count[0]``, the ``TermInterner.merge`` calls inside the
    block."""
    count = [0]
    real = terms.TermInterner.merge

    def merge(self, *args):
        count[0] += 1
        return real(self, *args)

    with mock.patch.object(terms.TermInterner, "merge", merge):
        yield count


def two_pass_redundancy_report(graph: LabeledGraph, config: SortConfig) -> RedundancyReport:
    """Reference redundancy report: the oriented sort, each edge's key
    computed a second time, and five finds per edge (block-start test,
    union, group count)."""
    degrees = graph.degrees()
    ordered = sort_edges(graph, config)
    keys = [
        sort_key((min(a, b), max(a, b)), degrees, graph.labels, config.edge_mode)
        for a, b in ordered
    ]
    comps = Components(graph.num_vertices)
    find = comps.find
    log_orders = 0.0
    p = 0
    i = 0
    m = len(ordered)
    while i < m:
        j = i
        while j < m and keys[j] == keys[i]:
            j += 1
        block = ordered[i:j]
        p += sum(1 for a, b in block if find(a) != find(b))
        for a, b in block:
            comps.union(find(a), find(b))
        for t in Counter(find(a) for a, _ in block).values():
            log_orders += math.lgamma(t + 1) / math.log(10.0)
        i = j
    return RedundancyReport(
        log10_edge_orders=log_orders,
        log10_orientation_factor=p * math.log10(2.0),
        levels=max(comps.level.values()),
    )


def random_multigraph(
    rng: random.Random,
    max_vertices: int = 6,
    max_edges: int = 8,
    max_label: int = 3,
    min_vertices: int = 1,
) -> LabeledGraph:
    n = rng.randint(min_vertices, max_vertices)
    m = rng.randint(0, max_edges)
    edges = tuple(
        (rng.randrange(n), rng.randrange(n)) for _ in range(m)
    )
    labels = tuple(rng.randint(1, max_label) for _ in range(n))
    return LabeledGraph(n, edges, labels)


def random_permutation(rng: random.Random, n: int) -> List[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_config(rng: random.Random, variant: str = "npa") -> SortConfig:
    return SortConfig(
        edge_mode=rng.choice(EDGE_MODES),
        endpoint_mode=rng.choice(ENDPOINT_MODES),
        variant=variant,
        seed=rng.getrandbits(63),
    )


def random_oriented_order(
    rng: random.Random, graph: LabeledGraph
) -> List[Tuple[int, int]]:
    order = list(graph.edges)
    rng.shuffle(order)
    return [
        (a, b) if a == b or rng.random() < 0.5 else (b, a) for a, b in order
    ]


def transported_order(
    order: Sequence[Tuple[int, int]], perm: Sequence[int]
) -> List[Tuple[int, int]]:
    return [(perm[a], perm[b]) for a, b in order]


def multigraph_catalog(
    max_vertices: int = 4,
    max_edges: int = 4,
    labels: Tuple[int, ...] = (1, 2),
) -> List[LabeledGraph]:
    """Every multigraph with <= max_vertices vertices, <= max_edges edges and
    labels drawn from the given alphabet, one representative per isomorphism
    class (deduplicated by exhaustive canonical form)."""
    seen = {}
    for n in range(1, max_vertices + 1):
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        for m in range(0, max_edges + 1):
            for edge_multiset in combinations_with_replacement(pairs, m):
                for labeling in product(labels, repeat=n):
                    g = LabeledGraph(n, edge_multiset, labeling)
                    key = canonical_form(g)
                    if key not in seen:
                        seen[key] = g
    return list(seen.values())


def write_tu_fixture(
    directory: Path,
    name: str,
    graphs: Sequence[Tuple[LabeledGraph, int]],
    node_labels: bool = True,
    raw_label_offset: int = 0,
) -> Path:
    """Write a TUDataset-format fixture (1-indexed, one line per directed arc)."""
    directory.mkdir(parents=True, exist_ok=True)
    a_lines, ind_lines, lab_lines, nlab_lines = [], [], [], []
    base = 0
    for gid, (g, cls) in enumerate(graphs, start=1):
        lab_lines.append(str(cls))
        for v in range(g.num_vertices):
            ind_lines.append(str(gid))
            nlab_lines.append(str(g.labels[v] - 1 + raw_label_offset))
        for a, b in g.edges:
            u, w = base + a + 1, base + b + 1
            a_lines.append(f"{u}, {w}")
            if u != w:
                a_lines.append(f"{w}, {u}")  # loops are listed once per loop
        base += g.num_vertices
    (directory / f"{name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (directory / f"{name}_graph_indicator.txt").write_text("\n".join(ind_lines) + "\n")
    (directory / f"{name}_graph_labels.txt").write_text("\n".join(lab_lines) + "\n")
    if node_labels:
        (directory / f"{name}_node_labels.txt").write_text("\n".join(nlab_lines) + "\n")
    return directory


def tudataset_dir(name: str) -> Optional[Path]:
    """Locate real TU datasets if the user has provided them.

    Looked up under $NODEPARSE_DATA or ./data, expecting the usual
    <dir>/<NAME>/<NAME>_A.txt layout. Returns None when absent.
    """
    import os

    candidates = []
    env = os.environ.get("NODEPARSE_DATA")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for root in candidates:
        d = root / name
        if (d / f"{name}_A.txt").is_file():
            return d
    return None

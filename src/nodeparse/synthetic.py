"""Generators for the synthetic hard-instance families, plus collection I/O."""

from __future__ import annotations

import inspect
import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .graphs import GraphFormatError, LabeledGraph, parse_edge_list, serialize_edge_list
from .oracle import are_isomorphic_bruteforce

FAMILIES = ("gnn-hard", "npba-hard", "erdos", "erdos-labels", "random-regular")

GraphClassPairs = List[Tuple[LabeledGraph, int]]


def cycle_graph(length: int) -> LabeledGraph:
    """Cycle on ``length`` vertices with uniform label 1.

    Degenerate cycles follow the multigraph reading: length 1 is a self-loop,
    length 2 is a pair of parallel edges.
    """
    if length < 1:
        raise ValueError("cycle length must be >= 1")
    if length == 1:
        edges: Tuple[Tuple[int, int], ...] = ((0, 0),)
    elif length == 2:
        edges = ((0, 1), (0, 1))
    else:
        edges = tuple((i, (i + 1) % length) for i in range(length))
    return LabeledGraph(length, edges, (1,) * length)


def disjoint_union(a: LabeledGraph, b: LabeledGraph) -> LabeledGraph:
    off = a.num_vertices
    edges = a.edges + tuple((u + off, v + off) for u, v in b.edges)
    return LabeledGraph(off + b.num_vertices, edges, a.labels + b.labels)


def gen_gnn_hard() -> GraphClassPairs:
    """Two disjoint cycles of n/2 vertices (class 1) vs one cycle of n
    vertices (class 2), for n = 2, 4, ..., 32. 32 graphs, uniform label 1."""
    out: GraphClassPairs = []
    for n in range(2, 33, 2):
        half = cycle_graph(n // 2)
        out.append((disjoint_union(half, half), 1))
        out.append((cycle_graph(n), 2))
    return out


def gen_npba_hard(single_node_class2: bool = False) -> GraphClassPairs:
    """Two nodes joined by m parallel edges (class 1) vs m self-loops on one
    node (class 2), for m = 2..19. 36 graphs, uniform label 1.

    Class 2 keeps a second, isolated node by default; pass
    ``single_node_class2=True`` for the one-node reading.
    """
    out: GraphClassPairs = []
    for m in range(2, 20):
        parallel = LabeledGraph(2, tuple((0, 1) for _ in range(m)), (1, 1))
        loops = tuple((0, 0) for _ in range(m))
        if single_node_class2:
            looped = LabeledGraph(1, loops, (1,))
        else:
            looped = LabeledGraph(2, loops, (1, 1))
        out.append((parallel, 1))
        out.append((looped, 2))
    return out


def _check_sizes(count: int, n: int, degree: int = 0) -> None:
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")


def _reject_isomorphic_draws(
    draw, count: int, max_retries: int
) -> List[LabeledGraph]:
    accepted: List[LabeledGraph] = []
    retries = 0
    while len(accepted) < count:
        g = draw()
        if any(are_isomorphic_bruteforce(g, other) for other in accepted):
            retries += 1
            if retries > max_retries:
                raise RuntimeError(
                    f"could not draw {count} pairwise non-isomorphic graphs "
                    f"within {max_retries} retries ({len(accepted)} found)"
                )
            continue
        accepted.append(g)
    return accepted


def gen_erdos(
    count: int = 30,
    n: int = 10,
    edge_prob: float = 0.5,
    labeled: bool = False,
    seed: int = 0,
    max_retries: Optional[int] = None,
) -> GraphClassPairs:
    """Pairwise non-isomorphic simple Erdos-Renyi draws, one class per graph.

    Isomorphic duplicates are rejected against the oracle and redrawn. The
    labeled variant draws vertex labels uniformly from 1..n.
    """
    _check_sizes(count=count, n=n)
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError("edge_prob must be in [0, 1]")
    rng = random.Random(seed)
    if max_retries is None:
        max_retries = 200 * count

    def draw() -> LabeledGraph:
        edges = tuple(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < edge_prob
        )
        if labeled:
            labels = tuple(rng.randint(1, n) for _ in range(n))
        else:
            labels = (1,) * n
        return LabeledGraph(n, edges, labels)

    graphs = _reject_isomorphic_draws(draw, count, max_retries)
    return [(g, i) for i, g in enumerate(graphs)]


def gen_random_regular(
    count: int = 10,
    n: int = 8,
    degree: int = 4,
    seed: int = 0,
    simple: bool = False,
    max_retries: Optional[int] = None,
) -> GraphClassPairs:
    """Pairwise non-isomorphic regular graphs via configuration-model stub
    matching, one class per graph.

    Self-loops (counting 2 toward the degree) and parallel edges are kept by
    default; only a handful of simple regular graphs exist at small sizes, so
    ``simple=True`` restricts the reachable class count sharply.
    """
    _check_sizes(count=count, n=n, degree=degree)
    if (n * degree) % 2:
        raise ValueError("n * degree must be even")
    rng = random.Random(seed)
    if max_retries is None:
        max_retries = 2000 * count

    def draw() -> LabeledGraph:
        while True:
            stubs = [v for v in range(n) for _ in range(degree)]
            rng.shuffle(stubs)
            it = iter(stubs)
            edges = tuple(sorted((min(a, b), max(a, b)) for a, b in zip(it, it)))
            if simple and (
                any(a == b for a, b in edges) or len(set(edges)) != len(edges)
            ):
                continue
            return LabeledGraph(n, edges, (1,) * n)

    graphs = _reject_isomorphic_draws(draw, count, max_retries)
    return [(g, i) for i, g in enumerate(graphs)]


def generate(family: str, seed: int = 0, **params) -> GraphClassPairs:
    """Build ``family``, passing ``params`` to its generator, which must take each."""
    if family == "gnn-hard":
        gen, fixed = gen_gnn_hard, {}
    elif family == "npba-hard":
        gen, fixed = gen_npba_hard, {}
    elif family in ("erdos", "erdos-labels"):
        gen, fixed = gen_erdos, {"seed": seed, "labeled": family == "erdos-labels"}
    elif family == "random-regular":
        gen, fixed = gen_random_regular, {"seed": seed}
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    for key in params:
        if key in fixed or key not in inspect.signature(gen).parameters:
            raise ValueError(f"family {family!r} does not take parameter {key!r}")
    if family == "erdos-labels":
        params = {"count": 100, **params}
    return gen(**fixed, **params)


def write_collection(
    directory,
    pairs: GraphClassPairs,
    family: str,
    params: Optional[Dict] = None,
    seed: int = 0,
) -> Path:
    """Write one edge-list file per graph plus a manifest; returns the
    manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records = []
    for idx, (graph, class_id) in enumerate(pairs):
        fname = f"graph_{idx:04d}.graph"
        (directory / fname).write_text(serialize_edge_list(graph) + "\n")
        records.append({"file": fname, "class_id": class_id})
    manifest = {
        "family": family,
        "parameters": params or {},
        "seed": seed,
        "graphs": records,
    }
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_collection(directory) -> GraphClassPairs:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no manifest.json in {directory}")
    manifest = json.loads(manifest_path.read_text())
    try:
        records = [(rec["file"], rec["class_id"]) for rec in manifest["graphs"]]
    except (TypeError, KeyError) as exc:
        raise GraphFormatError(
            f"{manifest_path} is not a collection manifest: it needs a 'graphs' list"
            " of records with 'file' and 'class_id'"
        ) from exc
    return [(parse_edge_list((directory / f).read_text()), c) for f, c in records]

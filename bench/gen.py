"""Seeded inputs for the benchmark workloads, written in the program's own
file formats: TU text files for ``tu-molecules`` and one-line ``.graph``
edge lists for the rest.

Standard library only; nothing here imports nodeparse. The same workload and
seed always give the same files. Next to them, ``manifest.json`` keeps every
graph as a plain ``[n, labels, edges]`` triple, which is what the checks
compare the program's outputs against.
"""

from __future__ import annotations

import json
import random
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

from check import isomorphic, norm, permute

WORKLOADS = ("tu-molecules", "hubs", "iso", "numeric")

# The molecule-like graphs are a stand-in: no TU dataset is in the
# repository. Their make-up is fitted by hand to the paper's table of
# redundancy figures for MUTAG and PTC_MR (median log10 edge orders and mean
# levels per edge mode, as tests/test_acceptance.py holds them), not derived
# from atom counts; bench/README.md gives the fit. Atom types are written
# 0-based, as TU files are, so the loader shifts them to 1..6.
ATOM_WEIGHTS = (88, 5, 4, 1, 1, 1)
MOLECULE_SIZES = (14, 36)
# Chance that a new atom extends the chain from the atom before it, rather
# than branching off one of the last four.
CHAIN = 0.8
MOLECULES = 1000
# Three graphs of each of seven sizes: the median op is then the middle graph
# of the middle size, and the tail op and the peak memory fall among the
# three largest graphs rather than on one.
HUB_SIZES = tuple(n for n in range(400, 1001, 100) for _ in range(3))
HUB_EXTRA_EDGES = 3
# Cycle-closing edges (loops and parallel edges included) of the dense
# above-guard iso graphs; the size of c_multiset_key doubles with each. The
# fixed graph of the fault pairs has more of them than the seeded graphs, so
# that its ops, which do not change with the seed, set the peak memory.
DENSE_CYCLES = 12
FAULT_CYCLES = 15
# Sampled pairs of each kind in one round of iso. The exhaustive pairs come
# one copy and one distinct pair per shape of EXHAUSTIVE_SHAPES, the four
# fault pairs on top.
SAMPLED_PAIRS = 3
# The graphs of the exhaustive pairs: four distinct non-loop edges touching
# all five vertices (a path, a star, a chair, or a triangle and an edge),
# plus one loop, as (edges, loop vertex). One entry per place of the loop up
# to symmetry, so these are all 11 such shapes. Every seed uses each once:
# the seed draws labels and numbering, while the mix of shapes, which sets
# the cost of enumeration, stays the same. The sampled and fault ops are the
# cheap ones; with 22 exhaustive ops of 32 the median op falls inside the
# exhaustive group, at its first quartile, not on its cheapest op.
_PATH = [(0, 1), (1, 2), (2, 3), (3, 4)]
_STAR = [(0, 1), (0, 2), (0, 3), (0, 4)]
_CHAIR = [(0, 1), (1, 2), (0, 3), (0, 4)]
_TRIANGLE_EDGE = [(0, 1), (1, 2), (0, 2), (3, 4)]
EXHAUSTIVE_SHAPES = ([(_PATH, v) for v in (0, 1, 2)] + [(_STAR, v) for v in (0, 1)]
                     + [(_CHAIR, v) for v in (0, 1, 2, 3)]
                     + [(_TRIANGLE_EDGE, v) for v in (0, 3)])


def graph_line(graph) -> str:
    n, labels, edges = graph
    return (f"n={n} labels={','.join(map(str, labels))} "
            f"e={','.join(f'{a}-{b}' for a, b in edges)}")


def _canon(graph):
    n, labels, edges = graph
    return n, list(labels), sorted(norm(a, b) for a, b in edges)


def _shuffled(rng: random.Random, graph):
    perm = list(range(graph[0]))
    rng.shuffle(perm)
    return _canon(permute(graph, perm))


# ---------------------------------------------------------------- tu-molecules


def molecule(rng: random.Random, n: int, rings: int):
    """A tree on ``n`` atoms with valence at most 4, grown along a backbone,
    plus ``rings`` ring closures."""
    degree = [0] * n
    edges = []
    for v in range(1, n):
        if rng.random() < CHAIN and degree[v - 1] < 4:
            u = v - 1
        else:
            free = [u for u in range(max(0, v - 4), v) if degree[u] < 4]
            u = rng.choice(free or [u for u in range(v) if degree[u] < 4])
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    present = set(edges)
    for _ in range(rings):
        for _attempt in range(20):
            a, b = sorted(rng.sample(range(n), 2))
            if (a, b) not in present and degree[a] < 4 and degree[b] < 4:
                present.add((a, b))
                edges.append((a, b))
                degree[a] += 1
                degree[b] += 1
                break
    labels = rng.choices(range(1, 7), weights=ATOM_WEIGHTS, k=n)
    return _canon((n, labels, edges))


def gen_tu(rng: random.Random, out: Path, small: bool) -> dict:
    # Every seed has the same number of graphs of each size and ring count;
    # the seed sets their shapes, labels and order. Sizes drive the output,
    # so the output size then varies little from seed to seed.
    sizes = range(MOLECULE_SIZES[0], MOLECULE_SIZES[1] + 1)
    graphs = [molecule(rng, sizes[i % len(sizes)], i % 5)
              for i in range(20 if small else MOLECULES)]
    rng.shuffle(graphs)
    classes = [rng.randint(0, 1) for _ in graphs]
    name = "MOL"
    arcs, indicator, node_labels = [], [], []
    base = 0
    for gid, (n, labels, edges) in enumerate(graphs, start=1):
        indicator.extend([gid] * n)
        node_labels.extend(lab - 1 for lab in labels)
        for a, b in edges:
            arcs.append(f"{base + a + 1}, {base + b + 1}")
            arcs.append(f"{base + b + 1}, {base + a + 1}")
        base += n
    (out / name).mkdir()
    files = {"A": arcs, "graph_indicator": indicator,
             "graph_labels": classes, "node_labels": node_labels}
    for suffix, rows in files.items():
        (out / name / f"{name}_{suffix}.txt").write_text("".join(f"{r}\n" for r in rows))
    return {"dataset": f"{name}", "graphs": graphs, "classes": classes}


# ---------------------------------------------------------------- hubs


def hub_graph(rng: random.Random, n: int):
    """A discussion thread: a tree where half the vertices reply to the hub,
    plus three replies that also answer a sibling. Sibling edges close small
    cycles early in the parse; random extra edges would close them at any
    size, and the output would swing several-fold from seed to seed. The
    hub's degree is fixed, since the output grows with its cube."""
    to_hub = {1, *rng.sample(range(2, n), n // 2 - 1)}
    parent = [0] * n
    for v in range(2, n):
        if v not in to_hub:
            parent[v] = rng.randrange(1, v)
    edges = [(parent[v], v) for v in range(1, n)]
    families: dict = {}
    for v in range(1, n):
        if parent[v]:
            families.setdefault(parent[v], []).append(v)
    families = [kids for kids in families.values() if len(kids) > 1]
    for _ in range(HUB_EXTRA_EDGES):
        edges.append(tuple(rng.sample(rng.choice(families), 2)))
    labels = rng.choices((1, 2, 3), weights=(3, 1, 1), k=n)
    return _shuffled(rng, (n, labels, edges))


def gen_hubs(rng: random.Random, out: Path, small: bool) -> dict:
    sizes = (30, 45, 60) if small else HUB_SIZES
    graphs = [hub_graph(rng, n) for n in sizes]
    rng.shuffle(graphs)
    files = []
    for i, g in enumerate(graphs):
        files.append(f"hub{i:02d}.graph")
        (out / files[-1]).write_text(graph_line(g) + "\n")
    return {"files": files, "graphs": graphs}


# ---------------------------------------------------------------- iso


def exhaustive_graph(rng: random.Random, shape, labels):
    """One of EXHAUSTIVE_SHAPES with the given labels, numbered at random:
    five edges on five vertices, so that enumeration replays 5!*2^4 orders."""
    edges, loop = shape
    return _shuffled(rng, (5, list(labels), edges + [(loop, loop)]))


def dense_graph(rng: random.Random, cycles: int = DENSE_CYCLES):
    """8-12 vertices, a spanning tree plus ``cycles`` cycle-closing edges,
    among them loops and parallel edges."""
    n = rng.randint(8, 12)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(cycles):
        r = rng.random()
        if r < 0.2:
            edges.append((rng.randrange(n),) * 2)
        elif r < 0.45:
            edges.append(rng.choice(edges))
        else:
            edges.append(tuple(rng.sample(range(n), 2)))
    labels = rng.choices((1, 2, 3), weights=(3, 2, 1), k=n)
    return _canon((n, labels, edges))


def near_miss(rng: random.Random, graph):
    """Same n, m and labels: one non-loop edge gets a new endpoint."""
    n, labels, edges = graph
    while True:
        i = rng.choice([i for i, (a, b) in enumerate(edges) if a != b])
        a, _ = edges[i]
        c = rng.choice([v for v in range(n) if v != a])
        other = _canon((n, labels, edges[:i] + [(a, c)] + edges[i + 1:]))
        if not isomorphic(graph, other):
            return other


def fault_pairs():
    """Above-guard pairs that differ in n, m or label multiset. They do not
    depend on the seed."""
    rng = random.Random("fault-1")
    path = (8, [1] * 8, [(i, i + 1) for i in range(7)])
    dense = dense_graph(rng, FAULT_CYCLES)
    n, labels, edges = dense
    more_edges = _canon((n, labels, edges + [edges[-1]]))
    relabeled = _canon((n, [labels[0] % 3 + 1] + labels[1:], edges))
    isolated = _canon((n + 1, labels + [1], edges))
    return [(path, _canon((8, [1] * 8, path[2][:3] + path[2][4:]))),
            (dense, more_edges), (dense, relabeled), (dense, isolated)]


def gen_iso(rng: random.Random, out: Path, small: bool) -> dict:
    # Exhaustive pairs are the majority and cost the most, so the median and
    # the tail op both fall among them; sampled ops vary more between seeds
    # and are kept cheaper.
    pairs = []
    shapes = EXHAUSTIVE_SHAPES[:1] if small else EXHAUSTIVE_SHAPES
    for k, shape in enumerate(shapes):
        labels = rng.choices((1, 2, 3), weights=(2, 1, 1), k=5)
        g = exhaustive_graph(rng, shape, labels)
        pairs.append(("exhaustive-copy", g, _shuffled(rng, g)))
        # The next shape with the same label multiset: never isomorphic.
        other = EXHAUSTIVE_SHAPES[(k + 1) % len(EXHAUSTIVE_SHAPES)]
        h = exhaustive_graph(rng, other, rng.sample(labels, 5))
        assert not isomorphic(g, h)
        pairs.append(("exhaustive-distinct", g, h))
    for _ in range(1 if small else SAMPLED_PAIRS):
        g = dense_graph(rng)
        pairs.append(("sampled-copy", g, _shuffled(rng, g)))
        g = dense_graph(rng)
        pairs.append(("near-miss", g, _shuffled(rng, near_miss(rng, g))))
    pairs.extend(("fault", a, b) for a, b in fault_pairs())
    rng.shuffle(pairs)
    manifest = []
    for i, (kind, a, b) in enumerate(pairs):
        names = [f"pair{i:02d}a.graph", f"pair{i:02d}b.graph"]
        for name, g in zip(names, (a, b)):
            (out / name).write_text(graph_line(g) + "\n")
        manifest.append({"kind": kind, "files": names, "graphs": [a, b]})
    return {"pairs": manifest}


# ---------------------------------------------------------------- numeric


def numeric_classes():
    """Every multigraph with exactly 3 edges on at most 4 vertices and labels
    in {1, 2}, isolated vertices allowed, one canonical form per
    isomorphism class (338 of them)."""
    classes = set()
    for n in range(1, 5):
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        perms = list(permutations(range(n)))
        for labels in product((1, 2), repeat=n):
            for edges in combinations_with_replacement(pairs, 3):
                classes.add(min(
                    (tuple(labels[p.index(v)] for v in range(n)),
                     tuple(sorted(norm(p[a], p[b]) for a, b in edges)))
                    for p in perms
                ) + (n,))
    return sorted((n, list(labels), list(edges)) for labels, edges, n in classes)


def gen_numeric(rng: random.Random, out: Path, small: bool) -> dict:
    # Each class keeps its canonical numbering, so every seed runs the same
    # 338 ops; the seed sets their order.
    graphs = numeric_classes()
    if small:
        graphs = graphs[::20]
    rng.shuffle(graphs)
    files = []
    for i, g in enumerate(graphs):
        files.append(f"class{i:03d}.graph")
        (out / files[-1]).write_text(graph_line(g) + "\n")
    return {"files": files, "graphs": graphs}


GENERATORS = {"tu-molecules": gen_tu, "hubs": gen_hubs, "iso": gen_iso,
              "numeric": gen_numeric}


def generate(workload: str, seed: int, out: Path, small: bool = False) -> dict:
    """Write the workload's inputs into the empty directory ``out`` and
    return its manifest, which is also saved as ``out/manifest.json``."""
    rng = random.Random(f"{workload}:{seed}")
    manifest = GENERATORS[workload](rng, out, small)
    manifest.update(workload=workload, seed=seed, small=small)
    (out / "manifest.json").write_text(json.dumps(manifest))
    return manifest

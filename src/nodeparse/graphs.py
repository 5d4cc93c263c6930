"""Labeled multigraph data model, edge-list text format, and TUDataset ingestion."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple


class GraphFormatError(ValueError):
    """Raised when a graph file or text representation is malformed."""


def _norm(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class Components:
    """Union-find over vertices 0..n-1 keeping, per root, the size and the
    level: an edge inside one component adds 1 to its level, an edge joining
    two gives 1 + the larger of their levels. The keys of ``level`` are
    exactly the current roots.

    Each node also carries a potential: ``offset[v]`` is relative to v's
    parent, and a root's offset is absolute, so the value of v is the sum of
    the offsets on its path to the root (all 0 at the start). Adding to every
    value of a component is one addition at its root (:meth:`shift`);
    :meth:`find` folds the offsets of the nodes it skips and :meth:`union`
    re-bases the absorbed root, so no operation touches each member of a
    component (Tarjan, JACM 22(2), 1975; the "weighted" variant)."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.offset = [0] * n
        self.level: Dict[int, int] = dict.fromkeys(range(n), 0)

    def find(self, v: int) -> int:
        parent, offset = self.parent, self.offset
        while parent[v] != v:
            p = parent[v]
            grand = parent[p]
            if grand != p:  # path halving: v skips p, so it takes on p's offset
                offset[v] += offset[p]
                parent[v] = grand
            v = grand
        return v

    def value(self, v: int) -> int:
        """The sum of the offsets from v up to and including its root."""
        parent, offset = self.parent, self.offset
        total = offset[v]
        while parent[v] != v:
            v = parent[v]
            total += offset[v]
        return total

    def shift(self, root: int, delta: int) -> None:
        """Add ``delta`` to the value of every member of root's component."""
        self.offset[root] += delta

    def union(self, r1: int, r2: int) -> int:
        """Account one edge between the components rooted at r1 and r2 and
        return the root of the result. The larger component's root survives
        a join, r1 on a tie; every value is kept."""
        level = self.level
        if r1 == r2:
            level[r1] += 1
            return r1
        size = self.size
        if size[r1] < size[r2]:
            r1, r2 = r2, r1
        self.parent[r2] = r1
        self.offset[r2] -= self.offset[r1]
        size[r1] += size[r2]
        l1, l2 = level[r1], level.pop(r2)
        level[r1] = 1 + (l1 if l1 > l2 else l2)
        return r1


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected multigraph with positive-integer vertex labels.

    Vertices are 0-indexed. ``edges`` is a multiset of unordered index pairs,
    stored as a sorted tuple of (low, high) pairs; self-loops and parallel
    edges are allowed. A self-loop contributes 2 to its vertex degree.
    """

    num_vertices: int
    edges: Tuple[Tuple[int, int], ...]
    labels: Tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.num_vertices
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        if len(self.labels) != n:
            raise ValueError(f"expected {n} labels, got {len(self.labels)}")
        for l in self.labels:
            if l < 1:
                raise ValueError(f"labels must be >= 1, got {l}")
        norm = tuple(sorted(_norm(a, b) for a, b in self.edges))
        for a, b in norm:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for {n} vertices")
        object.__setattr__(self, "edges", norm)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def size(self) -> int:
        """Vertex count + edge count + largest label."""
        return self.num_vertices + self.num_edges + max(self.labels)

    def degrees(self) -> List[int]:
        deg = [0] * self.num_vertices
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1  # for a loop both increments hit the same vertex
        return deg

    def edge_multiplicities(self) -> Counter:
        return Counter(self.edges)

    def permuted(self, perm: Sequence[int]) -> "LabeledGraph":
        """Relabel vertices: old index v becomes perm[v]."""
        if sorted(perm) != list(range(self.num_vertices)):
            raise ValueError("perm must be a permutation of the vertex indices")
        labels = [0] * self.num_vertices
        for v, l in enumerate(self.labels):
            labels[perm[v]] = l
        edges = tuple(_norm(perm[a], perm[b]) for a, b in self.edges)
        return LabeledGraph(self.num_vertices, edges, tuple(labels))

    def num_components(self) -> int:
        comps = Components(self.num_vertices)
        for a, b in self.edges:
            comps.union(comps.find(a), comps.find(b))
        return len(comps.level)


def parse_edge_list(text: str) -> LabeledGraph:
    """Parse the one-line edge-list format.

    Format: ``n=<int> labels=<l0>,...,<l{n-1}> e=<a>-<b>[,<a>-<b>...]``.
    Repeated pairs denote parallel edges; ``a`` = ``b`` denotes a self-loop.
    Blank lines and ``#`` comment lines around the payload are ignored.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) != 1:
        raise GraphFormatError(f"expected exactly one graph line, found {len(lines)}")
    fields = lines[0].split()
    if len(fields) != 3:
        raise GraphFormatError(f"expected 3 fields 'n= labels= e=', got {len(fields)}")

    def _value(field: str, prefix: str) -> str:
        if not field.startswith(prefix):
            raise GraphFormatError(f"expected field starting with '{prefix}', got {field!r}")
        return field[len(prefix):]

    try:
        n = int(_value(fields[0], "n="))
    except ValueError as exc:
        raise GraphFormatError(f"bad vertex count: {fields[0]!r}") from exc

    raw_labels = _value(fields[1], "labels=")
    try:
        labels = tuple(int(tok) for tok in raw_labels.split(",")) if raw_labels else ()
    except ValueError as exc:
        raise GraphFormatError(f"bad label list: {raw_labels!r}") from exc

    raw_edges = _value(fields[2], "e=")
    edges: List[Tuple[int, int]] = []
    if raw_edges:
        for tok in raw_edges.split(","):
            parts = tok.split("-")
            if len(parts) != 2:
                raise GraphFormatError(f"bad edge token: {tok!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"bad edge token: {tok!r}") from exc
            edges.append((a, b))
    try:
        return LabeledGraph(n, tuple(edges), labels)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def serialize_edge_list(graph: LabeledGraph) -> str:
    """Inverse of :func:`parse_edge_list`; edges emitted in canonical order."""
    labels = ",".join(str(l) for l in graph.labels)
    edges = ",".join(f"{a}-{b}" for a, b in graph.edges)
    return f"n={graph.num_vertices} labels={labels} e={edges}"


def _read_int_lines(path: Path, tokens_per_line: int) -> List[Tuple[int, ...]]:
    """Rows of comma-separated integers; blank lines are skipped. ``int``
    ignores the whitespace around a token, so a line is tested for being
    blank only when it does not parse."""
    rows: List[Tuple[int, ...]] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split(",")
            if len(toks) != tokens_per_line:
                if line.isspace():
                    continue
                raise GraphFormatError(
                    f"{path.name}:{lineno}: expected {tokens_per_line} values, got {len(toks)}"
                )
            try:
                rows.append(tuple(map(int, toks)))
            except ValueError as exc:
                if line.isspace():
                    continue
                raise GraphFormatError(f"{path.name}:{lineno}: non-integer token") from exc
    return rows


def load_tudataset(directory, dataset_name: str) -> List[Tuple[LabeledGraph, int]]:
    """Load a dataset in the TU Dortmund text format.

    Expects ``<name>_A.txt`` (comma-separated 1-indexed arcs, one line per
    directed arc; a non-loop arc must be listed as often as its reverse,
    each such pair is one undirected edge, and a loop is listed once),
    ``<name>_graph_indicator.txt`` and ``<name>_graph_labels.txt``;
    ``<name>_node_labels.txt`` is optional (uniform label 1 when absent).
    Node labels are shifted by +1 when the raw minimum is 0.
    """
    directory = Path(directory)
    paths = {
        "A": directory / f"{dataset_name}_A.txt",
        "indicator": directory / f"{dataset_name}_graph_indicator.txt",
        "graph_labels": directory / f"{dataset_name}_graph_labels.txt",
    }
    for kind, p in paths.items():
        if not p.is_file():
            raise GraphFormatError(f"missing mandatory file: {p}")

    indicator = [row[0] for row in _read_int_lines(paths["indicator"], 1)]
    if not indicator:
        raise GraphFormatError(f"{paths['indicator'].name}: empty graph indicator")
    graph_classes = [row[0] for row in _read_int_lines(paths["graph_labels"], 1)]

    graph_ids = sorted(set(indicator))
    if len(graph_classes) != len(graph_ids):
        raise GraphFormatError(
            f"{paths['graph_labels'].name}: {len(graph_classes)} classes for {len(graph_ids)} graphs"
        )
    gindex = {gid: i for i, gid in enumerate(graph_ids)}

    node_labels_path = directory / f"{dataset_name}_node_labels.txt"
    if node_labels_path.is_file():
        raw = [row[0] for row in _read_int_lines(node_labels_path, 1)]
        if len(raw) != len(indicator):
            raise GraphFormatError(
                f"{node_labels_path.name}: {len(raw)} labels for {len(indicator)} vertices"
            )
        if min(raw) == 0:
            raw = [l + 1 for l in raw]
        node_labels = raw
    else:
        node_labels = [1] * len(indicator)

    # Per-graph local vertex numbering, in global-index order; a vertex's
    # local number is the count of its graph's labels so far.
    local: List[int] = []
    vertex_graph: List[int] = []
    graph_vertex_labels: List[List[int]] = [[] for _ in graph_ids]
    for v, gid in enumerate(indicator):
        gi = gindex[gid]
        labels = graph_vertex_labels[gi]
        local.append(len(labels))
        labels.append(node_labels[v])
        vertex_graph.append(gi)

    arc_counts: List[Dict[Tuple[int, int], int]] = [{} for _ in graph_ids]
    # Arcs listed more often than their reverse so far, by (low, high) global
    # vertex pair: +1 per low-to-high arc, -1 per high-to-low arc. Pairs drop
    # out when they balance, so this stays small when reverse arcs are listed
    # close together.
    skew: Dict[Tuple[int, int], int] = {}
    a_name = paths["A"].name
    num_vertices = len(indicator)
    with paths["A"].open() as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split(",")
            if len(toks) != 2:
                if line.isspace():
                    continue
                raise GraphFormatError(f"{a_name}:{lineno}: expected 2 values")
            try:
                u, v = int(toks[0]) - 1, int(toks[1]) - 1
            except ValueError as exc:
                raise GraphFormatError(f"{a_name}:{lineno}: non-integer token") from exc
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise GraphFormatError(f"{a_name}:{lineno}: vertex index out of range")
            gi = vertex_graph[u]
            if gi != vertex_graph[v]:
                raise GraphFormatError(f"{a_name}:{lineno}: edge crosses graph boundary")
            lu, lv = local[u], local[v]
            arc = (lu, lv) if lu <= lv else (lv, lu)
            arcs = arc_counts[gi]
            arcs[arc] = arcs.get(arc, 0) + 1
            if u != v:
                pair, step = ((u, v), 1) if u < v else ((v, u), -1)
                balance = skew.pop(pair, 0) + step
                if balance:
                    skew[pair] = balance
    if skew:
        (a, b), balance = next(iter(skew.items()))
        total = arc_counts[vertex_graph[a]][(local[a], local[b])]
        raise GraphFormatError(
            f"{a_name}: arc {a + 1}, {b + 1} listed {(total + balance) // 2} times "
            f"but arc {b + 1}, {a + 1} {(total - balance) // 2} times"
        )

    out: List[Tuple[LabeledGraph, int]] = []
    for gi, arcs in enumerate(arc_counts):
        edges: List[Tuple[int, int]] = []
        for (a, b), c in arcs.items():
            # Non-loop edges appear once per direction; loops once per loop.
            edges.extend([(a, b)] * (c // 2 if a != b else c))
        labels = graph_vertex_labels[gi]
        try:
            out.append((LabeledGraph(len(labels), tuple(edges), tuple(labels)), graph_classes[gi]))
        except ValueError as exc:
            raise GraphFormatError(f"graph {graph_ids[gi]}: {exc}") from exc
    return out

"""Reference computations and output checks, independent of nodeparse.

Nothing here imports the program. A graph is a plain ``(n, labels, edges)``
triple as the benchmark generated it, and every expected value is computed
again from it: components by graph search, the (m1, m2) counters and the
same-component bits by a plain-integer replay of the realized edge order,
y values by the pairing arithmetic written out again, and isomorphism by
backtracking. Each ``check_*`` function returns a list of error strings,
empty when the output passes.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]


# ---------------------------------------------------------------- graphs


def norm(a: int, b: int) -> Edge:
    return (a, b) if a <= b else (b, a)


def components(n: int, edges: Sequence[Edge]) -> List[List[int]]:
    """Connected components by breadth-first search."""
    adj: List[List[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp, frontier = [s], [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        nxt.append(w)
            frontier = nxt
        out.append(comp)
    return out


def order_count(edges: Sequence[Edge]) -> int:
    """Distinct oriented edge sequences: m!/prod(mult!) orders times two
    orientations per non-loop edge."""
    count = math.factorial(len(edges))
    for mult in Counter(norm(a, b) for a, b in edges).values():
        count //= math.factorial(mult)
    return count * 2 ** sum(1 for a, b in edges if a != b)


def permute(graph, perm: Sequence[int]):
    """Old vertex v becomes perm[v]."""
    n, labels, edges = graph
    new_labels = [0] * n
    for v, lab in enumerate(labels):
        new_labels[perm[v]] = lab
    return n, new_labels, [norm(perm[a], perm[b]) for a, b in edges]


def isomorphic(g, h) -> bool:
    """Brute-force isomorphism of labeled multigraphs by backtracking over
    maps that keep (label, degree, loops) profiles."""
    (n, lg, eg), (nh, lh, eh) = g, h
    if n != nh or len(eg) != len(eh):
        return False

    def profile(labels, edges):
        deg, loops = [0] * n, [0] * n
        mult: Counter = Counter()
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
            if a == b:
                loops[a] += 1
            mult[norm(a, b)] += 1
        return [(labels[v], deg[v], loops[v]) for v in range(n)], mult

    pg, mg = profile(lg, eg)
    ph, mh = profile(lh, eh)
    if sorted(pg) != sorted(ph):
        return False
    freq = Counter(pg)
    order = sorted(range(n), key=lambda v: (freq[pg[v]], v))
    image: Dict[int, int] = {}
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used[w] or ph[w] != pg[v]:
                continue
            if all(mg[norm(v, u)] == mh[norm(w, image[u])] for u in order[:i]):
                image[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                del image[v]
                used[w] = False
        return False

    return extend(0)


# ---------------------------------------------------------------- pairing


def cantor(i: int, j: int) -> int:
    s = i + j
    return s * (s + 1) // 2 + j


def combine(t1: Sequence[int], t2: Sequence[int], b: int) -> int:
    """The 9-ary combiner on two (y, h, m1, m2) tuples and a bit."""
    x1 = cantor(cantor(cantor(t1[0], t1[1]), t1[2]), t1[3])
    x2 = cantor(cantor(cantor(t2[0], t2[1]), t2[2]), t2[3])
    return cantor(cantor(x1 + x2, x1 * x2), b)


# ---------------------------------------------------------------- replay


class Replay:
    """Plain-integer replay of one oriented edge order (the npa rule).

    ``w`` lists the (m1, m2) counters of all n+m encodings in production
    order and ``bits`` the same-component bit of each merge. With
    ``with_y`` the y values are computed too (small graphs only).
    """

    def __init__(self, n: int, labels: Sequence[int], oriented: Sequence[Edge],
                 with_y: bool = False):
        parent = list(range(n))
        size = [1] * n
        counters = {v: (0, labels[v] + 1) for v in range(n)}
        self.w: List[Tuple[int, int]] = [counters[v] for v in range(n)]
        self.bits: List[int] = []
        h = list(labels)
        comp = list(range(n))
        ys = {v: 0 for v in range(n)}
        self.y: List[int] = [0] * n

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for va, vb in oriented:
            r1, r2 = find(va), find(vb)
            b = 1 if r1 == r2 else 0
            m11, m21 = counters[r1]
            m12, m22 = counters[r2]
            m1, m2 = m21 + m22 + 1, 2 * m21 + 2 * m22 + 2
            if with_y:
                c1, c2 = comp[va], comp[vb]
                t1 = (ys[c1], h[va] + m1, m11, m21)
                t2 = (ys[c2], h[vb] + (m1 if b else 0), m12, m22)
                y = combine(t1, t2, b)
                for v in range(n):
                    if comp[v] == c1:
                        h[v] += m1
                if not b:
                    for v in range(n):
                        if comp[v] == c2:
                            comp[v] = c1
                ys[c1] = y
                self.y.append(y)
            root = r1
            if not b:
                root, other = (r1, r2) if size[r1] >= size[r2] else (r2, r1)
                parent[other] = root
                size[root] += size[other]
            counters[root] = (m1, m2)
            self.w.append((m1, m2))
            self.bits.append(b)


def h_updates(n: int, oriented: Sequence[Edge]) -> int:
    """h-values shifted by a run of this order: the size of the first
    endpoint's component at each merge."""
    parent = list(range(n))
    size = [1] * n
    total = 0
    for va, vb in oriented:
        r1, r2 = va, vb
        while parent[r1] != r1:
            r1 = parent[r1]
        while parent[r2] != r2:
            r2 = parent[r2]
        total += size[r1]
        if r1 != r2:
            if size[r1] < size[r2]:
                r1, r2 = r2, r1
            parent[r2] = r1
            size[r1] += size[r2]
    return total


# ---------------------------------------------------------------- output text


class RunText:
    """The parts of an ``encode`` output (serialize_run form).

    Lines are located with str.find, so the W terms, which can be megabytes
    long, are not copied: only their trailing counters are read.
    """

    def __init__(self, text: str, keep_terms: bool = False):
        self.levels: Optional[int] = None
        self.edges: List[Tuple[int, int, int, int]] = []  # step, va, vb, b
        self.w: List[Tuple[int, int]] = []
        self.w_terms: List[str] = []
        self.c: List[str] = []
        self.other: List[str] = []
        pos, size = 0, len(text)
        while pos < size:
            end = text.find("\n", pos)
            if end < 0:
                end = size
            if text.startswith("W (", pos):
                j = text.rfind(",", pos, end)
                i = text.rfind(",", pos, j)
                self.w.append((int(text[i + 1:j]), int(text[j + 1:end - 1])))
                if keep_terms:
                    self.w_terms.append(text[pos + 3:i])
            elif text.startswith("C ", pos):
                self.c.append(text[pos + 2:end])
            elif text.startswith("edge ", pos):
                _, step, pair, bit = text[pos:end].split(" ")
                va, vb = pair.split("-")
                self.edges.append((int(step), int(va), int(vb), int(bit[2:])))
            elif text.startswith("levels ", pos):
                self.levels = int(text[pos + 7:end])
            else:
                self.other.append(text[pos:end])
            pos = end + 1

    @property
    def order(self) -> List[Edge]:
        return [(va, vb) for _, va, vb, _ in self.edges]


def check_encoding(graph, out: RunText) -> List[str]:
    """Properties every encoding run of ``graph`` must have."""
    n, labels, edges = graph
    m = len(edges)
    errors = []
    if [e[0] for e in out.edges] != list(range(1, m + 1)):
        errors.append(f"edge steps are not 1..{m}")
    order = out.order
    if Counter(norm(a, b) for a, b in order) != Counter(norm(a, b) for a, b in edges):
        errors.append("realized edge order does not cover the input's edge multiset")
        return errors
    if len(out.w) != n + m:
        errors.append(f"W has {len(out.w)} entries, expected n+m={n + m}")
    comps = components(n, edges)
    if len(out.c) != len(comps):
        errors.append(f"C has {len(out.c)} entries, expected {len(comps)} components")
    ref = Replay(n, labels, order)
    if [e[3] for e in out.edges] != ref.bits:
        errors.append("same-component bits differ from the replay")
    for k, (got, want) in enumerate(zip(out.w, ref.w)):
        if got != want:
            errors.append(f"W[{k}] counters (m1, m2)={got}, replay gives {want}")
            break
    low = math.ceil(math.log2(max(len(c) for c in comps)))
    if out.levels is None or not low <= out.levels <= m:
        errors.append(f"levels {out.levels} outside [{low}, {m}]")
    return errors


def check_report(graph, report) -> List[str]:
    """Bounds on one redundancy report (levels, log10 edge orders, log10
    orientation factor) that the method guarantees."""
    n, _, edges = graph
    m = len(edges)
    log_orders, log_orient, levels = report
    errors = []
    low = math.ceil(math.log2(max(len(c) for c in components(n, edges))))
    if not low <= levels <= m:
        errors.append(f"report levels {levels} outside [{low}, {m}]")
    if not -1e-9 <= log_orders <= math.lgamma(m + 1) / math.log(10) + 1e-9:
        errors.append(f"log10 edge orders {log_orders} outside [0, log10 {m}!]")
    p = log_orient / math.log10(2.0)
    if abs(p - round(p)) > 1e-6 or not 0 <= round(p) <= m:
        errors.append(f"orientation factor {log_orient} is not p*log10(2), 0<=p<={m}")
    return errors


def parse_term(text: str, pos: int = 0):
    """Parse one serialized y term; returns (tree, end) where a tree is a
    label int for a leaf or (b, (child, h, m1, m2), (child, h, m1, m2))."""
    if text.startswith("L(", pos):
        end = text.index(")", pos)
        return int(text[pos + 2:end]), end + 1
    if not text.startswith("M(b=", pos):
        raise ValueError(f"bad term at {pos}")
    b = int(text[pos + 4])
    pos += 7  # past "M(b=<bit>; "
    sides = []
    for sep in (", ", ")"):
        if text[pos] != "(":
            raise ValueError(f"bad child at {pos}")
        child, pos = parse_term(text, pos + 1)
        nums = []
        for _ in range(3):
            end = min(i for i in (text.find(",", pos + 1), text.find(")", pos + 1)) if i >= 0)
            nums.append(int(text[pos + 1:end]))
            pos = end
        sides.append((child, *nums))
        pos += 1  # past the child's ")"
        if not text.startswith(sep, pos):
            raise ValueError(f"expected {sep!r} at {pos}")
        pos += len(sep)
    return (b, sides[0], sides[1]), pos


def term_value(tree, memo: Dict[tuple, int]) -> int:
    """Numeric y of a parsed term, by the pairing arithmetic above; ``memo``
    is keyed by subtree, so a subterm repeated anywhere is evaluated once."""
    if isinstance(tree, int):
        return 0
    if tree not in memo:
        b, (c1, h1, a1, z1), (c2, h2, a2, z2) = tree
        memo[tree] = combine(
            (term_value(c1, memo), h1, a1, z1), (term_value(c2, memo), h2, a2, z2), b
        )
    return memo[tree]


def check_numeric(graph, out: RunText) -> List[str]:
    """Every W term's y against a replay of the realized order, and the
    CLI's own numeric-check line."""
    n, labels, edges = graph
    errors = check_encoding(graph, out)
    if errors:
        return errors
    ref = Replay(n, labels, out.order, with_y=True)
    memo: Dict[tuple, int] = {}
    for k, term in enumerate(out.w_terms):
        tree, end = parse_term(term)
        if end != len(term):
            errors.append(f"W[{k}] term has trailing text")
        elif term_value(tree, memo) != ref.y[k]:
            errors.append(f"W[{k}] y differs from the replay")
            break
    total = n + len(edges)
    ok_line = f"numeric-check ok ({total}/{total} encodings verified)"
    if ok_line not in out.other:
        errors.append(f"CLI numeric-check line is not {ok_line!r}")
    return errors

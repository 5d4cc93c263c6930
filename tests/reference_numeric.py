"""Independent plain-integer reference for the encoding pipeline.

Deliberately naive: no union-find, no interned terms, no sharing. Components
are tracked by per-vertex ids with linear scans, and every value is a raw
Python integer. This is the oracle the term machinery is checked against, so
it must not import anything from the package's engine.
"""

from typing import List, Sequence, Tuple


def tau(i: int, j: int) -> int:
    return (i + j) * (i + j + 1) // 2 + j


def tau4(a: int, b: int, c: int, d: int) -> int:
    return tau(tau(tau(a, b), c), d)


def rho(i: int, j: int) -> Tuple[int, int]:
    return (i + j, i * j)


def combine(t1: Sequence[int], t2: Sequence[int], b: int) -> int:
    s, p = rho(tau4(*t1), tau4(*t2))
    return tau(tau(s, p), b)


def reference_run(
    num_vertices: int,
    labels: Sequence[int],
    oriented_edges: Sequence[Tuple[int, int]],
    variant: str = "npa",
    combine_fn=combine,
):
    """Replay a fixed oriented edge order; returns (w, c, h) with plain-int
    (y, m1, m2) triples. y-values gain a factor of about 64 in bit length
    per merge depth; a caller that needs only h and the counters past a few
    edges passes a ``combine_fn`` that returns a constant."""
    comp = list(range(num_vertices))
    h = list(labels)
    enc = {v: (0, 0, labels[v] + 1) for v in range(num_vertices)}
    w: List[Tuple[int, int, int]] = [enc[v] for v in range(num_vertices)]
    for va, vb in oriented_edges:
        c1, c2 = comp[va], comp[vb]
        b = 1 if c1 == c2 else 0
        y1, m11, m21 = enc[c1]
        y2, m12, m22 = enc[c2]
        m1_new = m21 + m22 + 1
        m2_new = 2 * m21 + 2 * m22 + 2
        if variant == "npa":
            # child tuples carry the endpoints' post-merge h-values
            ha = h[va] + m1_new
            hb = h[vb] + (m1_new if b else 0)
            y = combine_fn((y1, ha, m11, m21), (y2, hb, m12, m22), b)
        else:
            y = combine_fn((y1, 0, m11, m21), (y2, 0, m12, m22), 0)
        if variant == "npa":
            for v in range(num_vertices):
                if comp[v] == c1:
                    h[v] += m1_new
        if b == 0:
            for v in range(num_vertices):
                if comp[v] == c2:
                    comp[v] = c1
            del enc[c2]
        enc[c1] = (y, m1_new, m2_new)
        w.append(enc[c1])
    c = sorted(enc[cid] for cid in set(comp))
    return w, c, h

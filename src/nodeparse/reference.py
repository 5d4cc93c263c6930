"""Plain-integer replay of one edge parse, the reference that
``encode --numeric-check`` and the tests check the engine against.

Naive on purpose: components are per-vertex ids, h is shifted member by
member, and every value is a raw Python integer. It imports no other
nodeparse module, so it shares no code with the engine or the ``Components``
potentials it cross-checks.
"""

from typing import List, Optional, Sequence, Tuple


def reference_run(
    num_vertices: int,
    labels: Sequence[int],
    oriented_edges: Sequence[Tuple[int, int]],
    variant: str,
    combine_fn,
):
    """Replay a fixed oriented edge order; returns (w, c, h) with plain-int
    (y, m1, m2) triples, c in component order. Each merge's y is
    ``combine_fn(t1, t2, b)`` on the children's (y, h, m1, m2) tuples. Exact
    y-values gain about x64 in bit length per merge depth, so a caller that
    needs only h and the counters passes a combine_fn returning a constant."""
    comp = list(range(num_vertices))
    h = list(labels)
    enc = {v: (0, 0, labels[v] + 1) for v in range(num_vertices)}  # by component id
    w: List[Tuple[Optional[int], int, int]] = list(enc.values())
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
            h = [hv + m1_new if comp[v] == c1 else hv for v, hv in enumerate(h)]
        else:
            y = combine_fn((y1, 0, m11, m21), (y2, 0, m12, m22), 0)
        if b == 0:
            comp = [c1 if c == c2 else c for c in comp]
            del enc[c2]
        enc[c1] = (y, m1_new, m2_new)
        w.append(enc[c1])
    # enc holds the live components in id order; a budgeted y may be None, so no sort
    return w, list(enc.values()), h

"""Exact injective pairing arithmetic and the interned term form of encodings.

The numeric side: a Cantor pair, a symmetric pair, and a 9-ary combiner that
is injective on (unordered pair of 4-tuples) x {0,1}. The term side mirrors
those functions symbolically, because the combiner multiplies bit-lengths by
a large constant per merge and raw naturals stop being practical after a
handful of edges. Injectivity of the numeric functions makes canonical term
equality and numeric equality interchangeable; the auxiliary counters stay
numeric because they only grow linearly in bit-length.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

# Bit-lengths of y-values gain a factor of up to 64 per merge depth; the worst
# four-edge encodings (all-parallel or all-loop chains) reach about 2^25.3
# bits, so this default keeps every four-edge graph evaluable with margin.
DEFAULT_BIT_BUDGET = 1 << 26


def cantor_pair(i: int, j: int) -> int:
    """(i+j)(i+j+1)/2 + j; injective on pairs of naturals."""
    s = i + j
    # s * s takes CPython's squaring path, which s * (s + 1) does not
    return ((s * s + s) >> 1) + j


def sym_pair(i: int, j: int) -> Tuple[int, int]:
    """(i+j, i*j); symmetric, injective on unordered pairs of naturals."""
    return (i + j, i * j)


def tuple4_pair(
    a: Optional[int], b: int, c: int, d: int, bit_budget: int = DEFAULT_BIT_BUDGET
) -> Optional[int]:
    """Left-nested 4-tuple Cantor pairing, or None past ``bit_budget`` bits."""
    for x in (b, c, d):
        a = _cantor_within(a, x, bit_budget)
    return a


def _cantor_within(i: Optional[int], j: int, bit_budget: int) -> Optional[int]:
    # s(s+1)/2 has at least 2*len(s) - 2 bits: refuse before squaring a sum
    # that is sure to overflow, so no value wider than bit_budget + 2 is built.
    if i is None or 2 * (i + j).bit_length() - 2 > bit_budget:
        return None
    value = cantor_pair(i, j)
    return value if value.bit_length() <= bit_budget else None


def r_combine(
    y1: Optional[int], h1: int, m1: int, n1: int,
    y2: Optional[int], h2: int, m2: int, n2: int,
    b: int,
    bit_budget: int = DEFAULT_BIT_BUDGET,
) -> Optional[int]:
    """Combine two 4-tuples and an indicator bit into one natural, or None
    when that natural has more than ``bit_budget`` bits.

    Injective in ({N^4, N^4} unordered) x {0,1}; invariant under swapping the
    two 4-tuples because the inner pair is symmetric. Every intermediate is at
    most the result, so refusing on an intermediate is exact, and a y of None
    (a refused child) gives None. Each Cantor square and the product is
    refused from a lower bound on its bit length before it is computed, so
    nothing wider than bit_budget + 2 bits is built.
    """
    t1 = tuple4_pair(y1, h1, m1, n1, bit_budget)
    t2 = tuple4_pair(y2, h2, m2, n2, bit_budget)
    # a product of L1- and L2-bit factors has at least L1 + L2 - 1 bits
    if t1 is None or t2 is None or t1.bit_length() + t2.bit_length() - 1 > bit_budget:
        return None
    s, p = sym_pair(t1, t2)
    return _cantor_within(_cantor_within(s, p, bit_budget), b, bit_budget)


class EncodingTerm:
    """Interned construction term.

    A term holds only its structure and equals and hashes only as itself.
    Within one interner that is structural equality, because the interner
    builds each structure once; terms from different interners compare
    through canonical keys built per call (:func:`serialize_encoding`).
    """

    __slots__ = ()


class LeafTerm(EncodingTerm):
    """Single-vertex encoding; implicit (y, m1, m2) = (0, 0, label + 1)."""

    __slots__ = ("label",)

    def __init__(self, label: int):
        self.label = label

    def __repr__(self) -> str:
        return f"LeafTerm({self.label})"


class Child(NamedTuple):
    """One side of a merge: the child's y-term plus its numeric companions."""

    y: EncodingTerm
    h: int
    m1: int
    m2: int


class MergeTerm(EncodingTerm):
    """Edge-merge encoding over an unordered pair of child tuples.

    The pair is stored sorted by the total term order, so structurally equal
    merges intern to the same object regardless of argument order.
    """

    __slots__ = ("left", "right", "b")

    def __init__(self, left: Child, right: Child, b: int):
        self.left = left
        self.right = right
        self.b = b

    def __repr__(self) -> str:
        return f"MergeTerm(b={self.b}, {self.left!r}, {self.right!r})"


def _child_items(a: Child, b: Child):
    yield ("t", a.y, b.y)
    yield ("i", a.h, b.h)
    yield ("i", a.m1, b.m1)
    yield ("i", a.m2, b.m2)


def term_compare(a: EncodingTerm, b: EncodingTerm) -> int:
    """Strict total order: leaves before merges, then structural lexicographic.

    Leaves compare by label; merges by (smaller child, larger child, b) with
    child tuples compared by (y, h, m1, m2). Iterative so deep chains cannot
    hit the recursion limit.
    """
    stack = [("t", a, b)]
    while stack:
        kind, x, y = stack.pop()
        if kind == "i":
            if x != y:
                return -1 if x < y else 1
            continue
        if x is y:
            continue
        x_leaf = isinstance(x, LeafTerm)
        y_leaf = isinstance(y, LeafTerm)
        if x_leaf and y_leaf:
            if x.label != y.label:
                return -1 if x.label < y.label else 1
            continue
        if x_leaf != y_leaf:
            return -1 if x_leaf else 1
        items = list(_child_items(x.left, y.left)) + list(
            _child_items(x.right, y.right)
        ) + [("i", x.b, y.b)]
        stack.extend(reversed(items))
    return 0


def fold_term(term: EncodingTerm, leaf, merge, memo: dict):
    """Value of ``term`` from ``leaf(node)`` at leaves and ``merge(node,
    left value, right value)`` at merges, in one iterative post-order over
    the term DAG. ``memo`` (term -> value) belongs to the caller, who may
    share it across calls over terms of one interner; it keeps the walk
    linear in distinct terms."""
    stack = [term]
    while stack:
        node = stack.pop()
        if node in memo:
            continue
        if isinstance(node, LeafTerm):
            memo[node] = leaf(node)
        elif node.left.y in memo and node.right.y in memo:
            memo[node] = merge(node, memo[node.left.y], memo[node.right.y])
        else:  # revisit the node once its children are folded
            stack += (node, node.left.y, node.right.y)
    return memo[term]


def _merge_key(node: MergeTerm, left: str, right: str) -> str:
    l, r = node.left, node.right
    return f"M(b={node.b}; ({left},{l.h},{l.m1},{l.m2}), ({right},{r.h},{r.m1},{r.m2}))"


def term_key(term: EncodingTerm, memo: Dict[EncodingTerm, str]) -> str:
    """:func:`serialize_term`, sharing ``memo`` as :func:`fold_term` does."""
    return fold_term(term, lambda leaf: f"L({leaf.label})", _merge_key, memo)


def serialize_term(term: EncodingTerm) -> str:
    """Canonical text form: ``L(<label>)`` / ``M(b=..; (y,h,m1,m2), (y,h,m1,m2))``.

    Children appear in canonical order, so the string is a faithful key for
    cross-process comparison.
    """
    return term_key(term, {})


class CEncoding(NamedTuple):
    """Component encoding: symbolic y plus numeric m1/m2 counters.

    m1 = 0 exactly for edge-free (single-vertex) encodings, which is what lets
    a merge be deconstructed unambiguously; m2 always exceeds every h-value of
    the component it encodes.
    """

    y: EncodingTerm
    m1: int
    m2: int


def encoding_compare(a: CEncoding, b: CEncoding) -> int:
    """Strict total order on encodings of one interner: :func:`term_compare`
    on y, then m1, then m2. It orders W entries for the least-W search."""
    cmp = term_compare(a.y, b.y)
    if cmp or a[1:] == b[1:]:
        return cmp
    return -1 if a[1:] < b[1:] else 1


def encoding_key(enc: CEncoding, memo: Dict[EncodingTerm, str]) -> str:
    """:func:`serialize_encoding`, sharing ``memo`` as :func:`fold_term` does."""
    return f"({term_key(enc.y, memo)},{enc.m1},{enc.m2})"


def serialize_encoding(enc: CEncoding) -> str:
    return encoding_key(enc, {})


class TermInterner:
    """Hash-consing table; confine one interner to one execution context.

    Structurally equal terms built through the same interner are the same
    object, so term equality is identity and costs O(1). Terms of different
    interners never compare equal; compare them through the canonical
    serialization instead. The interner caches no text: keys are memoized
    per call (:func:`term_key`), not per term.
    """

    def __init__(self) -> None:
        self._table: Dict[tuple, EncodingTerm] = {}

    def leaf(self, label: int) -> LeafTerm:
        if label < 1:
            raise ValueError(f"leaf label must be >= 1, got {label}")
        key = ("L", label)
        term = self._table.get(key)
        if term is None:
            term = LeafTerm(label)
            self._table[key] = term
        return term

    def merge(self, c1: Child, c2: Child, b: int) -> MergeTerm:
        if b not in (0, 1):
            raise ValueError(f"indicator must be 0 or 1, got {b}")
        cmp = term_compare(c1.y, c2.y)
        if cmp > 0 or (cmp == 0 and c1[1:] > c2[1:]):  # then by (h, m1, m2)
            c1, c2 = c2, c1
        key = ("M", b, c1, c2)
        term = self._table.get(key)
        if term is None:
            term = MergeTerm(c1, c2, b)
            self._table[key] = term
        return term

    def __len__(self) -> int:
        return len(self._table)


def eval_term_numeric(
    term: EncodingTerm, bit_budget: int = DEFAULT_BIT_BUDGET
) -> Optional[int]:
    """Exact natural-number value of a y-term, or None when it has more than
    ``bit_budget`` bits.

    The refusal is a distinguishable outcome, not an error: y-values gain
    roughly a x64 bit-length factor per merge depth, so deep terms are
    legitimately unevaluable and the caller decides what that means. A
    negative budget raises ValueError.
    """
    if bit_budget < 0:
        raise ValueError("bit_budget must be >= 0")

    def merge(node: MergeTerm, left: Optional[int], right: Optional[int]) -> Optional[int]:
        l, r = node.left, node.right
        return r_combine(left, l.h, l.m1, l.m2, right, r.h, r.m1, r.m2, node.b, bit_budget)

    return fold_term(term, lambda node: 0, merge, {})

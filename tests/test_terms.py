import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodeparse.terms import (
    Child,
    TermInterner,
    cantor_pair,
    eval_term_numeric,
    fold_term,
    r_combine,
    serialize_encoding,
    serialize_term,
    sym_pair,
    term_compare,
    tuple4_pair,
    CEncoding,
)

import reference_numeric as ref
from helpers import widest_pairing_value

naturals = st.integers(min_value=0, max_value=10**6)


def cantor_unpair(z):
    w = (math.isqrt(8 * z + 1) - 1) // 2
    t = w * (w + 1) // 2
    j = z - t
    return w - j, j


@pytest.mark.parametrize("i,j,want", [(0, 0, 0), (1, 0, 1), (0, 1, 2), (1, 2, 8), (2, 1, 7)])
def test_cantor_pair_examples(i, j, want):
    assert cantor_pair(i, j) == want


@given(naturals, naturals)
def test_cantor_pair_invertible(i, j):
    assert cantor_unpair(cantor_pair(i, j)) == (i, j)


bignums = st.integers(min_value=0, max_value=1 << 20000)


@given(bignums, bignums)
def test_cantor_pair_equals_reference_on_bignums(i, j):
    assert cantor_pair(i, j) == ref.tau(i, j)


@given(naturals, naturals)
def test_sym_pair_symmetric_and_injective(i, j):
    assert sym_pair(i, j) == sym_pair(j, i) == (i + j, i * j)
    s, p = sym_pair(i, j)
    # recoverable as the roots of x^2 - s x + p
    disc = s * s - 4 * p
    root = math.isqrt(disc)
    assert root * root == disc
    assert {(s - root) // 2, (s + root) // 2} == {i, j}


@pytest.mark.parametrize("i,j,want", [(2, 3, (5, 6)), (0, 0, (0, 0)), (17, 174, (191, 2958))])
def test_sym_pair_examples(i, j, want):
    assert sym_pair(i, j) == want


def test_tuple4_pair_intermediates():
    assert tuple4_pair(0, 1, 0, 2) == 17
    assert tuple4_pair(0, 2, 0, 3) == 174


def test_r_combine_against_reference():
    # frozen intermediates: tau(rho(17, 174)) = tau(191, 2958) = 4,962,633
    assert cantor_pair(191, 2958) == 4962633
    want = ref.combine((0, 1, 0, 2), (0, 2, 0, 3), 0)
    assert want == ref.tau(4962633, 0)
    assert r_combine(0, 1, 0, 2, 0, 2, 0, 3, 0) == want


@given(naturals, naturals, naturals, naturals, st.integers(0, 1))
@settings(max_examples=50)
def test_r_combine_swap_invariant(a, b, c, d, bit):
    left = (a, b, c, d)
    right = (d, c, b, a)
    assert (
        r_combine(*left, *right, bit)
        == r_combine(*right, *left, bit)
        == ref.combine(left, right, bit)
    )


def test_interning_shares_identity():
    it = TermInterner()
    assert it.leaf(3) is it.leaf(3)
    l1, l2 = it.leaf(1), it.leaf(2)
    c1 = Child(l1, 1, 0, 2)
    c2 = Child(l2, 2, 0, 3)
    m = it.merge(c1, c2, 0)
    assert it.merge(c2, c1, 0) is m  # canonical pair order
    assert it.merge(c1, c2, 1) is not m
    assert len(it) == 5  # leaf(3), leaf(1), leaf(2), and the two merges


def test_leaf_label_validation():
    with pytest.raises(ValueError):
        TermInterner().leaf(0)


def test_term_order():
    it = TermInterner()
    l1, l2 = it.leaf(1), it.leaf(2)
    assert term_compare(l1, l2) < 0
    assert term_compare(l2, l1) > 0
    assert term_compare(l1, l1) == 0
    m = it.merge(Child(l1, 1, 0, 2), Child(l2, 2, 0, 3), 0)
    assert term_compare(l2, m) < 0  # leaves before merges
    assert term_compare(m, m) == 0
    m_b1 = it.merge(Child(l1, 1, 0, 2), Child(l2, 2, 0, 3), 1)
    assert term_compare(m, m_b1) < 0


def test_cross_interner_structural_equality():
    # a term equals only itself; across interners the canonical key decides
    a = TermInterner()
    b = TermInterner()
    ma = a.merge(Child(a.leaf(1), 1, 0, 2), Child(a.leaf(2), 2, 0, 3), 0)
    mb = b.merge(Child(b.leaf(2), 2, 0, 3), Child(b.leaf(1), 1, 0, 2), 0)
    assert ma != mb
    assert serialize_term(ma) == serialize_term(mb)
    assert term_compare(ma, mb) == 0


def test_serialization_golden():
    it = TermInterner()
    assert serialize_term(it.leaf(7)) == "L(7)"
    m = it.merge(Child(it.leaf(2), 2, 0, 3), Child(it.leaf(1), 1, 0, 2), 0)
    assert serialize_term(m) == "M(b=0; (L(1),1,0,2), (L(2),2,0,3))"
    assert serialize_encoding(CEncoding(m, 6, 12)) == "(M(b=0; (L(1),1,0,2), (L(2),2,0,3)),6,12)"


def test_eval_examples():
    it = TermInterner()
    assert eval_term_numeric(it.leaf(3)) == 0
    m = it.merge(Child(it.leaf(1), 1, 0, 2), Child(it.leaf(2), 2, 0, 3), 0)
    assert eval_term_numeric(m) == ref.combine((0, 1, 0, 2), (0, 2, 0, 3), 0)


def test_eval_budget_refusal():
    it = TermInterner()
    m = it.merge(Child(it.leaf(1), 1, 0, 2), Child(it.leaf(2), 2, 0, 3), 0)
    assert eval_term_numeric(m, bit_budget=16) is None
    # merges on top of a refused child refuse too
    deep = it.merge(Child(m, 7, 6, 12), Child(it.leaf(1), 1, 0, 2), 0)
    assert eval_term_numeric(deep, bit_budget=16) is None
    assert eval_term_numeric(deep) is not None


def test_eval_refuses_negative_budget():
    # a leaf is 0 at any budget, so a negative budget could not keep the rule
    # "None exactly when the value has more than bit_budget bits"
    it = TermInterner()
    with pytest.raises(ValueError, match="bit_budget"):
        eval_term_numeric(it.leaf(1), bit_budget=-5)
    assert eval_term_numeric(it.leaf(1), bit_budget=0) == 0


def _doubling(interner, depth):
    # each merge takes the previous term in both slots: depth + 1 distinct
    # terms whose tree form has 2^depth leaves
    y = interner.leaf(1)
    for level in range(depth):
        y = interner.merge(Child(y, 0, level, 2), Child(y, 0, level, 2), 1)
    return y


def test_fold_visits_each_distinct_term_once():
    it = TermInterner()
    top = _doubling(it, 64)
    calls = []
    memo = {}
    depth = fold_term(top, lambda leaf: 0, lambda node, l, r: calls.append(node) or l + 1, memo)
    assert depth == 64 and len(calls) == 64 and len(memo) == 65
    # a caller-owned memo serves later calls without folding anything again
    refold = lambda *_: pytest.fail("a memoized term was folded again")  # noqa: E731
    assert fold_term(top.left.y, refold, refold, memo) == 63
    assert eval_term_numeric(top, bit_budget=1 << 12) is None


def test_terms_carry_no_key_cache():
    # serializing stores no text on any term: every slot holds structure
    it = TermInterner()
    m = it.merge(Child(it.leaf(2), 2, 0, 3), Child(it.leaf(1), 1, 0, 2), 0)
    serialize_encoding(CEncoding(m, 6, 12))
    for term in (m, m.left.y, m.right.y):
        slots = [s for cls in type(term).__mro__ for s in getattr(cls, "__slots__", ())]
        assert slots and not any(isinstance(getattr(term, s), str) for s in slots)


@given(
    st.lists(st.integers(0, 1000), min_size=8, max_size=8),
    st.integers(0, 1),
    st.integers(0, 600),
)
@settings(max_examples=300)
def test_r_combine_refuses_exactly_past_the_budget(parts, bit, budget):
    want = ref.combine(parts[:4], parts[4:], bit)
    for limit in (budget, want.bit_length(), want.bit_length() - 1):
        with widest_pairing_value() as widest:
            got = r_combine(*parts, bit, bit_budget=limit)
        assert got == (want if want.bit_length() <= limit else None)
        assert widest[0] <= limit + 2


def _chain(interner, depth):
    a = CEncoding(interner.leaf(1), 0, 2)
    b = CEncoding(interner.leaf(2), 0, 3)
    for _ in range(depth):
        y = interner.merge(
            Child(a.y, 0, a.m1, a.m2), Child(b.y, 0, b.m1, b.m2), 0
        )
        a = CEncoding(y, a.m2 + b.m2 + 1, 2 * a.m2 + 2 * b.m2 + 2)
    return a


def test_deep_chain_compare_is_iterative():
    # depth beyond the default recursion limit must not blow the stack
    it = TermInterner()
    a = _chain(it, 3000)
    b = _chain(it, 2999)
    other = it.merge(Child(a.y, 0, a.m1, a.m2), Child(b.y, 0, b.m1, b.m2), 1)
    assert term_compare(a.y, other) != 0
    assert term_compare(a.y, b.y) != 0


def test_deep_chain_serialization_is_iterative():
    it = TermInterner()
    a = _chain(it, 300)
    assert serialize_term(a.y).count("M(") == 300

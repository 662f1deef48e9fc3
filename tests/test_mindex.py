import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from avcodes.mindex import (MonomialOrder, semigroup_add, dominated_sub, dominates,
                            index_box, format_index, parse_index, IndexError_)
from avcodes.transform import point_power


def test_semigroup_worked_example():
    assert semigroup_add((0, 0, 1, 2), (0, 3, 1, 2), 4) == (0, 3, 2, 1)


def test_semigroup_identity():
    assert semigroup_add((3, 1), (0, 0), 8) == (3, 1)


def test_semigroup_wrap_q8(f8):
    assert semigroup_add((5,), (6,), 8) == (4,)
    # oracle: omega^5 * omega^6 = omega^4 for every nonzero omega
    for w in f8.nonzero():
        assert f8.mul(f8.pow(w, 5), f8.pow(w, 6)) == f8.pow(w, 4)


def test_semigroup_mismatched_lengths():
    with pytest.raises(IndexError_):
        semigroup_add((1, 2), (1,), 8)
    with pytest.raises(IndexError_):
        dominates((1, 2), (1,))


@pytest.mark.parametrize("q,ndim", [(4, 2), (8, 1), (9, 1)])
def test_semigroup_commutative_associative_exhaustive(q, ndim):
    box = index_box(q, ndim)
    for a, b in itertools.product(box, repeat=2):
        assert semigroup_add(a, b, q) == semigroup_add(b, a, q)
    for a, b, c in itertools.product(box, repeat=3):
        left = semigroup_add(semigroup_add(a, b, q), c, q)
        right = semigroup_add(a, semigroup_add(b, c, q), q)
        assert left == right


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(0, 8), st.integers(0, 8)),
       st.tuples(st.integers(0, 8), st.integers(0, 8)),
       st.tuples(st.integers(0, 8), st.integers(0, 8)))
def test_semigroup_associative_q9_n2(a, b, c):
    q = 9
    assert (semigroup_add(semigroup_add(a, b, q), c, q)
            == semigroup_add(a, semigroup_add(b, c, q), q))


def test_exponent_law_exhaustive_q8(f8):
    # omega^(a (+) b) = omega^a * omega^b for all omega, N = 1
    for a in range(8):
        for b in range(8):
            s = semigroup_add((a,), (b,), 8)[0]
            for w in f8.elements():
                assert f8.pow(w, s) == f8.mul(f8.pow(w, a), f8.pow(w, b))


def test_exponent_law_sampled_n2(f9, rng):
    for _ in range(200):
        a = (rng.randrange(9), rng.randrange(9))
        b = (rng.randrange(9), rng.randrange(9))
        s = semigroup_add(a, b, 9)
        w = (rng.randrange(-1, 8), rng.randrange(-1, 8))
        assert point_power(f9, w, s) == f9.mul(point_power(f9, w, a),
                                               point_power(f9, w, b))


def test_dominates():
    assert dominates((3, 2), (1, 2))
    assert not dominates((3, 2), (4, 0))
    assert dominates((3, 2), (3, 2))


def test_dominated_sub():
    assert dominated_sub((3, 2), (1, 2)) == (2, 0)
    with pytest.raises(IndexError_):
        dominated_sub((3, 2), (4, 0))


def test_lex_chain_q8():
    order = MonomialOrder("lex")
    box = index_box(8, 2)
    chain = order.sort(box)
    assert chain[:9] == [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0),
                         (7, 0), (0, 1)]
    assert order.key((7, 0)) < order.key((0, 1))


def test_weighted_chain():
    order = MonomialOrder("weighted_grlex", (3, 4))
    assert order.key((1, 2)) < order.key((4, 0)) < order.key((0, 3)) < order.key((3, 1))
    chain = order.sort(index_box(9, 2))
    assert chain[:6] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    i = chain.index((1, 2))
    assert chain[i:i + 4] == [(1, 2), (4, 0), (0, 3), (3, 1)]


def test_grlex_chain():
    order = MonomialOrder("grlex")
    assert order.key((3, 0)) < order.key((0, 3)) < order.key((4, 0))
    chain = order.sort(index_box(9, 2))
    assert chain[:7] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0)]
    i = chain.index((0, 3))
    assert chain[i:i + 3] == [(0, 3), (4, 0), (3, 1)]


@pytest.mark.parametrize("order", [MonomialOrder("lex"), MonomialOrder("grlex"),
                                   MonomialOrder("weighted_grlex", (3, 4))])
def test_total_order_compatible_with_dominates(order):
    box = index_box(8, 2)
    for a, b in itertools.product(box, repeat=2):
        # distinct indices get distinct keys, so the order is total
        assert (order.key(a) == order.key(b)) == (a == b)
        if dominates(a, b) and a != b:
            assert order.key(a) > order.key(b)


def test_order_validation():
    with pytest.raises(IndexError_):
        MonomialOrder("degrevlex")
    with pytest.raises(IndexError_, match=r"^weight vector length 2 does not match index "
                                          r"\(1, 2, 3\)$"):
        MonomialOrder("weighted_grlex", (3, 4)).key((1, 2, 3))
    with pytest.raises(IndexError_):
        MonomialOrder("weighted_grlex", (0, 1))
    with pytest.raises(IndexError_):
        MonomialOrder("weighted_grlex")


@pytest.mark.parametrize("weights,at", [((3.5, 4), 0), ("34", 0), ((3, True), 1)])
def test_order_weights_must_be_integers(weights, at):
    # 3.5 used to order by a float weighted degree, "34" ended in a
    # comparison TypeError and True was read as 1
    bad = re.escape("weights[%d] = %r" % (at, weights[at]))
    with pytest.raises(IndexError_, match="^%s is not an integer$" % bad):
        MonomialOrder("weighted_grlex", weights)


def test_index_text_roundtrip():
    for a in index_box(4, 3):
        assert parse_index(format_index(a), 3) == a
    assert format_index((3, 1)) == "(3,1)"
    with pytest.raises(IndexError_):
        parse_index("(1,2)", 3)
    with pytest.raises(IndexError_):
        parse_index("(a,b)")
    assert parse_index("()", 0) == ()  # no component, not an empty one


@pytest.mark.parametrize("text, ndim", [("(1,,2)", 2), ("(,1,2)", 2), ("(1,2,)", 2),
                                        (" ( 3 , ) ", 1)])
def test_parse_index_rejects_an_empty_component(text, ndim):
    # each used to be read as another index, with ndim components
    with pytest.raises(IndexError_, match="^bad multi-index %s$" % re.escape(repr(text))):
        parse_index(text, ndim)


def test_equal_orders_hash_equal():
    # orders key the scan-box and generator caches themselves
    for a, b in ((MonomialOrder("lex"), MonomialOrder("lex", (1, 2))),
                 (MonomialOrder("weighted_grlex", [2, 3]), MonomialOrder("weighted_grlex", (2, 3)))):
        assert a == b and hash(a) == hash(b)
    table = {MonomialOrder(*spec): i for i, spec in enumerate(
        [("lex",), ("grlex",), ("weighted_grlex", (2, 3)), ("weighted_grlex", (3, 2))])}
    assert len(table) == 4
    assert table[MonomialOrder("weighted_grlex", [3, 2])] == 3
    assert table[MonomialOrder("grlex", (5, 5))] == 1


def test_index_box_order():
    assert index_box(2, 2) == [(0, 0), (1, 0), (0, 1), (1, 1)]

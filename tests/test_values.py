import random

import pytest

from secref.errors import TypeMismatch, Uncontained
from secref.heap import EMPTY_HEAP, NIL_THEN_FIXED, TRIVIAL, alloc, write
from secref.sampling import sample_tag, sample_value
from secref.values import (
    BOOL,
    INT,
    Arrow,
    LList,
    Pair,
    Ref,
    Sum,
    UNIT,
    V_NIL,
    V_UNIT,
    VBool,
    VInl,
    VInt,
    VLLCons,
    VPair,
    VRef,
    conforms,
    is_storable,
    llist_collect,
    llist_same_values,
    llist_sorted,
    ref_entries,
)


def test_conforms_int():
    assert conforms(VInt(3), INT)


def test_conforms_pair_with_ref():
    v = VPair(VInt(1), VRef(2, INT))
    assert conforms(v, Pair(INT, Ref(INT)))


def test_conforms_rejects_wrong_shape():
    assert not conforms(VInl(V_UNIT), INT)
    assert not conforms(VRef(1, INT), Ref(BOOL))
    assert not conforms(VBool(True), UNIT)


def test_no_value_conforms_to_an_arrow():
    fn = Arrow(INT, INT)
    for v in (VInt(1), V_UNIT, VRef(1, INT), VPair(VInt(1), VInt(2))):
        assert not conforms(v, fn)
    with pytest.raises(TypeMismatch):
        list(ref_entries(fn, VInt(1)))


def test_is_storable_is_false_for_arrows_nested_anywhere():
    for t in (UNIT, Sum(INT, BOOL), Pair(UNIT, Ref(INT)), LList(Pair(INT, Ref(BOOL)))):
        assert is_storable(t)
    fn = Arrow(UNIT, INT)
    for t in (fn, Pair(INT, fn), Pair(fn, INT), Sum(fn, INT), Sum(INT, fn), Ref(fn), LList(fn),
              Ref(Pair(INT, LList(Sum(BOOL, fn)))), Arrow(INT, Ref(INT))):
        assert not is_storable(t)


def _addrs(t, v):
    return frozenset(a for a, _ in ref_entries(t, v))


def test_forall_refs_always_true_pred():
    v = VPair(VRef(3, INT), VRef(5, INT))
    assert list(ref_entries(Pair(Ref(INT), Ref(INT)), v)) == [(3, INT), (5, INT)]


def test_forall_refs_enumerates_embedded_addrs():
    v = VPair(VRef(3, INT), VRef(5, INT))
    assert all(a % 2 == 1 for a, _ in ref_entries(Pair(Ref(INT), Ref(INT)), v))
    v2 = VPair(VRef(3, INT), VRef(4, INT))
    assert not all(a % 2 == 1 for a, _ in ref_entries(Pair(Ref(INT), Ref(INT)), v2))


def test_forall_refs_covers_list_node_tail_and_head():
    assert list(ref_entries(LList(INT), VLLCons(VInt(7), 4))) == [(4, LList(INT))]
    node = VLLCons(VRef(2, INT), 4)
    assert list(ref_entries(LList(Ref(INT)), node)) == [(2, INT), (4, LList(Ref(INT)))]


def test_forall_refs_rejects_nonconforming():
    with pytest.raises(TypeMismatch):
        list(ref_entries(INT, V_UNIT))


def test_embedded_addrs_base():
    assert _addrs(INT, VInt(1)) == frozenset()


def test_embedded_addrs_ref():
    assert _addrs(Ref(INT), VRef(9, INT)) == frozenset({9})


def test_embedded_addrs_structural():
    v = VPair(VRef(1, INT), VLLCons(V_UNIT, 2))
    t = Pair(Ref(INT), LList(UNIT))
    assert _addrs(t, v) == frozenset({1, 2})


def _oracle_collect_addrs(t, v):
    # independent recursion over the value shape, written head-first
    if isinstance(t, (type(UNIT), type(INT), type(BOOL))):
        return []
    if isinstance(t, Sum):
        inner = t.left if isinstance(v, VInl) else t.right
        return _oracle_collect_addrs(inner, v.payload)
    if isinstance(t, Pair):
        return _oracle_collect_addrs(t.first, v.first) + _oracle_collect_addrs(
            t.second, v.second
        )
    if isinstance(t, Ref):
        return [v.addr]
    if isinstance(v, VLLCons):
        return _oracle_collect_addrs(t.elem, v.head) + [v.tail]
    return []


def test_forall_refs_agrees_with_embedded_addrs_on_samples():
    rng = random.Random(31)
    for _ in range(300):
        t = sample_tag(rng)
        v = sample_value(t, rng)
        assert [a for a, _ in ref_entries(t, v)] == _oracle_collect_addrs(t, v)


def build_chain(values, preorder=TRIVIAL):
    """Allocate a nil-terminated chain and return (head addr, heap)."""
    h = EMPTY_HEAP
    tail, h = alloc(h, LList(INT), preorder, V_NIL)
    for x in reversed(values):
        tail, h = alloc(h, LList(INT), preorder, VLLCons(VInt(x), tail))
    return tail, h


def test_llist_collect_in_order():
    head, h = build_chain([1, 2, 3])
    assert llist_collect(h, head) == [VInt(1), VInt(2), VInt(3)]


def test_llist_collect_cycle():
    addr, h = alloc(EMPTY_HEAP, LList(INT), TRIVIAL, V_NIL)
    h = write(h, addr, VLLCons(VInt(1), addr))
    assert llist_collect(h, addr) is None


def test_llist_collect_empty():
    addr, h = alloc(EMPTY_HEAP, LList(INT), NIL_THEN_FIXED, V_NIL)
    assert llist_collect(h, addr) == []


def test_llist_collect_uncontained_tail():
    addr, h = alloc(EMPTY_HEAP, LList(INT), TRIVIAL, VLLCons(VInt(1), 99))
    with pytest.raises(Uncontained):
        llist_collect(h, addr)


def test_llist_sorted():
    head, h = build_chain([1, 2, 2, 5])
    assert llist_sorted(h, head)
    head2, h2 = build_chain([3, 1])
    assert not llist_sorted(h2, head2)


def test_llist_sorted_false_on_cycle():
    addr, h = alloc(EMPTY_HEAP, LList(INT), TRIVIAL, V_NIL)
    h = write(h, addr, VLLCons(VInt(1), addr))
    assert not llist_sorted(h, addr)


def test_llist_same_values_multiset():
    head, h0 = build_chain([3, 1, 2])
    # simulate an in-place sort by writing a permuted chain at the same cells
    h1 = h0
    order = [1, 2, 3]
    addr = head
    for x in order:
        node = h1.cell(addr).value
        h1 = write(h1, addr, VLLCons(VInt(x), node.tail))
        addr = node.tail
    assert llist_same_values(h0, h1, head)


def test_llist_same_values_rejects_multiset_change():
    head, h0 = build_chain([3, 1])
    node = h0.cell(head).value
    h1 = write(h0, head, VLLCons(VInt(1), node.tail))
    assert not llist_same_values(h0, h1, head)


def test_collection_terminates_on_dense_heaps():
    rng = random.Random(13)
    for _ in range(40):
        h = EMPTY_HEAP
        addrs = []
        for i in range(6):
            a, h = alloc(h, LList(INT), TRIVIAL, V_NIL)
            addrs.append(a)
        for a in addrs:
            h = write(h, a, VLLCons(VInt(rng.randint(0, 9)), rng.choice(addrs)))
        # every walk ends: either a cycle is reported or a nil is reached
        result = llist_collect(h, addrs[0])
        assert result is None or isinstance(result, list)

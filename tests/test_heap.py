import random

import pytest

from stores import addr_map, alloc_walked
from secref import heap as hp
from secref.errors import ImmutableWrite, PreorderViolation, TypeMismatch, Uncontained
from secref.heap import (
    EMPTY_HEAP,
    AddrMap,
    Heap,
    INT_LEQ,
    NONE_THEN_FIXED,
    PREORDERS,
    TRIVIAL,
    alloc,
    heap_leq,
    read,
    write,
)
from secref.sampling import preorder_laws, sample_for_preorder
from secref.labels import NO_LABELS, World, initial_world, modif_shareable_and
from secref.values import INT, Arrow, Ref, Sum, UNIT, V_UNIT, VInl, VInr, VInt, VRef


def _modifies(footprint, h0, h1):
    # no cell is labeled, so every cell outside the footprint must stay put
    return modif_shareable_and(World(h0, NO_LABELS), World(h1, NO_LABELS), footprint)


def test_alloc_from_empty_returns_addr_one():
    addr, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(42))
    assert addr == 1
    assert h.cell(1).value == VInt(42)
    assert h.next_addr == 2


def test_alloc_twice_counts_up():
    a1, h1 = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(0))
    a2, h2 = alloc(h1, INT, TRIVIAL, VInt(1))
    assert (a1, a2) == (1, 2)
    assert h2.next_addr == 3


def test_alloc_modifies_nothing_preexisting():
    _, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(7))
    _, h2 = alloc(h, INT, TRIVIAL, VInt(8))
    assert _modifies(frozenset(), h, h2)


def test_alloc_type_mismatch():
    # the heap layer leaves conformance to its callers: the labeled alloc
    # refuses a value of another type in its walk of the value
    with pytest.raises(TypeMismatch):
        alloc_walked(initial_world(), INT, TRIVIAL, V_UNIT)


def test_alloc_refuses_an_arrow_tag():
    fn = Arrow(INT, INT)
    for tag, init in ((fn, VInt(0)), (Ref(fn), VRef(1, fn)), (Sum(fn, INT), VInr(VInt(0)))):
        with pytest.raises(TypeMismatch):
            alloc(EMPTY_HEAP, tag, TRIVIAL, init)


def test_read_returns_stored_value():
    addr, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(7))
    assert read(h, addr) == VInt(7)


def test_alloc_read_roundtrip():
    addr, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(-3))
    assert read(h, addr) == VInt(-3)


def test_read_uncontained():
    with pytest.raises(Uncontained):
        read(EMPTY_HEAP, 1)
    addr, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(0))
    for missing in (addr + 1, -1, 0):  # in the allocated chunk, negative, the marker
        with pytest.raises(Uncontained):
            read(h, missing)


def test_write_old_value_is_identity():
    addr, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(5))
    assert write(h, addr, VInt(5), h.cell(addr)) == h


def test_write_grade_cell_once_only():
    # unset -> set is fine, overwriting a set value is not
    unset = VInl(V_UNIT)
    addr, h = alloc(EMPTY_HEAP, Sum(UNIT, INT), NONE_THEN_FIXED, unset)
    h = write(h, addr, VInr(VInt(3)), h.cell(addr))
    with pytest.raises(PreorderViolation):
        write(h, addr, VInr(VInt(5)), h.cell(addr))


def test_write_counter_cannot_decrease():
    addr, h = alloc(EMPTY_HEAP, INT, INT_LEQ, VInt(5))
    with pytest.raises(PreorderViolation):
        write(h, addr, VInt(3), h.cell(addr))


def test_heap_leq_reflexive():
    _, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(1))
    assert heap_leq(h, h)


def test_heap_leq_after_alloc():
    _, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(1))
    _, h2 = alloc(h, INT, TRIVIAL, VInt(2))
    assert heap_leq(h, h2)


def test_heap_leq_counter_rollback_is_false():
    addr, h5 = alloc(EMPTY_HEAP, INT, INT_LEQ, VInt(5))
    # build the would-be rollback heap directly; write() would refuse it
    _, h3 = alloc(EMPTY_HEAP, INT, INT_LEQ, VInt(3))
    assert not heap_leq(h5, h3)


def test_modifies_empty_footprint_identity():
    _, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(1))
    assert _modifies(frozenset(), h, h)


def test_modifies_after_write():
    addr, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(1))
    h2 = write(h, addr, VInt(9), h.cell(addr))
    assert _modifies(frozenset({addr}), h, h2)
    assert not _modifies(frozenset(), h, h2)


def test_equal_dom_after_write():
    addr, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(1))
    h2 = write(h, addr, VInt(2), h.cell(addr))
    assert h.addresses() == h2.addresses()
    _, h3 = alloc(h2, INT, TRIVIAL, VInt(0))
    assert h.addresses() != h3.addresses()


def test_fresh():
    addr, h1 = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(1))
    assert not EMPTY_HEAP.contains(addr) and h1.contains(addr)
    addr2, h2 = alloc(h1, INT, TRIVIAL, VInt(2))
    assert addr2 != addr and not h1.contains(addr2) and h2.contains(addr2)


def test_address_domain_after_n_allocations():
    h = EMPTY_HEAP
    for i in range(10):
        _, h = alloc(h, INT, TRIVIAL, VInt(i))
    assert set(h.addresses()) == set(range(1, 11))


def test_monotonicity_under_random_ops():
    rng = random.Random(7041)
    h = EMPTY_HEAP
    for _ in range(200):
        prev = h
        if h.cells and rng.random() < 0.5:
            addr = rng.choice(sorted(h.addresses()))
            cell = h.cell(addr)
            new = sample_for_preorder(cell.preorder, rng)
            if (
                cell.preorder.holds(cell.value, new)
                and type(new) is type(cell.value)
            ):
                h = write(h, addr, new, cell)
            else:
                continue
        else:
            _, h = alloc(h, INT, rng.choice([TRIVIAL, INT_LEQ]), VInt(rng.randint(0, 30)))
        assert heap_leq(prev, h)


def test_write_touches_exactly_one_address():
    rng = random.Random(11)
    h = EMPTY_HEAP
    addrs = []
    for i in range(8):
        a, h = alloc(h, INT, TRIVIAL, VInt(i))
        addrs.append(a)
    for _ in range(50):
        target = rng.choice(addrs)
        h2 = write(h, target, VInt(rng.randint(-9, 9)), h.cell(target))
        changed = [a for a in addrs if h2.cell(a).value != h.cell(a).value]
        assert changed in ([], [target])
        h = h2


def test_registered_preorders_satisfy_the_laws():
    rng = random.Random(99)
    for p in PREORDERS.values():
        assert preorder_laws(p, rng) == []


def test_law_suite_flags_a_broken_preorder():
    broken = hp.Preorder("bad_gt", lambda a, b: a != b)
    rng = random.Random(5)
    violations = preorder_laws(broken, rng)
    assert violations


def test_heap_cells_refuse_in_place_writes():
    a, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(1))
    _, h2 = alloc(h, INT, TRIVIAL, VInt(2))
    cell = h.cell(a)
    writes = (
        lambda c: c.__setitem__(a, cell),
        lambda c: c.__delitem__(a),
        lambda c: c.update({a: cell}),
        lambda c: c.setdefault(9, cell),
        lambda c: c.pop(a),
        lambda c: c.popitem(),
        lambda c: c.clear(),
        lambda c: c.__ior__({a: cell}),
    )
    for attempt in writes:
        with pytest.raises(ImmutableWrite):
            attempt(h.cells)
    h.cells.__init__({5: cell})  # re-running the constructor is a no-op
    assert dict(h.cells) == {a: cell} and h.next_addr == 2
    assert type(h2.cells) is AddrMap and len(h2.cells) == 2


def test_heap_built_from_a_plain_dict_is_frozen_and_equal():
    a, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(1))
    rebuilt = Heap(cells=addr_map(dict(h.cells)), next_addr=h.next_addr)
    assert type(rebuilt.cells) is AddrMap and rebuilt == h
    assert rebuilt.cell(a).value == VInt(1)

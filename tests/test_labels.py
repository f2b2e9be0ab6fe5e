import sys

import pytest

import mutate
from stores import addr_map, alloc_walked, write_walked
from secref import values
from secref.errors import (
    AlreadyLabeled,
    DanglingInit,
    ImmutableWrite,
    InvariantViolation,
    MonotonicRefShare,
    ShareLeak,
    TypeMismatch,
    Uncontained,
)
from secref.heap import INT_LEQ, TRIVIAL, AddrMap, Heap, HeapCell
from secref.labels import (
    Label,
    World,
    initial_world,
    is_encapsulated,
    is_private,
    is_shareable,
    label_encapsulated,
    label_leq,
    label_shareable,
    labels_monotone,
    lr_inv,
    lr_inv_at,
    lr_read,
    modif_only_shareable_and_encaps,
    modif_shareable_and,
    same_labels,
)
from secref.linker import CtxOps
from secref.programs import RunConfig, RunState
from secref.values import INT, Pair, Ref, VInt, VPair, VRef


def test_label_leq_table():
    P, S, E = Label.PRIVATE, Label.SHAREABLE, Label.ENCAPSULATED
    expected = {
        (P, P): True, (P, S): True, (P, E): True,
        (S, P): False, (S, S): True, (S, E): False,
        (E, P): False, (E, S): False, (E, E): True,
    }
    for (a, b), want in expected.items():
        assert label_leq(a, b) == want


def test_fresh_addr_is_private():
    w = initial_world()
    assert is_private(w, 1)
    assert is_private(w, 12345)


def test_marker_is_private():
    # address 0 is never allocated, so it never gets a cell or a label
    assert is_private(initial_world(), 0)


def test_label_shareable_then_queries():
    a, w = alloc_walked(initial_world(), INT, TRIVIAL, VInt(1))
    w = label_shareable(w, a)
    assert is_shareable(w, a)
    assert not is_private(w, a)
    assert not is_encapsulated(w, a)


def test_lr_inv_initial_world():
    assert lr_inv(initial_world())


def test_lr_inv_rejects_shareable_pointing_to_private():
    p, w = alloc_walked(initial_world(), INT, TRIVIAL, VInt(0))
    q, w = alloc_walked(w, Ref(INT), TRIVIAL, VRef(p, INT))
    # force the bad labeling directly; label_shareable would refuse it
    bad = World(heap=w.heap, labels=addr_map({q: Label.SHAREABLE}))
    assert not lr_inv(bad)
    assert not lr_inv_at(bad, q, None, bad.heap.cells.get(q))


def test_lr_inv_rejects_labels_past_frontier():
    w = initial_world()
    bad = World(heap=w.heap, labels=addr_map({5: Label.SHAREABLE}))
    assert not lr_inv(bad)
    assert not lr_inv_at(bad, 5, None, None)


def test_lr_inv_rejects_relabeled_marker():
    w = initial_world()
    bad = World(heap=w.heap, labels=addr_map({0: Label.SHAREABLE}))
    assert not lr_inv(bad)
    assert not lr_inv_at(bad, 0, None, None)


def test_lr_inv_rejects_a_label_on_an_address_with_no_cell_below_the_frontier():
    # cells at 1 and 3, none at 2: a frontier test alone would accept the label
    cell = HeapCell(INT, TRIVIAL, VInt(0))
    heap = Heap(cells=addr_map({1: cell, 3: cell}), next_addr=4)
    bad = World(heap=heap, labels=addr_map({2: Label.SHAREABLE}))
    assert not lr_inv(bad)
    assert not lr_inv_at(bad, 2, None, None)
    assert lr_inv(World(heap=heap, labels=addr_map({1: Label.SHAREABLE, 3: Label.ENCAPSULATED})))


def test_lr_alloc_private_and_label_preserving():
    a, w = alloc_walked(initial_world(), INT, TRIVIAL, VInt(42))
    assert is_private(w, a)
    assert lr_inv(w)
    b, w2 = alloc_walked(w, INT, TRIVIAL, VInt(0))
    assert all(w.label_of(k) is w2.label_of(k) for k in w.heap.addresses())


def test_lr_alloc_dangling_init():
    with pytest.raises(DanglingInit):
        alloc_walked(initial_world(), Ref(INT), TRIVIAL, VRef(9, INT))


def test_lr_alloc_embedded_tag_mismatch():
    a, w = alloc_walked(initial_world(), INT, TRIVIAL, VInt(0))
    with pytest.raises(TypeMismatch):
        alloc_walked(w, Ref(Ref(INT)), TRIVIAL, VRef(a, Ref(INT)))


def test_lr_write_share_leak():
    p, w = alloc_walked(initial_world(), INT, TRIVIAL, VInt(0))
    r, w = alloc_walked(w, Ref(INT), TRIVIAL, VRef(p, INT))
    w = label_shareable(w, p)
    w = label_shareable(w, r)
    fresh_private, w = alloc_walked(w, INT, TRIVIAL, VInt(1))
    with pytest.raises(ShareLeak):
        write_walked(w, r, VRef(fresh_private, INT))


def test_lr_write_private_target_is_unrestricted():
    p, w = alloc_walked(initial_world(), INT, TRIVIAL, VInt(0))
    r, w = alloc_walked(w, Ref(INT), TRIVIAL, VRef(p, INT))
    q, w = alloc_walked(w, INT, TRIVIAL, VInt(5))
    w2 = write_walked(w, r, VRef(q, INT))
    assert lr_read(w2, r) == VRef(q, INT)
    assert lr_inv(w2)


def test_lr_write_base_value_into_shareable():
    a, w = alloc_walked(initial_world(), INT, TRIVIAL, VInt(0))
    w = label_shareable(w, a)
    w2 = write_walked(w, a, VInt(5))
    assert lr_read(w2, a) == VInt(5)


def test_label_shareable_points_to_private_leaks():
    p, w = alloc_walked(initial_world(), INT, TRIVIAL, VInt(0))
    r, w = alloc_walked(w, Ref(INT), TRIVIAL, VRef(p, INT))
    with pytest.raises(ShareLeak):
        label_shareable(w, r)


def test_label_shareable_monotonic_ref_refused():
    c, w = alloc_walked(initial_world(), INT, INT_LEQ, VInt(0))
    with pytest.raises(MonotonicRefShare):
        label_shareable(w, c)


def test_label_shareable_twice_refused():
    a, w = alloc_walked(initial_world(), INT, TRIVIAL, VInt(0))
    w = label_shareable(w, a)
    with pytest.raises(AlreadyLabeled):
        label_shareable(w, a)


def test_label_encapsulated_counter():
    c, w = alloc_walked(initial_world(), INT, INT_LEQ, VInt(0))
    w = label_encapsulated(w, c)
    assert is_encapsulated(w, c)
    assert lr_inv(w)


def test_label_encapsulated_shareable_refused():
    a, w = alloc_walked(initial_world(), INT, TRIVIAL, VInt(0))
    w = label_shareable(w, a)
    with pytest.raises(AlreadyLabeled):
        label_encapsulated(w, a)


def test_label_encapsulated_marker_refused():
    w = initial_world()
    with pytest.raises(Uncontained):
        label_encapsulated(w, 0)


def _two_cell_world():
    a, w = alloc_walked(initial_world(), INT, TRIVIAL, VInt(1))
    b, w = alloc_walked(w, INT, TRIVIAL, VInt(2))
    w = label_shareable(w, b)
    return a, b, w


def test_modif_predicates_identity():
    a, b, w = _two_cell_world()
    assert modif_only_shareable_and_encaps(w, w)
    assert modif_shareable_and(w, w, frozenset())
    assert same_labels(w, w)


def test_modif_only_shareable_changed():
    a, b, w = _two_cell_world()
    w2 = write_walked(w, b, VInt(9))
    assert modif_only_shareable_and_encaps(w, w2)
    assert same_labels(w, w2)


def test_modif_private_changed_detected():
    a, b, w = _two_cell_world()
    w2 = write_walked(w, a, VInt(9))
    assert not modif_only_shareable_and_encaps(w, w2)
    assert modif_shareable_and(w, w2, frozenset({a}))
    assert not modif_shareable_and(w, w2, frozenset())


def test_encapsulated_changes_allowed_by_hrel():
    c, w = alloc_walked(initial_world(), INT, INT_LEQ, VInt(0))
    w = label_encapsulated(w, c)
    w2 = write_walked(w, c, VInt(3))
    # the relation a context execution must respect
    assert modif_only_shareable_and_encaps(w, w2) and same_labels(w, w2)
    p, w3 = alloc_walked(w2, INT, TRIVIAL, VInt(0))
    w4 = write_walked(w3, p, VInt(1))
    assert not modif_only_shareable_and_encaps(w3, w4)


def test_same_labels_scans_initial_domain_only():
    a, b, w = _two_cell_world()
    # labeling a cell allocated later does not disturb the old domain scan
    c, w2 = alloc_walked(w, INT, TRIVIAL, VInt(0))
    w3 = label_shareable(w2, c)
    assert same_labels(w, w3)
    assert not same_labels(w2, World(heap=w3.heap, labels=w3.labels.set(a, Label.SHAREABLE)))


def test_labels_monotone():
    a, b, w = _two_cell_world()
    w2 = label_encapsulated(w, a)
    assert labels_monotone(w, w2)
    assert not labels_monotone(w2, w)


def test_world_labels_refuse_in_place_writes():
    a, b, w = _two_cell_world()
    w2 = label_shareable(w, a)
    with pytest.raises(ImmutableWrite):
        w2.labels[b] = Label.SHAREABLE
    with pytest.raises(ImmutableWrite):
        del w2.labels[a]
    w3 = World(heap=w.heap, labels=addr_map({a: Label.ENCAPSULATED}))
    assert is_encapsulated(w3, a) and is_private(w3, b)
    with pytest.raises(ImmutableWrite):
        w3.labels.update({b: Label.SHAREABLE})


def test_lr_write_checks_containment_before_share_leak():
    # the value embeds a private address first, then a dangling one
    p, w = alloc_walked(initial_world(), INT, TRIVIAL, VInt(0))
    r, w = alloc_walked(w, Pair(Ref(INT), Ref(INT)), TRIVIAL, VPair(VRef(p, INT), VRef(p, INT)))
    w = label_shareable(label_shareable(w, p), r)
    q, w = alloc_walked(w, INT, TRIVIAL, VInt(1))
    with pytest.raises(DanglingInit):
        write_walked(w, r, VPair(VRef(q, INT), VRef(99, INT)))
    with pytest.raises(ShareLeak) as err:
        write_walked(w, r, VPair(VRef(q, INT), VRef(p, INT)))
    assert err.value.leaked == frozenset({q})
    q2, w = alloc_walked(w, INT, TRIVIAL, VInt(2))
    with pytest.raises(ShareLeak) as err:
        write_walked(w, r, VPair(VRef(q2, INT), VRef(q, INT)))
    assert err.value.leaked == frozenset({q, q2})


@pytest.fixture
def conforms_calls(monkeypatch):
    """Every call of values.conforms, under each module's alias of it."""
    calls = []
    original = values.conforms

    def counted(v, t, out=None):
        calls.append(t)
        return original(v, t, out)

    for name, module in list(sys.modules.items()):
        if name == "secref" or name.startswith("secref."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def _conforms_per_step(conforms_calls, step) -> int:
    conforms_calls.clear()
    step()
    return len(conforms_calls)


def test_one_write_walks_the_written_value_once_per_layer(conforms_calls):
    tag = Pair(INT, Ref(INT))
    for level in ("fast", "paranoid"):
        state = RunState(config=RunConfig(check_level=level))
        p = state.op_alloc(INT, TRIVIAL, VInt(0))
        state.op_label_shareable(p)
        shared = state.op_alloc(tag, TRIVIAL, VPair(VInt(0), VRef(p, INT)))
        state.op_label_shareable(shared)
        private = state.op_alloc(tag, TRIVIAL, VPair(VInt(0), VRef(p, INT)))
        v = VPair(VInt(1), VRef(p, INT))
        # one walk per store step: linker.ctx_write's, or RunState.op_write's,
        # whose entries lr_write and the paranoid monitor take; heap.write
        # does not check conformance again
        for write in (lambda: CtxOps(state).write(VRef(shared, tag), v),
                      lambda: state.op_write(shared, v),
                      lambda: state.op_write(private, v)):
            assert _conforms_per_step(conforms_calls, write) == 1, level


def test_one_label_step_walks_the_labeled_value_once(conforms_calls):
    tag = Pair(INT, Ref(INT))
    for level in ("fast", "paranoid"):
        state = RunState(config=RunConfig(check_level=level))
        p = state.op_alloc(INT, TRIVIAL, VInt(0))
        state.op_label_shareable(p)
        cell = state.op_alloc(tag, TRIVIAL, VPair(VInt(0), VRef(p, INT)))
        # the ShareLeak test's walk, which the paranoid monitor takes
        assert _conforms_per_step(conforms_calls, lambda: state.op_label_shareable(cell)) == 1, level


def test_an_unchecked_label_step_leaves_its_walk_to_the_monitor(conforms_calls):
    tag = Pair(INT, Ref(INT))
    with mutate.enabled("label_share_unchecked"):
        for level, walks in (("fast", 0), ("paranoid", 1)):
            state = RunState(config=RunConfig(check_level=level))
            private = state.op_alloc(INT, TRIVIAL, VInt(0))
            cell = state.op_alloc(tag, TRIVIAL, VPair(VInt(0), VRef(private, INT)))
            conforms_calls.clear()
            if level == "fast":
                state.op_label_shareable(cell)
            else:  # the monitor's own walk finds the private address
                with pytest.raises(InvariantViolation):
                    state.op_label_shareable(cell)
            assert len(conforms_calls) == walks, level


def test_a_checked_write_looks_its_cell_up_once_per_world(monkeypatch):
    lookups, cell_calls = [], []
    get, cell = AddrMap.get, Heap.cell
    monkeypatch.setattr(AddrMap, "get", lambda m, *args: lookups.append(m) or get(m, *args))
    monkeypatch.setattr(Heap, "cell", lambda h, r: cell_calls.append(r) or cell(h, r))
    for level, after in (("fast", 0), ("paranoid", 1)):
        state = RunState(config=RunConfig(check_level=level))
        r = state.op_alloc(INT, INT_LEQ, VInt(0))
        w0 = state.world
        lookups.clear()
        cell_calls.clear()
        state.op_write(r, VInt(1))
        w1 = state.world
        # op_write's lookup serves lr_write and heap.write; the monitor's
        # serves lr_inv_at and the journal
        assert sum(m is w0.heap.cells for m in lookups) == 1, level
        assert sum(m is w1.heap.cells for m in lookups) == after, level
        assert cell_calls == [], level


def test_one_alloc_walks_the_initial_value_once_per_layer(conforms_calls):
    tag = Pair(INT, Ref(INT))
    for level in ("fast", "paranoid"):
        state = RunState(config=RunConfig(check_level=level))
        ops = CtxOps(state)
        init = VPair(VInt(1), ops.alloc(INT, VInt(0)))
        # one walk per store step: linker.ctx_alloc's, whose entries the rest
        # of its rule checks, or RunState.op_alloc's, whose entries lr_alloc
        # takes; either hands it to the paranoid monitor
        for alloc in (lambda: ops.alloc(tag, init),
                      lambda: state.op_alloc(tag, TRIVIAL, init)):
            assert _conforms_per_step(conforms_calls, alloc) == 1, level

"""The persistent cell and label store and the diff-based footprint checks.

`heap.AddrMap` backs `Heap.cells` and `World.labels`; `heap.changed` lists
the addresses two maps differ at, skipping the chunks they share.  Each
footprint predicate built on it must agree with a full scan over the heap;
the full scans live here as oracles.
"""
import itertools
import sys
from dataclasses import fields, make_dataclass, replace

import pytest

from secref import campaigns
from secref import heap as hp
from secref import labels as lb
from secref.errors import ImmutableWrite
from secref.heap import (
    TRIVIAL,
    WIDTH,
    AddrMap,
    Heap,
    HeapCell,
    alloc,
    changed,
    heap_leq,
)
from secref.labels import (
    NO_LABELS,
    Label,
    World,
    initial_world,
    label_leq,
    labels_monotone,
    lr_alloc,
    modif_only_shareable_and_encaps,
    modif_shareable_and,
    same_labels,
)
from secref.linker import CtxOps
from secref.programs import RunState
from secref.scenarios import TASK_DONE, run_scheduler, yielding_task
from secref.values import INT, V_UNIT, Ref, VBool, VInl, VInr, VInt, VLLCons, VPair, VRef

# ---------------------------------------------------------------------------
# full-scan oracles of the footprint predicates and of `changed`


def full_changed(a, b) -> list:
    da, db = dict(a.items()), dict(b.items())
    return sorted(k for k in da.keys() | db.keys() if da.get(k) is not db.get(k))


def full_modif_only_shareable_and_encaps(w0, w1) -> bool:
    for addr, cell in w0.heap.cells.items():
        if w0.label_of(addr) is not Label.PRIVATE:
            continue
        new = w1.heap.cells.get(addr)
        if new is None or new.value != cell.value:
            return False
    return True


def full_modif_shareable_and(w0, w1, s) -> bool:
    for addr, cell in w0.heap.cells.items():
        if w0.label_of(addr) is Label.SHAREABLE or addr in s:
            continue
        new = w1.heap.cells.get(addr)
        if new is None or new.value != cell.value:
            return False
    return True


def full_same_labels(w0, w1) -> bool:
    return all(w0.label_of(a) is w1.label_of(a) for a in w0.heap.cells)


def full_labels_monotone(w0, w1) -> bool:
    keys = set(w0.labels) | set(w1.labels)
    return all(label_leq(w0.label_of(a), w1.label_of(a)) for a in keys)


def full_heap_leq(h0, h1) -> bool:
    for addr, cell in h0.cells.items():
        new = h1.cells.get(addr)
        if new is None or not cell.preorder.holds(cell.value, new.value):
            return False
    return True


def full_world_eq(w0, w1) -> bool:
    keys = set(w0.labels) | set(w1.labels)
    return (
        w0.heap.next_addr == w1.heap.next_addr
        and dict(w0.heap.cells.items()) == dict(w1.heap.cells.items())
        and all(w0.label_of(a) is w1.label_of(a) for a in keys)
    )


def assert_agree(w0: World, w1: World) -> None:
    for a, b in ((w0.heap.cells, w1.heap.cells), (w0.labels, w1.labels)):
        assert list(changed(a, b)) == full_changed(a, b)
    assert modif_only_shareable_and_encaps(w0, w1) == full_modif_only_shareable_and_encaps(w0, w1)
    footprints = (frozenset(), frozenset(changed(w0.heap.cells, w1.heap.cells)),
                  frozenset(itertools.islice(w0.heap.cells, 1)))
    for s in footprints:
        assert modif_shareable_and(w0, w1, s) == full_modif_shareable_and(w0, w1, s)
    assert same_labels(w0, w1) == full_same_labels(w0, w1)
    assert labels_monotone(w0, w1) == full_labels_monotone(w0, w1)
    assert heap_leq(w0.heap, w1.heap) == full_heap_leq(w0.heap, w1.heap)
    assert (w0 == w1) == full_world_eq(w0, w1)
    assert (w0.heap == w1.heap) == full_world_eq(World(w0.heap, NO_LABELS),
                                                  World(w1.heap, NO_LABELS))


def corruptions(w0: World, w1: World):
    """(world, predicate it must fail) pairs that differ from w1 at one
    address of w0: a private cell rewritten, a label changed, a cell gone."""
    cells0, cells1 = w0.heap.cells, w1.heap.cells
    private = [a for a in cells0 if w0.label_of(a) is Label.PRIVATE]
    if private:
        a = private[-1]
        cell = cells0[a]
        other = VInt(0) if cell.value != VInt(0) else VInt(1)
        rewritten = HeapCell(a, cell.tag, cell.preorder, other)
        yield World(Heap(cells1.set(a, rewritten), w1.heap.next_addr), w1.labels), \
            modif_only_shareable_and_encaps
        yield World(Heap(cells1.set(a, None), w1.heap.next_addr), w1.labels), \
            modif_only_shareable_and_encaps
    if cells0:
        a = next(iter(cells0))
        flipped = Label.ENCAPSULATED if w1.label_of(a) is Label.SHAREABLE else Label.SHAREABLE
        yield World(w1.heap, w1.labels.set(a, flipped)), same_labels


def check_pairs(pairs) -> int:
    corrupted = 0
    for w0, w1 in pairs:
        assert_agree(w0, w1)
        assert_agree(w1, w0)
        for bad, predicate in corruptions(w0, w1):
            assert_agree(w0, bad)
            assert not predicate(w0, bad)
            corrupted += 1
    return corrupted


# ---------------------------------------------------------------------------
# differential runs


def test_diff_predicates_agree_on_the_campaign_corpus(monkeypatch):
    spans = []
    run_scenario = campaigns.run_scenario

    def recording(*args, **kwargs):
        result = run_scenario(*args, **kwargs)
        spans.extend((w0, w1) for _, w0, w1 in result.state.trace.context_spans)
        return result

    monkeypatch.setattr(campaigns, "run_scenario", recording)
    transitions = campaigns._collect_transitions(seed=2026)
    assert len(spans) > 40 and len(transitions) > 200
    assert check_pairs(spans) > 40
    check_pairs(transitions)


def buffered_task(yields: int, buffer: int):
    """A yielding task that allocates `buffer` shareable cells when built
    and writes one of them, and the shared cell, on every step."""

    def make(ops, shared):
        cells = [ops.alloc(INT, VInt(0)) for _ in range(buffer)]
        left = [yields]

        def step():
            ops.write(shared, VInt(left[0]))
            ops.write(cells[left[0] % buffer], VInt(left[0]))
            if left[0] <= 0:
                return TASK_DONE
            left[0] -= 1
            return VInr(step)

        return step

    return make


def test_diff_predicates_agree_on_a_large_scheduler_run():
    run = run_scheduler([buffered_task(3, 1500), buffered_task(2, 1500), yielding_task(2)])
    assert run.record.outcome == ("ok", 3)
    assert len(run.w1.heap.cells) > 3000
    spans = [(w0, w1) for _, w0, w1 in run.state.trace.context_spans]
    # longer stretches too: several spans and the bookkeeping between them
    spans += [(spans[i][0], spans[j][1]) for i, j in ((0, 1), (2, 7), (0, len(spans) - 1))]
    assert check_pairs(spans) > 20


def test_diff_predicates_agree_on_worlds_that_share_no_chunk():
    w = initial_world()
    for i in range(3 * WIDTH):
        _, w = lr_alloc(w, INT, TRIVIAL, VInt(i))
    w = World(w.heap, AddrMap({a: Label.SHAREABLE for a in range(2, 3 * WIDTH, 3)}))
    twin = World(Heap(AddrMap(w.heap.cells), w.heap.next_addr), AddrMap(w.labels))
    assert not any(x is y for x, y in zip(w.heap.cells.chunks, twin.heap.cells.chunks))
    assert twin == w and list(changed(w.heap.cells, twin.heap.cells)) == full_changed(
        w.heap.cells, twin.heap.cells)
    assert check_pairs([(w, twin), (twin, w)]) > 0
    # an explicit Private entry reads like an absent one
    explicit = World(w.heap, w.labels.set(1, Label.PRIVATE))
    assert explicit == w and same_labels(w, explicit) and same_labels(explicit, w)
    assert_agree(w, explicit)


# ---------------------------------------------------------------------------
# work per step, counted


def _copied(old: AddrMap, new: AddrMap) -> int:
    """Entries held in chunks of `new` that `old` does not share (the
    all-absent chunk that pads a grown spine is one shared constant)."""
    return sum(
        WIDTH for i, chunk in enumerate(new.chunks)
        if chunk is not hp.HOLES and (i >= len(old.chunks) or chunk is not old.chunks[i])
    )


def _world_of(cells: int) -> World:
    h = hp.EMPTY_HEAP
    for i in range(cells):
        _, h = alloc(h, INT, TRIVIAL, VInt(i))
    return World(h, NO_LABELS)


def _step_copies(cells: int) -> list:
    state = RunState(world=_world_of(cells))
    copies = []
    for step in (
        lambda: state.op_alloc(INT, TRIVIAL, VInt(0)),
        lambda: state.op_write(cells // 2, VInt(-1)),
        lambda: state.op_label_shareable(cells // 3),
    ):
        before = state.world
        step()
        after = state.world
        copies.append(_copied(before.heap.cells, after.heap.cells)
                      + _copied(before.labels, after.labels))
    return copies


def _entries_visited(cells: int, monkeypatch) -> dict:
    w0 = _world_of(cells)
    state = RunState(world=w0)
    state.op_write(cells // 2, VInt(-1))
    w1 = state.world
    visited = [0]
    changed_in = hp._changed_in

    def counted(x, y, base):
        visited[0] += len(x)
        return changed_in(x, y, base)

    out = {}
    with monkeypatch.context() as patch:
        patch.setattr(hp, "_changed_in", counted)
        for predicate in (modif_only_shareable_and_encaps, same_labels, labels_monotone,
                          lambda a, b: modif_shareable_and(a, b, frozenset()),
                          lambda a, b: heap_leq(a.heap, b.heap), lambda a, b: a == b):
            visited[0] = 0
            predicate(w0, w1)
            out[predicate] = visited[0]
    return out


def test_a_step_copies_a_bounded_number_of_entries_at_any_heap_size():
    small, large = _step_copies(250), _step_copies(16_000)
    assert small == large
    assert all(0 < copies <= WIDTH for copies in small)


def test_a_one_write_span_check_visits_the_same_entries_at_any_heap_size(monkeypatch):
    small = _entries_visited(250, monkeypatch)
    large = _entries_visited(16_000, monkeypatch)
    assert list(small.values()) == list(large.values())
    assert max(small.values()) == WIDTH


# ---------------------------------------------------------------------------
# the map's own surface


def test_addr_map_reads_like_a_mapping():
    m = AddrMap({3: "c", 1: "a", 40: "z"})
    assert len(m) == 3 and list(m) == [1, 3, 40] and list(m.keys()) == [1, 3, 40]
    assert m.get(3) == "c" and m.get(2) is None and m.get(10_000, "d") == "d"
    assert m.get(-1) is None and -1 not in m and 40 in m and m[1] == "a"
    with pytest.raises(KeyError):
        m[2]
    assert (m.keys() | AddrMap({2: "b"}).keys()) == {1, 2, 3, 40}
    assert dict(m) == {**m} == {1: "a", 3: "c", 40: "z"} and m == {1: "a", 3: "c", 40: "z"}
    m2 = m.set(2, "b").set(3, None)
    assert list(m2.items()) == [(1, "a"), (2, "b"), (40, "z")] and len(m2) == 3
    assert len(m) == 3 and m.get(3) == "c"  # the original is unchanged
    assert m2.chunks[1] is m.chunks[1]
    assert list(changed(m, m2)) == [2, 3] and m != m2
    with pytest.raises(TypeError):
        AddrMap({"x": 1})
    with pytest.raises(TypeError):
        m.set(-1, "n")


def test_addr_map_refuses_and_counts_every_in_place_write():
    m = AddrMap({1: "a"})
    writes = (
        lambda: m.__setitem__(1, "b"),
        lambda: m.__delitem__(1),
        lambda: m.update({1: "b"}),
        lambda: m.setdefault(2, "b"),
        lambda: m.pop(1),
        lambda: m.popitem(),
        lambda: m.clear(),
        lambda: m.__ior__({1: "b"}),
        lambda: setattr(m, "chunks", ()),
        lambda: delattr(m, "_len"),
    )
    for attempt in writes:
        refused = AddrMap.refused
        with pytest.raises(ImmutableWrite):
            attempt()
        assert AddrMap.refused == refused + 1
    assert dict(m) == {1: "a"} and len(m) == 1


# ---------------------------------------------------------------------------
# the snapshot records a step builds


# the records whose __init__ sets their slots through the slot descriptors
SLOT_BUILT = (VInt, VBool, VInl, VInr, VPair, VRef, VLLCons, HeapCell, Heap, World)


def _step_records() -> list:
    """The cells, heaps and worlds built by lr_alloc, label_shareable,
    hp.write and a context alloc, then a value record of each kind."""
    addr, w1 = lr_alloc(initial_world(), INT, TRIVIAL, VInt(1))
    w1 = lb.label_shareable(w1, addr)
    h2 = hp.write(w1.heap, addr, VInt(2))
    state = RunState(world=w1)
    shared = CtxOps(state).alloc(Ref(INT), VRef(addr, INT))
    w3 = state.world
    return [w1, w1.heap, w1.heap.cell(addr), h2, h2.cell(addr), w3, w3.heap,
            w3.heap.cell(shared.addr), VInt(3), VBool(True), VInl(VInt(1)), VInr(V_UNIT),
            VPair(VInt(1), shared), shared, VLLCons(VInt(1), shared.addr)]


def test_the_records_a_step_builds_are_frozen_and_slotted():
    records = _step_records()
    assert {type(r) for r in records} == {World, Heap, *SLOT_BUILT}
    for record in records:
        assert not hasattr(record, "__dict__")
        before = [getattr(record, f.name) for f in fields(record)]
        for f in fields(record):
            with pytest.raises(AttributeError):
                setattr(record, f.name, None)
            with pytest.raises(AttributeError):
                delattr(record, f.name)
        # the generated __setattr__ refuses a new name with TypeError on
        # Python 3.11: it calls super() with the class from before slots
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1
        with pytest.raises(AttributeError):
            object.__setattr__(record, "extra", 1)
        assert [getattr(record, f.name) for f in fields(record)] == before


def _twin(cls):
    """cls as a plain frozen slotted dataclass: the same name and fields,
    built by the __init__ `dataclasses` writes."""
    return make_dataclass(cls.__name__, [(f.name, f.type) for f in fields(cls)],
                          frozen=True, slots=True)


def test_slot_built_records_agree_with_their_plain_frozen_twins():
    # World.__eq__ diffs label maps, so a map field gets a map marker
    value_marker, map_marker = VInt(-7), AddrMap({99: VInt(-7)})
    for record in _step_records():
        cls = type(record)
        if cls not in SLOT_BUILT:
            continue
        twin = _twin(cls)
        names = [f.name for f in fields(cls)]
        values = [getattr(record, name) for name in names]
        mirror = twin(*values)
        assert repr(record) == repr(mirror)
        if cls not in (Heap, World):  # an AddrMap is unhashable
            assert hash(record) == hash(mirror) == hash(cls(*values))
        by_name = cls(**dict(zip(names, values)))
        assert type(by_name) is cls and by_name == record and by_name is not record
        for name in names:
            is_map = isinstance(getattr(record, name), AddrMap)
            marker = map_marker if is_map else value_marker
            other = replace(record, **{name: marker})
            assert type(other) is cls and getattr(other, name) is marker
            assert repr(other) == repr(replace(mirror, **{name: marker}))
            assert (other == record) is (replace(mirror, **{name: marker}) == mirror) is False
        assert record != mirror and mirror != record
        # the __init__ reads nothing but its slot setters: no __setattr__
        assert set(cls.__init__.__code__.co_names) == {f"_set_{name}" for name in names}


@pytest.mark.parametrize("cls", SLOT_BUILT, ids=lambda cls: cls.__name__)
def test_a_slot_built_record_is_built_in_one_python_frame(cls):
    args = [VInt(1)] * len(fields(cls))
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        record = cls(*args)
    finally:
        sys.setprofile(None)
    assert entered == ["__init__"]
    assert [getattr(record, f.name) for f in fields(cls)] == args

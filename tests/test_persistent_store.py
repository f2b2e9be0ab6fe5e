"""The persistent cell and label store and the diff-based footprint checks.

`heap.AddrMap` backs `Heap.cells` and `World.labels`; `heap.changed` lists
the addresses two maps differ at, skipping the chunks they share.  Each
footprint predicate built on it must agree with a full scan over the heap;
the full scans live here as oracles.
"""
import itertools
import sys
from dataclasses import make_dataclass

import pytest

from stores import addr_map, alloc_walked
from secref import campaigns
from secref import heap as hp
from secref import labels as lb
from secref.errors import FrozenRecordError, ImmutableWrite
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
    modif_only_shareable_and_encaps,
    modif_shareable_and,
    same_labels,
)
from secref.linker import BehaviorRecord, CtxOps, render_world
from secref.programs import RunConfig, RunState
from secref.scenarios import TASK_DONE, run_scheduler, yielding_task
from secref.values import (
    BOOL,
    INT,
    UNIT,
    V_UNIT,
    Record,
    Ref,
    Sum,
    Unit,
    VBool,
    VInl,
    VInr,
    VInt,
    VLLCons,
    VPair,
    VRef,
    _Tag,
)

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
        rewritten = HeapCell(cell.tag, cell.preorder, other)
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
        _, w = alloc_walked(w, INT, TRIVIAL, VInt(i))
    w = World(w.heap, addr_map({a: Label.SHAREABLE for a in range(2, 3 * WIDTH, 3)}))
    twin = World(Heap(addr_map(w.heap.cells), w.heap.next_addr), addr_map(w.labels))
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
    m = addr_map({3: "c", 1: "a", 40: "z"})
    assert len(m) == 3 and list(m) == [1, 3, 40] and list(m.keys()) == [1, 3, 40]
    assert m.get(3) == "c" and m.get(2) is None and m.get(10_000, "d") == "d"
    assert m.get(-1) is None and -1 not in m and 40 in m and m[1] == "a"
    with pytest.raises(KeyError):
        m[2]
    assert (m.keys() | addr_map({2: "b"}).keys()) == {1, 2, 3, 40}
    assert dict(m) == {**m} == {1: "a", 3: "c", 40: "z"} and m == {1: "a", 3: "c", 40: "z"}
    m2 = m.set(2, "b").set(3, None)
    assert list(m2.items()) == [(1, "a"), (2, "b"), (40, "z")] and len(m2) == 3
    assert len(m) == 3 and m.get(3) == "c"  # the original is unchanged
    assert m2.chunks[1] is m.chunks[1]
    assert list(changed(m, m2)) == [2, 3] and m != m2
    assert AddrMap() is hp.EMPTY_MAP  # a bare constructor gives the empty map
    with pytest.raises(TypeError):
        m.set(-1, "n")


def test_addr_map_refuses_and_counts_every_in_place_write():
    m = addr_map({1: "a"})
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
    addr, w1 = alloc_walked(initial_world(), INT, TRIVIAL, VInt(1))
    w1 = lb.label_shareable(w1, addr)
    h2 = hp.write(w1.heap, addr, VInt(2), w1.heap.cell(addr))
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
        before = [getattr(record, name) for name in record._fields]
        for name in record._fields:
            with pytest.raises(FrozenRecordError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(FrozenRecordError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        with pytest.raises(FrozenRecordError):
            record.extra = 1
        with pytest.raises(AttributeError):
            object.__setattr__(record, "extra", 1)
        assert [getattr(record, name) for name in record._fields] == before


def _record_classes() -> list:
    """Every record class of the package, tags included, by module and name:
    the `Record` subclasses a module binds under their own names (`record`
    rebuilds each class it is given, so a tag class's first build is also a
    `Record` subclass, but nothing binds it)."""
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if getattr(sys.modules[sub.__module__], sub.__name__, None) is sub:
                found.add(sub)
    found = {cls for cls in found if cls.__module__.startswith("secref.")}
    return sorted(found - {_Tag}, key=lambda cls: (cls.__module__, cls.__name__))


RECORD_CLASSES = _record_classes()


def _sample(cls) -> list:
    """Arguments to build one record of cls with: its field values, except
    for a behaviour record, which is built from an outcome and a world."""
    if cls is BehaviorRecord:
        return [("ok", 1), _one_cell_world(VInt(3))]
    if issubclass(cls, _Tag):
        return [INT, BOOL][:len(cls._fields)]
    if cls is RunConfig:
        return ["paranoid", 7]
    if cls is World:  # World.__eq__ diffs label maps
        return [hp.EMPTY_HEAP, addr_map({1: Label.SHAREABLE})]
    return [VInt(i) for i in range(len(cls._fields))]


def _one_cell_world(value) -> World:
    return alloc_walked(initial_world(), INT, TRIVIAL, value)[1]


def _held(cls, args) -> list:
    """The field values of `cls(*args)`: the arguments, except that a
    behaviour record holds its world's render as its dump."""
    if cls is BehaviorRecord:
        return [args[0], render_world(args[1])]
    return list(args)


def _marker(cls, value):
    """An argument for a field of cls in place of value, unequal to it."""
    if isinstance(value, World):
        return _one_cell_world(VInt(-7))
    if isinstance(value, AddrMap):
        return addr_map({99: VInt(-7)})
    if issubclass(cls, _Tag):
        return UNIT
    return "fast" if cls is RunConfig and value == "paranoid" else VInt(-7)


def _twin(cls):
    """cls as a plain frozen slotted dataclass: the same name and fields,
    built by the __init__ `dataclasses` writes; a tag's twin, like the tag,
    compares by identity."""
    return make_dataclass(cls.__name__, cls._fields, frozen=True, slots=True,
                          eq=not issubclass(cls, _Tag))


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as err:  # a record holding an AddrMap
        return str(err)


def test_every_record_class_of_the_package_is_listed():
    names = [cls.__name__ for cls in RECORD_CLASSES]
    assert len(names) == len(set(names)) == 65
    assert {World, Heap, RunConfig, BehaviorRecord, Unit, Sum, *SLOT_BUILT} <= set(RECORD_CLASSES)


def test_slot_built_records_agree_with_their_plain_frozen_twins():
    for cls in RECORD_CLASSES:
        _agrees_with_its_twin(cls)


def _agrees_with_its_twin(cls):
    names, values = cls._fields, _sample(cls)
    held = _held(cls, values)
    record, twin = cls(*values), _twin(cls)
    mirror = twin(*held)
    assert not hasattr(record, "__dict__")
    assert [getattr(record, name) for name in names] == held
    assert repr(record) == repr(mirror)
    if issubclass(cls, _Tag):
        assert hash(record) == object.__hash__(record)
    else:
        assert _hash_or_error(record) == _hash_or_error(mirror) == _hash_or_error(cls(*values))
    if issubclass(cls, _Tag):  # built by _Tag.__new__ and interned
        assert cls(*values) is record
    else:
        params = ("outcome", "world") if cls is BehaviorRecord else names
        by_name = cls(**dict(zip(params, values)))
        assert type(by_name) is cls and by_name == record and by_name is not record
    for i, name in enumerate(names):
        marker = _marker(cls, values[i])
        changed_values = [*values[:i], marker, *values[i + 1:]]
        changed_held = _held(cls, changed_values)
        other, other_mirror = cls(*changed_values), twin(*changed_held)
        assert type(other) is cls and [getattr(other, n) for n in names] == changed_held
        assert getattr(other, name) is marker or cls is BehaviorRecord
        assert repr(other) == repr(other_mirror)
        assert (other == record) is (other_mirror == mirror) is False
        with pytest.raises(FrozenRecordError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, marker)
        with pytest.raises(FrozenRecordError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(FrozenRecordError, match="cannot assign to field 'extra'"):
        record.extra = 1
    assert record != mirror and mirror != record
    assert [getattr(record, name) for name in names] == held


# the one record with fields that writes its own __init__: it keeps the final
# world until its dump is first read
OWN_INIT = {BehaviorRecord}


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_a_slot_built_record_is_built_in_one_python_frame(cls):
    args = _sample(cls)
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        record = cls(*args)
    finally:
        sys.setprofile(None)
    assert [getattr(record, name) for name in cls._fields] == _held(cls, args)
    if issubclass(cls, _Tag):
        assert entered == ["__new__"]  # tags are built and interned by _Tag.__new__
    elif not cls._fields:
        assert entered == [] and cls.__init__ is object.__init__
    else:
        post = ["__post_init__"] if hasattr(cls, "__post_init__") else []
        assert entered == ["__init__", *post]
        if cls not in OWN_INIT:
            # the __init__ reads nothing but its slot setters: no __setattr__
            setters = {f"_set_{name}" for name in cls._fields}
            assert set(cls.__init__.__code__.co_names) == setters | set(post)

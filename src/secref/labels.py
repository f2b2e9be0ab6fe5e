"""Reference labeling: Private / Shareable / Encapsulated.

A world pairs a heap with a total label assignment (absent entries read as
Private).  The global invariant ties the two together: shareable cells may
only reach shareable cells, and only an address with a cell carries a label
other than Private.  Both maps are persistent `AddrMap`s, so a world
never changes once built, and a labeling copies one chunk of the label map.
`World`, like `heap.Heap`, is a `values.Record`: its one constructor takes
the heap and an `AddrMap` of labels as they are.

The two-world footprint predicates diff the maps with `heap.changed`: they
visit only the addresses whose cell or label differs between the worlds, so
a context span's monitor costs what the span touched, not the heap size.
"""
from __future__ import annotations

import enum
from typing import Optional

from . import heap as hp
from .errors import (
    AlreadyLabeled,
    DanglingInit,
    MonotonicRefShare,
    ShareLeak,
    TypeMismatch,
)
from .heap import EMPTY_MAP, MASK, SHIFT, AddrMap, Heap, HeapCell, Preorder, changed
from .values import Addr, TypeTag, Value, record, ref_entries


class Label(enum.Enum):
    PRIVATE = "Private"
    SHAREABLE = "Shareable"
    ENCAPSULATED = "Encapsulated"


# the members, bound once: on CPython 3.11 a class-attribute lookup of an enum
# member costs about eight times a global lookup, and step paths test labels
PRIVATE = Label.PRIVATE
SHAREABLE = Label.SHAREABLE
ENCAPSULATED = Label.ENCAPSULATED


def label_leq(l0: Label, l1: Label) -> bool:
    if l0 is PRIVATE:
        return True
    return l0 is l1


@record
class World:
    heap: Heap
    labels: AddrMap  # Addr -> Label; absent means Private

    def label_of(self, addr: Addr) -> Label:
        chunks, hi = self.labels.chunks, addr >> SHIFT
        if 0 <= hi < len(chunks):
            label = chunks[hi][addr & MASK]
            if label is not None:
                return label
        return PRIVATE

    def __eq__(self, other):
        if not isinstance(other, World):
            return NotImplemented
        if self.heap != other.heap:
            return False
        return all(
            self.label_of(k) is other.label_of(k) for k in changed(self.labels, other.labels)
        )


NO_LABELS = EMPTY_MAP


def initial_world() -> World:
    return World(hp.EMPTY_HEAP, NO_LABELS)


def is_private(w: World, r: Addr) -> bool:
    return w.label_of(r) is PRIVATE


def is_shareable(w: World, r: Addr) -> bool:
    return w.label_of(r) is SHAREABLE


def is_encapsulated(w: World, r: Addr) -> bool:
    return w.label_of(r) is ENCAPSULATED


def _check_embedded_contained(w: World, entries: list, who: str) -> None:
    """Each embedded (address, tag) entry is contained and of the expected tag."""
    cells = w.heap.cells
    for addr, expected in entries:
        cell = cells.get(addr)
        if cell is None:
            raise DanglingInit(f"{who}: embedded address {addr} not in heap")
        actual = cell.tag
        if actual is not expected:
            raise TypeMismatch(
                f"{who}: embedded ref {addr} expects cell of {expected}, found {actual}"
            )


def _private_embedded(w: World, entries: list) -> frozenset[Addr]:
    return frozenset(a for a, _ in entries if not is_shareable(w, a))


def _entries_ok(w: World, addr: Addr, entries: list) -> bool:
    """Conjuncts (a) and (b) of lr_inv for the cell at addr, given the
    `ref_entries` of its value."""
    cells, label_of = w.heap.cells, w.label_of
    shareable = label_of(addr) is SHAREABLE
    for sub, expected in entries:
        target = cells.get(sub)
        if target is None or target.tag is not expected:
            return False
        if shareable and label_of(sub) is not SHAREABLE:
            return False
    return True


def lr_inv(w: World) -> bool:
    """The global invariant, checked over the finite parts of the world.

    (a) stored values embed only contained, correctly-typed addresses;
    (b) shareable cells embed only shareable addresses;
    (c) only an address with a cell carries a label other than Private.
    """
    cells = w.heap.cells
    for addr, cell in cells.items():
        entries = ref_entries(cell.tag, cell.value)
        if entries and not _entries_ok(w, addr, entries):
            return False
    return all(label is PRIVATE or cells.get(addr) is not None for addr, label in w.labels.items())


def lr_inv_at(w: World, r: Addr, walk: Optional[tuple],
              cell: Optional[HeapCell]) -> bool:
    """lr_inv on w, given that it held before a step that changed only the
    cell and label of address r.

    lr_inv is a conjunction over cells.  Cells are never deallocated, keep
    their type tag, and labels only move outward from Private, so a change
    at r cannot break another cell's conjuncts: a cell embedding r, or a
    shareable cell reaching r, already needed r contained, correctly typed
    and shareable.
    What is left to check is (a) and (b) for r's cell, and (c) for r.

    `walk`, when not None, is the step's walk of the value it stored:
    (tag, value, entries), entries being `ref_entries(tag, value)`.  They
    stand for the walk of r's cell only when that cell holds those very tag
    and value objects; otherwise the cell is walked here.  Either way each
    entry is checked against w.  `cell` is r's cell in w as the caller found
    it, None when r has none.
    """
    if cell is not None:
        if walk is not None and walk[0] is cell.tag and walk[1] is cell.value:
            entries = walk[2]
        else:
            entries = ref_entries(cell.tag, cell.value)
        if entries and not _entries_ok(w, r, entries):
            return False
    return cell is not None or w.label_of(r) is PRIVATE


# `entries` are `ref_entries` of the stored value at the cell's tag, which
# the caller walked: that walk, once per store, is the store's conformance
# check, and `lr_alloc` and `lr_write` check its entries without walking the
# value again.
def lr_alloc(w: World, tag: TypeTag, rel: Preorder, init: Value,
             entries: list) -> tuple[Addr, World]:
    if entries:
        _check_embedded_contained(w, entries, "alloc")
    addr, h1 = hp.alloc(w.heap, tag, rel, init)
    return addr, World(h1, w.labels)


def lr_read(w: World, r: Addr) -> Value:
    return hp.read(w.heap, r)


def lr_write(w: World, r: Addr, v: Value, entries: list, cell: HeapCell) -> World:
    """Write v to the cell at r, `cell` as the caller found it: containment
    of the embedded addresses, ShareLeak for a shareable cell, and the heap
    write's preorder check.  The caller refuses an address with no cell."""
    if entries:
        _check_embedded_contained(w, entries, "write")
        if w.label_of(r) is SHAREABLE:
            leaked = _private_embedded(w, entries)
            if leaked:
                raise ShareLeak(r, v, leaked)
    return World(hp.write(w.heap, r, v, cell), w.labels)


def label_shareable(w: World, r: Addr, walk: Optional[list] = None) -> World:
    """Label r Shareable: it must be contained, Private, under the trivial
    preorder and embed only shareable addresses (ShareLeak).  `walk`, when a
    list, receives that test's walk of r's value, (tag, value, entries), for
    the paranoid monitor."""
    cell = w.heap.cell(r)
    if not is_private(w, r):
        raise AlreadyLabeled(f"{r} is already {w.label_of(r).value}")
    if cell.preorder.name != hp.TRIVIAL.name:
        raise MonotonicRefShare(
            f"cannot share {r}: carries preorder {cell.preorder.name}"
        )
    entries = ref_entries(cell.tag, cell.value)
    leaked = _private_embedded(w, entries)
    if leaked:
        raise ShareLeak(r, cell.value, leaked)
    if walk is not None:
        walk.append((cell.tag, cell.value, entries))
    return World(w.heap, w.labels.set(r, SHAREABLE))


def label_encapsulated(w: World, r: Addr) -> World:
    w.heap.cell(r)
    if not is_private(w, r):
        raise AlreadyLabeled(f"{r} is already {w.label_of(r).value}")
    return World(w.heap, w.labels.set(r, ENCAPSULATED))


# ---------------------------------------------------------------------------
# two-world footprint predicates, over the addresses the two worlds differ at


def modif_only_shareable_and_encaps(w0: World, w1: World) -> bool:
    """Every cell of w0 that is Private in w0 holds the same value in w1."""
    cells0, cells1, labels0 = w0.heap.cells, w1.heap.cells, w0.labels
    for addr in changed(cells0, cells1, within=cells0):
        old = cells0.get(addr)
        # a label other than Private is Shareable or Encapsulated
        if old is None or labels0.get(addr, PRIVATE) is not PRIVATE:
            continue
        new = cells1.get(addr)
        if new is None or new.value != old.value:
            return False
    return True


def modif_shareable_and(w0: World, w1: World, s) -> bool:
    """Every cell of w0 that is not Shareable in w0 and not in s holds the
    same value in w1."""
    cells0, cells1 = w0.heap.cells, w1.heap.cells
    for addr in changed(cells0, cells1, within=cells0):
        old = cells0.get(addr)
        if old is None or is_shareable(w0, addr) or addr in s:
            continue
        new = cells1.get(addr)
        if new is None or new.value != old.value:
            return False
    return True


def same_labels(w0: World, w1: World) -> bool:
    """Every cell of w0 carries the same label in w1."""
    cells0 = w0.heap.cells
    return all(
        cells0.get(a) is None or w0.label_of(a) is w1.label_of(a)
        for a in changed(w0.labels, w1.labels, within=cells0)
    )


def labels_monotone(w0: World, w1: World) -> bool:
    return all(label_leq(w0.label_of(a), w1.label_of(a)) for a in changed(w0.labels, w1.labels))

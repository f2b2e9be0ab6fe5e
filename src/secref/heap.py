"""Monotonic heap: typed cells with per-cell preorders, never deallocated.

Heaps are immutable snapshots; every mutation returns a new heap sharing the
unchanged cells.  The cell map is a `FrozenDict`, so an in-place write raises
instead of silently changing a snapshot other code still holds.  Addresses
start at 1.  Address 0 is reserved as the label map's identity marker and is
never allocated.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ImmutableWrite, PreorderViolation, TypeMismatch, Uncontained
from .values import Addr, TypeTag, Value, VInl, VInt, VLLNil, VPair, conforms, is_storable

LABEL_MAP_MARKER: Addr = 0


class FrozenDict(dict):
    """A dict that refuses every in-place change after construction.

    Subclassing dict keeps reads at dict speed and keeps `dict(...)` and
    `with_entry` on the C fast copy path.  Every refused write is counted in
    `FrozenDict.refused`, so a monitor can tell that one was attempted even
    when the caller swallowed the error.
    """

    __slots__ = ()
    refused = 0

    def __new__(cls, *args, **kwargs):
        d = dict.__new__(cls)
        dict.__init__(d, *args, **kwargs)
        return d

    def __init__(self, *args, **kwargs):
        pass  # filled by __new__; calling __init__ again must not refill it

    def _refuse(self, *args, **kwargs):
        FrozenDict.refused += 1
        raise ImmutableWrite("snapshot maps are immutable; build a new one instead")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


_new_dict = dict.__new__
_fill = dict.update
_set = dict.__setitem__


def with_entry(d: dict, key, value) -> FrozenDict:
    """A FrozenDict copy of d with key bound to value."""
    out = _new_dict(FrozenDict)
    _fill(out, d)
    _set(out, key, value)
    return out


@dataclass(frozen=True)
class Preorder:
    """A named, executable binary relation over cell values.

    Reflexivity and transitivity are not assumed; the property suite checks
    them for every registered preorder.
    """

    name: str
    relation: Callable[[Value, Value], bool]

    def holds(self, old: Value, new: Value) -> bool:
        return bool(self.relation(old, new))


def _none_then_fixed(old: Value, new: Value) -> bool:
    # option-valued cell: unset may become anything, set stays put
    if isinstance(old, VInl):
        return True
    return old == new


def _nil_then_fixed(old: Value, new: Value) -> bool:
    # list-node cell: nil may grow a node, a node never changes
    if isinstance(old, VLLNil):
        return True
    return old == new


def _hist_prefix(old: Value, new: Value) -> bool:
    # pair cell whose first component is a list node under nil-then-fixed
    if not (isinstance(old, VPair) and isinstance(new, VPair)):
        return False
    return _nil_then_fixed(old.first, new.first)


TRIVIAL = Preorder("trivial", lambda a, b: True)
INT_LEQ = Preorder(
    "int_leq",
    lambda a, b: isinstance(a, VInt) and isinstance(b, VInt) and a.value <= b.value,
)
NONE_THEN_FIXED = Preorder("none_then_fixed", _none_then_fixed)
NIL_THEN_FIXED = Preorder("nil_then_fixed", _nil_then_fixed)
HIST_PREFIX = Preorder("hist_prefix", _hist_prefix)

PREORDERS: dict[str, Preorder] = {
    p.name: p for p in (TRIVIAL, INT_LEQ, NONE_THEN_FIXED, NIL_THEN_FIXED, HIST_PREFIX)
}


@dataclass(frozen=True)
class HeapCell:
    addr: Addr
    tag: TypeTag
    preorder: Preorder
    value: Value


@dataclass(frozen=True)
class Heap:
    cells: FrozenDict  # Addr -> HeapCell
    next_addr: Addr

    def __post_init__(self):
        if type(self.cells) is not FrozenDict:
            object.__setattr__(self, "cells", FrozenDict(self.cells))

    def contains(self, addr: Addr) -> bool:
        return addr in self.cells

    def cell(self, addr: Addr) -> HeapCell:
        cell = self.cells.get(addr)
        if cell is None:
            raise Uncontained(addr)
        return cell

    def addresses(self):
        return self.cells.keys()

    def __eq__(self, other):
        return (
            isinstance(other, Heap)
            and self.next_addr == other.next_addr
            and self.cells == other.cells
        )


EMPTY_HEAP = Heap(cells=FrozenDict(), next_addr=1)


def alloc(h: Heap, tag: TypeTag, rel: Preorder, init: Value) -> tuple[Addr, Heap]:
    if not is_storable(tag):
        raise TypeMismatch(f"{tag} is not a storable type")
    if not conforms(init, tag):
        raise TypeMismatch(f"initial value {init!r} does not conform to {tag}")
    addr = h.next_addr
    cells = with_entry(h.cells, addr, HeapCell(addr=addr, tag=tag, preorder=rel, value=init))
    return addr, Heap(cells=cells, next_addr=addr + 1)


def read(h: Heap, r: Addr) -> Value:
    return h.cell(r).value


def write(h: Heap, r: Addr, v: Value) -> Heap:
    cell = h.cell(r)
    if not conforms(v, cell.tag):
        raise TypeMismatch(f"value {v!r} does not conform to {cell.tag} at {r}")
    if not cell.preorder.holds(cell.value, v):
        raise PreorderViolation(r, cell.preorder.name, cell.value, v)
    cells = with_entry(h.cells, r, HeapCell(addr=r, tag=cell.tag, preorder=cell.preorder, value=v))
    return Heap(cells=cells, next_addr=h.next_addr)


def heap_leq(h0: Heap, h1: Heap) -> bool:
    """Every cell of h0 is still present in h1 and evolved along its preorder."""
    for addr, cell in h0.cells.items():
        if not h1.contains(addr):
            return False
        if not cell.preorder.holds(cell.value, h1.cell(addr).value):
            return False
    return True


"""Monotonic heap: typed cells with per-cell preorders, never deallocated.

Heaps are immutable snapshots; every mutation returns a new heap sharing the
unchanged cells.  The cell map is an `AddrMap`, a persistent chunked vector:
a write copies one chunk of WIDTH cells and the spine of chunk pointers, not
the heap, and an in-place write raises instead of silently changing a
snapshot other code still holds.  `changed` lists the addresses two maps
differ at by skipping the chunks they share, so comparing two heaps costs
what separates them.  Addresses start at 1 and are never freed.
"""
from __future__ import annotations

from collections.abc import Mapping
from functools import partial
from itertools import chain, compress, count, repeat
from operator import is_not
from typing import Callable, Optional

from .errors import ImmutableWrite, PreorderViolation, TypeMismatch, Uncontained
from .values import Addr, TypeTag, Value, VInl, VInt, VLLNil, VPair, record

# an AddrMap chunk holds WIDTH consecutive addresses
SHIFT = 5
WIDTH = 1 << SHIFT
MASK = WIDTH - 1
HOLES = (None,) * WIDTH  # an all-absent chunk
_SLOTS = range(WIDTH)
_bound = partial(is_not, None)


class AddrMap(Mapping):
    """A persistent map from addresses to entries: a copy-on-write vector of
    fixed-width chunks.

    `chunks` is a tuple of WIDTH-entry tuples; address a lives at
    `chunks[a >> SHIFT][a & MASK]`, and None marks an absent entry.
    Addresses are dense, start at 1 and only grow, which suits a vector.
    `set` copies one chunk and the spine of chunk pointers and shares every
    other chunk with the map it came from (path copying, as in Driscoll,
    Sarnak, Sleator and Tarjan, "Making Data Structures Persistent"), so
    `changed` can skip shared chunks without looking inside them.

    Every in-place mutator raises ImmutableWrite, which counts the refusal,
    so a monitor can tell that one was attempted even when the caller
    swallowed the error.
    """

    __slots__ = ("chunks", "_len")

    def __new__(cls):
        """The empty map: every map is built from it with `set`."""
        return EMPTY_MAP

    def get(self, key, default=None):
        chunks, hi = self.chunks, key >> SHIFT
        if 0 <= hi < len(chunks):
            value = chunks[hi][key & MASK]
            if value is not None:
                return value
        return default

    def __getitem__(self, key):
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        """The bound addresses, ascending."""
        return compress(count(), map(is_not, chain.from_iterable(self.chunks), repeat(None)))

    def items(self):
        return zip(iter(self), filter(_bound, chain.from_iterable(self.chunks)))

    def set(self, key: int, value) -> "AddrMap":
        """A copy of this map with key bound to value (None unbinds it)."""
        if key < 0:
            raise TypeError(f"addresses are non-negative ints, not {key!r}")
        hi, lo = key >> SHIFT, key & MASK
        spine = list(self.chunks)
        if hi >= len(spine):
            spine.extend([HOLES] * (hi + 1 - len(spine)))
        chunk = list(spine[hi])
        old = chunk[lo]
        chunk[lo] = value
        spine[hi] = tuple(chunk)
        return _make(tuple(spine), self._len + (value is not None) - (old is not None))

    def __repr__(self) -> str:
        return f"AddrMap({dict(self.items())!r})"

    def _refuse(self, *args, **kwargs):
        raise ImmutableWrite("snapshot maps are immutable; build a new one with set()")

    __setitem__ = __delitem__ = __ior__ = __setattr__ = __delattr__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


_new = object.__new__
_set_chunks = AddrMap.chunks.__set__
_set_len = AddrMap._len.__set__


def _make(chunks: tuple, n: int) -> AddrMap:
    m = _new(AddrMap)
    _set_chunks(m, chunks)
    _set_len(m, n)
    return m


EMPTY_MAP = _make((), 0)


def _changed_in(x: tuple, y: tuple, base: int):
    """Addresses whose entries differ between two chunks starting at base."""
    return map(base.__add__, compress(_SLOTS, map(is_not, x, y)))


def changed(a: AddrMap, b: AddrMap, within: Optional[AddrMap] = None):
    """The addresses, ascending, whose entries are not the same object in a
    and b (an absent entry is None); with `within`, only those in the
    address range of within's chunks.

    Chunks the two maps share are skipped by identity, so between a map
    and one derived from it by k `set`s this compares the spines (one
    pointer per WIDTH addresses) and then at most k chunks entry by entry.
    Maps that share nothing are compared entry by entry, in O(n).
    """
    ca, cb = a.chunks, b.chunks
    if ca is cb:
        return
    n = max(len(ca), len(cb)) if within is None else len(within.chunks)
    ca = ca[:n] + (HOLES,) * (n - len(ca))
    cb = cb[:n] + (HOLES,) * (n - len(cb))
    for hi in compress(count(), map(is_not, ca, cb)):
        yield from _changed_in(ca[hi], cb[hi], hi << SHIFT)


@record
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


@record
class HeapCell:
    tag: TypeTag
    preorder: Preorder
    value: Value


@record
class Heap:
    cells: AddrMap  # Addr -> HeapCell
    next_addr: Addr

    def contains(self, addr: Addr) -> bool:
        return self.cells.get(addr) is not None

    def cell(self, addr: Addr) -> HeapCell:
        chunks, hi = self.cells.chunks, addr >> SHIFT
        if 0 <= hi < len(chunks):
            cell = chunks[hi][addr & MASK]
            if cell is not None:
                return cell
        raise Uncontained(addr)

    def addresses(self):
        return self.cells.keys()


EMPTY_HEAP = Heap(EMPTY_MAP, 1)


# The heap layer does not check that a stored value conforms to its cell's
# tag: the caller has, once per store, with the `ref_entries` walk of the
# checked store step or of the context rule.  A write is given r's cell as the
# caller found it, so the cell is not looked up again either.
def alloc(h: Heap, tag: TypeTag, rel: Preorder, init: Value) -> tuple[Addr, Heap]:
    if not tag.storable:
        raise TypeMismatch(f"{tag} is not a storable type")
    addr = h.next_addr
    return addr, Heap(h.cells.set(addr, HeapCell(tag, rel, init)), addr + 1)


def read(h: Heap, r: Addr) -> Value:
    return h.cell(r).value


def write(h: Heap, r: Addr, v: Value, cell: HeapCell) -> Heap:
    if not cell.preorder.relation(cell.value, v):
        raise PreorderViolation(r, cell.preorder.name, cell.value, v)
    return Heap(h.cells.set(r, HeapCell(cell.tag, cell.preorder, v)), h.next_addr)


def heap_leq(h0: Heap, h1: Heap) -> bool:
    """Every cell of h0 is still present in h1 and evolved along its preorder.

    Only the cells that changed are checked: an unchanged cell evolved along
    its preorder by reflexivity, which the law suite checks for every
    registered preorder.
    """
    cells0, cells1 = h0.cells, h1.cells
    for addr in changed(cells0, cells1, within=cells0):
        old = cells0.get(addr)
        if old is None:
            continue
        new = cells1.get(addr)
        if new is None or not old.preorder.holds(old.value, new.value):
            return False
    return True

"""First-order dynamic values and their deeply embedded types.

Storable types are unit, int and bool closed under sums, pairs, references
and linked lists.  Linked lists are the one recursive container: a list node
is an ordinary value whose tail is the address of the next node's cell.

`Arrow` is the one non-storable tag: the type of a function, which the
target language and the boundary have but no cell may hold and no value
conforms to.  A tag's `storable` fact tells the two kinds of tag apart.
Tags are hash-consed, so two tags are equal exactly when they are the same
object.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional, Union

from .errors import TypeMismatch, Uncontained

if TYPE_CHECKING:
    from .heap import Heap

Addr = int


# ---------------------------------------------------------------------------
# type tags
#
# Tags are hash-consed: a constructor returns the one tag of its class with
# those children, from `_TAGS`, so tag equality is `is`.  A key holds the
# children themselves, which as tags hash and compare by identity.  Each tag
# is built with facts taken from its children's: `storable` (no arrow),
# `well_formed` (no arrow under a `ref` or `llist`), `depth` and `size` (its
# node count as a tree).  A hashable child that is not a tag is accepted;
# `conforms` refuses it when a value reaches it.
#
# Each tag checks its own values: `_conforms(v)` is structural conformance,
# and `_refs(v, out)` appends the embedded (addr, tag) entries of a value
# already known to conform, without checking it again.  The value classes
# they test are defined below; the names resolve when a method runs.

_TAGS: dict = {}


class _Tag:
    __slots__ = ("storable", "well_formed", "depth", "size")

    def __new__(cls, *kids):
        key = (cls, *kids)
        tag = _TAGS.get(key)
        if tag is None:
            names = cls.__dataclass_fields__
            if len(kids) != len(names):
                raise TypeError(f"{cls.__name__} takes {len(names)} children, not {len(kids)}")
            storable = all(getattr(k, "storable", False) for k in kids)
            slots = dict(zip(names, kids), storable=storable and cls is not Arrow,
                         well_formed=storable if cls in (Ref, LList)
                         else all(getattr(k, "well_formed", True) for k in kids),
                         depth=1 + max((getattr(k, "depth", 1) for k in kids), default=0),
                         size=1 + sum(getattr(k, "size", 1) for k in kids))
            tag = _TAGS[key] = object.__new__(cls)
            for name, x in slots.items():
                object.__setattr__(tag, name, x)
        return tag


# frozen slotted tag classes, whose instances `_Tag.__new__` builds and interns
_tag_class = dataclass(frozen=True, slots=True, eq=False, init=False)


@_tag_class
class Unit(_Tag):
    def __str__(self):
        return "unit"

    def _conforms(self, v) -> bool:
        return isinstance(v, VUnit)

    def _refs(self, v, out: list) -> None:
        pass


@_tag_class
class Int(_Tag):
    def __str__(self):
        return "int"

    def _conforms(self, v) -> bool:
        return isinstance(v, VInt)

    def _refs(self, v, out: list) -> None:
        pass


@_tag_class
class Bool(_Tag):
    def __str__(self):
        return "bool"

    def _conforms(self, v) -> bool:
        return isinstance(v, VBool)

    def _refs(self, v, out: list) -> None:
        pass


@_tag_class
class Sum(_Tag):
    left: "TypeTag"
    right: "TypeTag"

    def __str__(self):
        return f"(sum {self.left} {self.right})"

    def _conforms(self, v) -> bool:
        if isinstance(v, VInl):
            return self.left._conforms(v.payload)
        if isinstance(v, VInr):
            return self.right._conforms(v.payload)
        return False

    def _refs(self, v, out: list) -> None:
        (self.left if isinstance(v, VInl) else self.right)._refs(v.payload, out)


@_tag_class
class Pair(_Tag):
    first: "TypeTag"
    second: "TypeTag"

    def __str__(self):
        return f"(pair {self.first} {self.second})"

    def _conforms(self, v) -> bool:
        return (
            isinstance(v, VPair)
            and self.first._conforms(v.first)
            and self.second._conforms(v.second)
        )

    def _refs(self, v, out: list) -> None:
        self.first._refs(v.first, out)
        self.second._refs(v.second, out)


@_tag_class
class Ref(_Tag):
    target: "TypeTag"

    def __str__(self):
        return f"(ref {self.target})"

    def _conforms(self, v) -> bool:
        return isinstance(v, VRef) and v.target is self.target

    def _refs(self, v, out: list) -> None:
        out.append((v.addr, self.target))


@_tag_class
class LList(_Tag):
    elem: "TypeTag"

    def __str__(self):
        return f"(llist {self.elem})"

    def _conforms(self, v) -> bool:
        if isinstance(v, VLLNil):
            return True
        return isinstance(v, VLLCons) and self.elem._conforms(v.head)

    def _refs(self, v, out: list) -> None:
        if isinstance(v, VLLCons):
            self.elem._refs(v.head, out)
            out.append((v.tail, self))


@_tag_class
class Arrow(_Tag):
    arg: "TypeTag"
    res: "TypeTag"

    def __str__(self):
        return f"(-> {self.arg} {self.res})"

    def _conforms(self, v) -> bool:
        return False

    def _refs(self, v, out: list) -> None:
        raise TypeMismatch(f"no value conforms to {self}")


TypeTag = Union[Unit, Int, Bool, Sum, Pair, Ref, LList, Arrow]

UNIT = Unit()
INT = Int()
BOOL = Bool()


# ---------------------------------------------------------------------------
# values


def frozen_record(cls):
    """cls as a frozen slotted dataclass whose `__init__` sets each slot
    through its descriptor, written straight-line the way `dataclasses`
    writes its own.  The frozen dataclass `__init__` goes through
    `object.__setattr__` per field, which makes a record cost about half as
    much again; assignment and deletion are refused all the same."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):{body}", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@dataclass(frozen=True, slots=True)
class VUnit:
    def __str__(self):
        return "()"


@frozen_record
class VInt:
    value: int

    def __str__(self):
        return str(self.value)


@frozen_record
class VBool:
    value: bool

    def __str__(self):
        return "true" if self.value else "false"


@frozen_record
class VInl:
    payload: "Value"

    def __str__(self):
        return f"inl({self.payload})"


@frozen_record
class VInr:
    payload: "Value"

    def __str__(self):
        return f"inr({self.payload})"


@frozen_record
class VPair:
    first: "Value"
    second: "Value"

    def __str__(self):
        return f"({self.first}, {self.second})"


@frozen_record
class VRef:
    addr: Addr
    target: TypeTag

    def __str__(self):
        return f"ref@{self.addr}"


@dataclass(frozen=True, slots=True)
class VLLNil:
    def __str__(self):
        return "llnil"


@frozen_record
class VLLCons:
    head: "Value"
    tail: Addr

    def __str__(self):
        return f"llcons({self.head}, ref@{self.tail})"


Value = Union[VUnit, VInt, VBool, VInl, VInr, VPair, VRef, VLLNil, VLLCons]

V_UNIT = VUnit()
V_NIL = VLLNil()
# the two booleans; comparisons return these instead of building new ones
V_TRUE = VBool(True)
V_FALSE = VBool(False)


def conforms(v: Value, t: TypeTag) -> bool:
    """Structural conformance of a value to a type tag."""
    try:
        return t._conforms(v)
    except AttributeError as err:
        # reached a node, at any depth, that is not a type tag
        raise TypeMismatch(f"unknown type tag {err.obj!r}") from None


# ---------------------------------------------------------------------------
# reference traversal (one level deep: stops at embedded addresses)


def ref_entries(t: TypeTag, v: Value) -> list[tuple[Addr, TypeTag]]:
    """Each embedded address with the type tag its cell must carry, in
    value order.  The value is checked against t once, then walked."""
    if not conforms(v, t):
        raise TypeMismatch(f"value {v!r} does not conform to {t}")
    out: list = []
    t._refs(v, out)
    return out


# ---------------------------------------------------------------------------
# linked-list chains


def llist_collect(h: "Heap", head: Addr, first=None) -> Optional[list[Value]]:
    """Element values of the chain from the node in cell head, or from
    first(value) of that cell, to the nil; None when the chain revisits a
    cell, head included."""
    out: list[Value] = []
    seen: set[Addr] = set()
    cur = head
    while True:
        if cur in seen:
            return None
        seen.add(cur)
        cell = h.cells.get(cur)
        if cell is None:
            raise Uncontained(cur, "linked-list tail")
        node = cell.value
        if first is not None:
            node, first = first(node), None
        if isinstance(node, VLLNil):
            return out
        if not isinstance(node, VLLCons):
            raise TypeMismatch(f"cell {cur} holds {node!r}, not a list node")
        out.append(node.head)
        cur = node.tail


def llist_sorted(h: "Heap", head: Addr) -> bool:
    """Non-decreasing integer chain; a cycle counts as unsorted."""
    elems = llist_collect(h, head)
    if elems is None:
        return False
    ints = [e.value for e in elems if isinstance(e, VInt)]
    if len(ints) != len(elems):
        return False
    return all(a <= b for a, b in zip(ints, ints[1:]))


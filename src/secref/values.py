"""First-order dynamic values and their deeply embedded types.

Storable types are unit, int and bool closed under sums, pairs, references
and linked lists.  Linked lists are the one recursive container: a list node
is an ordinary value whose tail is the address of the next node's cell.

`Arrow` is the one non-storable tag: the type of a function, which the
target language and the boundary have but no cell may hold and no value
conforms to.  A tag's `storable` fact tells the two kinds of tag apart.
Tags are hash-consed, so two tags are equal exactly when they are the same
object.

Every record of the package, value, tag, cell, world, term or spec, is made
by `record`: a frozen slotted `Record` whose fields are its annotations.
"""
from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Union

from .errors import FrozenRecordError, TypeMismatch, Uncontained

if TYPE_CHECKING:
    from .heap import Heap

Addr = int


# ---------------------------------------------------------------------------
# records


class Record:
    """The shared methods of every record class; see `record`."""

    __slots__ = ()
    _fields: tuple = ()
    _values = staticmethod(lambda record: ())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return self is other or values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join([f"{n}={v!r}" for n, v in zip(self._fields, self._values(self))])
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls):
    """cls as a frozen slotted `Record` whose fields are its annotations, in
    order, with their values in the body as defaults; a `__slots__` in the
    body adds slots that are not fields.  The one code generated is an
    `__init__` that sets each slot through its descriptor in one frame, then
    calls any `__post_init__`; a class with no fields, or its own `__init__`
    or `__new__` (tags: `_Tag.__new__`), gets none.  `Record`'s methods give
    the rest as a frozen dataclass would.  No metaclass: `isinstance`
    against a record class keeps the interpreter's fast path."""
    ns = dict(cls.__dict__)
    names = tuple(ns.get("__annotations__", ()))
    given = [n for n in names if n in ns]
    if given != list(names[len(names) - len(given):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    defaults = tuple(ns.pop(n) for n in given)
    extra = tuple(ns.get("__slots__", ()))
    for n in ("__dict__", "__weakref__", *extra):
        ns.pop(n, None)
    ns["__slots__"], ns["__qualname__"] = names + extra, cls.__qualname__
    if "__eq__" in ns and ns.get("__hash__") is None:
        ns["__hash__"] = Record.__hash__  # as a frozen dataclass hashes
    bases = tuple(b for b in cls.__bases__ if b is not object)
    cls = type(cls.__name__, bases if issubclass(cls, Record) else (*bases, Record), ns)
    cls._fields = names
    if len(names) > 1:
        cls._values = staticmethod(attrgetter(*names))
    elif names:
        get = attrgetter(names[0])
        cls._values = staticmethod(lambda record: (get(record),))
    if names and cls.__init__ is object.__init__ and cls.__new__ is object.__new__:
        setters = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
        body = "".join(f"\n    _set_{n}(self, {n})" for n in names)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        exec(f"def __init__(self, {', '.join(names)}):{body}", setters)
        init = cls.__init__ = setters["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__defaults__ = defaults or None
    return cls


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
# Each tag walks its own values: `_walk(v, out)` checks structural
# conformance and appends the embedded (addr, tag) entries to out, in value
# order, in the same pass.  On a value that does not conform it returns
# False and out holds the entries met before the mismatch.  The value
# classes it tests are defined below; the names resolve when it runs.

_TAGS: dict = {}


class _Tag(Record):
    __slots__ = ("storable", "well_formed", "depth", "size")
    # interned: equal exactly when the same object, and copy and pickle
    # rebuild through __new__, so each returns the interned tag
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __new__(cls, *kids):
        key = (cls, *kids)
        tag = _TAGS.get(key)
        if tag is None:
            names = cls._fields
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


@record
class Unit(_Tag):
    def __str__(self):
        return "unit"

    def _walk(self, v, out: list) -> bool:
        return isinstance(v, VUnit)


@record
class Int(_Tag):
    def __str__(self):
        return "int"

    def _walk(self, v, out: list) -> bool:
        return isinstance(v, VInt)


@record
class Bool(_Tag):
    def __str__(self):
        return "bool"

    def _walk(self, v, out: list) -> bool:
        return isinstance(v, VBool)


@record
class Sum(_Tag):
    left: "TypeTag"
    right: "TypeTag"

    def __str__(self):
        return f"(sum {self.left} {self.right})"

    def _walk(self, v, out: list) -> bool:
        if isinstance(v, VInl):
            return self.left._walk(v.payload, out)
        if isinstance(v, VInr):
            return self.right._walk(v.payload, out)
        return False


@record
class Pair(_Tag):
    first: "TypeTag"
    second: "TypeTag"

    def __str__(self):
        return f"(pair {self.first} {self.second})"

    def _walk(self, v, out: list) -> bool:
        return (
            isinstance(v, VPair)
            and self.first._walk(v.first, out)
            and self.second._walk(v.second, out)
        )


@record
class Ref(_Tag):
    target: "TypeTag"

    def __str__(self):
        return f"(ref {self.target})"

    def _walk(self, v, out: list) -> bool:
        if isinstance(v, VRef) and v.target is self.target:
            out.append((v.addr, self.target))
            return True
        return False


@record
class LList(_Tag):
    elem: "TypeTag"

    def __str__(self):
        return f"(llist {self.elem})"

    def _walk(self, v, out: list) -> bool:
        if isinstance(v, VLLNil):
            return True
        if isinstance(v, VLLCons) and self.elem._walk(v.head, out):
            out.append((v.tail, self))
            return True
        return False


@record
class Arrow(_Tag):
    arg: "TypeTag"
    res: "TypeTag"

    def __str__(self):
        return f"(-> {self.arg} {self.res})"

    def _walk(self, v, out: list) -> bool:
        return False


TypeTag = Union[Unit, Int, Bool, Sum, Pair, Ref, LList, Arrow]

UNIT = Unit()
INT = Int()
BOOL = Bool()


# ---------------------------------------------------------------------------
# values


@record
class VUnit:
    def __str__(self):
        return "()"


@record
class VInt:
    value: int

    def __str__(self):
        return str(self.value)


@record
class VBool:
    value: bool

    def __str__(self):
        return "true" if self.value else "false"


@record
class VInl:
    payload: "Value"

    def __str__(self):
        return f"inl({self.payload})"


@record
class VInr:
    payload: "Value"

    def __str__(self):
        return f"inr({self.payload})"


@record
class VPair:
    first: "Value"
    second: "Value"

    def __str__(self):
        return f"({self.first}, {self.second})"


@record
class VRef:
    addr: Addr
    target: TypeTag

    def __str__(self):
        return f"ref@{self.addr}"


@record
class VLLNil:
    def __str__(self):
        return "llnil"


@record
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


def conforms(v: Value, t: TypeTag, out: Optional[list] = None) -> bool:
    """Structural conformance of a value to a type tag.  The walk that
    checks it also collects the embedded (addr, tag) entries, into out when
    given: `ref_entries` passes its list, so a store step walks its value
    once, and a caller that wants only the answer (`import_value`, the bare
    heap steps) passes none.  The list changes no answer."""
    try:
        return t._walk(v, [] if out is None else out)
    except AttributeError as err:
        # reached a node, at any depth, that is not a type tag
        raise TypeMismatch(f"unknown type tag {err.obj!r}") from None


# ---------------------------------------------------------------------------
# reference traversal (one level deep: stops at embedded addresses)


def ref_entries(t: TypeTag, v: Value) -> list[tuple[Addr, TypeTag]]:
    """Each embedded address with the type tag its cell must carry, in
    value order, from the one walk that checks v against t."""
    out: list = []
    if not conforms(v, t, out):
        raise TypeMismatch(f"value {v!r} does not conform to {t}")
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


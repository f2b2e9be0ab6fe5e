"""Compile, link, back-translate, and the behavior function.

The discipline is an instance of the paper's three predicates: the global
invariant `labels.lr_inv`, the sharing predicate `labels.is_shareable`, and
the relation every context execution must respect,
`modif_only_shareable_and_encaps` conjoined with `same_labels`.

Untrusted context code gets exactly three capabilities: allocate a fresh
shareable cell, read a shareable cell, write a shareable cell.  Around
every context execution a monitor snapshots the world and asserts the
universal property: only shareable and encapsulated cells changed, and no
existing cell changed label.

A linked program is its `run(state)` function, and `beh` runs it to a
`BehaviorRecord`, which renders the final world only when read.  All
three links, `link_target`, `link_source` (through `back_translate`) and
`link_dual`, build their context through `_instantiate`: the builder runs
against the live world under a `build:<name>` span, and every later call
into the context value runs under a span named after the context, each
span checked for the same universal property.
"""
from __future__ import annotations

from functools import partial
from itertools import count, zip_longest
from typing import Any, Callable

from .contracts import Inr, InterfaceSpec, export, import_value
from .errors import (
    AlreadyLabeled,
    BoundaryViolation,
    PreorderViolation,
    RunFailure,
    ShareLeak,
    TypeMismatch,
    Uncontained,
    UniversalViolation,
)
from .heap import HOLES, MASK, SHIFT, TRIVIAL, WIDTH, Heap, HeapCell
from .labels import (
    PRIVATE,
    SHAREABLE,
    World,
    _check_embedded_contained,
    _private_embedded,
    modif_only_shareable_and_encaps,
    same_labels,
)
from .programs import Program, Return, RunState
from .values import TypeTag, Value, VRef, record, ref_entries


@record
class SourceInterface:
    spec: InterfaceSpec
    psi: Callable[[World, Any, World], bool]


@record
class SourceProgram:
    name: str
    body: Callable[[Any], Program]  # context value -> program returning int


@record
class TargetContext:
    name: str
    builder: Callable[["CtxOps"], Any]  # may allocate at build time


# ---------------------------------------------------------------------------
# the three context-facing operations

def ctx_alloc(ops: CtxOps, tag: TypeTag, init: Value) -> VRef:
    """The context alloc step, whole: the fuel meter, then a fresh cell of
    the trivial preorder holding init, labeled shareable.  It is
    `labels.lr_alloc` then `label_shareable`, with init walked once and one
    `set` on each map, and it refuses in that order: TypeMismatch for an
    init that does not conform; BoundaryViolation for an embedded address
    that is not shareable; DanglingInit or TypeMismatch for one that is not
    contained at its tag; TypeMismatch for a tag no cell may hold;
    AlreadyLabeled for a fresh address that carries a label.  The shareable
    embedded addresses make label_shareable's ShareLeak check hold already."""
    st = ops._state
    if st.fuel <= 0:
        st._tick()
    st.fuel -= 1
    st.trace.steps += 1
    w = st.world
    entries = ref_entries(tag, init)
    if entries:
        for sub, _ in entries:
            if w.label_of(sub) is not SHAREABLE:
                raise BoundaryViolation(f"context alloc embeds non-shareable address {sub}")
        _check_embedded_contained(w, entries, "alloc")
    if not tag.storable:
        raise TypeMismatch(f"{tag} is not a storable type")
    h, labels = w.heap, w.labels
    addr = h.next_addr
    chunks, hi = labels.chunks, addr >> SHIFT
    if hi < len(chunks):
        label = chunks[hi][addr & MASK]
        if label is not None and label is not PRIVATE:
            raise AlreadyLabeled(f"fresh cell {addr} is already {label.value}")
    cells = h.cells.set(addr, HeapCell(tag, TRIVIAL, init))
    st.world = World(Heap(cells, addr + 1), labels.set(addr, SHAREABLE))
    if ops._paranoid:
        st._after_step(w, addr, (tag, init, entries))
    return VRef(addr, tag)


def ctx_read(ops: CtxOps, ref: Value) -> Value:
    """The context read step, whole: the fuel meter, then ref must be a
    reference with an int address that is labeled shareable, and the step
    reads as `heap.read` does.  It looks the label and the cell up in the
    chunks of the two maps itself, so a context read is this one call."""
    st = ops._state
    if st.fuel <= 0:
        st._tick()
    st.fuel -= 1
    st.trace.steps += 1
    if not isinstance(ref, VRef) or type(ref.addr) is not int:
        raise BoundaryViolation(f"context read of a non-reference: {ref}")
    r = ref.addr
    hi, lo = r >> SHIFT, r & MASK
    w = st.world
    labels = w.labels.chunks
    if not (0 <= hi < len(labels) and labels[hi][lo] is SHAREABLE):
        raise BoundaryViolation(f"context read of non-shareable address {r}")
    cells = w.heap.cells.chunks
    cell = cells[hi][lo] if 0 <= hi < len(cells) else None
    if cell is None:
        raise Uncontained(r)
    if ops._paranoid:
        st._after_step(w)
    return cell.value


def ctx_write(ops: CtxOps, ref: Value, v: Value) -> None:
    """The context write step, whole: the fuel meter, then the boundary
    checks and `labels.lr_write`'s checks and write, with the label and the
    cell looked up once in the chunks of the two maps, v walked once, and
    one `set` on the cell map.  It refuses in this order: BoundaryViolation
    for a ref that is not a reference with an int address, or whose address
    is not labeled shareable; Uncontained for an address with no cell;
    TypeMismatch for a v that does not conform to the cell's tag;
    BoundaryViolation for an embedded address that is not shareable;
    DanglingInit or TypeMismatch for one that is not contained at its tag;
    ShareLeak for a private one; PreorderViolation.  The ShareLeak
    check is the labeled rule's, kept as safety code: once the boundary walk
    passes, no embedded address is private, so it never fires."""
    st = ops._state
    if st.fuel <= 0:
        st._tick()
    st.fuel -= 1
    st.trace.steps += 1
    if not isinstance(ref, VRef) or type(ref.addr) is not int:
        raise BoundaryViolation(f"context write to a non-reference: {ref}")
    r = ref.addr
    hi, lo = r >> SHIFT, r & MASK
    w = st.world
    labels = w.labels.chunks
    shareable = 0 <= hi < len(labels) and labels[hi][lo] is SHAREABLE
    if not shareable:
        raise BoundaryViolation(f"context write to non-shareable address {r}")
    h = w.heap
    cells = h.cells
    chunks = cells.chunks
    cell = chunks[hi][lo] if 0 <= hi < len(chunks) else None
    if cell is None:
        raise Uncontained(r)
    tag, preorder = cell.tag, cell.preorder
    entries = ref_entries(tag, v)
    if entries:
        for sub, _ in entries:
            if w.label_of(sub) is not SHAREABLE:
                raise BoundaryViolation(f"context write embeds non-shareable address {sub}")
        _check_embedded_contained(w, entries, "write")
        if shareable:
            leaked = _private_embedded(w, entries)
            if leaked:
                raise ShareLeak(r, v, leaked)
    if not preorder.relation(cell.value, v):
        raise PreorderViolation(r, preorder.name, cell.value, v)
    st.world = World(Heap(cells.set(r, HeapCell(tag, preorder, v)), h.next_addr), w.labels)
    if ops._paranoid:
        st._after_step(w, r, (tag, v, entries))


class CtxOps:
    """Live handles to the three operations, bound to one run state.

    Context code speaks in reference values.  Each handle is the function
    that is its whole step, `ctx_alloc`, `ctx_read` or `ctx_write`, so a
    context step is one call.  Each runs `RunState._tick`'s fuel meter
    inline and calls it only to raise `OutOfFuel`.  The check level is read
    once, here: in paranoid mode each step then runs the per-step monitors,
    `RunState._after_step`, exactly like a tree-node step; in fast mode a
    step makes no monitor call at all.  No step reaches a labeled or heap
    operation: each makes its rule's checks and builds its world itself.
    A paranoid alloc or write hands the monitor its walk of the stored
    value, so the value is walked once either way.

    A run has one handle, `run_ops(state)`.  When `beh` returns, `RunState.end`
    points it at `programs.ENDED_RUN`, whose meter refuses every later step.
    """

    def __init__(self, state: RunState):
        self._state = state
        self._paranoid = state._paranoid

    def tick(self) -> None:
        st = self._state
        if st.fuel <= 0:
            st._tick()
        st.fuel -= 1
        st.trace.steps += 1

    alloc = ctx_alloc
    read = ctx_read
    write = ctx_write


def run_ops(state: RunState) -> CtxOps:
    if state.ops is None:
        state.ops = CtxOps(state)
    return state.ops


# ---------------------------------------------------------------------------
# the universal-property monitor


def _close_span(state: RunState, name: str, w0: World):
    w1 = state.world
    state.trace.context_spans.append((name, w0, w1))
    if not (modif_only_shareable_and_encaps(w0, w1) and same_labels(w0, w1)):
        raise UniversalViolation(
            f"context code ({name}) modified non-shareable state or relabeled cells"
        )


def _monitored_span(state: RunState, name: str, run: Callable[[], Any]) -> Any:
    """Run context code and assert the universal property over its span."""
    w0 = state.world
    out = run()
    _close_span(state, name, w0)
    return out


def _instantiate(context: TargetContext, state: RunState):
    """Build the raw context value against the live world, monitored.  Also
    returns the span monitor its imported arrows run each call under."""
    raw = _monitored_span(state, f"build:{context.name}", lambda: context.builder(run_ops(state)))
    return raw, partial(_monitored_span, state, context.name)


# ---------------------------------------------------------------------------
# compile / back-translate / link


def compile_program(program: SourceProgram, iface: SourceInterface):
    """Wrap a checked program so it accepts an instantiated context value
    and the monitor that each call of the value's arrows runs under.

    Pure wrapping: nothing touches the heap until the result runs.
    """

    def compiled(ctx_value: Any, state: RunState, monitor: Callable) -> Program:
        imported = import_value(iface.spec, ctx_value, state, monitor)
        if isinstance(imported, Inr):
            return Return(imported)
        return program.body(imported.value)

    return compiled


def back_translate(context: TargetContext, iface: SourceInterface):
    """The dual of compilation: a factory producing the checked-side context
    value by instantiating, monitoring, and importing the raw builder."""

    def materialize(state: RunState):
        raw, monitor = _instantiate(context, state)
        return import_value(iface.spec, raw, state, monitor)

    return materialize


def link_target(compiled, context: TargetContext) -> Callable[[RunState], Any]:
    def run(state: RunState):
        raw, monitor = _instantiate(context, state)
        return state.interpret(compiled(raw, state, monitor))

    return run


def link_source(program: SourceProgram, ctx_factory) -> Callable[[RunState], Any]:
    def run(state: RunState):
        ctxv = ctx_factory(state)
        if isinstance(ctxv, Inr):
            return ctxv
        return state.interpret(program.body(ctxv.value))

    return run


# ---------------------------------------------------------------------------
# dual direction: the context has initial control


@record
class DualProgram:
    name: str
    setup: Callable[[RunState], Any]  # allocate program state, return the value
    spec: InterfaceSpec
    hocs: Any = None  # unread; only the benchmark still sets it


def link_dual(dual: DualProgram, context: TargetContext) -> Callable[[RunState], Any]:
    def run(state: RunState):
        exported = export(dual.spec, dual.setup(state), state)
        main, monitor = _instantiate(context, state)
        return monitor(lambda: main(exported)) if callable(main) else main

    return run


# ---------------------------------------------------------------------------
# behavior


@record
class BehaviorRecord:
    """A run's outcome and its final world as `render_world` lines, `dump`.
    Built from the world, the record renders it on the first read of `dump`
    and then lets the world go."""

    __slots__ = ("_world",)
    outcome: tuple
    dump: tuple

    def __init__(self, outcome: tuple, world: World):
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "_world", world)

    def __getattr__(self, name):
        # reached only when a slot is unset: `dump` before its first read
        if name != "dump":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        dump = render_world(self._world)
        object.__setattr__(self, "dump", dump)
        object.__setattr__(self, "_world", None)
        return dump

    def lines(self):
        yield f"outcome: {self.outcome}"
        for line in self.dump:
            yield line


def render_world(w: World) -> tuple:
    """One line per cell, by address: `addr: tag [label] = value`.  One pass
    over the cell and label chunks side by side, an address being its
    chunk's base plus its slot; the text between address and value is made
    once per tag and label."""
    out = []
    heads = {}
    chunks = zip_longest(w.heap.cells.chunks, w.labels.chunks, fillvalue=HOLES)
    for base, (cells, labels) in zip(count(0, WIDTH), chunks):
        for addr, cell, label in zip(count(base), cells, labels):
            if cell is None:
                continue
            tag = cell.tag
            # ids, because an enum member hashes in Python code
            key = (id(tag), id(label))
            head = heads.get(key)
            if head is None:
                head = heads[key] = f": {tag} [{(label or PRIVATE).value}] = "
            out.append(f"{addr}{head}{cell.value}")
    return tuple(out)


def beh(run: Callable[[RunState], Any], state: RunState) -> BehaviorRecord:
    """Run a linked program deterministically on state, made fresh by the
    caller; expected runtime failures become part of the record, monitor
    alarms propagate.  However the run stops, it ends: the context's handle
    and every arrow exported to it refuse any later step."""
    try:
        result = run(state)
        if isinstance(result, Inr):
            outcome = ("err", result.error.code.value, result.error.message)
        elif isinstance(result, (int, bool, str, type(None))):
            outcome = ("ok", result)
        else:
            outcome = ("ok", str(result))
    except RunFailure as failure:
        outcome = ("err", failure.code, str(failure))
    finally:
        state.end()
    return BehaviorRecord(outcome, state.world)


def beh_equal(b0: BehaviorRecord, b1: BehaviorRecord) -> bool:
    return b0 == b1

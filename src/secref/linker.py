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

Compilation and back-translation share one instantiate-then-import step:
`_instantiate` builds the context against the live world under its
`build:` span, and `import_value` wraps each context arrow once, running
every call of it under a span named after the context.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from . import mutants
from .contracts import Inr, InterfaceSpec, export, import_value
from .errors import AlreadyLabeled, BoundaryViolation, RunFailure, Uncontained, UniversalViolation
from .heap import MASK, SHIFT, TRIVIAL
from .labels import (
    Label,
    World,
    _make_world,
    is_private,
    lr_alloc,
    lr_write,
    modif_only_shareable_and_encaps,
    same_labels,
)
from .programs import Program, Return, RunConfig, RunState
from .values import Addr, TypeTag, Value, VRef, ref_entries


@dataclass(frozen=True)
class SourceInterface:
    spec: InterfaceSpec
    psi: Callable[[World, Any, World], bool]


@dataclass(frozen=True)
class SourceProgram:
    name: str
    body: Callable[[Any], Program]  # context value -> program returning int


@dataclass(frozen=True)
class TargetContext:
    name: str
    builder: Callable[["CtxOps"], Any]  # may allocate at build time


@dataclass(frozen=True)
class WholeProgram:
    name: str
    run_in: Callable[[RunState], Any]


# ---------------------------------------------------------------------------
# the three context-facing operations

# bound once: on CPython 3.11 a class-attribute lookup of an enum member costs
# about eight times a global lookup, and every context read tests it
_SHAREABLE = Label.SHAREABLE


def _embeds_only_shareable(w: World, tag: TypeTag, v: Value, what: str) -> list:
    """The boundary walk: every address v embeds is shareable.  Returns its
    entries, which the labeled operation takes instead of walking v again."""
    entries = ref_entries(tag, v)
    for sub, _ in entries:
        if w.label_of(sub) is not _SHAREABLE:
            raise BoundaryViolation(f"context {what} embeds non-shareable address {sub}")
    return entries


def ctx_alloc(w: World, tag: TypeTag, init: Value) -> tuple[Addr, World]:
    entries = _embeds_only_shareable(w, tag, init, "alloc")
    addr, w1 = lr_alloc(w, tag, TRIVIAL, init, entries)
    # labeled directly: the embedded refs were just checked shareable, which
    # is stronger than label_shareable's ShareLeak check, and a fresh cell
    # carries the trivial preorder
    if not is_private(w1, addr):
        raise AlreadyLabeled(f"fresh cell {addr} is already {w1.label_of(addr).value}")
    return addr, _make_world(w1.heap, w1.labels.set(addr, _SHAREABLE))


def ctx_read(w: World, r: Addr) -> Value:
    """The context read rule, whole: r must be labeled shareable, and then
    reads as `heap.read` does.  It looks the label and the cell up in the
    chunks of the two maps itself, so a context read is this one call."""
    hi, lo = r >> SHIFT, r & MASK
    labels = w.labels.chunks
    if not (0 <= hi < len(labels) and labels[hi][lo] is _SHAREABLE):
        if not mutants.is_active("ctx_read_unchecked"):
            raise BoundaryViolation(f"context read of non-shareable address {r}")
    cells = w.heap.cells.chunks
    if 0 <= hi < len(cells):
        cell = cells[hi][lo]
        if cell is not None:
            return cell.value
    raise Uncontained(r)


def ctx_write(w: World, r: Addr, v: Value) -> World:
    entries = None
    if not mutants.is_active("ctx_write_unchecked"):
        if w.label_of(r) is not _SHAREABLE:
            raise BoundaryViolation(f"context write to non-shareable address {r}")
        cell = w.heap.cells.get(r)
        if cell is not None:
            entries = _embeds_only_shareable(w, cell.tag, v, "write")
    return lr_write(w, r, v, entries)


class CtxOps:
    """Live handles to the three operations, bound to one run state.

    Context code speaks in reference values; the handles unwrap them and
    burn fuel like tree-node steps.  Each runs `RunState._tick`'s fuel meter
    inline and calls it only to raise `OutOfFuel`.  The check level is read
    once, here: in paranoid mode each step then runs the per-step monitors,
    `RunState._after_step`, exactly like a tree-node step; in fast mode a
    step makes no monitor call at all, so a fast read is `read` plus one
    `ctx_read`.
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

    def alloc(self, tag: TypeTag, init: Value) -> VRef:
        st = self._state
        if st.fuel <= 0:
            st._tick()
        st.fuel -= 1
        st.trace.steps += 1
        w0 = st.world
        addr, st.world = ctx_alloc(w0, tag, init)
        if self._paranoid:
            st._after_step(w0, addr)
        return VRef(addr, tag)

    def read(self, ref: Value) -> Value:
        st = self._state
        if st.fuel <= 0:
            st._tick()
        st.fuel -= 1
        st.trace.steps += 1
        if not isinstance(ref, VRef):
            raise BoundaryViolation(f"context read of a non-reference: {ref}")
        v = ctx_read(st.world, ref.addr)
        if self._paranoid:
            st._after_step(st.world)
        return v

    def write(self, ref: Value, v: Value) -> Value:
        st = self._state
        if st.fuel <= 0:
            st._tick()
        st.fuel -= 1
        st.trace.steps += 1
        if not isinstance(ref, VRef):
            raise BoundaryViolation(f"context write to a non-reference: {ref}")
        w0 = st.world
        st.world = ctx_write(w0, ref.addr, v)
        if self._paranoid:
            st._after_step(w0, ref.addr)
        return None


# ---------------------------------------------------------------------------
# the universal-property monitor


def _close_span(state: RunState, name: str, w0: World, require_same_labels: bool = True):
    w1 = state.world
    state.trace.context_spans.append((name, w0, w1))
    ok = modif_only_shareable_and_encaps(w0, w1)
    if ok and require_same_labels:
        ok = same_labels(w0, w1)
    if not ok:
        raise UniversalViolation(
            f"context code ({name}) modified non-shareable state or relabeled cells"
        )


def _monitored_span(state: RunState, name: str, run: Callable[[], Any],
                    require_same_labels: bool = True) -> Any:
    """Run context code and assert the universal property over its span."""
    w0 = state.world
    out = run()
    _close_span(state, name, w0, require_same_labels)
    return out


def _instantiate(context: TargetContext, state: RunState):
    """Build the raw context value against the live world, monitored.  Also
    returns the span monitor its imported arrows run each call under."""
    raw = _monitored_span(state, f"build:{context.name}", lambda: context.builder(CtxOps(state)))
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

    compiled.source = program
    return compiled


def back_translate(context: TargetContext, iface: SourceInterface):
    """The dual of compilation: a factory producing the checked-side context
    value by instantiating, monitoring, and importing the raw builder."""

    def materialize(state: RunState):
        raw, monitor = _instantiate(context, state)
        return import_value(iface.spec, raw, state, monitor)

    materialize.context = context
    return materialize


def link_target(compiled, context: TargetContext) -> WholeProgram:
    def run_in(state: RunState):
        raw, monitor = _instantiate(context, state)
        return state.interpret(compiled(raw, state, monitor))

    return WholeProgram(name=f"{compiled.source.name}[{context.name}]", run_in=run_in)


def link_source(program: SourceProgram, ctx_factory) -> WholeProgram:
    ctx_name = getattr(getattr(ctx_factory, "context", None), "name", "src")

    def run_in(state: RunState):
        ctxv = ctx_factory(state)
        if isinstance(ctxv, Inr):
            return ctxv
        return state.interpret(program.body(ctxv.value))

    return WholeProgram(name=f"{program.name}[{ctx_name}]", run_in=run_in)


# ---------------------------------------------------------------------------
# dual direction: the context has initial control


@dataclass(frozen=True)
class DualProgram:
    name: str
    setup: Callable[[RunState], Any]  # allocate program state, return the value
    spec: InterfaceSpec
    hocs: Any = None  # unread; only the benchmark still sets it


def link_dual(dual: DualProgram, context: TargetContext) -> WholeProgram:
    def run_in(state: RunState):
        progv = dual.setup(state)
        exported = export(dual.spec, progv, state)

        def enter():
            main = context.builder(CtxOps(state))
            return main(exported) if callable(main) else main

        return _monitored_span(state, f"dual:{context.name}", enter, require_same_labels=False)

    return WholeProgram(name=f"{context.name}[{dual.name}]", run_in=run_in)


# ---------------------------------------------------------------------------
# behavior


@dataclass(frozen=True)
class BehaviorRecord:
    outcome: tuple
    dump: tuple

    def lines(self):
        yield f"outcome: {self.outcome}"
        for line in self.dump:
            yield line


def render_world(w: World) -> tuple:
    out = []
    for addr in sorted(w.heap.addresses()):
        cell = w.heap.cell(addr)
        out.append(f"{addr}: {cell.tag} [{w.label_of(addr).value}] = {cell.value}")
    return tuple(out)


def beh(whole: WholeProgram, cfg: Optional[RunConfig] = None, state: Optional[RunState] = None) -> BehaviorRecord:
    """Deterministic run from the initial world; expected runtime failures
    become part of the record, monitor alarms propagate."""
    state = state if state is not None else RunState(config=cfg)
    try:
        result = whole.run_in(state)
        if isinstance(result, Inr):
            outcome = ("err", result.error.code.value, result.error.message)
        elif isinstance(result, (int, bool, str, type(None))):
            outcome = ("ok", result)
        else:
            outcome = ("ok", str(result))
    except RunFailure as failure:
        outcome = ("err", failure.code, str(failure))
    return BehaviorRecord(outcome=outcome, dump=render_world(state.world))


def beh_equal(b0: BehaviorRecord, b1: BehaviorRecord) -> bool:
    return b0 == b1

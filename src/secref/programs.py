"""Free-monad programs over the heap operations, plus witness/recall.

A program is `Return(value)` or `Call(op, args, cont)`: one operation step,
named by the `RunState.op_*` method that performs it, and a host function
from the step's result to the rest of the tree.  The interpreter threads a
world through the tree, one `Call` per step; in paranoid mode it re-asserts
the global invariant and every witnessed predicate after each step.  The
invariant is re-checked only at the address a step touched, with one full
scan whenever a step starts from a world the monitor did not validate itself
(the first step of a run, or a world installed from outside).

Continuations run in program order, so host code inside them may also call
boundary-wrapped functions directly; those route their effects through the
same run state (and the same fuel meter) as the tree nodes themselves.
"""
from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Optional, Union

from . import labels as lb
from .errors import (
    BoundaryViolation,
    InvariantViolation,
    OutOfFuel,
    RecallUnwitnessed,
    StabilityViolation,
    Uncontained,
    WitnessFalse,
)
from .heap import Heap, HeapCell, Preorder, changed
from .labels import World
from .values import Addr, TypeTag, Value, record, ref_entries


@record
class StablePredicate:
    """A world predicate intended to be stable under every heap transition.

    Identity is the name: two predicates with equal tests but different
    names are distinct witness tokens.
    """

    name: str
    test: Callable[[World], bool]

    def holds(self, w: World) -> bool:
        return bool(self.test(w))


def shareable_pred(addr: Addr) -> StablePredicate:
    return StablePredicate(f"is_shareable@{addr}", lambda w: lb.is_shareable(w, addr))


def encapsulated_pred(addr: Addr) -> StablePredicate:
    return StablePredicate(f"is_encapsulated@{addr}", lambda w: lb.is_encapsulated(w, addr))


def private_pred(addr: Addr) -> StablePredicate:
    # NOT stable; negative control for the stability suite: private
    # references can be relabeled
    return StablePredicate(f"is_private@{addr}", lambda w: lb.is_private(w, addr))


def contains_pred(addr: Addr) -> StablePredicate:
    return StablePredicate(f"contains@{addr}", lambda w: w.heap.contains(addr))


# ---------------------------------------------------------------------------
# program trees


@record
class Return:
    value: Any


@record
class Call:
    """One operation step: `RunState.<op>(*args)`, then `cont` on its result.

    `op` names the method rather than holding it, so the interpreter looks
    the method up on every step and a wrapper installed on the class later
    still sees steps of trees built before it.
    """

    op: str
    args: tuple
    cont: Callable[[Any], "Program"]


Program = Union[Return, Call]

# Every node's continuation is a host function from the operation's result
# to the rest of the tree.  Keeping continuations as functions (even where
# the result is always None) is what lets unbounded programs unroll lazily
# under the fuel meter instead of forcing an infinite tree up front.


def read_op(addr: Addr) -> Program:
    return Call("op_read", (addr,), Return)


def write_op(addr: Addr, v: Value) -> Program:
    return Call("op_write", (addr, v), Return)


def alloc_op(tag: TypeTag, rel: Preorder, init: Value) -> Program:
    return Call("op_alloc", (tag, rel, init), Return)


def witness_op(pred: StablePredicate) -> Program:
    return Call("op_witness", (pred,), Return)


def recall_op(pred: StablePredicate) -> Program:
    return Call("op_recall", (pred,), Return)


def label_shareable_op(addr: Addr) -> Program:
    return Call("op_label_shareable", (addr,), Return)


def label_encapsulated_op(addr: Addr) -> Program:
    return Call("op_label_encapsulated", (addr,), Return)


def bind(m: Program, k: Callable[[Any], Program]) -> Program:
    """Graft k onto every leaf of m.  A primitive op node, whose
    continuation is `Return`, takes k as its continuation: by the left-unit
    law, `bind(Return(x), k)` is `k(x)`."""
    if isinstance(m, Return):
        return k(m.value)
    if m.cont is Return:
        return Call(m.op, m.args, k)
    return Call(m.op, m.args, lambda x, c=m.cont: bind(c(x), k))


class _Stepper:
    """The continuation of a `do` program: its bound `step` resumes the
    generator.  An object, not a closure that names itself, so a finished
    run is freed by reference counting."""

    __slots__ = ("gen",)

    def __init__(self, gen):
        self.gen = gen

    def step(self, send_val) -> Program:
        try:
            op = self.gen.send(send_val)
        except StopIteration as stop:
            return Return(stop.value)
        return bind(op, self.step)


def do(make_gen: Callable[[], Any]) -> Program:
    """Build a program from a generator that yields operation programs.

    Each `yield op` evaluates to the operation's result; a plain `return x`
    ends the program with x.  The generator is consumed once per run, so
    callers that run a program twice must rebuild it.
    """
    return _Stepper(make_gen()).step(None)


# ---------------------------------------------------------------------------
# run state and interpreter


@record
class RunConfig:
    check_level: str = "fast"  # "fast" | "paranoid"
    fuel: int = 1_000_000

    def __post_init__(self):
        if self.check_level not in ("fast", "paranoid"):
            raise ValueError(f"check_level must be 'fast' or 'paranoid', not {self.check_level!r}")

    @property
    def paranoid(self) -> bool:
        return self.check_level == "paranoid"


class WorldJournal:
    """The world after each paranoid step, kept as one delta per step and
    replayed on iteration.

    An entry is None for a step that changed nothing, or else
    (next_addr, addr, cell, label, addr, cell, label, ...): the allocation
    frontier after the step, then the cell and label (None when absent) of
    each address whose entries differ from the previous recorded world.  A
    step from the last recorded world that touched one address records that
    address; any other change, such as a world installed from outside
    between two steps, records the addresses `heap.changed` finds.
    A check that only follows a few cells reads `start` and `deltas()`
    instead, which rebuild no world.
    """

    def __init__(self):
        self._entries: list = []
        self._start: Optional[World] = None
        self._last: Optional[World] = None

    def record(self, before: World, after: World, touched: Optional[Addr],
               cell: Optional[HeapCell]) -> None:
        """Record the step from before to after; `cell` is the touched
        address's cell in after, as the caller found it, None when there is
        none."""
        last = self._last
        if last is None:
            self._start = last = before
        cells, labels = after.heap.cells, after.labels
        if after is last:
            entry = None
        elif before is last and touched is not None:
            entry = (after.heap.next_addr, touched, cell, labels.get(touched))
        else:
            addrs = sorted({*changed(last.heap.cells, cells), *changed(last.labels, labels)})
            entry = (after.heap.next_addr,
                     *chain.from_iterable((a, cells.get(a), labels.get(a)) for a in addrs))
        self._entries.append(entry)
        self._last = after

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def start(self) -> Optional[World]:
        """The world before the first recorded step."""
        return self._start

    def deltas(self):
        """Per recorded step, the (addr, cell) pairs recorded for it, cell
        None when absent; () for a step that changed nothing."""
        for entry in self._entries:
            if entry is None:
                yield ()
            elif len(entry) == 4:  # one address, the common step
                yield ((entry[1], entry[2]),)
            else:
                yield tuple(zip(entry[1::3], entry[2::3]))

    def __iter__(self):
        w = self._start
        for entry in self._entries:
            if entry is not None:
                heap, labels = w.heap, w.labels
                cells = heap.cells
                for i in range(1, len(entry), 3):
                    addr, cell, label = entry[i:i + 3]
                    if cells.get(addr) is not cell:
                        cells = cells.set(addr, cell)
                    if labels.get(addr) is not label:
                        labels = labels.set(addr, label)
                if cells is not heap.cells or heap.next_addr != entry[0]:
                    heap = Heap(cells=cells, next_addr=entry[0])
                w = World(heap=heap, labels=labels)
            yield w


class TraceLog:
    """Per-run observations consumed by the property campaigns."""

    __slots__ = ("worlds", "context_spans", "contract_checks", "purity_failures", "steps")

    def __init__(self):
        self.worlds = WorldJournal()  # paranoid steps
        self.context_spans: list = []  # (name, w_before, w_after)
        self.contract_checks = self.purity_failures = self.steps = 0


class _EndedRun:
    """An ended run: no fuel, so a step's meter calls `_tick`, which refuses."""
    fuel = 0

    def _tick(self) -> None:
        raise BoundaryViolation("context capability used after its run ended")


ENDED_RUN = _EndedRun()


class RunState:
    """Mutable interpreter state: current world, witnessed set, fuel.

    The config is fixed at construction, and its check level is read once.
    """

    def __init__(
        self,
        world: Optional[World] = None,
        witnesses: Optional[dict] = None,
        config: Optional[RunConfig] = None,
        trace: Optional[TraceLog] = None,
    ):
        self.world = world if world is not None else lb.initial_world()
        self.witnesses: dict[str, StablePredicate] = dict(witnesses or {})
        self._config = config or RunConfig()
        self.fuel = self._config.fuel
        self._paranoid = self._config.paranoid
        self.trace = trace if trace is not None else TraceLog()
        self._validated: Optional[World] = None  # last world lr_inv passed on
        self.ops = None  # the context's one linker.CtxOps, made on first use

    def end(self) -> None:
        """Revoke the context's handle: from now on it steps on ENDED_RUN."""
        if self.ops is not None:
            self.ops._state = ENDED_RUN

    @property
    def config(self) -> RunConfig:
        return self._config

    # -- single-step operations; every one burns fuel and re-checks monitors

    def _tick(self) -> None:
        # linker.CtxOps runs these three lines inline and calls _tick only
        # to raise
        if self.fuel <= 0:
            raise OutOfFuel(f"fuel exhausted after {self.trace.steps} steps")
        self.fuel -= 1
        self.trace.steps += 1

    def _after_step(self, before: World, touched: Optional[Addr] = None,
                    walk: Optional[tuple] = None) -> None:
        """Paranoid monitors for a step from `before` to the current world
        that changed at most the cell and label of `touched`.  A store step
        passes its walk of the stored value, and a label step its walk of
        the labeled value, (tag, value, entries), which `labels.lr_inv_at`
        uses instead of walking the value again.  The touched cell is looked
        up once, for the invariant and the journal."""
        if not self._paranoid:
            return
        w = self.world
        cell = None if touched is None else w.heap.cells.get(touched)
        if before is not self._validated:
            ok = lb.lr_inv(w)
        else:
            ok = touched is None or lb.lr_inv_at(w, touched, walk, cell)
        if not ok:
            raise InvariantViolation(f"lr_inv broken after step {self.trace.steps}")
        self._validated = w
        for pred in self.witnesses.values():
            if not pred.holds(w):
                raise StabilityViolation(
                    f"witnessed predicate {pred.name} no longer holds"
                )
        self.trace.worlds.record(before, w, touched, cell)

    def op_read(self, addr: Addr) -> Value:
        self._tick()
        v = lb.lr_read(self.world, addr)
        self._after_step(self.world)
        return v

    # A store step walks its value once, here, and hands the walk to the
    # labeled operation and to the monitor; a write also hands down the cell
    # it found.  A write to an address with no cell is refused here, before
    # any walk.
    def op_write(self, addr: Addr, v: Value) -> None:
        self._tick()
        w0 = self.world
        cell = w0.heap.cells.get(addr)
        if cell is None:
            raise Uncontained(addr)
        entries = ref_entries(cell.tag, v)
        self.world = lb.lr_write(w0, addr, v, entries, cell)
        self._after_step(w0, addr, (cell.tag, v, entries))

    def op_alloc(self, tag: TypeTag, rel: Preorder, init: Value) -> Addr:
        self._tick()
        w0 = self.world
        entries = ref_entries(tag, init)
        addr, self.world = lb.lr_alloc(w0, tag, rel, init, entries)
        self._after_step(w0, addr, (tag, init, entries))
        return addr

    def op_witness(self, pred: StablePredicate) -> None:
        self._tick()
        if not pred.holds(self.world):
            raise WitnessFalse(f"cannot witness {pred.name}: false on current heap")
        self.witnesses[pred.name] = pred
        self._after_step(self.world)

    def op_recall(self, pred: StablePredicate) -> None:
        self._tick()
        if pred.name not in self.witnesses:
            raise RecallUnwitnessed(f"{pred.name} was never witnessed on this run")
        if not pred.holds(self.world):
            raise StabilityViolation(
                f"recalled {pred.name} does not hold: stability claim was wrong"
            )
        self._after_step(self.world)

    def op_label_shareable(self, addr: Addr) -> None:
        self._tick()
        w0 = self.world
        walk: list = []
        self.world = lb.label_shareable(w0, addr, walk)
        self._after_step(w0, addr, walk[0] if walk else None)

    def op_label_encapsulated(self, addr: Addr) -> None:
        self._tick()
        w0 = self.world
        self.world = lb.label_encapsulated(w0, addr)
        self._after_step(w0, addr)

    # -- tree interpretation; re-entrant, shares fuel with direct op calls

    def interpret(self, program: Program) -> Any:
        node = program
        while type(node) is Call:
            node = node.cont(getattr(self, node.op)(*node.args))
        if isinstance(node, Return):
            return node.value
        raise TypeError(f"not a program node: {node!r}")


def run_closed(m: Program, cfg: Optional[RunConfig] = None) -> tuple[Any, Heap]:
    """Run a closed program from the initial world, nothing witnessed; the
    result and the final heap."""
    state = RunState(config=cfg)
    return state.interpret(m), state.world.heap

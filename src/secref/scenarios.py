"""Executable end-to-end scenarios, each with its post-condition as a check.

Each scenario bundles a checked program, a boundary interface, and a set of
named contexts (honest and adversarial, most of them `.sref` sources shipped
with the package).  Running one yields the behavior record plus a dict of
named boolean checks; the post-condition is always among them.
"""
from __future__ import annotations

import weakref
from collections import Counter
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Optional

from .contracts import (
    ArrowS,
    BaseS,
    Err,
    ErrCode,
    ExecPost,
    Inl,
    Inr,
    PairS,
    SumS,
)
from .errors import RunFailure, TypeMismatch, Uncontained
from .heap import HIST_PREFIX, INT_LEQ, NIL_THEN_FIXED, NONE_THEN_FIXED, TRIVIAL
from .labels import World, is_encapsulated, is_private
from .linker import (
    BehaviorRecord,
    CtxOps,
    SourceInterface,
    SourceProgram,
    TargetContext,
    beh,
    compile_program,
    link_target,
    run_ops,
)
from .programs import (
    RunConfig,
    RunState,
    WorldJournal,
    alloc_op,
    do,
    label_encapsulated_op,
    label_shareable_op,
    read_op,
    shareable_pred,
    witness_op,
    write_op,
)
from .target_lang import load_sref
from .values import (
    INT,
    Addr,
    LList,
    Pair,
    Ref,
    Sum,
    UNIT,
    V_NIL,
    V_UNIT,
    VInl,
    VInr,
    VInt,
    VLLCons,
    VLLNil,
    VPair,
    VRef,
    llist_collect,
    llist_sorted,
    record,
)


CONTEXTS = Path(__file__).with_name("contexts")  # the shipped .sref contexts
_SREF_TEXTS: dict[str, str] = {}  # shipped context file -> its text, read on first use


def _sref(name: str) -> str:
    text = _SREF_TEXTS.get(name)
    if text is None:
        text = (CONTEXTS / name).read_text(encoding="utf-8")
        _SREF_TEXTS[name] = text
    return text


class Scenario:
    """A source program, its interface, its contexts by name and the check
    of a run's result; `check` may be rebound, to time or trace it."""

    __slots__ = ("name", "interface", "program", "contexts", "check")

    def __init__(self, name: str, interface: SourceInterface, program: SourceProgram,
                 contexts: dict, check: Callable[["ScenarioResult"], dict]):
        self.name, self.interface, self.program = name, interface, program
        self.contexts, self.check = contexts, check


@record
class ScenarioResult:
    scenario: str
    context: str
    record: BehaviorRecord
    w0: World
    w1: World
    state: RunState
    checks: dict  # filled in by the scenario's check

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def run_scenario(scenario: Scenario, context, cfg: Optional[RunConfig] = None) -> ScenarioResult:
    """Link the scenario program with one context and run it to a record."""
    if isinstance(context, str):
        ctx = scenario.contexts[context]
    else:
        ctx = context
    state = RunState(config=cfg)
    w0 = state.world
    whole = link_target(compile_program(scenario.program, scenario.interface), ctx)
    record = beh(whole, state=state)
    result = ScenarioResult(
        scenario=scenario.name,
        context=ctx.name,
        record=record,
        w0=w0,
        w1=state.world,
        state=state,
        checks={},
    )
    result.checks.update(scenario.check(result))
    return result


def _context_spans(result: ScenarioResult):
    return [
        (name, w0, w1)
        for name, w0, w1 in result.state.trace.context_spans
        if not name.startswith("build:")
    ]


# ---------------------------------------------------------------------------
# intro example: a secret survives an adversarial library


SAFE_PROG_SPEC = ArrowS(BaseS(Ref(Ref(INT))), ArrowS(BaseS(UNIT), BaseS(UNIT)))

SECRET_ADDR = 1  # first allocation of the program


def _safe_prog_body(labeled: bool):
    def body(lib):
        def gen():
            secret = yield alloc_op(INT, TRIVIAL, VInt(42))
            inner = yield alloc_op(INT, TRIVIAL, VInt(0))
            r = yield alloc_op(Ref(INT), TRIVIAL, VRef(inner, INT))
            yield label_shareable_op(inner)
            yield label_shareable_op(r)
            got = lib(VRef(r, Ref(INT)))
            if isinstance(got, Inr):
                return -1
            cb = got.value
            v = yield alloc_op(INT, TRIVIAL, VInt(1))
            if labeled:
                yield label_shareable_op(v)
            yield write_op(r, VRef(v, INT))
            cb(V_UNIT)
            out = yield read_op(secret)
            return out.value

        return do(gen)

    return body


def _forger_builder(ops: CtxOps):
    """A host-level attacker that forges reference values and probes the
    boundary operations, shrugging off every refusal."""

    def lib(rref):
        def cb(u):
            for addr in range(1, 6):
                try:
                    ops.write(VRef(addr, INT), VInt(0))
                except RunFailure:
                    pass
                try:
                    ops.read(VRef(addr, INT))
                except RunFailure:
                    pass
            return V_UNIT

        return cb

    return lib


def _forged_step_builder(step: Callable[[CtxOps, VRef], Any]):
    """A host-level library whose callback makes one boundary step on a
    forged reference to the secret and lets the refusal end the run."""

    def build(ops: CtxOps):
        def lib(rref):
            def cb(u):
                step(ops, VRef(SECRET_ADDR, INT))
                return V_UNIT

            return cb

        return lib

    return build


# kept out of the scenario's own contexts, which the fuzz campaigns run
# and require to end in a result or OutOfFuel: one reads the secret, one
# allocates a shareable cell that holds its address
SECRET_SNOOP = TargetContext(
    name="secret_snoop",
    builder=_forged_step_builder(lambda ops, secret: ops.read(secret)))
SECRET_STASH = TargetContext(
    name="secret_stash",
    builder=_forged_step_builder(lambda ops, secret: ops.alloc(Ref(INT), secret)))


def scenario_safe_prog(labeled: bool = True) -> Scenario:
    iface = SourceInterface(
        spec=SAFE_PROG_SPEC,
        psi=lambda w0, r, w1: (
            w1.heap.contains(SECRET_ADDR)
            and w1.heap.cell(SECRET_ADDR).value == VInt(42)
        ),
    )
    program = SourceProgram(
        name="safe_prog" if labeled else "safe_prog_unlabeled",
        body=_safe_prog_body(labeled),
    )

    def check(result: ScenarioResult) -> dict:
        w1 = result.w1
        return {
            "psi_secret_42": iface.psi(result.w0, result.record.outcome, w1),
            "secret_private": is_private(w1, SECRET_ADDR),
            "result_42": result.record.outcome == ("ok", 42),
        }

    contexts = {
        "adversarial": load_sref(_sref("safe_prog_adversary.sref"), SAFE_PROG_SPEC, "adversarial"),
        "benign": load_sref(_sref("safe_prog_benign.sref"), SAFE_PROG_SPEC, "benign"),
        "forger": TargetContext(name="forger", builder=_forger_builder),
    }
    return Scenario(
        name=program.name,
        interface=iface,
        program=program,
        contexts=contexts,
        check=check,
    )


# ---------------------------------------------------------------------------
# autograder: a once-settable grade and a student-sorted list


GRADE_TAG = Sum(UNIT, INT)
GRADE_ADDR = 1
GRADE_UNSET = VInl(V_UNIT)


def _sorting_post() -> ExecPost:
    def select(arg, world):
        elems = llist_collect(world.heap, arg.addr)
        return (arg.addr, None if elems is None else Counter(elems))

    def verify(captured, result, world):
        head, before = captured
        elems = llist_collect(world.heap, head)
        if elems is None:
            return Err(ErrCode.POST_VIOLATION, "no_cycles failed")
        if not llist_sorted(world.heap, head):
            return Err(ErrCode.POST_VIOLATION, "sorted failed")
        if before is not None and Counter(elems) != before:
            return Err(ErrCode.POST_VIOLATION, "same_values failed")
        return None

    return ExecPost(select, verify)


HW_SPEC = ArrowS(BaseS(Ref(LList(INT))), BaseS(UNIT), post=_sorting_post())


def _create_llist(values):
    """Allocate a nil-terminated chain, labeling shareable tail-first."""
    tail = yield alloc_op(LList(INT), TRIVIAL, V_NIL)
    yield label_shareable_op(tail)
    for x in reversed(list(values)):
        node = yield alloc_op(LList(INT), TRIVIAL, VLLCons(VInt(x), tail))
        yield label_shareable_op(node)
        tail = node
    return tail


def determine_grade(result) -> int:
    return 10 if isinstance(result, Inl) else 0


def scenario_autograder(tests=(4, 1, 3)) -> Scenario:
    tests = tuple(tests)

    def body(hw):
        def gen():
            grade = yield alloc_op(GRADE_TAG, NONE_THEN_FIXED, GRADE_UNSET)
            head = yield from _create_llist(tests)
            yield witness_op(shareable_pred(head))
            res = hw(VRef(head, LList(INT)))
            g = determine_grade(res)
            yield write_op(grade, VInr(VInt(g)))
            return g

        return do(gen)

    iface = SourceInterface(
        spec=HW_SPEC,
        psi=lambda w0, r, w1: (
            w1.heap.contains(GRADE_ADDR)
            and isinstance(w1.heap.cell(GRADE_ADDR).value, VInr)
            and is_private(w1, GRADE_ADDR)
        ),
    )
    program = SourceProgram(name="autograder", body=body)

    def check(result: ScenarioResult) -> dict:
        from .labels import modif_shareable_and, same_labels

        spans = _context_spans(result)
        grade_only = frozenset({GRADE_ADDR})
        return {
            "psi_grade_set_and_private": iface.psi(result.w0, result.record.outcome, result.w1),
            "grade_untouched_by_homework": all(
                (not w0.heap.contains(GRADE_ADDR))
                or w0.heap.cell(GRADE_ADDR).value == w1.heap.cell(GRADE_ADDR).value
                for _, w0, w1 in spans
            ),
            "homework_footprint_shareable_or_grade": all(
                modif_shareable_and(w0, w1, grade_only) and same_labels(w0, w1)
                for _, w0, w1 in spans
            ),
        }

    contexts = {
        "honest": load_sref(_sref("autograder_honest.sref"), HW_SPEC, "honest"),
        "cycler": load_sref(_sref("autograder_cycler.sref"), HW_SPEC, "cycler"),
        "mutator": load_sref(_sref("autograder_mutator.sref"), HW_SPEC, "mutator"),
        "lazy": load_sref(_sref("autograder_lazy.sref"), HW_SPEC, "lazy"),
    }
    return Scenario(
        name="autograder",
        interface=iface,
        program=program,
        contexts=contexts,
        check=check,
    )


# ---------------------------------------------------------------------------
# transition checks over a paranoid run's journal, one step's changes at a time


def value_changes(journal: WorldJournal, addr: Addr) -> int:
    """How often the value at addr differs from its value in the last
    recorded world that held it; only steps that rebound addr can change
    it, and the first recorded world is compared with nothing."""
    cell = journal.start.heap.cells.get(addr)
    changes = 0
    prev = None
    for i, delta in enumerate(journal.deltas()):
        touched = i == 0
        for a, c in delta:
            if a == addr:
                cell, touched = c, True
        if touched and cell is not None:
            cur = cell.value
            if prev is not None and cur != prev:
                changes += 1
            prev = cur
    return changes


def chain_history(heap, head: Addr, first=None) -> Optional[list[int]]:
    """The head values of the chain of list cells from the node in cell
    `head`, or from `first(value)` of that cell, to the nil: [] when the
    head is absent, None when the chain revisits a cell or its head.  A
    dangling tail raises Uncontained, a node that is neither cons nor nil
    TypeMismatch."""
    if not heap.contains(head):
        return []
    elems = llist_collect(heap, head, first)
    return None if elems is None else [e.value for e in elems]


class HistoryFollower:
    """`chain_history` of every recorded world of a journal, followed one
    step at a time, rebuilding no world and never walking the start world.

    For every position of the chain walk it keeps the address that supplied
    the node there (`addrs`, the head first) and the node read (`nodes`);
    `values` holds the history, one entry per list node walked.  A step
    re-walks the chain only from the lowest position whose address it
    rebound to a different node, so appending at the chain's nil end costs
    the same however long the history is.  After a step that fails or
    raises, the follower is spent.
    """

    def __init__(self, journal: WorldJournal, head: Addr, first=None):
        self.head, self.first = head, first
        self._journal = journal
        self._base = journal.start.heap.cells
        self._cells: dict = {}  # the current cell of every address a step rebound
        self.addrs: list = []
        self.nodes: list = []
        self.values: list = []
        self._pos: dict = {}  # address -> position, for the walk's revisit check

    def cell(self, addr: Addr):
        cells = self._cells
        return cells[addr] if addr in cells else self._base.get(addr)

    def node(self, k: int, cell):
        """The node position k reads from cell; an absent head reads as nil."""
        if cell is None:
            return V_NIL if k == 0 else None
        if k == 0 and self.first is not None:
            return self.first(cell.value)
        return cell.value

    def walk(self) -> Optional[list]:
        """Extend the walk from its last position to the nil; the history
        this world shows, or None when the chain revisits a cell."""
        addrs, nodes, pos = self.addrs, self.nodes, self._pos
        if not nodes:
            pos[self.head] = 0
            addrs.append(self.head)
            nodes.append(self.node(0, self.cell(self.head)))
        node = nodes[-1]
        while not isinstance(node, VLLNil):
            if not isinstance(node, VLLCons):
                raise TypeMismatch(f"cell {addrs[-1]} holds {node!r}, not a list node")
            cur = node.tail
            if cur in pos:
                return None
            cell = self.cell(cur)
            if cell is None:
                raise Uncontained(cur, "linked-list tail")
            pos[cur] = len(addrs)
            node = cell.value
            addrs.append(cur)
            nodes.append(node)
        values = self.values
        for n in nodes[len(values):-1]:
            values.append(n.head.value)
        return values

    def step(self, delta) -> bool:
        """Apply one recorded step; False when the history it shows does
        not extend the one before it."""
        cells, pos, nodes = self._cells, self._pos, self.nodes
        n = low = len(nodes)
        for addr, cell in delta:
            cells[addr] = cell
            k = pos.get(addr)
            if k is not None and k < low:
                new, old = self.node(k, cell), nodes[k]
                if new is not old and new != old:
                    low = k
        if n and low == n:
            return True
        addrs, values = self.addrs, self.values
        old = values[low:]
        for addr in addrs[low:]:
            del pos[addr]
        del addrs[low:], nodes[low:], values[low:]
        shown = self.walk()
        return shown is not None and shown[low:low + len(old)] == old

    def monotone(self) -> bool:
        """Every recorded world's history extends the one before it, the
        first extending []; stops at the first world that fails."""
        return all(map(self.step, self._journal.deltas()))


# ---------------------------------------------------------------------------
# pseudo-number generator: an encapsulated call counter


COUNTER_ADDR = 1
PRNG_SPEC = ArrowS(ArrowS(BaseS(UNIT), BaseS(INT)), BaseS(INT))


def generate_nr(seed: int, i: int) -> int:
    x = (seed * 6364136223846793005 + i * 1442695040888963407) & (2**63 - 1)
    return (x >> 17) % 1000


def counter_callback(counter: Addr, seed: int):
    """The checked callback over an encapsulated call counter: each call
    bumps the counter and returns the pseudo-number for its new value."""

    def cb(_arg):
        def gen():
            cur = yield read_op(counter)
            nxt = cur.value + 1
            yield write_op(counter, VInt(nxt))
            return VInt(generate_nr(seed, nxt))

        return do(gen)

    return cb


def scenario_prng(seed: int = 2024) -> Scenario:
    cb = counter_callback(COUNTER_ADDR, seed)

    def body(ctx_main):
        def gen():
            counter = yield alloc_op(INT, INT_LEQ, VInt(0))
            yield label_encapsulated_op(counter)
            res = ctx_main(cb)
            if isinstance(res, Inr):
                return -1
            return res.value.value

        return do(gen)

    iface = SourceInterface(
        spec=PRNG_SPEC,
        psi=lambda w0, r, w1: (
            w1.heap.contains(COUNTER_ADDR)
            and is_encapsulated(w1, COUNTER_ADDR)
            and w1.heap.cell(COUNTER_ADDR).value.value >= 0
        ),
    )
    program = SourceProgram(name="prng", body=body)

    def check(result: ScenarioResult) -> dict:
        checks = {
            "psi_counter_encapsulated": iface.psi(result.w0, result.record.outcome, result.w1),
        }
        journal = result.state.trace.worlds
        if journal:
            # paranoid runs: the counter moved exactly once per callback call
            final = result.w1.heap.cell(COUNTER_ADDR).value.value
            checks["counter_counts_callback_calls"] = value_changes(journal, COUNTER_ADDR) == final
        return checks

    def _prng_forger(ops: CtxOps):
        def main(next_nr):
            try:
                ops.read(VRef(COUNTER_ADDR, INT))
            except RunFailure:
                pass
            next_nr(V_UNIT)
            next_nr(V_UNIT)
            return VInt(0)

        return main

    contexts = {
        "three_calls": load_sref(_sref("prng_three_calls.sref"), PRNG_SPEC, "three_calls"),
        "zero_calls": load_sref(_sref("prng_zero_calls.sref"), PRNG_SPEC, "zero_calls"),
        "counter_snoop": TargetContext(name="counter_snoop", builder=_prng_forger),
    }
    return Scenario(
        name="prng",
        interface=iface,
        program=program,
        contexts=contexts,
        check=check,
    )


# ---------------------------------------------------------------------------
# guessing game: an encapsulated, grow-only guess history


GUESSES_ADDR = 1
CMP_SPEC = SumS(BaseS(UNIT), SumS(BaseS(UNIT), BaseS(UNIT)))
CMP_LT = VInl(V_UNIT)
CMP_GT = VInr(VInl(V_UNIT))
CMP_EQ = VInr(VInr(V_UNIT))

GUESS_SPEC = ArrowS(
    PairS(BaseS(INT), PairS(BaseS(INT), ArrowS(BaseS(INT), CMP_SPEC))),
    BaseS(INT),
)


def _append_encapsulated(head, value):
    """Append one element to a grow-only chain, keeping every cell
    encapsulated so callbacks may extend it mid-context."""
    cur = head
    while True:
        node = yield read_op(cur)
        if isinstance(node, VLLNil):
            break
        cur = node.tail
    fresh = yield alloc_op(LList(INT), NIL_THEN_FIXED, V_NIL)
    yield label_encapsulated_op(fresh)
    yield write_op(cur, VLLCons(value, fresh))


def scenario_guess(lo: int = 0, hi: int = 100, pick: int = 42) -> Scenario:
    assert lo < pick < hi

    def body(player):
        def cb(g):
            def gen():
                yield from _append_encapsulated(GUESSES_ADDR, g)
                if pick == g.value:
                    return CMP_EQ
                if pick < g.value:
                    return CMP_LT
                return CMP_GT

            return do(gen)

        def gen():
            guesses = yield alloc_op(LList(INT), NIL_THEN_FIXED, V_NIL)
            yield label_encapsulated_op(guesses)
            res = player(VPair(VInt(lo), VPair(VInt(hi), cb)))
            if isinstance(res, Inr):
                return -1
            final = res.value
            yield from _append_encapsulated(GUESSES_ADDR, final)
            return 1 if final.value == pick else 0

        return do(gen)

    iface = SourceInterface(
        spec=GUESS_SPEC,
        psi=lambda w0, r, w1: (
            w1.heap.contains(GUESSES_ADDR)
            and is_encapsulated(w1, GUESSES_ADDR)
            and bool(chain_history(w1.heap, GUESSES_ADDR))
        ),
    )
    program = SourceProgram(name="guess", body=body)

    def check(result: ScenarioResult) -> dict:
        history = chain_history(result.w1.heap, GUESSES_ADDR)
        checks = {
            "psi_history_recorded": iface.psi(result.w0, result.record.outcome, result.w1),
            "found_iff_last_is_pick": result.record.outcome
            == ("ok", 1 if history and history[-1] == pick else 0),
        }
        journal = result.state.trace.worlds
        if journal:
            # history only ever grows by appending (prefix order), and the
            # number of callback calls is its length minus the final append
            checks["history_prefix_monotone"] = HistoryFollower(journal, GUESSES_ADDR).monotone()
            checks["history_is_calls_plus_one"] = bool(history)
        return checks

    contexts = {
        "binary_search": load_sref(_sref("guess_binary_search.sref"), GUESS_SPEC, "binary_search"),
        "one_wrong": load_sref(_sref("guess_one_wrong.sref"), GUESS_SPEC, "one_wrong"),
        "no_calls": load_sref(_sref("guess_no_calls.sref"), GUESS_SPEC, "no_calls"),
    }
    return Scenario(
        name="guess",
        interface=iface,
        program=program,
        contexts=contexts,
        check=check,
    )


# ---------------------------------------------------------------------------
# cooperative scheduler: checked bookkeeping over untrusted tasks


SCHED_COUNTER_ADDR = 1
SCHED_SHARED_ADDR = 2
SCHED_COUNTER_TAG = Pair(LList(INT), Pair(INT, INT))
SCHED_HISTORY = attrgetter("first")  # the counter pair's history chain

TASK_DONE = VInl(V_UNIT)


def yielding_task(yields: int, write_value: Optional[int] = None):
    """A task that yields `yields` times, optionally writing the shared cell
    on every step, then returns."""

    def make(ops: CtxOps, shared: VRef):
        remaining = [yields]

        def step():
            if write_value is not None:
                ops.write(shared, VInt(write_value + remaining[0]))
            if remaining[0] <= 0:
                return TASK_DONE
            remaining[0] -= 1
            return VInr(me())

        # weak, so step is not in a cycle with itself and dies with its last use
        me = weakref.ref(step)
        return step

    return make


@record
class SchedulerRun:
    hist: list
    finished_at: dict
    state: RunState
    w1: World
    record: BehaviorRecord


def fairness(k: int, hist: list, finished_at: dict) -> bool:
    """Between consecutive runs of a task, every task that stayed active
    through that span got scheduled at least once.

    One pass over the history: at a run q of task i whose previous run was
    p, task j ran in between exactly when its latest run before q is after p.
    """
    tasks = range(k)
    last = {}
    for q, i in enumerate(hist):
        p = last.get(i)
        if p is not None and i in tasks:
            for j in tasks:
                if j != i and last.get(j, -1) < p:
                    fin = finished_at.get(j)
                    if fin is None or fin >= q:
                        return False
        last[i] = q
    return True


def _sched_append(state: RunState, task_id: int, next_task: int, inact: int, tail):
    """Append one history entry; tail is the terminal nil cell of the chain,
    or None while the history still sits empty inside the counter pair.

    The entry is committed by the last write, which links it into the chain,
    so a run that stops part-way records no entry."""
    fresh = state.op_alloc(LList(INT), NIL_THEN_FIXED, V_NIL)
    new_rest = VPair(VInt(next_task), VInt(inact))
    cell = state.world.heap.cell(SCHED_COUNTER_ADDR).value
    if tail is None:
        state.op_write(SCHED_COUNTER_ADDR, VPair(VLLCons(VInt(task_id), fresh), new_rest))
    else:
        state.op_write(SCHED_COUNTER_ADDR, VPair(cell.first, new_rest))
        state.op_write(tail, VLLCons(VInt(task_id), fresh))
    return fresh


def run_scheduler(task_builders, cfg: Optional[RunConfig] = None) -> SchedulerRun:
    """Round-robin the tasks to completion as a `beh` run, which ends their
    CtxOps, recording history in a private, prefix-monotone counter cell."""
    state = RunState(config=cfg)
    k = len(task_builders)
    counter = state.op_alloc(
        SCHED_COUNTER_TAG, HIST_PREFIX, VPair(V_NIL, VPair(VInt(0), VInt(0)))
    )
    shared = state.op_alloc(INT, TRIVIAL, VInt(0))
    state.op_label_shareable(shared)
    ops = run_ops(state)
    shared_ref = VRef(shared, INT)

    hist: list[int] = []
    finished_at: dict[int, int] = {}

    def schedule(state: RunState) -> int:
        steps = []
        for i, make in enumerate(task_builders):
            span_start = state.world
            steps.append(make(ops, shared_ref))
            state.trace.context_spans.append((f"build:task{i}", span_start, state.world))
        inact = 0
        nxt = 0
        tail = None
        while inact < k:
            while steps[nxt] is None:
                nxt = (nxt + 1) % k
            span_start = state.world
            out = steps[nxt]()
            state.trace.context_spans.append((f"task{nxt}", span_start, state.world))
            done = isinstance(out, VInl)
            following = (nxt + 1) % k
            # the host history follows the recorded one: an entry whose
            # record ran out of fuel is in neither
            tail = _sched_append(state, nxt, following, inact + done, tail)
            hist.append(nxt)
            if done:
                steps[nxt] = None
                inact += 1
                finished_at[nxt] = len(hist) - 1
            else:
                steps[nxt] = out.payload
            nxt = following
        return inact

    record = beh(schedule, state=state)
    return SchedulerRun(
        hist=hist,
        finished_at=finished_at,
        state=state,
        w1=state.world,
        record=record,
    )


def scheduler_checks(run: SchedulerRun, k: int) -> dict:
    from .labels import modif_only_shareable_and_encaps, same_labels

    checks = {
        "fairness": fairness(k, run.hist, run.finished_at),
        "all_tasks_finished": run.record.outcome == ("ok", k),
        "counter_private": is_private(run.w1, SCHED_COUNTER_ADDR),
        "recorded_history_matches": chain_history(run.w1.heap, SCHED_COUNTER_ADDR,
                                                  SCHED_HISTORY) == run.hist,
        "task_steps_touch_only_shareable": all(
            modif_only_shareable_and_encaps(w0, w1) and same_labels(w0, w1)
            for name, w0, w1 in run.state.trace.context_spans
        ),
    }
    journal = run.state.trace.worlds
    if journal:
        checks["history_prefix_monotone"] = HistoryFollower(
            journal, SCHED_COUNTER_ADDR, SCHED_HISTORY).monotone()
    return checks


NAMED_TASK_SETS = {
    "three_tasks_two_yields": [yielding_task(2), yielding_task(2), yielding_task(2)],
    "single_return": [yielding_task(0)],
    "shared_mutators": [yielding_task(3, write_value=10), yielding_task(1), yielding_task(2, write_value=50)],
}


# ---------------------------------------------------------------------------
# registry


def all_scenarios() -> dict:
    return {
        "safe_prog": scenario_safe_prog,
        "autograder": scenario_autograder,
        "prng": scenario_prng,
        "guess": scenario_guess,
    }

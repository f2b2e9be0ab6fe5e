import gc
import random
import sys
import weakref
from contextlib import nullcontext
from pathlib import Path

import pytest

import mutate
from stores import alloc_walked
from secref import heap as hp
from secref import linker
from secref.contracts import ArrowS, BaseS, Inl, Inr, PairS, SumS
from secref.errors import (
    AlreadyLabeled,
    BoundaryViolation,
    DanglingInit,
    InvariantViolation,
    OutOfFuel,
    RunFailure,
    ShareLeak,
    TypeMismatch,
    Uncontained,
    UniversalViolation,
)
from secref.heap import INT_LEQ, TRIVIAL, WIDTH
from secref.labels import (
    NO_LABELS,
    Label,
    World,
    initial_world,
    is_shareable,
    label_shareable,
    lr_inv,
    modif_only_shareable_and_encaps,
    same_labels,
)
from secref.linker import (
    BehaviorRecord,
    CtxOps,
    DualProgram,
    SourceInterface,
    SourceProgram,
    TargetContext,
    back_translate,
    beh,
    beh_equal,
    compile_program,
    ctx_alloc,
    ctx_read,
    ctx_write,
    link_dual,
    link_source,
    link_target,
    render_world,
    run_ops,
)
from secref.programs import (
    RunConfig,
    RunState,
    Return,
    alloc_op,
    do,
    label_shareable_op,
    read_op,
    write_op,
)
from secref.sampling import sample_tag, sample_value
from secref.scenarios import TASK_DONE, all_scenarios, counter_callback, run_scenario, run_scheduler
from secref.target_lang import elaborate, gen_random_context, parse
from secref.values import (
    BOOL,
    INT,
    UNIT,
    V_FALSE,
    V_TRUE,
    V_UNIT,
    Arrow,
    LList,
    Pair,
    Ref,
    Sum,
    VBool,
    VInl,
    VInr,
    VInt,
    VLLCons,
    VPair,
    VRef,
)


def test_initial_world_is_canonical():
    w = initial_world()
    assert lr_inv(w)
    assert not list(w.heap.addresses())
    assert w.heap.next_addr == 1


def test_ctx_alloc_produces_shareable_cells():
    state = RunState()
    ops = CtxOps(state)
    ref = ops.alloc(INT, VInt(0))
    assert is_shareable(state.world, ref.addr)


def test_ctx_write_to_private_is_a_boundary_violation():
    state = RunState()
    private = state.op_alloc(INT, TRIVIAL, VInt(42))
    ops = CtxOps(state)
    with pytest.raises(BoundaryViolation):
        ops.write(VRef(private, INT), VInt(0))


def test_ctx_read_of_private_is_a_boundary_violation():
    state = RunState()
    private = state.op_alloc(INT, TRIVIAL, VInt(42))
    with pytest.raises(BoundaryViolation):
        CtxOps(state).read(VRef(private, INT))


# -- the context read rule, through CtxOps


def read_rule_refs(config=None):
    """A run state, a CtxOps on it, and one reference per row of the read
    rule's matrix: a cell of each label, addresses no cell has, and the
    label-map marker."""
    state = RunState(config=config)
    ops = CtxOps(state)
    shareable = ops.alloc(INT, VInt(7))
    private = state.op_alloc(INT, TRIVIAL, VInt(42))
    encapsulated = state.op_alloc(INT, TRIVIAL, VInt(9))
    state.op_label_encapsulated(encapsulated)
    refs = {
        "shareable": shareable,
        "private": VRef(private, INT),
        "encapsulated": VRef(encapsulated, INT),
        "unallocated": VRef(state.world.heap.next_addr, INT),
        "beyond_every_chunk": VRef(1000, INT),
        # one chunk below the shareable cell: a lookup that let a negative
        # chunk index wrap around would read the shareable cell
        "negative": VRef(shareable.addr - WIDTH, INT),
        "label_map_marker": VRef(0, INT),
    }
    return state, ops, refs


# every row but the shareable one, with what a read of it returns or raises
# once the shareable check is off
UNCHECKED = {"private": VInt(42), "encapsulated": VInt(9), "unallocated": Uncontained,
             "beyond_every_chunk": Uncontained, "negative": Uncontained,
             "label_map_marker": Uncontained}


def test_a_context_reads_a_shareable_cell():
    state, ops, refs = read_rule_refs()
    assert ops.read(refs["shareable"]) == VInt(7)
    assert ctx_read(ops, refs["shareable"]) == VInt(7)


@pytest.mark.parametrize("row", UNCHECKED)
def test_a_context_read_of_a_non_shareable_address_is_a_boundary_violation(row):
    state, ops, refs = read_rule_refs()
    world = state.world
    with pytest.raises(BoundaryViolation, match=f"non-shareable address {refs[row].addr}$"):
        ops.read(refs[row])
    assert state.world is world


@pytest.mark.parametrize("value", [VInt(3), None, 1])
def test_a_context_read_of_a_non_reference_is_a_boundary_violation(value):
    _, ops, _ = read_rule_refs()
    with pytest.raises(BoundaryViolation, match="non-reference"):
        ops.read(value)


@pytest.mark.parametrize("row", UNCHECKED)
def test_an_unchecked_context_read_reads_what_the_heap_holds(row):
    state, ops, refs = read_rule_refs()
    with mutate.enabled("ctx_read_unchecked"):
        if UNCHECKED[row] is Uncontained:
            with pytest.raises(Uncontained):
                ops.read(refs[row])
        else:
            assert ops.read(refs[row]) == UNCHECKED[row]


@pytest.mark.parametrize("fuel", [1, 2, 5])
def test_context_reads_run_out_of_fuel_at_exactly_the_configured_fuel(fuel):
    state = RunState(config=RunConfig(fuel=fuel))
    ops = CtxOps(state)
    ref = ops.alloc(INT, VInt(0))
    for _ in range(fuel - 1):
        assert ops.read(ref) == VInt(0)
    with pytest.raises(OutOfFuel, match=f"after {fuel} steps"):
        ops.read(ref)
    assert (state.trace.steps, state.fuel) == (fuel, 0)


def python_calls(fn, *args) -> list:
    """The Python functions a call of fn(*args) enters, fn included, in
    order, each as "<module file stem>.<function name>"."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls.append(f"{Path(code.co_filename).stem}.{code.co_name}")

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_each_context_operation_is_its_rule():
    # a layered copy of a rule beside the CtxOps method fails here
    assert CtxOps.alloc is ctx_alloc and CtxOps.read is ctx_read and CtxOps.write is ctx_write


def test_a_fast_context_read_is_one_python_call():
    # the read step is one function, and fast mode runs no monitor; a layer
    # or a monitor call put back on this path fails here, not in a timing
    _, ops, refs = read_rule_refs()
    ref = refs["shareable"]
    assert python_calls(ops.read, ref) == ["linker.ctx_read"]


def test_a_paranoid_context_read_runs_the_step_monitor_once():
    state, ops, refs = read_rule_refs(RunConfig(check_level="paranoid"))
    ref = refs["shareable"]
    for _ in range(3):
        recorded = len(state.trace.worlds)
        calls = python_calls(ops.read, ref)
        assert calls[0] == "linker.ctx_read"
        assert calls.count("programs._after_step") == 1
        assert len(state.trace.worlds) == recorded + 1


# -- the context alloc rule, through CtxOps


def alloc_rule_refs():
    """A run state, a CtxOps on it, and the references the alloc rule's
    matrix stores.  The world's fresh address already carries a label, which
    lr_inv refuses, so that a store can break the rule's last check too."""
    state = RunState()
    ops = CtxOps(state)
    shareable = ops.alloc(INT, VInt(0))
    shareable_bool = ops.alloc(BOOL, V_TRUE)
    private = state.op_alloc(INT, TRIVIAL, VInt(42))
    w = state.world
    state.world = World(heap=w.heap, labels=w.labels.set(w.heap.next_addr, Label.ENCAPSULATED))
    refs = {
        "shareable": shareable,
        "private": VRef(private, INT),
        "mistyped": VRef(shareable_bool.addr, INT),  # shareable, but its cell holds a bool
        "unallocated": VRef(999, INT),
    }
    return state, ops, refs


REFS = Pair(Ref(INT), Ref(INT))
UNSTORABLE = Sum(REFS, Arrow(INT, INT))

# row: (tag, the stored value built from the refs, refusal, its message).
# Each store also breaks every check after the one that refuses it, so a
# row fails if the rule's checks run in another order.
ALLOC_REFUSALS = {
    "not_conforming": (UNSTORABLE, lambda r: VInl(VPair(VRef(r["private"].addr, BOOL), r["private"])),
                       TypeMismatch, "does not conform"),
    "embeds_private": (UNSTORABLE, lambda r: VInl(VPair(r["mistyped"], r["private"])),
                       BoundaryViolation, "alloc embeds non-shareable address 3$"),
    "embeds_unallocated": (UNSTORABLE, lambda r: VInl(VPair(r["shareable"], r["unallocated"])),
                           BoundaryViolation, "alloc embeds non-shareable address 999$"),
    "embeds_mistyped": (UNSTORABLE, lambda r: VInl(VPair(r["mistyped"], r["shareable"])),
                        TypeMismatch, "expects cell of int, found bool"),
    "unstorable": (UNSTORABLE, lambda r: VInl(VPair(r["shareable"], r["shareable"])),
                   TypeMismatch, "is not a storable type"),
    "unstorable_int_sum": (Sum(INT, Arrow(INT, INT)), lambda r: VInl(VInt(1)),
                           TypeMismatch, "is not a storable type"),
    "fresh_address_labeled": (REFS, lambda r: VPair(r["shareable"], r["shareable"]),
                              AlreadyLabeled, "fresh cell 4 is already Encapsulated"),
}

# the rows whose refusal changes once the boundary refusal is off
UNCHECKED_ALLOC = {
    "embeds_private": (TypeMismatch, "expects cell of int, found bool"),
    "embeds_unallocated": (DanglingInit, "embedded address 999 not in heap"),
}


@pytest.mark.parametrize("row", ALLOC_REFUSALS)
def test_context_alloc_refusals_keep_their_order(row):
    state, ops, refs = alloc_rule_refs()
    tag, init, error, message = ALLOC_REFUSALS[row]
    before = state.world
    with pytest.raises(error, match=message):
        ops.alloc(tag, init(refs))
    assert state.world is before


@pytest.mark.parametrize("row", ALLOC_REFUSALS)
@pytest.mark.parametrize("mutant", ["ctx_alloc_unchecked", "ctx_write_unchecked"])
def test_the_alloc_mutant_skips_only_the_boundary_refusal(row, mutant):
    # ctx_write_unchecked shares the boundary walk and must not reach alloc
    state, ops, refs = alloc_rule_refs()
    tag, init, error, message = ALLOC_REFUSALS[row]
    if mutant == "ctx_alloc_unchecked":
        error, message = UNCHECKED_ALLOC.get(row, (error, message))
    before = state.world
    with mutate.enabled(mutant), pytest.raises(error, match=message):
        ops.alloc(tag, init(refs))
    assert state.world is before


def test_an_unchecked_context_alloc_stores_a_non_shareable_address():
    state = RunState()
    private = VRef(state.op_alloc(INT, TRIVIAL, VInt(42)), INT)
    ops = CtxOps(state)
    with mutate.enabled("ctx_alloc_unchecked"):
        stash = ops.alloc(Ref(INT), private)
    assert is_shareable(state.world, stash.addr)
    assert state.world.heap.cell(stash.addr).value == private
    assert not lr_inv(state.world)


def test_a_paranoid_step_monitor_catches_an_unchecked_context_alloc():
    state = RunState(config=RunConfig(check_level="paranoid"))
    private = VRef(state.op_alloc(INT, TRIVIAL, VInt(42)), INT)
    ops = CtxOps(state)
    with mutate.enabled("ctx_alloc_unchecked"), pytest.raises(InvariantViolation):
        ops.alloc(Ref(INT), private)


@pytest.mark.parametrize("fuel", [1, 2, 5])
def test_context_allocs_run_out_of_fuel_at_exactly_the_configured_fuel(fuel):
    state = RunState(config=RunConfig(fuel=fuel))
    ops = CtxOps(state)
    for i in range(fuel):
        assert ops.alloc(INT, VInt(i)) == VRef(i + 1, INT)
    world = state.world
    with pytest.raises(OutOfFuel, match=f"after {fuel} steps"):
        ops.alloc(INT, VInt(fuel))
    assert state.world is world
    assert (state.trace.steps, state.fuel, len(world.heap.cells)) == (fuel, 0, fuel)


def test_a_fast_context_alloc_is_one_rule():
    # the alloc rule is one function: no labeled operation, heap operation,
    # label lookup or monitor call under it, and one walk of the value
    _, ops, _ = read_rule_refs()
    calls = python_calls(ops.alloc, INT, VInt(1))
    assert calls[0] == "linker.ctx_alloc"
    for layer in ("labels.lr_alloc", "heap.alloc", "labels.label_of", "labels.is_private",
                  "programs._after_step"):
        assert layer not in calls
    assert calls.count("values.ref_entries") == 1


def test_a_paranoid_context_alloc_runs_the_step_monitor_once():
    state, ops, _ = read_rule_refs(RunConfig(check_level="paranoid"))
    for i in range(3):
        recorded = len(state.trace.worlds)
        calls = python_calls(ops.alloc, INT, VInt(i))
        assert calls[0] == "linker.ctx_alloc"
        assert calls.count("programs._after_step") == 1
        assert len(state.trace.worlds) == recorded + 1


# -- the context write rule, through CtxOps


def write_rule_refs(config=None):
    """A run state, a CtxOps on it, and the references the write rule's
    matrix writes to or stores: a shareable int cell and a shareable
    `(pair (ref int) (ref int))` cell to write, cells of the other labels,
    and addresses no cell has."""
    state = RunState(config=config)
    ops = CtxOps(state)
    shareable = ops.alloc(INT, VInt(0))
    shareable_bool = ops.alloc(BOOL, V_TRUE)
    pair = ops.alloc(REFS, VPair(shareable, shareable))
    private = state.op_alloc(INT, TRIVIAL, VInt(42))
    encapsulated = state.op_alloc(INT, TRIVIAL, VInt(9))
    state.op_label_encapsulated(encapsulated)
    refs = {
        "shareable": shareable,
        "pair": pair,
        "private": VRef(private, INT),
        "encapsulated": VRef(encapsulated, INT),
        "mistyped": VRef(shareable_bool.addr, INT),  # shareable, but its cell holds a bool
        "unallocated": VRef(999, INT),
    }
    return state, ops, refs


# row: (the target, the value written, both built from the refs; refusal,
# its message).  A value that embeds a non-shareable address also breaks
# the containment check after the boundary refusal where it can.
WRITE_REFUSALS = {
    "not_a_reference": (lambda r: VInt(3), lambda r: VInt(1),
                        BoundaryViolation, "write to a non-reference: 3$"),
    "private": (lambda r: r["private"], lambda r: VInt(1),
                BoundaryViolation, "write to non-shareable address 4$"),
    "encapsulated": (lambda r: r["encapsulated"], lambda r: VInt(1),
                     BoundaryViolation, "write to non-shareable address 5$"),
    "unallocated": (lambda r: r["unallocated"], lambda r: VInt(1),
                    BoundaryViolation, "write to non-shareable address 999$"),
    "not_conforming": (lambda r: r["pair"], lambda r: VPair(r["shareable"], VInt(1)),
                       TypeMismatch, "does not conform"),
    "embeds_private": (lambda r: r["pair"], lambda r: VPair(r["shareable"], r["private"]),
                       BoundaryViolation, "write embeds non-shareable address 4$"),
    "embeds_private_after_mistyped": (lambda r: r["pair"],
                                      lambda r: VPair(r["mistyped"], r["private"]),
                                      BoundaryViolation, "write embeds non-shareable address 4$"),
    "embeds_unallocated": (lambda r: r["pair"], lambda r: VPair(r["shareable"], r["unallocated"]),
                           BoundaryViolation, "write embeds non-shareable address 999$"),
    "embeds_mistyped": (lambda r: r["pair"], lambda r: VPair(r["mistyped"], r["shareable"]),
                        TypeMismatch, "expects cell of int, found bool"),
}

# under ctx_write_unchecked, the rows whose outcome changes: a refusal from
# the labeled write, or None where the write goes through
UNCHECKED_WRITE = {
    "private": None,
    "encapsulated": None,
    "unallocated": (Uncontained, "999"),
    "embeds_private": (ShareLeak, r"private address\(es\) \[4\] reachable"),
    "embeds_private_after_mistyped": (TypeMismatch, "expects cell of int, found bool"),
    "embeds_unallocated": (DanglingInit, "embedded address 999 not in heap"),
}


@pytest.mark.parametrize("row", WRITE_REFUSALS)
@pytest.mark.parametrize("mutant", [None, "ctx_write_unchecked", "lr_write_share_unchecked"])
def test_context_write_refusals_keep_their_order(row, mutant):
    # lr_write_share_unchecked sits behind the boundary refusal and moves no row
    state, ops, refs = write_rule_refs()
    target, value, error, message = WRITE_REFUSALS[row]
    target, value = target(refs), value(refs)
    outcome = (error, message)
    if mutant == "ctx_write_unchecked":
        outcome = UNCHECKED_WRITE.get(row, outcome)
    before = state.world
    with mutate.enabled(mutant) if mutant else nullcontext():
        if outcome is None:
            ops.write(target, value)
        else:
            with pytest.raises(outcome[0], match=outcome[1]):
                ops.write(target, value)
    if outcome is not None:
        assert state.world is before
        return
    # an unchecked write to a non-shareable cell lands, and only there
    assert state.world.heap.cell(target.addr).value == value
    assert [a for a in before.heap.addresses()
            if before.heap.cell(a) != state.world.heap.cell(a)] == [target.addr]
    assert modif_only_shareable_and_encaps(before, state.world) == (row == "encapsulated")


# -- payloads of the wrong host type, as a host context can build them: a
# store refuses them as not conforming, and a step on an address that is
# not an int refuses it as not a reference


@pytest.mark.parametrize("value", [VInt("a"), VInt(1.5), VInt(True)], ids=["str", "float", "bool"])
def test_a_context_write_of_an_int_cell_refuses_a_non_int_payload(value):
    state, ops, refs = write_rule_refs()
    before = state.world
    with pytest.raises(TypeMismatch, match="does not conform to int$"):
        ops.write(refs["shareable"], value)
    assert state.world is before


@pytest.mark.parametrize("tag, value", [
    (Ref(INT), VRef(1.0, INT)), (Ref(INT), VRef(True, INT)), (LList(INT), VLLCons(VInt(1), "x")),
    (BOOL, VBool(1)),
], ids=["float_address", "bool_address", "str_tail", "int_bool"])
def test_a_context_alloc_refuses_a_payload_of_the_wrong_host_type(tag, value):
    state, ops, _ = write_rule_refs()
    before = state.world
    with pytest.raises(TypeMismatch, match="does not conform"):
        ops.alloc(tag, value)
    assert state.world is before


@pytest.mark.parametrize("step", ["read", "write"])
@pytest.mark.parametrize("addr", ["x", True, 1.0], ids=["str", "bool", "float"])
def test_a_context_step_on_a_non_int_address_is_a_boundary_violation(step, addr):
    state, ops, _ = write_rule_refs()
    before = state.world
    with pytest.raises(BoundaryViolation, match=f"{step} (to|of) a non-reference"):
        ops.read(VRef(addr, INT)) if step == "read" else ops.write(VRef(addr, INT), VInt(1))
    assert state.world is before


def test_a_context_writes_a_shareable_cell():
    state, ops, refs = write_rule_refs()
    assert ops.write(refs["shareable"], VInt(5)) is None
    assert ops.read(refs["shareable"]) == VInt(5)
    assert ctx_write(ops, refs["pair"], VPair(refs["shareable"], refs["shareable"])) is None
    assert lr_inv(state.world)


@pytest.mark.parametrize("fuel", [1, 2, 5])
def test_context_writes_run_out_of_fuel_at_exactly_the_configured_fuel(fuel):
    state = RunState(config=RunConfig(fuel=fuel))
    ops = CtxOps(state)
    ref = ops.alloc(INT, VInt(0))
    for i in range(1, fuel):
        ops.write(ref, VInt(i))
    world = state.world
    with pytest.raises(OutOfFuel, match=f"after {fuel} steps"):
        ops.write(ref, VInt(fuel))
    assert state.world is world
    assert world.heap.cell(ref.addr).value == VInt(fuel - 1)
    assert (state.trace.steps, state.fuel) == (fuel, 0)


def test_a_fast_context_write_makes_no_monitor_call():
    _, ops, refs = write_rule_refs()
    calls = python_calls(ops.write, refs["shareable"], VInt(1))
    assert calls[0] == "linker.ctx_write"
    assert "programs._after_step" not in calls


def test_a_paranoid_context_write_runs_the_step_monitor_once():
    state, ops, refs = write_rule_refs(RunConfig(check_level="paranoid"))
    for i in range(3):
        recorded = len(state.trace.worlds)
        calls = python_calls(ops.write, refs["shareable"], VInt(i))
        assert calls[0] == "linker.ctx_write"
        assert calls.count("programs._after_step") == 1
        assert len(state.trace.worlds) == recorded + 1


def test_ctx_read_of_ref_to_ref_yields_shareable_target():
    state = RunState()
    ops = CtxOps(state)
    inner = ops.alloc(INT, VInt(1))
    outer = ops.alloc(Ref(INT), inner)
    got = ops.read(outer)
    assert got == inner
    assert is_shareable(state.world, got.addr)


def test_ctx_alloc_embedding_private_ref_is_refused():
    state = RunState()
    private = state.op_alloc(INT, TRIVIAL, VInt(0))
    ops = CtxOps(state)
    with pytest.raises(BoundaryViolation):
        ops.alloc(Ref(INT), VRef(private, INT))


def test_context_store_errors_keep_their_order():
    """BoundaryViolation for any embedded non-shareable address comes
    first, then the labeled operation's containment and typing checks on
    the entries the boundary walk handed over, then ShareLeak."""
    state = RunState()
    ops = CtxOps(state)
    shared_int = ops.alloc(INT, VInt(0))
    shared_bool = ops.alloc(BOOL, VBool(True))
    private = state.op_alloc(INT, TRIVIAL, VInt(0))
    tag = Pair(Ref(INT), Ref(INT))
    cell = ops.alloc(tag, VPair(shared_int, shared_int))
    before = state.world
    mistyped = VRef(shared_bool.addr, INT)  # shareable, but its cell holds a bool
    for bad in (VRef(999, INT), VRef(private, INT)):
        with pytest.raises(BoundaryViolation, match=f"write embeds non-shareable address {bad.addr}"):
            ops.write(cell, VPair(mistyped, bad))
        with pytest.raises(BoundaryViolation, match=f"alloc embeds non-shareable address {bad.addr}"):
            ops.alloc(tag, VPair(mistyped, bad))
    with pytest.raises(TypeMismatch, match="expects cell of int, found bool"):
        ops.write(cell, VPair(mistyped, shared_int))
    with pytest.raises(TypeMismatch, match="expects cell of int, found bool"):
        ops.alloc(tag, VPair(mistyped, shared_int))
    with pytest.raises(TypeMismatch, match="does not conform"):
        ops.write(cell, VInt(0))
    with mutate.enabled("ctx_write_unchecked"):
        with pytest.raises(DanglingInit):
            ops.write(cell, VPair(shared_int, VRef(999, INT)))
        with pytest.raises(ShareLeak):
            ops.write(cell, VPair(shared_int, VRef(private, INT)))
    assert state.world is before


def test_checked_and_context_steps_share_one_fuel_meter():
    """The context side runs the fuel meter inline; with equal fuel both
    sides stop at the same step with the same message."""

    def checked():
        def gen():
            a = yield alloc_op(INT, TRIVIAL, VInt(0))
            while True:
                yield write_op(a, VInt(1))
                yield read_op(a)

        state.interpret(do(gen))

    def context():
        ops = CtxOps(state)
        a = ops.alloc(INT, VInt(0))
        while True:
            ops.write(a, VInt(1))
            ops.read(a)
            ops.tick()

    stops = []
    for body in (checked, context):
        state = RunState(config=RunConfig(fuel=40))
        with pytest.raises(OutOfFuel) as err:
            body()
        stops.append((state.trace.steps, state.fuel, str(err.value)))
    assert stops[0] == stops[1] == (40, 0, "fuel exhausted after 40 steps")


def test_a_context_step_without_fuel_changes_nothing():
    state = RunState(config=RunConfig(fuel=2))
    ops = CtxOps(state)
    ref = ops.alloc(INT, VInt(0))
    ops.write(ref, VInt(1))
    world, steps = state.world, state.trace.steps
    for step in (ops.tick, lambda: ops.read(ref), lambda: ops.write(ref, VInt(2)),
                 lambda: ops.alloc(INT, VInt(3))):
        with pytest.raises(OutOfFuel):
            step()
        assert state.world is world
        assert (state.trace.steps, state.fuel) == (steps, 0)


def test_ctx_alloc_labels_as_lr_alloc_then_label_shareable_would():
    state = RunState()
    inner = CtxOps(state).alloc(INT, VInt(1))
    w = state.world
    for tag, init in ((INT, VInt(3)), (Ref(INT), inner)):
        direct = RunState(world=w)
        ref = CtxOps(direct).alloc(tag, init)
        fresh, w1 = alloc_walked(w, tag, TRIVIAL, init)
        assert (ref, direct.world) == (VRef(fresh, tag), label_shareable(w1, fresh))
        assert lr_inv(direct.world)


def test_ctx_alloc_refuses_a_fresh_address_that_already_carries_a_label():
    w = initial_world()
    broken = World(heap=w.heap, labels=w.labels.set(w.heap.next_addr, Label.ENCAPSULATED))
    with pytest.raises(AlreadyLabeled):
        CtxOps(RunState(world=broken)).alloc(INT, VInt(0))


# -- a miniature interface: the context is an int -> int function


def doubler_interface():
    return SourceInterface(
        spec=ArrowS(BaseS(INT), BaseS(INT)),
        psi=lambda w0, r, w1: w1.heap.contains(1) and w1.heap.cell(1).value == VInt(42),
    )


def doubler_program():
    def body(ctx_fn):
        def gen():
            secret = yield alloc_op(INT, TRIVIAL, VInt(42))
            out = ctx_fn(VInt(5))
            if isinstance(out, Inr):
                return -1
            got = yield read_op(secret)
            return out.value.value + got.value

        return do(gen)

    return SourceProgram(name="doubler", body=body)


def test_compile_link_run():
    iface = doubler_interface()
    program = doubler_program()
    ctx = elaborate(parse("(lam (x int) (* x 2))"), iface.spec, name="times2")
    whole = link_target(compile_program(program, iface), ctx)
    record = beh(whole, RunState())
    assert record.outcome == ("ok", 52)


def test_beh_is_deterministic():
    iface = doubler_interface()
    program = doubler_program()
    ctx = elaborate(parse("(lam (x int) (+ x 1))"), iface.spec, name="succ")
    whole = link_target(compile_program(program, iface), ctx)
    assert beh(whole, RunState()) == beh(whole, RunState())


def test_beh_of_pure_return():
    record = beh(lambda state: 7, RunState())
    assert record.outcome == ("ok", 7)
    assert record.dump == ()


def test_a_behaviour_record_renders_its_world_on_first_read(monkeypatch):
    rendered = []
    monkeypatch.setattr(linker, "render_world",
                        lambda w: rendered.append(w) or render_world(w))

    def run(state):
        state.op_alloc(INT, TRIVIAL, VInt(3))
        return 7

    record, again = beh(run, RunState()), beh(run, RunState())
    assert rendered == []
    dump = ("1: int [Private] = 3",)
    assert record.dump == dump and len(rendered) == 1
    assert record.dump is record.dump and len(rendered) == 1
    assert record._world is None  # the world is let go once rendered
    assert record == again and len(rendered) == 2
    built = BehaviorRecord(("ok", 7), dump)
    assert record == built and hash(record) == hash(built)
    assert repr(record) == repr(built) == f"BehaviorRecord(outcome=('ok', 7), dump={dump!r})"
    assert list(beh(run, RunState()).lines()) == ["outcome: ('ok', 7)", *dump]
    with pytest.raises(AttributeError, match="has no attribute 'dumps'"):
        record.dumps


def test_linking_is_effect_free():
    iface = doubler_interface()
    program = doubler_program()
    ctx = elaborate(parse("(lam (x int) x)"), iface.spec, name="id")
    link_target(compile_program(program, iface), ctx)
    back_translate(ctx, iface)
    # nothing ran, so nothing allocated
    state = RunState()
    assert not state.world.heap.cells


def test_syntactic_inversion_on_generated_contexts():
    iface = doubler_interface()
    program = doubler_program()
    for seed in range(30):
        expr = gen_random_context(iface.spec, seed=seed, size=30)
        ctx = elaborate(expr, iface.spec, name=f"gen{seed}")
        target_side = beh(link_target(compile_program(program, iface), ctx),
                          RunState(config=RunConfig(fuel=2000)))
        ctx2 = elaborate(expr, iface.spec, name=f"gen{seed}")
        source_side = beh(link_source(program, back_translate(ctx2, iface)),
                          RunState(config=RunConfig(fuel=2000)))
        assert beh_equal(target_side, source_side), f"seed {seed}"


def test_psi_holds_on_generated_contexts():
    iface = doubler_interface()
    program = doubler_program()
    for seed in range(30):
        expr = gen_random_context(iface.spec, seed=seed, size=30)
        ctx = elaborate(expr, iface.spec, name=f"gen{seed}")
        state = RunState(config=RunConfig(fuel=2000))
        w0 = state.world
        record = beh(link_target(compile_program(program, iface), ctx), state=state)
        assert iface.psi(w0, record.outcome, state.world)


def test_universal_monitor_catches_an_unchecked_boundary_write():
    # a hand-written prober: tries to zero every low address through the
    # boundary ops, swallowing the refusals
    def prober(ops):
        def fn(x):
            for addr in range(1, 4):
                try:
                    ops.write(VRef(addr, INT), VInt(0))
                except RunFailure:
                    pass
            return VInt(0)

        return fn

    iface = doubler_interface()
    program = doubler_program()
    ctx = TargetContext(name="prober", builder=prober)
    whole = link_target(compile_program(program, iface), ctx)
    record = beh(whole, RunState())
    assert record.outcome == ("ok", 42 + 0)

    with mutate.enabled("ctx_write_unchecked"):
        with pytest.raises(UniversalViolation):
            beh(link_target(compile_program(program, iface), ctx), RunState())


def test_concrete_three_predicate_instantiation():
    # lr_inv, is_shareable, and modif_only_shareable_and_encaps with same_labels
    def hrel(w0, w1):
        return modif_only_shareable_and_encaps(w0, w1) and same_labels(w0, w1)

    state = RunState()
    ops = CtxOps(state)
    shared = ops.alloc(INT, VInt(1))
    private = state.op_alloc(INT, TRIVIAL, VInt(2))
    w = state.world
    assert lr_inv(w)
    assert is_shareable(w, shared.addr)
    assert not is_shareable(w, private)
    w2 = state.world
    state.op_write(private, VInt(9))
    assert not hrel(w2, state.world)
    assert hrel(w2, w2)


def _span_names(state):
    return [name for name, _, _ in state.trace.context_spans]


def test_every_shipped_context_is_instantiated_once_and_monitored_by_name():
    for factory in all_scenarios().values():
        scenario = factory()
        for name, ctx in sorted(scenario.contexts.items()):
            result = run_scenario(scenario, name, RunConfig(check_level="paranoid"))
            names = _span_names(result.state)
            assert names[0] == f"build:{ctx.name}", (scenario.name, name)
            assert names[1:] and set(names[1:]) == {ctx.name}, (scenario.name, name, names)


def test_target_and_source_links_record_the_same_spans():
    for factory in all_scenarios().values():
        scenario = factory()
        iface = scenario.interface
        for seed in range(5):
            expr = gen_random_context(iface.spec, seed=seed, size=30)
            ctx = elaborate(expr, iface.spec, name=f"gen{seed}")
            t_state = RunState(config=RunConfig(fuel=2000))
            s_state = RunState(config=RunConfig(fuel=2000))
            beh(link_target(compile_program(scenario.program, iface), ctx), state=t_state)
            beh(link_source(scenario.program, back_translate(ctx, iface)), state=s_state)
            assert _span_names(t_state) == _span_names(s_state)
            assert _span_names(t_state)[0] == f"build:gen{seed}"


CALLBACK_SPEC = ArrowS(BaseS(UNIT), BaseS(INT))
# a context that takes control with the checked callback and calls it once
CALLER = TargetContext(name="caller", builder=lambda ops: lambda cb: cb(V_UNIT))


def test_a_dual_run_records_a_build_span_and_a_call_span():
    state = RunState(config=RunConfig(check_level="paranoid"))
    counter = state.op_alloc(INT, INT_LEQ, VInt(0))
    state.op_label_encapsulated(counter)
    dual = DualProgram(name="counter", setup=lambda _: counter_callback(counter, 7),
                       spec=CALLBACK_SPEC)
    record = beh(link_dual(dual, CALLER), state=state)
    assert record.outcome[0] == "ok"
    assert state.world.heap.cell(counter).value == VInt(1)
    assert _span_names(state) == ["build:caller", "caller"]


def _relabeling_callback(private: int):
    """A checked callback that labels an existing private cell shareable."""

    def cb(_arg):
        def gen():
            yield label_shareable_op(private)
            return VInt(0)

        return do(gen)

    return cb


@pytest.mark.parametrize("link", ["target", "dual"])
def test_a_callback_relabeling_a_private_cell_inside_a_context_call_is_caught(link):
    state = RunState()
    cb = _relabeling_callback(state.op_alloc(INT, TRIVIAL, VInt(42)))
    if link == "dual":
        run = link_dual(DualProgram(name="relabel", setup=lambda _: cb, spec=CALLBACK_SPEC),
                        CALLER)
    else:
        def body(main):
            main(cb)
            return Return(0)

        iface = SourceInterface(ArrowS(CALLBACK_SPEC, BaseS(INT)), psi=lambda w0, r, w1: True)
        run = link_target(compile_program(SourceProgram(name="relabel", body=body), iface),
                          CALLER)
    with pytest.raises(UniversalViolation, match="caller"):
        beh(run, state=state)
    assert _span_names(state) == ["build:caller", "caller"]


# a pair's first arrow, and a sum arm's arrow that returns a third arrow
NESTED_ARROWS_SPEC = PairS(
    ArrowS(BaseS(UNIT), BaseS(UNIT)),
    SumS(BaseS(INT), ArrowS(BaseS(BOOL), ArrowS(BaseS(UNIT), BaseS(UNIT)))),
)


def _nested_vandal(private: int):
    """A host-Python context whose every arrow can zero a private cell."""

    def builder(ops):
        def vandal(_):
            ops.write(VRef(private, INT), VInt(0))
            return V_UNIT

        def maker(write_now):
            if write_now == V_TRUE:
                vandal(V_UNIT)
            return vandal

        return VPair(vandal, VInr(maker))

    return TargetContext(name="nested", builder=builder)


def _imported_nested(link: str, state: RunState, ctx: TargetContext):
    iface = SourceInterface(NESTED_ARROWS_SPEC, psi=lambda w0, out, w1: True)
    if link == "source":
        return back_translate(ctx, iface)(state).value
    seen = []

    def stash(v):
        seen.append(v)
        return Return(0)

    link_target(compile_program(SourceProgram(name="stash", body=stash), iface), ctx)(state)
    return seen[0]


@pytest.mark.parametrize("link", ["target", "source"])
@pytest.mark.parametrize("arrow", ["pair", "sum_arm", "returned"])
def test_nested_context_arrows_run_under_the_context_span(link, arrow):
    state = RunState()
    private = state.op_alloc(INT, TRIVIAL, VInt(42))
    value = _imported_nested(link, state, _nested_vandal(private))
    if arrow == "pair":
        call = lambda: value.first(V_UNIT)
    elif arrow == "sum_arm":
        call = lambda: value.second.payload(V_TRUE)
    else:
        returned = value.second.payload(V_FALSE)
        assert isinstance(returned, Inl)
        call = lambda: returned.value(V_UNIT)
    with mutate.enabled("ctx_write_unchecked"):
        with pytest.raises(UniversalViolation, match=r"\(nested\)"):
            call()
    assert _span_names(state)[0] == "build:nested"
    assert _span_names(state)[-1] == "nested"
    assert state.world.heap.cell(private).value == VInt(0)


def test_render_world_is_sorted_and_stable():
    state = RunState()
    ops = CtxOps(state)
    ops.alloc(INT, VInt(3))
    state.op_alloc(INT, INT_LEQ, VInt(0))
    lines = render_world(state.world)
    assert lines == (
        "1: int [Shareable] = 3",
        "2: int [Private] = 0",
    )


def reference_render_world(w: World) -> tuple:
    """The dump one address at a time, as render_world first computed it:
    the reference its one-pass version is held to."""
    out = []
    for addr in sorted(w.heap.addresses()):
        cell = w.heap.cell(addr)
        out.append(f"{addr}: {cell.tag} [{w.label_of(addr).value}] = {cell.value}")
    return tuple(out)


def sampled_world(seed: int, cells: int, labeled: int) -> World:
    """`cells` cells of nested sampled tags, some sharing one tag object and
    some holding equal tags built apart, and a label map over addresses
    1..labeled whose entries are absent or any of the three labels."""
    rng = random.Random(seed)
    shared = [sample_tag(rng, depth=3) for _ in range(4)]
    h = hp.EMPTY_HEAP
    for _ in range(cells):
        tag = rng.choice(shared) if rng.random() < 0.5 else sample_tag(rng, depth=3)
        _, h = hp.alloc(h, tag, TRIVIAL, sample_value(tag, rng, addr_pool=range(1, 200)))
    labels = NO_LABELS
    for addr in range(1, labeled + 1):
        labels = labels.set(addr, rng.choice([None, *Label]))
    return World(heap=h, labels=labels)


# (cells, labeled addresses): up to five cell chunks of WIDTH addresses, and
# label maps with fewer, as many and more chunks than the cell map
@pytest.mark.parametrize("cells,labeled", [(0, 0), (1, 0), (1, 1), (3 * WIDTH, WIDTH // 2),
                                           (4 * WIDTH + 5, 2 * WIDTH), (130, 130),
                                           (2 * WIDTH, 5 * WIDTH)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_render_world_matches_the_per_address_dump(seed, cells, labeled):
    w = sampled_world(seed, cells, labeled)
    assert render_world(w) == reference_render_world(w)


def test_the_sampled_worlds_cover_every_label_and_nested_tag():
    w = sampled_world(1, 4 * WIDTH + 5, 2 * WIDTH)
    assert len(w.heap.cells.chunks) > len(w.labels.chunks) >= 3
    text = "\n".join(render_world(w))
    for part in ("[Private]", "[Shareable]", "[Encapsulated]",
                 "(pair ", "(sum ", "(llist ", "(ref "):
        assert part in text


def test_render_world_matches_the_per_address_dump_on_every_shipped_context():
    for factory in all_scenarios().values():
        scenario = factory()
        for name in sorted(scenario.contexts):
            result = run_scenario(scenario, name)
            assert render_world(result.w1) == reference_render_world(result.w1), (scenario.name, name)


# -- a run's end revokes the context's capabilities


ENDED = r"context capability used after its run ended"


def _stashing_context(stash: list) -> TargetContext:
    """A host context that keeps its ops and a cell it allocated."""

    def builder(ops):
        stash.append((ops, ops.alloc(INT, VInt(1))))
        return lambda x: x

    return TargetContext(name="stasher", builder=builder)


def _stashing_run(how: str, stash: list) -> RunState:
    if how == "beh":
        state = RunState()
        run = link_target(compile_program(doubler_program(), doubler_interface()),
                          _stashing_context(stash))
        assert beh(run, state=state).outcome == ("ok", 47)
        return state

    def make(ops, shared):
        stash.append((ops, shared))
        return lambda: TASK_DONE

    run = run_scheduler([make])
    assert run.record.outcome == ("ok", 1)
    return run.state


@pytest.mark.parametrize("how", ["beh", "run_scheduler"])
def test_a_stashed_handle_refuses_every_step_after_its_run(how):
    stash = []
    state = _stashing_run(how, stash)
    [(ops, ref)] = stash
    assert ops is run_ops(state)
    world = state.world
    for step in (lambda: ops.alloc(INT, VInt(5)), lambda: ops.read(ref),
                 lambda: ops.write(ref, VInt(5)), ops.tick):
        with pytest.raises(BoundaryViolation, match=ENDED):
            step()
    assert state.world is world


def test_a_handle_from_an_ended_run_fails_the_run_that_uses_it():
    stash = []
    state_a = _stashing_run("beh", stash)
    world_a = state_a.world
    [(ops_a, ref_a)] = stash

    def builder(ops):
        ops_a.write(ref_a, VInt(9))
        return lambda x: x

    run_b = link_target(compile_program(doubler_program(), doubler_interface()),
                        TargetContext(name="borrower", builder=builder))
    outcome = beh(run_b, RunState()).outcome
    assert outcome[:2] == ("err", "BoundaryViolation") and "run ended" in outcome[2]
    assert state_a.world is world_a


def test_one_run_builds_one_handle_for_its_context_and_its_exports():
    state = RunState(config=RunConfig(check_level="paranoid"))
    counter = state.op_alloc(INT, INT_LEQ, VInt(0))
    state.op_label_encapsulated(counter)
    seen = []

    def builder(ops):
        seen.append(ops)
        return lambda cb: cb(V_UNIT)

    dual = DualProgram(name="counter", setup=lambda _: counter_callback(counter, 7),
                       spec=CALLBACK_SPEC)
    beh(link_dual(dual, TargetContext(name="caller", builder=builder)), state=state)
    assert seen == [state.ops]


def _freed_after(make_run) -> bool:
    """Whether the run state `make_run(state)` ran on is freed by reference
    counting alone once the run's result is dropped."""
    gc.collect()
    gc.disable()
    try:
        state = RunState(config=RunConfig(check_level="paranoid"))
        make_run(state)
        freed = weakref.ref(state)
        del state
        return freed() is None
    finally:
        gc.enable()


def test_a_self_referencing_context_arrow_does_not_keep_its_run():
    def builder(ops):
        def f(x):
            assert f is not None  # f is in its own closure: a cycle
            return ops.read(ops.alloc(INT, x))

        return f

    ctx = TargetContext(name="cyclic", builder=builder)
    run = link_target(compile_program(doubler_program(), doubler_interface()), ctx)
    assert _freed_after(lambda state: beh(run, state=state))


def test_a_dual_context_that_keeps_its_callback_in_a_cycle_does_not_keep_its_run():
    kept = []

    def builder(ops):
        def main(cb):
            box = [cb]
            box.append(box)
            kept.append(cb)
            return cb(V_UNIT)

        return main

    def setup(state):
        counter = state.op_alloc(INT, INT_LEQ, VInt(0))
        state.op_label_encapsulated(counter)
        return counter_callback(counter, 7)

    dual = DualProgram(name="counter", setup=setup, spec=CALLBACK_SPEC)
    ctx = TargetContext(name="keeper", builder=builder)
    assert _freed_after(lambda state: beh(link_dual(dual, ctx), state=state))
    [cb] = kept
    with pytest.raises(BoundaryViolation, match=ENDED):
        cb(V_UNIT)

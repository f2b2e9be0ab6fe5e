import sys
from pathlib import Path

import pytest

from secref import mutants
from secref.contracts import ArrowS, BaseS, Inl, Inr, PairS, SumS
from secref.errors import (
    AlreadyLabeled,
    BoundaryViolation,
    DanglingInit,
    OutOfFuel,
    RunFailure,
    ShareLeak,
    TypeMismatch,
    Uncontained,
    UniversalViolation,
)
from secref.heap import INT_LEQ, TRIVIAL, WIDTH
from secref.labels import (
    Label,
    World,
    initial_world,
    is_shareable,
    label_shareable,
    lr_alloc,
    lr_inv,
    modif_only_shareable_and_encaps,
    same_labels,
)
from secref.linker import (
    CtxOps,
    SourceInterface,
    SourceProgram,
    TargetContext,
    WholeProgram,
    back_translate,
    beh,
    beh_equal,
    compile_program,
    ctx_alloc,
    ctx_read,
    link_source,
    link_target,
    render_world,
)
from secref.programs import RunConfig, RunState, Return, alloc_op, do, read_op, write_op
from secref.scenarios import all_scenarios, run_scenario
from secref.target_lang import elaborate, gen_random_context, parse
from secref.values import (
    BOOL,
    INT,
    UNIT,
    V_FALSE,
    V_TRUE,
    V_UNIT,
    Pair,
    Ref,
    VBool,
    VInr,
    VInt,
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
        ctx_read(state.world, private)


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
    assert ctx_read(state.world, refs["shareable"].addr) == VInt(7)


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
    with mutants.enabled("ctx_read_unchecked"):
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


def test_a_fast_context_read_is_two_python_calls():
    # the read rule is one function, and fast mode runs no monitor; a layer
    # or a monitor call put back on this path fails here, not in a timing
    _, ops, refs = read_rule_refs()
    ref = refs["shareable"]
    assert python_calls(ops.read, ref) == ["linker.read", "linker.ctx_read"]


def test_a_paranoid_context_read_runs_the_step_monitor_once():
    state, ops, refs = read_rule_refs(RunConfig(check_level="paranoid"))
    ref = refs["shareable"]
    for _ in range(3):
        recorded = len(state.trace.worlds)
        calls = python_calls(ops.read, ref)
        assert calls[:2] == ["linker.read", "linker.ctx_read"]
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
    with mutants.enabled("ctx_write_unchecked"):
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
        addr, direct = ctx_alloc(w, tag, init)
        fresh, w1 = lr_alloc(w, tag, TRIVIAL, init)
        assert (addr, direct) == (fresh, label_shareable(w1, fresh))
        assert lr_inv(direct)


def test_ctx_alloc_refuses_a_fresh_address_that_already_carries_a_label():
    w = initial_world()
    broken = World(heap=w.heap, labels=w.labels.set(w.heap.next_addr, Label.ENCAPSULATED))
    with pytest.raises(AlreadyLabeled):
        ctx_alloc(broken, INT, VInt(0))


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
    record = beh(whole)
    assert record.outcome == ("ok", 52)


def test_beh_is_deterministic():
    iface = doubler_interface()
    program = doubler_program()
    ctx = elaborate(parse("(lam (x int) (+ x 1))"), iface.spec, name="succ")
    whole = link_target(compile_program(program, iface), ctx)
    assert beh(whole) == beh(whole)


def test_beh_of_pure_return():
    whole = WholeProgram(name="const", run_in=lambda state: 7)
    record = beh(whole)
    assert record.outcome == ("ok", 7)
    assert record.dump == ()


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
                          RunConfig(fuel=2000))
        ctx2 = elaborate(expr, iface.spec, name=f"gen{seed}")
        source_side = beh(link_source(program, back_translate(ctx2, iface)),
                          RunConfig(fuel=2000))
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
    record = beh(whole)
    assert record.outcome == ("ok", 42 + 0)

    with mutants.enabled("ctx_write_unchecked"):
        with pytest.raises(UniversalViolation):
            beh(link_target(compile_program(program, iface), ctx))


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

    link_target(compile_program(SourceProgram(name="stash", body=stash), iface), ctx).run_in(state)
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
    with mutants.enabled("ctx_write_unchecked"):
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

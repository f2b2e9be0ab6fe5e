
import pytest

from stores import alloc_walked
from secref import heap as hp
from secref.errors import (
    DanglingInit,
    FrozenRecordError,
    OutOfFuel,
    PreorderViolation,
    RecallUnwitnessed,
    ShareLeak,
    StabilityViolation,
    TypeMismatch,
    Uncontained,
    WitnessFalse,
)
from secref.heap import EMPTY_HEAP, INT_LEQ, TRIVIAL, alloc
from secref.labels import NO_LABELS, World, initial_world, is_shareable
from secref.programs import (
    Call,
    Return,
    RunConfig,
    RunState,
    StablePredicate,
    alloc_op,
    bind,
    do,
    label_encapsulated_op,
    label_shareable_op,
    private_pred,
    read_op,
    recall_op,
    run_closed,
    shareable_pred,
    witness_op,
    write_op,
)
from secref.values import BOOL, INT, V_TRUE, Arrow, Pair, Ref, Sum, VInl, VInt, VPair, VRef


def nonempty_pred():
    return StablePredicate("heap_nonempty", lambda w: len(w.heap.cells) > 0)


# every operation constructor, as a program that succeeds from law_start()
# at cell `a` with predicate `p` already witnessed
OPS = {
    "read": lambda a, p: read_op(a),
    "write": lambda a, p: write_op(a, VInt(6)),
    "alloc": lambda a, p: alloc_op(INT, TRIVIAL, VInt(0)),
    "witness": lambda a, p: witness_op(p),
    "recall": lambda a, p: recall_op(p),
    "label_shareable": lambda a, p: label_shareable_op(a),
    "label_encapsulated": lambda a, p: label_encapsulated_op(a),
}


def law_start():
    a, w = alloc_walked(initial_world(), INT, TRIVIAL, VInt(5))
    return a, nonempty_pred(), w


def observe_state(program, w, p):
    """Result, final world (cells and labels), witnessed names and steps."""
    state = RunState(world=w, witnesses={p.name: p})
    result = state.interpret(program)
    return result, state.world, frozenset(state.witnesses), state.trace.steps


def test_bind_left_unit():
    a, p, w = law_start()
    for name, make in OPS.items():
        k = lambda v: bind(make(a, p), lambda r: Return((v, r)))
        assert observe_state(bind(Return(1), k), w, p) == observe_state(k(1), w, p), name


def test_bind_right_unit():
    a, p, w = law_start()
    for name, make in OPS.items():
        m = make(a, p)
        assert observe_state(bind(m, Return), w, p) == observe_state(m, w, p), name


def test_bind_associativity():
    a, p, w = law_start()
    f = lambda x: bind(read_op(a), lambda v: Return((x, v)))
    g = lambda xv: bind(write_op(a, VInt(7)), lambda _: Return(xv))
    for name, make in OPS.items():
        lhs = bind(bind(make(a, p), f), g)
        rhs = bind(make(a, p), lambda x: bind(f(x), g))
        assert observe_state(lhs, w, p) == observe_state(rhs, w, p), name


def test_a_do_step_is_one_call_whose_continuation_is_its_stepper():
    # an op node's continuation is Return, so bind hands it k itself: by the
    # left-unit law nothing is grafted
    k = lambda v: Return((v, v))
    assert bind(read_op(1), k).cont is k

    def steps():
        x = yield read_op(1)
        yield write_op(1, x)
        return x

    first = do(steps)
    stepper = first.cont.__self__
    assert (type(first), first.op, first.args) == (Call, "op_read", (1,))
    assert first.cont == stepper.step
    second = first.cont(VInt(4))
    assert (type(second), second.op, second.args) == (Call, "op_write", (1, VInt(4)))
    assert second.cont == stepper.step
    assert second.cont(None) == Return(VInt(4))


def test_op_wrapper_installed_after_build_sees_every_step(monkeypatch):
    a, p, w = law_start()
    programs = {name: bind(make(a, p), lambda r: read_op(a)) for name, make in OPS.items()}
    seen = []
    for op in {prog.op for prog in programs.values()} | {"op_read"}:
        original = getattr(RunState, op)

        def wrapper(self, *args, _op=op, _original=original):
            seen.append(_op)
            return _original(self, *args)

        monkeypatch.setattr(RunState, op, wrapper)
    for name, prog in programs.items():
        seen.clear()
        observe_state(prog, w, p)
        assert seen == [prog.op, "op_read"], name


def test_interpret_rejects_a_non_node():
    with pytest.raises(TypeError, match="not a program node"):
        RunState().interpret(7)
    # a continuation that returns a non-node is refused after its step
    a, p, w = law_start()
    state = RunState(world=w)
    with pytest.raises(TypeError, match="not a program node"):
        state.interpret(Call("op_read", (a,), lambda v: v))
    assert state.trace.steps == 1


def test_run_config_is_frozen():
    cfg = RunConfig(check_level="paranoid", fuel=10)
    with pytest.raises(FrozenRecordError):
        cfg.fuel = 11
    with pytest.raises(FrozenRecordError):
        cfg.check_level = "fast"
    assert (cfg.check_level, cfg.fuel) == ("paranoid", 10)


@pytest.mark.parametrize("level", ["Paranoid", "slow", ""])
def test_run_config_refuses_an_unknown_check_level(level):
    with pytest.raises(ValueError, match="check_level"):
        RunConfig(check_level=level)


def _from_heap(h, witnesses=None) -> RunState:
    """A run state on heap h, nothing labeled."""
    return RunState(world=World(h, NO_LABELS), witnesses=witnesses)


def test_run_return_leaves_heap_alone():
    state = RunState()
    assert state.interpret(Return(7)) == 7
    assert (state.world.heap, state.witnesses) == (EMPTY_HEAP, {})


def test_witness_then_recall():
    a, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(5))
    p = nonempty_pred()
    prog = bind(witness_op(p), lambda _: bind(recall_op(p), lambda _: Return(1)))
    state = _from_heap(h)
    assert state.interpret(prog) == 1
    assert state.world.heap == h
    assert set(state.witnesses) == {"heap_nonempty"}


def test_bare_recall_is_refused():
    a, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(5))
    prog = bind(recall_op(nonempty_pred()), lambda _: Return(1))
    with pytest.raises(RecallUnwitnessed):
        _from_heap(h).interpret(prog)


def test_closed_witness_then_recall_succeeds():
    p = StablePredicate("frontier_past_one", lambda w: w.heap.next_addr >= 2)
    prog = bind(
        alloc_op(INT, TRIVIAL, VInt(0)),
        lambda a: bind(witness_op(p), lambda _: bind(recall_op(p), lambda _: Return(a))),
    )
    result, h1 = run_closed(prog)
    assert result == 1
    assert h1.contains(1)


def test_closed_bare_recall_refused():
    prog = recall_op(nonempty_pred())
    with pytest.raises(RecallUnwitnessed):
        run_closed(prog)


def test_run_closed_return():
    assert run_closed(Return(0)) == (0, EMPTY_HEAP)


def test_witness_false_predicate():
    with pytest.raises(WitnessFalse):
        run_closed(witness_op(nonempty_pred()))


def test_recall_from_provided_witness_set():
    a, h = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(5))
    p = nonempty_pred()
    assert _from_heap(h, {p.name: p}).interpret(bind(recall_op(p), lambda _: Return(2))) == 2


def test_unstable_predicate_is_caught_on_recall():
    # empty-heap predicate is falsified by the intervening allocation
    p = StablePredicate("heap_empty", lambda w: len(w.heap.cells) == 0)
    prog = bind(
        witness_op(p),
        lambda _: bind(alloc_op(INT, TRIVIAL, VInt(0)), lambda _: recall_op(p)),
    )
    with pytest.raises(StabilityViolation):
        run_closed(prog)


def test_paranoid_mode_checks_witnessed_set_every_step():
    p = StablePredicate("heap_empty", lambda w: len(w.heap.cells) == 0)
    prog = bind(witness_op(p), lambda _: bind(alloc_op(INT, TRIVIAL, VInt(0)), lambda _: Return(0)))
    with pytest.raises(StabilityViolation):
        run_closed(prog, RunConfig(check_level="paranoid"))
    # without paranoid stepping and without a recall, the break goes unnoticed
    result, _ = run_closed(prog)
    assert result == 0


def test_fuel_exhaustion():
    def gen():
        a = yield alloc_op(INT, TRIVIAL, VInt(0))
        while True:
            yield write_op(a, VInt(1))

    with pytest.raises(OutOfFuel):
        run_closed(do(gen), RunConfig(fuel=50))


def test_do_notation_roundtrip():
    def gen():
        a = yield alloc_op(INT, TRIVIAL, VInt(10))
        v = yield read_op(a)
        yield write_op(a, VInt(v.value + 1))
        out = yield read_op(a)
        return out.value

    result, h1 = run_closed(do(gen))
    assert result == 11
    assert h1.cell(1).value == VInt(11)


def test_label_ops_inside_programs():
    def gen():
        a = yield alloc_op(INT, TRIVIAL, VInt(0))
        yield label_shareable_op(a)
        p = shareable_pred(a)
        yield witness_op(p)
        yield recall_op(p)
        return a

    state = RunState()
    a = state.interpret(do(gen))
    assert is_shareable(state.world, a)


def test_heap_monotone_across_whole_run():
    def gen():
        a = yield alloc_op(INT, INT_LEQ, VInt(0))
        yield write_op(a, VInt(5))
        b = yield alloc_op(INT, TRIVIAL, VInt(1))
        yield write_op(b, VInt(0))
        return 0

    a, h0 = alloc(EMPTY_HEAP, INT, TRIVIAL, VInt(9))
    state = _from_heap(h0)
    state.interpret(do(gen))
    assert hp.heap_leq(h0, state.world.heap)


def test_private_pred_is_not_stable_negative_control():
    def gen():
        a = yield alloc_op(INT, TRIVIAL, VInt(0))
        p = private_pred(a)
        yield witness_op(p)
        yield label_shareable_op(a)
        yield recall_op(p)

    with pytest.raises(StabilityViolation):
        run_closed(do(gen))


# -- the checked store rules' refusals, in order


def store_rule_refs(config=None):
    """A run state and the references the checked store tables write to or
    store: a shareable int cell, a shareable `(pair (ref int) (ref int))`
    cell, a private int cell, an `int_leq` counter, a shareable reference
    whose cell holds a bool, and an address no cell has."""
    state = RunState(config=config)
    shareable = state.op_alloc(INT, TRIVIAL, VInt(0))
    state.op_label_shareable(shareable)
    shareable_bool = state.op_alloc(BOOL, TRIVIAL, V_TRUE)
    state.op_label_shareable(shareable_bool)
    refs = {"shareable": VRef(shareable, INT), "mistyped": VRef(shareable_bool, INT),
            "unallocated": VRef(999, INT)}
    pair = state.op_alloc(REFS, TRIVIAL, VPair(refs["shareable"], refs["shareable"]))
    state.op_label_shareable(pair)
    refs["pair"] = VRef(pair, REFS)
    refs["private"] = VRef(state.op_alloc(INT, TRIVIAL, VInt(42)), INT)
    refs["counter"] = VRef(state.op_alloc(INT, INT_LEQ, VInt(5)), INT)
    return state, refs


REFS = Pair(Ref(INT), Ref(INT))
NOT_STORABLE = Sum(Ref(INT), Arrow(INT, INT))  # an inl still conforms to it

# row: (the target address and the value written, both built from the
# refs; refusal, its message), in the order `RunState.op_write` checks them.
# A row whose value breaks two checks is refused by the earlier one.
OP_WRITE_REFUSALS = {
    "marker": (lambda r: 0, lambda r: VInt(1),
               Uncontained, "address 0 not in heap$"),
    "unallocated": (lambda r: 999, lambda r: VInt(1), Uncontained, "address 999 not in heap$"),
    "not_conforming": (lambda r: r["pair"].addr, lambda r: VPair(r["shareable"], VInt(1)),
                       TypeMismatch, "does not conform"),
    "embeds_unallocated": (lambda r: r["pair"].addr,
                           lambda r: VPair(r["shareable"], r["unallocated"]),
                           DanglingInit, "write: embedded address 999 not in heap$"),
    "embeds_mistyped": (lambda r: r["pair"].addr, lambda r: VPair(r["mistyped"], r["shareable"]),
                        TypeMismatch, "expects cell of int, found bool$"),
    "embeds_private_then_unallocated": (lambda r: r["pair"].addr,
                                        lambda r: VPair(r["private"], r["unallocated"]),
                                        DanglingInit, "embedded address 999 not in heap$"),
    "embeds_private": (lambda r: r["pair"].addr, lambda r: VPair(r["shareable"], r["private"]),
                       ShareLeak, r"private address\(es\) \[4\] reachable"),
    "preorder": (lambda r: r["counter"].addr, lambda r: VInt(4),
                 PreorderViolation, "violates preorder int_leq"),
}

# row: (tag, initial value built from the refs, refusal, its message), in
# the order `RunState.op_alloc` checks them
OP_ALLOC_REFUSALS = {
    "not_conforming": (INT, lambda r: V_TRUE, TypeMismatch, "does not conform"),
    "not_conforming_to_a_non_storable_tag": (Arrow(INT, INT), lambda r: VInt(1),
                                             TypeMismatch, "does not conform"),
    "embeds_unallocated": (REFS, lambda r: VPair(r["shareable"], r["unallocated"]),
                           DanglingInit, "alloc: embedded address 999 not in heap$"),
    "embeds_mistyped": (REFS, lambda r: VPair(r["mistyped"], r["shareable"]),
                        TypeMismatch, "expects cell of int, found bool$"),
    "embeds_unallocated_at_a_non_storable_tag": (NOT_STORABLE, lambda r: VInl(r["unallocated"]),
                                                 DanglingInit, "embedded address 999 not in heap$"),
    "not_storable": (NOT_STORABLE, lambda r: VInl(r["shareable"]),
                     TypeMismatch, "is not a storable type$"),
}


@pytest.mark.parametrize("level", ["fast", "paranoid"])
@pytest.mark.parametrize("row", OP_WRITE_REFUSALS)
def test_checked_write_refusals_keep_their_order(row, level):
    state, refs = store_rule_refs(RunConfig(check_level=level))
    target, value, error, message = OP_WRITE_REFUSALS[row]
    before = state.world
    with pytest.raises(error, match=message):
        state.op_write(target(refs), value(refs))
    assert state.world is before


@pytest.mark.parametrize("level", ["fast", "paranoid"])
@pytest.mark.parametrize("row", OP_ALLOC_REFUSALS)
def test_checked_alloc_refusals_keep_their_order(row, level):
    state, refs = store_rule_refs(RunConfig(check_level=level))
    tag, init, error, message = OP_ALLOC_REFUSALS[row]
    before = state.world
    with pytest.raises(error, match=message):
        state.op_alloc(tag, TRIVIAL, init(refs))
    assert state.world is before

import random
from collections import Counter

import pytest

import mutate
from secref.contracts import (
    ArrowS,
    BaseS,
    Err,
    ErrCode,
    ExecPost,
    ExecPre,
    Inl,
    Inr,
    PairS,
    RefinedS,
    SumS,
    arrow_export_uses_either,
    export,
    import_value,
)
from secref.errors import PurityViolation
from secref.heap import TRIVIAL, HeapCell
from secref.labels import Label, is_private
from secref.linker import beh
from secref.programs import Return, RunState, alloc_op, do, read_op
from secref.sampling import sample_value
from secref.values import (
    INT,
    LList,
    Pair,
    Ref,
    UNIT,
    V_NIL,
    V_UNIT,
    VInl,
    VInr,
    VInt,
    VLLCons,
    VPair,
    VRef,
    llist_collect,
    llist_sorted,
    ref_entries,
)

INT_S = BaseS(INT)
POSITIVE = RefinedS(INT_S, "positive", lambda v: isinstance(v, VInt) and v.value > 0)


def fresh_env():
    return RunState()


def test_export_base_identity():
    assert export(INT_S, VInt(5), RunState()) == VInt(5)


def test_export_ref_identity():
    spec = BaseS(Ref(INT))
    v = VRef(4, INT)
    assert export(spec, v, RunState()) == v


def test_import_base():
    assert import_value(INT_S, VInt(5), RunState()) == Inl(VInt(5))


def test_import_base_shape_mismatch():
    out = import_value(INT_S, V_UNIT, RunState())
    assert isinstance(out, Inr)
    assert out.error.code is ErrCode.IMPORT_FAILURE


@pytest.mark.parametrize("target, other", [(INT, LList(INT)), (LList(INT), INT)],
                         ids=["ref_int", "ref_llist"])
def test_import_reference_leaf(target, other):
    spec = BaseS(Ref(target))
    env = RunState()
    assert import_value(spec, VRef(3, target), env) == Inl(VRef(3, target))
    for bad in (VRef(3, other), VInt(3), lambda x: x):
        out = import_value(spec, bad, env)
        assert isinstance(out, Inr) and out.error.code is ErrCode.IMPORT_FAILURE


def test_import_refinement_violation():
    out = import_value(POSITIVE, VInt(-3), RunState())
    assert isinstance(out, Inr)
    assert out.error.code is ErrCode.REFINEMENT_VIOLATION


def test_import_refinement_pass():
    out = import_value(POSITIVE, VInt(3), RunState())
    assert out == Inl(VInt(3))


def test_import_pair_and_sum_recurse():
    spec = PairS(POSITIVE, SumS(INT_S, POSITIVE))
    env = RunState()
    ok = import_value(spec, VPair(VInt(1), VInr(VInt(2))), env)
    assert ok == Inl(VPair(VInt(1), VInr(VInt(2))))
    bad = import_value(spec, VPair(VInt(1), VInr(VInt(-2))), env)
    assert isinstance(bad, Inr)


def test_export_arrow_pre_violation_without_invoking():
    calls = []

    def body(v):
        calls.append(v)
        return Return(v)

    spec = ArrowS(
        INT_S,
        INT_S,
        pre=ExecPre(lambda v, w: None if v.value > 0 else Err(ErrCode.PRE_VIOLATION, "arg <= 0")),
    )
    env = fresh_env()
    wrapped = export(spec, body, env)
    out = wrapped(VInt(-1))
    assert isinstance(out, Inr) and out.error.code is ErrCode.PRE_VIOLATION
    assert calls == []
    assert wrapped(VInt(2)) == Inl(VInt(2))


def test_export_arrow_without_checks_returns_raw():
    spec = ArrowS(INT_S, INT_S)
    assert not arrow_export_uses_either(spec)
    env = fresh_env()
    wrapped = export(spec, lambda v: Return(VInt(v.value + 1)), env)
    assert wrapped(VInt(1)) == VInt(2)


def test_exported_arrow_runs_its_program_against_the_live_state():
    spec = ArrowS(BaseS(UNIT), INT_S)
    env = fresh_env()

    def body(_):
        def gen():
            a = yield alloc_op(INT, TRIVIAL, VInt(9))
            v = yield read_op(a)
            return VInt(v.value + 1)

        return do(gen)

    wrapped = export(spec, body, env)
    assert wrapped(V_UNIT) == VInt(10)
    assert env.world.heap.contains(1)


def _chain_state(values):
    state = RunState()
    tail = state.op_alloc(LList(INT), TRIVIAL, V_NIL)
    for x in reversed(values):
        tail = state.op_alloc(LList(INT), TRIVIAL, VLLCons(VInt(x), tail))
    return state, tail


def sorting_post():
    def select(arg, world):
        return (arg.addr, Counter(llist_collect(world.heap, arg.addr) or []))

    def verify(captured, result, world):
        head, before = captured
        elems = llist_collect(world.heap, head)
        if elems is None:
            return Err(ErrCode.POST_VIOLATION, "cycle introduced")
        if not llist_sorted(world.heap, head):
            return Err(ErrCode.POST_VIOLATION, "not sorted")
        if Counter(elems) != before:
            return Err(ErrCode.POST_VIOLATION, "values changed")
        return None

    return ExecPost(select, verify)


def hw_spec():
    return ArrowS(BaseS(Ref(LList(INT))), BaseS(UNIT), post=sorting_post())


def test_imported_arrow_post_violation_on_lazy_adversary():
    state, head = _chain_state([3, 1, 2])
    lazy = lambda ref: V_UNIT
    spec = hw_spec()
    imported = import_value(spec, lazy, state)
    out = imported.value(VRef(head, LList(INT)))
    assert isinstance(out, Inr) and out.error.code is ErrCode.POST_VIOLATION


def test_imported_arrow_accepts_honest_worker():
    state, head = _chain_state([2, 1])

    def honest(ref):
        # swap the two elements in place through the raw operations
        first = state.op_read(ref.addr)
        second = state.op_read(first.tail)
        state.op_write(ref.addr, VLLCons(second.head, first.tail))
        state.op_write(first.tail, VLLCons(first.head, second.tail))
        return V_UNIT

    spec = hw_spec()
    imported = import_value(spec, honest, state)
    out = imported.value(VRef(head, LList(INT)))
    assert out == Inl(V_UNIT)


def test_post_violation_does_not_roll_back_the_heap():
    state, head = _chain_state([1, 2])

    def vandal(ref):
        node = state.op_read(ref.addr)
        state.op_write(ref.addr, VLLCons(VInt(99), node.tail))
        return V_UNIT

    spec = hw_spec()
    imported = import_value(spec, vandal, state)
    out = imported.value(VRef(head, LList(INT)))
    assert isinstance(out, Inr)
    assert state.world.heap.cell(head).value.head == VInt(99)


def test_contract_checks_are_counted_and_pure():
    state, head = _chain_state([1])
    spec = hw_spec()
    imported = import_value(spec, lambda r: V_UNIT, state)
    before = state.trace.contract_checks
    out = imported.value(VRef(head, LList(INT)))  # no PurityViolation raised
    assert state.trace.contract_checks == before + 2  # select + verify
    assert out == Inl(V_UNIT)


def test_purity_monitor_fires_on_a_mutating_check():
    state = RunState()

    class Sneaky:
        def __call__(self, v, w):
            state.op_alloc(INT, TRIVIAL, VInt(0))
            return None

    spec = ArrowS(INT_S, INT_S, pre=ExecPre(Sneaky()))
    wrapped = export(spec, lambda v: Return(v), state)
    with pytest.raises(PurityViolation):
        wrapped(VInt(1))


@pytest.mark.parametrize("swallow", [False, True])
def test_purity_monitor_fires_on_an_in_place_rewrite(swallow):
    """A check that rewrites a private cell in place and labels it Shareable
    in place.  Snapshots refuse both writes, and the check ends as a
    PurityViolation even when it swallows the refusals."""
    state = RunState()
    secret = state.op_alloc(INT, TRIVIAL, VInt(42))
    before = state.world

    def rewrite(v, w):
        for attempt in (
            lambda: w.heap.cells.__setitem__(secret, HeapCell(INT, TRIVIAL, VInt(0))),
            lambda: w.labels.__setitem__(secret, Label.SHAREABLE),
        ):
            try:
                attempt()
            except TypeError:
                if not swallow:
                    raise
        return None

    spec = ArrowS(INT_S, INT_S, pre=ExecPre(rewrite))
    wrapped = export(spec, lambda v: Return(v), state)
    with pytest.raises(PurityViolation) as alarm:
        wrapped(VInt(1))
    assert str(alarm.value) == "a contract check modified the world"
    assert state.world is before
    assert state.world.heap.cell(secret).value == VInt(42)
    assert is_private(state.world, secret)


def _post_select_run(select):
    """A run that imports the identity under a post contract with `select`
    and calls it once."""
    spec = ArrowS(INT_S, INT_S, post=ExecPost(select, lambda captured, out, w: None))
    return lambda state: import_value(spec, lambda x: x, state).value(VInt(1))


@pytest.mark.parametrize("swallow", [False, True])
def test_purity_monitor_fires_on_a_record_write(swallow):
    """A post-condition select that assigns a field of the world it is
    given.  The record refuses the write, and the run ends in a
    PurityViolation, neither a host error nor an ok outcome, even when the
    select swallows the refusal."""
    def select(v, w):
        try:
            w.heap = None
        except AttributeError:
            if not swallow:
                raise

    assert beh(_post_select_run(lambda v, w: None), RunState()).outcome == ("ok", "Inl(1)")
    with pytest.raises(PurityViolation):
        beh(_post_select_run(select), RunState())


def _random_first_order_spec(rng, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return BaseS(rng.choice([INT, UNIT]))
    if roll < 0.6:
        return BaseS(Ref(INT))
    if roll < 0.8:
        return PairS(
            _random_first_order_spec(rng, depth - 1),
            _random_first_order_spec(rng, depth - 1),
        )
    return SumS(
        _random_first_order_spec(rng, depth - 1),
        _random_first_order_spec(rng, depth - 1),
    )


def _spec_value(spec, rng):
    if isinstance(spec, BaseS):
        return sample_value(spec.tag, rng)
    if isinstance(spec, PairS):
        return VPair(_spec_value(spec.first, rng), _spec_value(spec.second, rng))
    if isinstance(spec, SumS):
        if rng.random() < 0.5:
            return VInl(_spec_value(spec.left, rng))
        return VInr(_spec_value(spec.right, rng))
    raise AssertionError(spec)


def test_round_trip_on_first_order_data():
    rng = random.Random(404)
    env = RunState()
    for _ in range(300):
        spec = _random_first_order_spec(rng)
        v = _spec_value(spec, rng)
        assert import_value(spec, v, env) == Inl(v)
        out = import_value(spec, export(spec, v, env), env)
        assert out == Inl(v)


def test_preserves_refs_on_data():
    # wrapping data hands every address through at its own position
    spec = PairS(BaseS(Ref(INT)), BaseS(INT))
    v = VPair(VRef(3, INT), VInt(1))
    env = RunState()
    exported = export(spec, v, env)
    imported = import_value(spec, exported, env)
    for out in (exported, imported.value):
        assert list(ref_entries(Pair(Ref(INT), INT), out)) == [(3, INT)]


# -- checks on arrows nested inside data and inside other arrows

POSITIVE_PRE = ExecPre(lambda v, w: None if v.value > 0 else Err(ErrCode.PRE_VIOLATION, "arg <= 0"))

SUCC_POST = ExecPost(
    lambda arg, world: arg.value,
    lambda before, result, world: (
        None if result.value == before + 1 else Err(ErrCode.POST_VIOLATION, "not arg + 1")
    ),
)


def test_exported_arrow_inside_a_pair_checks_its_pre():
    calls = []

    def body(v):
        calls.append(v)
        return Return(v)

    spec = PairS(ArrowS(INT_S, INT_S, pre=POSITIVE_PRE), INT_S)
    exported = export(spec, VPair(body, VInt(0)), fresh_env())
    out = exported.first(VInt(-1))
    assert isinstance(out, Inr) and out.error.code is ErrCode.PRE_VIOLATION
    assert calls == []
    assert exported.first(VInt(3)) == Inl(VInt(3))
    assert exported.second == VInt(0)


def test_exported_arrow_in_a_sum_arm_checks_its_pre():
    spec = SumS(INT_S, ArrowS(INT_S, INT_S, pre=POSITIVE_PRE))
    exported = export(spec, VInr(lambda v: Return(v)), fresh_env())
    out = exported.payload(VInt(0))
    assert isinstance(out, Inr) and out.error.code is ErrCode.PRE_VIOLATION
    assert exported.payload(VInt(1)) == Inl(VInt(1))


def test_arrow_returned_by_an_imported_arrow_checks_its_own_post():
    spec = ArrowS(BaseS(UNIT), ArrowS(INT_S, INT_S, post=SUCC_POST))
    state = fresh_env()
    outer = import_value(spec, lambda _: (lambda v: VInt(v.value + 2)), state).value
    inner = outer(V_UNIT).value
    out = inner(VInt(4))
    assert isinstance(out, Inr) and out.error.code is ErrCode.POST_VIOLATION
    # the inner arrow is imported again, under the mutant
    with mutate.enabled("import_no_post"):
        assert outer(V_UNIT).value(VInt(4)) == Inl(VInt(6))

    honest = import_value(spec, lambda _: (lambda v: VInt(v.value + 1)), state).value
    assert honest(V_UNIT).value(VInt(4)) == Inl(VInt(5))


@pytest.mark.parametrize("raw", [Inr(Err(ErrCode.POST_VIOLATION, "forged")), Inl(VInt(1))])
def test_a_raw_result_shaped_like_a_verdict_fails_to_import(raw):
    # a raw function cannot hand the checked side a contract verdict: its
    # result goes through the result spec like any other value
    f = import_value(ArrowS(INT_S, INT_S), lambda x: raw, fresh_env()).value
    out = f(VInt(0))
    assert isinstance(out, Inr) and out.error.code is ErrCode.IMPORT_FAILURE

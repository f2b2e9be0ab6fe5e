"""Cross-module properties: wrapper hygiene, oracle agreement, and the
back-translation corner cases."""
import random
from collections import Counter

import pytest

from secref.contracts import (
    ArrowS,
    BaseS,
    Inl,
    RefinedS,
    import_value,
)
from secref.errors import BoundaryViolation
from secref.heap import INT_LEQ
from secref.labels import is_shareable
from secref.linker import (
    CtxOps,
    TargetContext,
    back_translate,
    beh_equal,
    BehaviorRecord,
)
from secref.programs import RunConfig, RunState
from secref.scenarios import (
    run_scenario,
    scenario_autograder,
    scenario_prng,
)
from secref.target_lang import elaborate, gen_random_context
from secref.values import (
    INT,
    LList,
    Ref,
    V_NIL,
    VInt,
    VRef,
    llist_collect,
    llist_sorted,
)


def test_refinements_are_rejected_on_arrow_nodes():
    arrow = ArrowS(BaseS(INT), BaseS(INT))
    with pytest.raises(TypeError):
        RefinedS(arrow, "impossible", lambda v: True)


def test_wrapped_arrow_passes_addresses_through_per_call():
    """The import/export wrappers never substitute fresh addresses."""
    seen = []

    def recorder(ref):
        seen.append(ref.addr)
        return ref  # hand the same reference straight back

    spec = ArrowS(BaseS(Ref(LList(INT))), BaseS(Ref(LList(INT))))
    state = RunState()
    ops = CtxOps(state)
    head = ops.alloc(LList(INT), V_NIL)
    imported = import_value(spec, recorder, state).value
    for _ in range(5):
        out = imported(head)
        assert out == Inl(head)
    assert seen == [head.addr] * 5


def test_ctx_read_of_encapsulated_counter_is_refused():
    state = RunState()
    counter = state.op_alloc(INT, INT_LEQ, VInt(0))
    state.op_label_encapsulated(counter)
    with pytest.raises(BoundaryViolation):
        CtxOps(state).read(VRef(counter, INT))


def test_back_translate_pure_int_context():
    scenario = scenario_prng()
    iface = scenario.interface
    pure = TargetContext(name="pure", builder=lambda ops: (lambda cb: VInt(9)))
    factory = back_translate(pure, iface)
    state = RunState()
    got = factory(state)
    assert isinstance(got, Inl)
    assert not state.world.heap.cells  # nothing ran yet, nothing allocated


def test_back_translate_build_time_allocation_hits_the_live_world():
    scenario = scenario_prng()
    iface = scenario.interface

    def builder(ops):
        stash = ops.alloc(INT, VInt(5))
        return lambda cb: ops.read(stash)

    factory = back_translate(TargetContext(name="eager", builder=builder), iface)
    state = RunState()
    factory(state)
    assert state.world.heap.contains(1)
    assert is_shareable(state.world, 1)
    assert any(name == "build:eager" for name, _, _ in state.trace.context_spans)


def test_beh_equal_detects_differences():
    a = BehaviorRecord(outcome=("ok", 1), dump=())
    b = BehaviorRecord(outcome=("ok", 2), dump=())
    assert beh_equal(a, a)
    assert not beh_equal(a, b)


def _oracle_verdict(span_w0, span_w1, head_addr):
    """Brute-force evaluation of the homework post-condition on the heaps."""
    elems = llist_collect(span_w1.heap, head_addr)
    if elems is None:
        return False
    if not llist_sorted(span_w1.heap, head_addr):
        return False
    before = llist_collect(span_w0.heap, head_addr)
    return before is not None and Counter(before) == Counter(elems)


def test_contract_verdict_agrees_with_direct_evaluation():
    """The stateful contract and a brute-force check of the final heap give
    the same verdict on every fuzz case."""
    rng = random.Random(515)
    agreements = 0
    for i in range(120):
        tests = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 6)))
        scenario = scenario_autograder(tests)
        expr = gen_random_context(scenario.interface.spec, seed=rng.randint(0, 2**31), size=30)
        ctx = elaborate(expr, scenario.interface.spec, name=f"gen{i}")
        result = run_scenario(scenario, ctx, RunConfig(check_level="paranoid", fuel=1500))
        if result.record.outcome[0] == "err":
            continue  # the context died of fuel before the grade was set
        spans = [
            (w0, w1)
            for name, w0, w1 in result.state.trace.context_spans
            if not name.startswith("build:")
        ]
        assert len(spans) == 1
        w0, w1 = spans[0]
        # the chain is built tail-first, so its head is the newest list cell
        head_addr = max(
            a for a in w0.heap.addresses() if isinstance(w0.heap.cell(a).tag, LList)
        )
        contract_passed = result.record.outcome == ("ok", 10)
        assert _oracle_verdict(w0, w1, head_addr) == contract_passed, (tests, expr)
        agreements += 1
    assert agreements >= 80

"""The closure compiler against a reference AST-walking evaluator.

`reference_eval` is the tree-walking evaluator the compiler replaced, kept
here as a test oracle.  Both evaluators run the same terms through the same
scenarios against a recording `CtxOps`; every tick, alloc, read and write
they perform, in order and with its arguments, must agree, as must the
behaviour records and step counts.  The file also holds the compiled code's
host-stack depth to the reference's, and checks that a finished run is
freed by reference counting and that a context compiles once.
"""
import gc
import random
import sys
import weakref
from pathlib import Path

import pytest

import secref
from secref.campaigns import FUZZ_FUEL, _fuzz_targets
from secref.contracts import ArrowS, BaseS
from secref.errors import MonitorAlarm, OutOfFuel, TargetTypeError
from secref.linker import CtxOps, TargetContext
from secref.programs import RunConfig, RunState
from secref.scenarios import run_scenario, scenario_autograder
from secref.target_lang import (
    AllocE,
    App,
    AssignE,
    BinOp,
    Case,
    CaseLL,
    DerefE,
    Fix,
    Fst,
    If,
    InlE,
    InrE,
    Lam,
    Let,
    LitBool,
    LitInt,
    LitUnit,
    LLConsE,
    LLNilE,
    PairE,
    Snd,
    Var,
    elaborate,
    gen_random_context,
    parse,
    typecheck,
)
from secref.values import (
    INT,
    UNIT,
    V_NIL,
    V_UNIT,
    LList,
    Ref,
    VBool,
    VInl,
    VInr,
    VInt,
    VLLCons,
    VLLNil,
    VPair,
    VRef,
)

CONTEXTS = Path(secref.__file__).parent / "contexts"
INT_TO_INT = ArrowS(BaseS(INT), BaseS(INT))
# the fuzz families; a shipped context's file name starts with its family
FAMILIES = ("autograder", "guess", "prng", "safe_prog")


def reference_eval(e, env: dict, ops, types: dict):
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Lam):
        return lambda v: reference_eval(e.body, {**env, e.param: v}, ops, types)
    if isinstance(e, Fix):
        def fn(v):
            ops.tick()
            return reference_eval(e.body, {**env, e.fname: fn, e.param: v}, ops, types)

        return fn
    if isinstance(e, App):
        f = reference_eval(e.fn, env, ops, types)
        a = reference_eval(e.arg, env, ops, types)
        return f(a)
    if isinstance(e, Let):
        bound = reference_eval(e.bound, env, ops, types)
        return reference_eval(e.body, {**env, e.name: bound}, ops, types)
    if isinstance(e, LitUnit):
        return V_UNIT
    if isinstance(e, LitInt):
        return VInt(e.value)
    if isinstance(e, LitBool):
        return VBool(e.value)
    if isinstance(e, BinOp):
        a = reference_eval(e.left, env, ops, types).value
        b = reference_eval(e.right, env, ops, types).value
        if e.op == "+":
            return VInt(a + b)
        if e.op == "-":
            return VInt(a - b)
        if e.op == "*":
            return VInt(a * b)
        if e.op == "=":
            return VBool(a == b)
        if e.op == "<":
            return VBool(a < b)
        return VBool(a <= b)
    if isinstance(e, If):
        c = reference_eval(e.cond, env, ops, types)
        return reference_eval(e.then if c.value else e.other, env, ops, types)
    if isinstance(e, PairE):
        return VPair(reference_eval(e.first, env, ops, types),
                     reference_eval(e.second, env, ops, types))
    if isinstance(e, Fst):
        return reference_eval(e.pair, env, ops, types).first
    if isinstance(e, Snd):
        return reference_eval(e.pair, env, ops, types).second
    if isinstance(e, InlE):
        return VInl(reference_eval(e.payload, env, ops, types))
    if isinstance(e, InrE):
        return VInr(reference_eval(e.payload, env, ops, types))
    if isinstance(e, Case):
        s = reference_eval(e.scrut, env, ops, types)
        if isinstance(s, VInl):
            return reference_eval(e.lbranch, {**env, e.lname: s.payload}, ops, types)
        return reference_eval(e.rbranch, {**env, e.rname: s.payload}, ops, types)
    if isinstance(e, AllocE):
        v = reference_eval(e.init, env, ops, types)
        return ops.alloc(types[id(e.init)], v)
    if isinstance(e, DerefE):
        return ops.read(reference_eval(e.ref, env, ops, types))
    if isinstance(e, AssignE):
        r = reference_eval(e.ref, env, ops, types)
        v = reference_eval(e.value, env, ops, types)
        ops.write(r, v)
        return V_UNIT
    if isinstance(e, LLNilE):
        return V_NIL
    if isinstance(e, LLConsE):
        h = reference_eval(e.head, env, ops, types)
        t = reference_eval(e.tail, env, ops, types)
        return VLLCons(h, t.addr)
    if isinstance(e, CaseLL):
        s = reference_eval(e.scrut, env, ops, types)
        if isinstance(s, VLLNil):
            return reference_eval(e.nil_branch, env, ops, types)
        tail_ref = VRef(s.tail, types[id(e.scrut)])
        cons_env = {**env, e.hname: s.head, e.tname: tail_ref}
        return reference_eval(e.cons_branch, cons_env, ops, types)
    raise TargetTypeError("Mismatch", f"not an expression: {e!r}")


class RecordingOps:
    """A live CtxOps that logs each operation, with its arguments, before
    performing it, so an operation that runs out of fuel is logged too."""

    def __init__(self, ops: CtxOps, log: list):
        self._ops, self.log = ops, log

    def tick(self):
        self.log.append(("tick",))
        return self._ops.tick()

    def alloc(self, tag, init):
        self.log.append(("alloc", tag, init))
        return self._ops.alloc(tag, init)

    def read(self, ref):
        self.log.append(("read", ref))
        return self._ops.read(ref)

    def write(self, ref, v):
        self.log.append(("write", ref, v))
        return self._ops.write(ref, v)


def compiled_builder(expr, spec):
    return elaborate(expr, spec).builder


def reference_builder(expr, spec):
    types: dict = {}
    typecheck(expr, {}, types)
    return lambda ops: reference_eval(expr, {}, ops, types)


def run_recorded(family: str, seed: int, expr, make_builder, fuel: int):
    """One run of expr as the context of a seeded fuzz-family scenario: its
    behaviour record (or alarm), step count and context op log."""
    scenario = dict(_fuzz_targets())[family](random.Random(seed))
    builder = make_builder(expr, scenario.interface.spec)
    log: list = []
    ctx = TargetContext(name="ctx", builder=lambda ops: builder(RecordingOps(ops, log)))
    try:
        result = run_scenario(scenario, ctx, RunConfig(fuel=fuel))
    except MonitorAlarm as alarm:
        return ("alarm", type(alarm).__name__, str(alarm)), None, log
    return result.record, result.state.trace.steps, log


def assert_same_runs(family: str, seed: int, expr) -> int:
    """Compare both evaluators at full fuel and at half the steps the run
    took; returns the number of context operations logged."""
    full = [run_recorded(family, seed, expr, make, FUZZ_FUEL)
            for make in (compiled_builder, reference_builder)]
    assert full[0] == full[1], (family, seed)
    steps = full[0][1]
    if steps is not None and steps > 1:
        short = [run_recorded(family, seed, expr, make, steps // 2)
                 for make in (compiled_builder, reference_builder)]
        assert short[0] == short[1], (family, seed)
        outcome = short[0][0].outcome
        assert outcome[:2] == ("err", OutOfFuel.code), (family, seed, outcome)
    return len(full[0][2])


@pytest.fixture(autouse=True)
def recursion_headroom():
    """The headroom the fuzz campaigns run generated contexts with: a
    generated walker over a cyclic list recurses until its fuel runs out."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 30_000))
    yield
    sys.setrecursionlimit(limit)


@pytest.mark.parametrize("path", sorted(CONTEXTS.glob("*.sref")), ids=lambda p: p.stem)
def test_shipped_contexts_match_the_reference_evaluator(path):
    family = next(f for f in FAMILIES if path.stem.startswith(f))
    expr = parse(path.read_text())
    for seed in range(3):
        assert_same_runs(family, seed, expr)


@pytest.mark.parametrize("family", FAMILIES)
def test_generated_contexts_match_the_reference_evaluator(family):
    spec = dict(_fuzz_targets())[family](random.Random(0)).interface.spec
    logged = 0
    for seed in range(300):
        expr = gen_random_context(spec, seed=seed, size=35)
        logged += assert_same_runs(family, seed, expr)
    # prng and guess hand the context no references, only callbacks
    assert logged > 0 or family in ("prng", "guess")


# terms of type int -> int with what generated terms rarely contain
HAND_WRITTEN = {
    # case, inl/inr, pairs, comparisons, shadowing and fix-bound closures
    "closures": """
    (lam (x int)
      (let (f (fix f (x int) (-> int (sum int bool))
                (if (<= x 0)
                    (lam (x int) (if (< x 2) (inl bool x) (inr int (= x 3))))
                    (let (y (f (- x 1))) (lam (z int) (y (+ z x)))))))
        (let (p (pair ((f 3) x) (alloc (pair x true))))
          (case (fst p)
            (a (* a (fst (! (snd p)))))
            (b (if b 1 (let (r (snd p)) (let (u (:= r (pair 7 false))) (fst (! r))))))))))
    """,
    # both operands of every two-operand form write the same cell, so the
    # final value and the op log show the order they ran in
    "operand_order": """
    (lam (x int)
      (let (r (alloc x))
        (let (a (+ (let (u (:= r 1)) (! r)) (let (u (:= r 2)) (! r))))
          (let (p (pair (let (u (:= r 3)) (! r)) (let (u (:= r 4)) (! r))))
            (let (c (alloc (llnil int)))
              (let (l (llcons (let (u (:= r 5)) (! r)) (let (u (:= r 6)) c)))
                (let (w (:= (let (u (:= r 7)) c) (let (u (:= r 8)) l)))
                  (+ a (+ (fst p) (+ (snd p)
                    ((let (u (:= r 9)) (lam (z int) (* z (! r))))
                     (let (u (:= r 10)) (! r)))))))))))))
    """,
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_terms_match_the_reference(name):
    expr = parse(HAND_WRITTEN[name])
    for arg in (-6, -3, 0, 4):
        results = []
        for make in (compiled_builder, reference_builder):
            state, log = RunState(config=RunConfig(fuel=200)), []
            fn = make(expr, INT_TO_INT)(RecordingOps(CtxOps(state), log))
            results.append((fn(VInt(arg)), log, state.trace.steps))
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# host stack: compiled code must not nest deeper than the reference
# evaluator, or a recursion it survived would now crash the host


COUNTDOWN = "(fix go (x int) int (if (= x 0) 0 (go (- x 1))))"


def _frames() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


class DepthOps(CtxOps):
    """Records the host stack depth at every fuel tick."""

    def __init__(self, state):
        super().__init__(state)
        self.depths = []

    def tick(self):
        self.depths.append(_frames())
        super().tick()


def _descending_chain(state, n):
    ops = CtxOps(state)
    tail = ops.alloc(LList(INT), V_NIL)
    for x in range(n):
        tail = ops.alloc(LList(INT), VLLCons(VInt(x), tail.addr))
    return tail


def _tick_depths(make_builder, src, spec, arg_of):
    state = RunState(config=RunConfig(fuel=100_000))
    ops = DepthOps(state)
    arg = arg_of(state)
    make_builder(parse(src), spec)(ops)(arg)
    return [d - ops.depths[0] for d in ops.depths]


RECURSIONS = {
    "countdown": (COUNTDOWN, INT_TO_INT, lambda state: VInt(40)),
    "sort": ((CONTEXTS / "autograder_honest.sref").read_text(),
             ArrowS(BaseS(Ref(LList(INT))), BaseS(UNIT)), lambda state: _descending_chain(state, 12)),
}


@pytest.mark.parametrize("name", sorted(RECURSIONS))
def test_compiled_code_nests_no_deeper_than_the_reference(name):
    src, spec, arg_of = RECURSIONS[name]
    compiled = _tick_depths(compiled_builder, src, spec, arg_of)
    reference = _tick_depths(reference_builder, src, spec, arg_of)
    assert len(compiled) == len(reference)
    assert all(c <= r for c, r in zip(compiled, reference))
    # frames per unfolding on the first descent: at most the reference's 4
    assert 0 < compiled[1] <= 4


def test_compiled_recursion_reaches_as_deep_as_the_reference():
    reached = []
    limit = sys.getrecursionlimit()
    for make in (compiled_builder, reference_builder):
        state = RunState(config=RunConfig(fuel=100_000))
        fn = make(parse(COUNTDOWN), INT_TO_INT)(CtxOps(state))
        sys.setrecursionlimit(_frames() + 1000)
        try:
            with pytest.raises(RecursionError):
                fn(VInt(50_000))
        finally:
            sys.setrecursionlimit(limit)
        reached.append(state.trace.steps)
    assert reached[0] >= reached[1] > 0


# ---------------------------------------------------------------------------
# memory


def test_a_finished_run_is_freed_by_reference_counting():
    # the honest sort is a fix; a self-referencing closure would keep the
    # run state alive until the cyclic collector ran
    gc.collect()
    gc.disable()
    try:
        result = run_scenario(scenario_autograder((3, -1, 2, 0)), "honest")
        assert result.record.outcome[0] == "ok"
        state = weakref.ref(result.state)
        del result
        assert state() is None
    finally:
        gc.enable()


def test_a_context_compiles_once_on_its_first_build(monkeypatch):
    from secref import target_lang

    compiled = []
    original = target_lang.compile_term

    def counting(e, types):
        compiled.append(e)
        return original(e, types)

    monkeypatch.setattr(target_lang, "compile_term", counting)
    ctx = elaborate(parse("(alloc 1)"), BaseS(Ref(INT)))
    assert compiled == []
    for _ in range(3):
        state = RunState()
        ref = ctx.builder(CtxOps(state))
        assert state.world.heap.cell(ref.addr).value == VInt(1)
    assert len(compiled) == 1

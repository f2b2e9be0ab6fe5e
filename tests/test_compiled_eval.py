"""Both compiler backends against a reference AST-walking evaluator.

`reference_eval` is the tree-walking evaluator the compilers replaced, kept
here as a test oracle.  `elaborate`'s choice of backend, the Python backend
called directly and the reference run the same terms through the same
scenarios against a recording `CtxOps`; every tick, alloc, read and write
they perform, in order and with its arguments, must agree, as must the
behaviour records and step counts.  The file also holds the host-stack
depth of compiled `fix` terms to the reference's, runs generated contexts
that recurse until their fuel runs out at the default recursion limit, and
checks that a finished run and a typecheck are freed by reference
counting and that a context compiles once.
"""
import gc
import random
import sys
import traceback
import weakref
from pathlib import Path
from types import FunctionType, GeneratorType

import pytest

import secref
from secref.campaigns import FUZZ_FUEL, _fuzz_targets, _generated_context
from secref.contracts import ArrowS, BaseS
from secref.errors import MonitorAlarm, OutOfFuel, TargetTypeError
from secref.linker import CtxOps, TargetContext
from secref.programs import RunConfig, RunState, _Stepper
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
    compile_python,
    compile_term,
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
# the shipped contexts that contain a `fix`, and so take the Python backend
HAVE_FIX = {"autograder_honest", "guess_binary_search", "safe_prog_adversary"}


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


def backend_builder(backend):
    def make(expr, spec):
        types: dict = {}
        typecheck(expr, {}, types)
        return backend(expr, types)

    return make


python_builder = backend_builder(compile_python)
reference_builder = backend_builder(
    lambda expr, types: lambda ops: reference_eval(expr, {}, ops, types))
# elaborate's choice, the Python backend whatever the term, and the oracle
EVALUATORS = (compiled_builder, python_builder, reference_builder)


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
    """Compare the evaluators at full fuel and at half the steps the run
    took; returns the number of context operations logged."""
    full = [run_recorded(family, seed, expr, make, FUZZ_FUEL) for make in EVALUATORS]
    assert full[0] == full[1] == full[2], (family, seed)
    steps = full[0][1]
    if steps is not None and steps > 1:
        short = [run_recorded(family, seed, expr, make, steps // 2) for make in EVALUATORS]
        assert short[0] == short[1] == short[2], (family, seed)
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
    # the backend the file takes: only Python code has an `<sref:...>` file
    types: dict = {}
    typecheck(expr, {}, types)
    filename = compile_term(expr, types, path.stem).__code__.co_filename
    assert (filename == f"<sref:{path.stem}>") == (path.stem in HAVE_FIX)


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
    # no `fix`, so the closure backend compiles it: if, case, inl/inr, pairs
    # and both boolean literals, none of which a generated term or a
    # shipped context without a `fix` contains
    "branches": """
    (lam (x int)
      (let (s (if (< x 0) (inl bool x) (inr int (<= x 2))))
        (case s
          (a (- (snd (pair a 0)) (fst (pair a x))))
          (b (if b
                 (if true 10 20)
                 (if false 30
                     (let (r (alloc (inr int (= x 4))))
                       (case (! r) (n n) (c (if c 40 50))))))))))
    """,
}
# the hand-written terms without a `fix`, which take the closure backend
CLOSURE_BACKEND = {"branches", "operand_order"}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_terms_match_the_reference(name):
    expr = parse(HAND_WRITTEN[name])
    for arg in (-6, -3, 0, 3, 4):
        results = []
        for make in EVALUATORS:
            state, log = RunState(config=RunConfig(fuel=200)), []
            fn = make(expr, INT_TO_INT)(RecordingOps(CtxOps(state), log))
            results.append((fn(VInt(arg)), log, state.trace.steps))
        assert results[0] == results[1] == results[2]
    # the backend elaborate chose: only Python code has an `<sref:...>` file
    types: dict = {}
    typecheck(expr, {}, types)
    filename = compile_term(expr, types, name).__code__.co_filename
    assert (filename != f"<sref:{name}>") == (name in CLOSURE_BACKEND)


# ---------------------------------------------------------------------------
# host stack: compiled code must not nest deeper than the reference
# evaluator, or a recursion it survived would now crash the host; and a
# `fix` unfolding, which only the Python backend compiles, is one frame


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
    python, reference = (_tick_depths(make, src, spec, arg_of)
                         for make in (python_builder, reference_builder))
    assert len(python) == len(reference)
    assert all(p <= r for p, r in zip(python, reference))
    # frames per unfolding on the first descent
    assert python[1] == 1


def test_compiled_recursion_reaches_as_deep_as_the_reference():
    reached = []
    limit = sys.getrecursionlimit()
    for make in (python_builder, reference_builder):
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


# generated autograder contexts whose walker recurses over a list it made
# cyclic until its fuel runs out; each unfolding costs one frame and about
# three fuel, so FUZZ_FUEL stays under the default limit of 1000 frames
FUEL_BOUND_WALKERS = (9, 77, 138, 146)


@pytest.mark.parametrize("seed", FUEL_BOUND_WALKERS)
def test_generated_walkers_run_out_of_fuel_at_the_default_recursion_limit(seed):
    scenario = dict(_fuzz_targets())["autograder"](random.Random(seed))
    _, ctx = _generated_context(scenario, seed)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        result = run_scenario(scenario, ctx, RunConfig(fuel=FUZZ_FUEL))
    finally:
        sys.setrecursionlimit(limit)
    assert result.record.outcome[:2] == ("err", OutOfFuel.code)
    assert result.state.trace.steps == FUZZ_FUEL


def test_a_traceback_through_context_code_names_the_context():
    fn = elaborate(parse(COUNTDOWN), INT_TO_INT, name="gen123").builder(
        CtxOps(RunState(config=RunConfig(fuel=100_000))))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 100)
    try:
        with pytest.raises(RecursionError) as err:
            fn(VInt(50_000))
    finally:
        sys.setrecursionlimit(limit)
    frames = traceback.extract_tb(err.value.__traceback__)
    assert {f.filename for f in frames if f.name.startswith("go_")} == {"<sref:gen123>"}


# ---------------------------------------------------------------------------
# memory


def test_a_finished_run_is_freed_by_reference_counting(monkeypatch):
    # the honest sort is a fix; a self-referencing function would keep the
    # run state alive until the cyclic collector ran, and a namespace that
    # held the generated function would keep both
    from secref import target_lang

    builders = []
    original = target_lang.compile_term

    def recording(*args):
        builders.append(original(*args))
        return builders[-1]

    monkeypatch.setattr(target_lang, "compile_term", recording)
    gc.collect()
    gc.disable()
    try:
        result = run_scenario(scenario_autograder((3, -1, 2, 0)), "honest")
        assert result.record.outcome[0] == "ok"
        state = weakref.ref(result.state)
        [builder] = builders
        assert builder.__code__.co_filename == "<sref:honest>"
        namespace = builder.__globals__
        builder = weakref.ref(builders.pop())
        del result
        assert state() is None
        assert builder() is None
        # nothing but this frame holds the namespace any longer
        here = sys._getframe()
        assert [r for r in gc.get_referrers(namespace) if r is not here] == []
        # the run typechecked each context it loaded; no walk outlived it
        assert typecheck_leftovers() == []
        # nor did the program's generator or the continuation that drove it
        assert do_leftovers() == []
    finally:
        gc.enable()


def do_leftovers() -> list:
    """Objects the cyclic collector still tracks that `programs.do` made or
    drove: a stepper, an inner function of `do`, and the autograder body's
    generator."""
    return [o for o in gc.get_objects()
            if isinstance(o, _Stepper)
            or (isinstance(o, FunctionType) and o.__qualname__.startswith("do.<locals>"))
            or (isinstance(o, GeneratorType)
                and o.__qualname__.startswith("scenario_autograder.<locals>"))]


def typecheck_leftovers() -> list:
    """Objects the cyclic collector still tracks that typecheck made: its
    inner functions, and so anything they hold."""
    return [o for o in gc.get_objects()
            if isinstance(o, FunctionType) and o.__qualname__.startswith("typecheck.<locals>")]


@pytest.mark.parametrize("term, well_typed", [(COUNTDOWN, True), ("(lam (x int) (+ x 1))", True),
                                              ("(fst 1)", False)],
                         ids=["fix", "lam", "ill_typed"])
def test_a_typecheck_is_freed_by_reference_counting(term, well_typed):
    # typecheck's walk is a recursive inner function; left bound, its own
    # closure cell would keep it, the types dict and every inferred tag
    # alive until the cyclic collector ran
    e = parse(term)
    gc.collect()
    gc.disable()
    try:
        try:
            typecheck(e, types={})
        except TargetTypeError:
            assert not well_typed
        else:
            assert well_typed
        assert typecheck_leftovers() == []
    finally:
        gc.enable()


def test_a_context_compiles_once_on_its_first_build(monkeypatch):
    from secref import target_lang

    compiled = []
    original = target_lang.compile_term

    def counting(e, *rest):
        compiled.append(e)
        return original(e, *rest)

    monkeypatch.setattr(target_lang, "compile_term", counting)
    ctx = elaborate(parse("(alloc 1)"), BaseS(Ref(INT)))
    assert compiled == []
    for _ in range(3):
        state = RunState()
        ref = ctx.builder(CtxOps(state))
        assert state.world.heap.cell(ref.addr).value == VInt(1)
    assert len(compiled) == 1

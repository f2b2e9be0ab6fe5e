import sys

import pytest

from secref import target_lang
from secref.contracts import ArrowS, BaseS, ErrCode, Inl, Inr, RefinedS
from secref.errors import InterfaceMismatch, OutOfFuel, SrefParseError, TargetTypeError
from secref.labels import is_shareable
from secref.linker import CtxOps, SourceInterface, back_translate
from secref.programs import RunConfig, RunState
from secref.target_lang import (
    AllocE,
    App,
    DerefE,
    Fix,
    Lam,
    LitInt,
    MAX_DEPTH,
    Var,
    compile_term,
    elaborate,
    gen_random_context,
    parse,
    spec_type,
    typecheck,
)
from secref.values import (
    BOOL,
    INT,
    UNIT,
    Arrow,
    LList,
    Record,
    Ref,
    V_FALSE,
    V_NIL,
    V_TRUE,
    V_UNIT,
    VInt,
    VLLCons,
    VRef,
    llist_collect,
)

HOMEWORK_SORT = """
(fix sort (ll (ref (llist int))) unit
  (casell (! ll)
    unit
    (x tl
      (let (d1 (sort tl))
        (casell (! tl)
          unit
          (x2 tl2
            (if (<= x x2)
                unit
                (let (ntl (alloc (llcons x tl2)))
                  (let (d2 (sort ntl))
                    (:= ll (llcons x2 ntl)))))))))))
"""


def test_parse_lambda_identity():
    assert parse("(lam (x int) x)") == Lam("x", INT, Var("x"))


def test_parse_deref_alloc():
    assert parse("(! (alloc 5))") == DerefE(AllocE(LitInt(5)))


def test_parse_application():
    assert parse("(f 1)") == App(Var("f"), LitInt(1))


def test_parse_error_carries_position():
    with pytest.raises(SrefParseError) as err:
        parse("(lam (x int)")
    assert err.value.line == 1


def test_parse_error_positions_count_past_comments_and_tabs():
    with pytest.raises(SrefParseError) as err:
        parse("; a comment with ( and )\n\t(lam (x int) ; (trailing\n  x))")
    assert (err.value.line, err.value.col) == (3, 5)


def test_parse_rejects_bad_type():
    with pytest.raises(SrefParseError):
        parse("(lam (x intt) x)")


def test_type_form_headed_by_a_form_is_named_in_words():
    with pytest.raises(SrefParseError) as err:
        parse("(lam (next ((-) unit int)) 7)")
    assert (err.value.line, err.value.col) == (1, 12)
    assert str(err.value).endswith("bad type form: its head is a form, not a type name")


def _at_default_limit(fn):
    """fn() run at Python's default recursion limit, whatever an earlier
    test set it to."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return fn()
    finally:
        sys.setrecursionlimit(limit)


def test_deeply_nested_forms_are_a_positioned_parse_error():
    text = "(lam (x int) " * 1200 + "x" + ")" * 1200
    with pytest.raises(SrefParseError) as err:
        _at_default_limit(lambda: parse(text))
    # the first node past the bound: the parameter type of the 200th lambda
    assert (err.value.line, err.value.col) == (1, 13 * (MAX_DEPTH - 1) + 9)
    assert f"nesting deeper than {MAX_DEPTH}" in str(err.value)


def test_each_application_argument_counts_as_one_level():
    # it would parse to a 3000-deep left-nested spine of App nodes
    with pytest.raises(SrefParseError) as err:
        _at_default_limit(lambda: parse("(f" + " 1" * 3000 + ")"))
    assert (err.value.line, err.value.col) == (1, 2)
    assert f"nesting deeper than {MAX_DEPTH}" in str(err.value)

    def spine(args: int) -> str:
        return "(lam (f (-> int int)) (f" + " 1" * args + "))"

    # the lambda is one level, its body's App spine one per argument
    assert isinstance(parse(spine(MAX_DEPTH - 2)).body, App)
    with pytest.raises(SrefParseError):
        parse(spine(MAX_DEPTH - 1))


def _curried(n: int) -> str:
    """A let-bound function of n curried int arguments applied to n of them.
    Under the let, the lambda chain and the App spine both reach depth n + 2."""
    return ("(let (f " + "(lam (x int) " * n + "x" + ")" * n + ") (f" + " 1" * n + "))")


def _ref_chain(n: int) -> str:
    return "(lam (x " + "(ref " * n + "int" + ")" * n + ") x)"


def _in_fix(body: str) -> str:
    """body, an int term, as the body of a fix of type int -> int: one level
    deeper, and compiled by the Python backend."""
    return f"(fix f (u int) int {body})"


# the fix-wrapped terms at the bound, and what each returns when called
FIX_RETURNS = {
    _in_fix(_curried(MAX_DEPTH - 3)): VInt(1),
    _in_fix("(if true " * (MAX_DEPTH - 2) + "7" + " 0)" * (MAX_DEPTH - 2)): VInt(7),
}


@pytest.mark.parametrize("text", [
    _curried(MAX_DEPTH - 2),
    _ref_chain(MAX_DEPTH - 2),
    "(" * (MAX_DEPTH - 1) + "7" + ")" * (MAX_DEPTH - 1),
    *FIX_RETURNS,
])
def test_terms_at_the_bound_parse_typecheck_and_compile_at_the_default_limit(
        text, monkeypatch):
    def load():
        e = parse(text)
        types: dict = {}
        typecheck(e, types)
        value = compile_term(e, types)(CtxOps(RunState()))
        if isinstance(e, Fix):
            assert value(VInt(0)) == FIX_RETURNS[text]

    _at_default_limit(load)
    # each term is exactly at the bound
    monkeypatch.setattr(target_lang, "MAX_DEPTH", MAX_DEPTH - 1)
    with pytest.raises(SrefParseError):
        parse(text)


def test_typecheck_deref_arrow():
    e = parse("(lam (x (ref int)) (! x))")
    assert typecheck(e) == Arrow(Ref(INT), INT)


def test_store_a_function_parses_then_is_rejected():
    e = parse("(alloc (lam (x int) x))")
    with pytest.raises(TargetTypeError) as err:
        typecheck(e)
    assert err.value.reason == "FunctionInStore"


def test_ref_annotation_cannot_store_functions():
    e = parse("(lam (x (ref (-> int int))) x)")
    with pytest.raises(TargetTypeError) as err:
        typecheck(e)
    assert err.value.reason == "FunctionInStore"


@pytest.mark.parametrize("src", [
    "(llnil (-> int int))",
    "(alloc (pair 1 (lam (x int) x)))",
    "(lam (x (llist (sum int (-> int int)))) x)",
])
def test_storing_a_function_fails_typechecking(src):
    with pytest.raises(TargetTypeError) as err:
        typecheck(parse(src))
    assert err.value.reason == "FunctionInStore"


def test_assign_to_non_ref():
    with pytest.raises(TargetTypeError) as err:
        typecheck(parse("(:= 1 2)"))
    assert err.value.reason == "NotARef"


def test_unbound_variable():
    with pytest.raises(TargetTypeError) as err:
        typecheck(parse("(+ x 1)"))
    assert err.value.reason == "UnboundVar"


def test_homework_typechecks():
    assert typecheck(parse(HOMEWORK_SORT)) == Arrow(Ref(LList(INT)), UNIT)


def test_spec_type():
    spec = ArrowS(BaseS(Ref(LList(INT))), BaseS(UNIT))
    assert spec_type(spec) == Arrow(Ref(LList(INT)), UNIT)


POS = RefinedS(BaseS(INT), "pos", lambda v: v.value > 0)
INT_S = BaseS(INT)


@pytest.mark.parametrize("spec, text", [
    # the probe: a checked callback with a refined argument answers Inl(v),
    # and the context's (+ 1 (f 3)) used to crash the host on it
    (ArrowS(ArrowS(POS, INT_S), INT_S), "(lam (f (-> int int)) (+ 1 (f 3)))"),
    (ArrowS(ArrowS(INT_S, POS), INT_S), "(lam (f (-> int int)) (+ 1 (f 3)))"),
    # an arrow a received arrow returns is received too
    (ArrowS(ArrowS(INT_S, ArrowS(POS, INT_S)), INT_S), "(lam (f (-> int (-> int int))) ((f 1) 2))"),
    # polarity flips at each argument: the innermost arrow is received again
    (ArrowS(ArrowS(ArrowS(ArrowS(POS, INT_S), INT_S), INT_S), INT_S),
     "(lam (g (-> (-> (-> int int) int) int)) (g (lam (h (-> int int)) (h 1))))"),
], ids=["refined_arg", "refined_result", "received_result_arrow", "received_twice_removed"])
def test_a_received_arrow_that_can_fail_is_refused_at_load(spec, text):
    with pytest.raises(InterfaceMismatch, match="refinements"):
        elaborate(parse(text), spec)


def test_a_provided_arrow_with_a_refined_result_loads_and_fails_as_inr():
    spec = ArrowS(INT_S, POS)
    ctx = elaborate(parse("(lam (x int) (- 0 x))"), spec, name="negate")
    # a provided arrow with a refined result inside a received one's argument
    nested = ArrowS(ArrowS(spec, INT_S), INT_S)
    assert spec_type(nested) == Arrow(Arrow(Arrow(INT, INT), INT), INT)
    iface = SourceInterface(spec, psi=lambda w0, out, w1: True)
    negate = back_translate(ctx, iface)(RunState()).value
    assert negate(VInt(-2)) == Inl(VInt(2))
    out = negate(VInt(3))
    assert isinstance(out, Inr) and out.error.code is ErrCode.REFINEMENT_VIOLATION


def test_elaborate_type_mismatch_against_interface():
    with pytest.raises(InterfaceMismatch):
        elaborate(parse("7"), ArrowS(BaseS(INT), BaseS(INT)))


def test_elaborated_alloc_yields_shareable_ref():
    ctx = elaborate(parse("(alloc 0)"), BaseS(Ref(INT)))
    state = RunState()
    ref = ctx.builder(CtxOps(state))
    assert isinstance(ref, VRef)
    assert is_shareable(state.world, ref.addr)
    assert state.world.heap.cell(ref.addr).value == VInt(0)


def test_elaborate_literal_no_effects():
    ctx = elaborate(parse("7"), BaseS(INT))
    state = RunState()
    assert ctx.builder(CtxOps(state)) == VInt(7)
    assert not state.world.heap.cells


@pytest.mark.parametrize("op, results", [("=", (False, True, False)),
                                         ("<", (True, False, False)),
                                         ("<=", (True, True, False))])
def test_compiled_comparisons_return_the_shared_booleans(op, results):
    ctx = elaborate(parse(f"(lam (x int) ({op} x 1))"), ArrowS(BaseS(INT), BaseS(BOOL)))
    fn = ctx.builder(CtxOps(RunState()))
    for x, want in zip((0, 1, 2), results):
        assert fn(VInt(x)) is (V_TRUE if want else V_FALSE)


def _shareable_chain(state, values):
    ops = CtxOps(state)
    tail = ops.alloc(LList(INT), V_NIL)
    for x in reversed(values):
        tail = ops.alloc(LList(INT), VLLCons(VInt(x), tail.addr))
    return tail


def test_elaborated_homework_sorts_in_place():
    state = RunState()
    head = _shareable_chain(state, [3, 1, 2])
    ctx = elaborate(parse(HOMEWORK_SORT), ArrowS(BaseS(Ref(LList(INT))), BaseS(UNIT)))
    sort = ctx.builder(CtxOps(state))
    assert sort(head) == V_UNIT
    elems = llist_collect(state.world.heap, head.addr)
    assert [e.value for e in elems] == [1, 2, 3]


def test_fix_burns_fuel():
    looper = parse("(fix go (x int) int (go x))")
    ctx = elaborate(looper, ArrowS(BaseS(INT), BaseS(INT)))
    state = RunState(config=RunConfig(fuel=100))
    fn = ctx.builder(CtxOps(state))
    with pytest.raises(OutOfFuel):
        fn(VInt(0))


def test_generator_is_seed_deterministic():
    spec = ArrowS(BaseS(Ref(LList(INT))), BaseS(UNIT))
    a = gen_random_context(spec, seed=7, size=40)
    b = gen_random_context(spec, seed=7, size=40)
    c = gen_random_context(spec, seed=8, size=40)
    assert a == b
    assert a != c


def test_generated_terms_typecheck():
    specs = [
        ArrowS(BaseS(Ref(LList(INT))), BaseS(UNIT)),
        ArrowS(BaseS(Ref(INT)), ArrowS(BaseS(UNIT), BaseS(INT))),
        ArrowS(ArrowS(BaseS(UNIT), BaseS(INT)), BaseS(INT)),
    ]
    n = 0
    for seed in range(400):
        spec = specs[seed % len(specs)]
        expr = gen_random_context(spec, seed=seed, size=35)
        assert typecheck(expr) == spec_type(spec)
        n += 1
    assert n == 400


def _count_ref_stashes(e) -> int:
    """Allocations whose payload is itself read or copied from a reference."""
    total = 0
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, AllocE) and isinstance(node.init, (DerefE, Var)):
            total += 1
        subs = (getattr(node, name) for name in node._fields)
        stack.extend(sub for sub in subs if isinstance(sub, Record))
    return total


def test_corpus_contains_the_stash_pattern():
    # the intro shape: a library taking a ref-to-ref and returning a callback
    spec = ArrowS(BaseS(Ref(Ref(INT))), ArrowS(BaseS(UNIT), BaseS(UNIT)))
    stashes = 0
    for seed in range(200):
        expr = gen_random_context(spec, seed=seed, size=45)
        stashes += _count_ref_stashes(expr)
    assert stashes > 0

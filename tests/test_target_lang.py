import pytest

from secref.contracts import ArrowS, BaseS, LListS, RefS
from secref.errors import InterfaceMismatch, OutOfFuel, SrefParseError, TargetTypeError
from secref.labels import is_shareable
from secref.linker import CtxOps
from secref.programs import RunConfig, RunState
from secref.target_lang import (
    AllocE,
    App,
    DerefE,
    Lam,
    LitInt,
    Var,
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
    spec = ArrowS(LListS(INT), BaseS(UNIT))
    assert spec_type(spec) == Arrow(Ref(LList(INT)), UNIT)


def test_elaborate_type_mismatch_against_interface():
    with pytest.raises(InterfaceMismatch):
        elaborate(parse("7"), ArrowS(BaseS(INT), BaseS(INT)))


def test_elaborated_alloc_yields_shareable_ref():
    ctx = elaborate(parse("(alloc 0)"), RefS(INT))
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
    ctx = elaborate(parse(HOMEWORK_SORT), ArrowS(LListS(INT), BaseS(UNIT)))
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
    spec = ArrowS(LListS(INT), BaseS(UNIT))
    a = gen_random_context(spec, seed=7, size=40)
    b = gen_random_context(spec, seed=7, size=40)
    c = gen_random_context(spec, seed=8, size=40)
    assert a == b
    assert a != c


def test_generated_terms_typecheck():
    specs = [
        ArrowS(LListS(INT), BaseS(UNIT)),
        ArrowS(RefS(INT), ArrowS(BaseS(UNIT), BaseS(INT))),
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
        stack.extend(sub for sub in vars(node).values() if hasattr(sub, "__dataclass_fields__"))
    return total


def test_corpus_contains_the_stash_pattern():
    # the intro shape: a library taking a ref-to-ref and returning a callback
    spec = ArrowS(RefS(Ref(INT)), ArrowS(BaseS(UNIT), BaseS(UNIT)))
    stashes = 0
    for seed in range(200):
        expr = gen_random_context(spec, seed=seed, size=45)
        stashes += _count_ref_stashes(expr)
    assert stashes > 0

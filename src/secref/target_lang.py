"""A deeply embedded, simply typed, fuel-bounded language with first-order
references: the concrete syntax for arbitrary untrusted code.

Concrete syntax is s-expressions, one top-level expression per `.sref` file:

    e ::= <int> | unit | true | false | <name>
        | (lam (x t) e) | (fix f (x t) t e) | (e e) | (let (x e) e)
        | (+ e e) | (- e e) | (* e e) | (= e e) | (< e e) | (<= e e)
        | (if e e e) | (pair e e) | (fst e) | (snd e)
        | (inl t e) | (inr t e)        ; t annotates the other component
        | (case e (x e) (y e))
        | (alloc e) | (! e) | (:= e e)
        | (llnil t) | (llcons e e) | (casell e e (h t e))
    t ::= unit | int | bool | (pair t t) | (sum t t)
        | (ref t) | (llist t) | (-> t t)

Types are `values.TypeTag`s.  Only storable ones may sit under `ref` or
`llist` or be allocated; `->` is the one non-storable form.

The language has no witness/recall and no way to observe labels; its only
effects are the three operations handed to it at link time, so every
allocation it makes is shareable.  Recursion is a fix form that burns
interpreter fuel on each unfolding.

`elaborate` typechecks a term eagerly, so errors surface at load, and
compiles it on the context's first build; a context that is loaded but
never run is never compiled.  `compile_term` has two backends and picks
one by whether the term has a `fix`, which `typecheck` records:

- a term with a `fix` becomes Python code, one `def` per `lam` and `fix`,
  run through `compile()`.  A `fix` unfolding is one host call and one
  frame, and the code between two context operations is plain bytecode;
- any other term becomes nested closures (Feeley and Lapalme, "Using
  closures for code generation", 1987), one call and at most one frame per
  node.  Without a `fix` a term's nodes run a bounded number of times per
  call from outside, and closures cost about a tenth as much to make
  (about 10 against 100 us for a generated size-35 term on a 2-vCPU
  container).

Both recurse on the Python stack no deeper than a tree-walking evaluator.
"""
from __future__ import annotations

import ast
import itertools
import operator
import random
import re
import weakref
from typing import Any, Callable, Optional, Union

from .contracts import ArrowS, BaseS, InterfaceSpec, PairS, RefinedS, SumS, arrow_export_uses_either
from .errors import GenerationExhausted, InterfaceMismatch, SrefParseError, TargetTypeError
from .linker import CtxOps, TargetContext
from .values import (
    BOOL,
    INT,
    UNIT,
    Arrow,
    Bool,
    Int,
    LList,
    Pair,
    Ref,
    Sum,
    TypeTag,
    Unit,
    V_FALSE,
    V_NIL,
    V_TRUE,
    V_UNIT,
    VBool,
    VInl,
    VInr,
    VInt,
    VLLCons,
    VLLNil,
    VPair,
    VRef,
    record,
)

# ---------------------------------------------------------------------------
# types: the `values` tags, arrows included, so a checked term's types are
# the cell tags its allocations use


def spec_type(spec: InterfaceSpec, received: bool = False) -> TypeTag:
    """The type at which untrusted code sees a boundary value.

    `received` marks a value the context is handed rather than one it
    provides; it flips at each arrow argument.  A received arrow that can
    fail answers `Inl`/`Inr`, which no target type describes."""
    if isinstance(spec, BaseS):
        return spec.tag
    if isinstance(spec, PairS):
        return Pair(spec_type(spec.first, received), spec_type(spec.second, received))
    if isinstance(spec, SumS):
        return Sum(spec_type(spec.left, received), spec_type(spec.right, received))
    if isinstance(spec, RefinedS):
        return spec_type(spec.base, received)
    if isinstance(spec, ArrowS):
        if spec.pre is not None:
            raise InterfaceMismatch(
                "arrows with pre-checks have no plain target type"
            )
        if received and arrow_export_uses_either(spec):
            raise InterfaceMismatch(
                "a checked arrow with refinements answers Inl/Inr and has no plain target type"
            )
        return Arrow(spec_type(spec.arg, not received), spec_type(spec.res, received))
    raise InterfaceMismatch(f"not an interface spec: {spec!r}")


# ---------------------------------------------------------------------------
# expressions


@record
class Var:
    name: str


@record
class Lam:
    param: str
    param_ty: TypeTag
    body: "Expr"


@record
class Fix:
    fname: str
    param: str
    param_ty: TypeTag
    res_ty: TypeTag
    body: "Expr"


@record
class App:
    fn: "Expr"
    arg: "Expr"


@record
class Let:
    name: str
    bound: "Expr"
    body: "Expr"


@record
class LitUnit:
    pass


@record
class LitInt:
    value: int


@record
class LitBool:
    value: bool


@record
class BinOp:
    op: str  # + - * = < <=
    left: "Expr"
    right: "Expr"


@record
class If:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


@record
class PairE:
    first: "Expr"
    second: "Expr"


@record
class Fst:
    pair: "Expr"


@record
class Snd:
    pair: "Expr"


@record
class InlE:
    right_ty: TypeTag
    payload: "Expr"


@record
class InrE:
    left_ty: TypeTag
    payload: "Expr"


@record
class Case:
    scrut: "Expr"
    lname: str
    lbranch: "Expr"
    rname: str
    rbranch: "Expr"


@record
class AllocE:
    init: "Expr"


@record
class DerefE:
    ref: "Expr"


@record
class AssignE:
    ref: "Expr"
    value: "Expr"


@record
class LLNilE:
    elem_ty: TypeTag


@record
class LLConsE:
    head: "Expr"
    tail: "Expr"


@record
class CaseLL:
    scrut: "Expr"
    nil_branch: "Expr"
    hname: str
    tname: str
    cons_branch: "Expr"


Expr = Union[
    Var, Lam, Fix, App, Let, LitUnit, LitInt, LitBool, BinOp, If,
    PairE, Fst, Snd, InlE, InrE, Case, AllocE, DerefE, AssignE,
    LLNilE, LLConsE, CaseLL,
]


# ---------------------------------------------------------------------------
# parser
#
# A load does its per-token work in C.  With comments stripped and each
# parenthesis spaced out, one `str.split` yields the tokens as plain strings.
# The reader turns them into (payload, index) pairs, where the payload is an
# atom's text or a list of pairs and the index is the token's place in the
# stream.  A parse error carries that index, and `parse` finds its line and
# column by scanning the text again with `_TOKEN_RE`, so a load that succeeds
# never computes a position.


# a token is a parenthesis or a run of characters that are neither
# whitespace, parentheses nor `;`; a `;` starts a comment that runs to the
# end of its line.  `\s` and `str.split` agree on what whitespace is.
_TOKEN_RE = re.compile(r"[()]|[^\s();]+")
_COMMENT_RE = re.compile(r";[^\n]*")
_INT_RE = re.compile(r"-?[0-9]+$")

# The deepest expression or type accepted.  Each argument of an application
# counts as one level, as it parses to one `App` of a left-nested spine.
# Parse recurses at most twice per level and compile once, so an accepted
# term loads inside Python's default recursion limit of 1000.  Typecheck
# recurses once per level of the term.  It reads an inferred type's stored
# facts instead of walking it, and refuses one past MAX_TYPE_DEPTH or
# MAX_TYPE_SIZE: through `let`, a term can infer a type far deeper than
# itself, or one exponentially larger as a tree.
MAX_DEPTH = 200
MAX_TYPE_DEPTH = 2 * MAX_DEPTH
MAX_TYPE_SIZE = 4096


class _Bad(Exception):
    """A parse error at a token index; `parse` adds its line and column."""


def _read(toks: list[str]):
    """The (payload, index) pair of the one s-expression toks must hold."""
    stack = []  # (enclosing items, index of the open paren)
    items: list = []
    for i, tok in enumerate(toks):
        if tok == "(":
            stack.append((items, i))
            items = []
            continue
        if tok != ")":
            items.append((tok, i))
        elif stack:
            outer, start = stack.pop()
            outer.append((items, start))
            items = outer
        else:
            raise _Bad("unexpected )", i)
        if not stack:
            if i + 1 < len(toks):
                raise _Bad("trailing tokens", i + 1)
            return items[0]
    raise _Bad("missing )", stack[-1][1])


_BASE_TYPES = {"unit": UNIT, "int": INT, "bool": BOOL}
_TYPE_FORMS = {"pair": (2, Pair), "sum": (2, Sum), "ref": (1, Ref), "llist": (1, LList),
               "->": (2, Arrow)}


def _parse_type(sx, depth: int) -> TypeTag:
    node, at = sx
    if depth > MAX_DEPTH:
        raise _Bad(f"nesting deeper than {MAX_DEPTH}", at)
    if type(node) is str:
        t = _BASE_TYPES.get(node)
        if t is None:
            raise _Bad(f"unknown type {node!r}", at)
        return t
    if not node:
        raise _Bad("empty type", at)
    head = node[0][0]
    if type(head) is not str:
        raise _Bad("bad type form: its head is a form, not a type name", at)
    form = _TYPE_FORMS.get(head)
    if form is None or len(node) != form[0] + 1:
        raise _Bad(f"bad type form {head!r}", at)
    return form[1](*[_parse_type(arg, depth + 1) for arg in node[1:]])


def _binder(sx, what: str, depth: int) -> tuple[str, "TypeTag"]:
    node, at = sx
    if type(node) is not list or len(node) != 2 or type(node[0][0]) is not str:
        raise _Bad(f"{what} wants (name type)", at)
    return node[0][0], _parse_type(node[1], depth)


def _name_of(sx, what: str) -> str:
    node, at = sx
    if type(node) is not str:
        raise _Bad(f"{what} wants a name", at)
    return node


def _let(n, d) -> Let:
    inner, at = n[1]
    if type(inner) is not list or len(inner) != 2:
        raise _Bad("let wants (name expr)", at)
    return Let(_name_of(inner[0], "let"), _parse_expr(inner[1], d), _parse_expr(n[2], d))


def _case(n, d) -> Case:
    for branch, at in (n[2], n[3]):
        if type(branch) is not list or len(branch) != 2:
            raise _Bad("case wants (name expr) branches", at)
    left, right = n[2][0], n[3][0]
    return Case(
        _parse_expr(n[1], d),
        _name_of(left[0], "case"), _parse_expr(left[1], d),
        _name_of(right[0], "case"), _parse_expr(right[1], d),
    )


def _casell(n, d) -> CaseLL:
    cons, at = n[3]
    if type(cons) is not list or len(cons) != 3:
        raise _Bad("casell wants (head tail expr) as the cons branch", at)
    return CaseLL(
        _parse_expr(n[1], d), _parse_expr(n[2], d),
        _name_of(cons[0], "casell"), _name_of(cons[1], "casell"), _parse_expr(cons[2], d),
    )


# atoms other than integers and names; each occurrence gets its own node,
# since typecheck and the compiler key node types by id()
_ATOMS = {"unit": LitUnit, "true": lambda: LitBool(True), "false": lambda: LitBool(False)}

# form head -> (arity, builder from the form's items and their depth)
_FORMS = {
    "lam": (2, lambda n, d: Lam(*_binder(n[1], "lam", d), _parse_expr(n[2], d))),
    "fix": (4, lambda n, d: Fix(_name_of(n[1], "fix"), *_binder(n[2], "fix", d),
                                _parse_type(n[3], d), _parse_expr(n[4], d))),
    "let": (2, _let),
    **{op: (2, lambda n, d: BinOp(n[0][0], _parse_expr(n[1], d), _parse_expr(n[2], d)))
       for op in ("+", "-", "*", "=", "<", "<=")},
    "if": (3, lambda n, d: If(_parse_expr(n[1], d), _parse_expr(n[2], d),
                              _parse_expr(n[3], d))),
    "pair": (2, lambda n, d: PairE(_parse_expr(n[1], d), _parse_expr(n[2], d))),
    "fst": (1, lambda n, d: Fst(_parse_expr(n[1], d))),
    "snd": (1, lambda n, d: Snd(_parse_expr(n[1], d))),
    "inl": (2, lambda n, d: InlE(_parse_type(n[1], d), _parse_expr(n[2], d))),
    "inr": (2, lambda n, d: InrE(_parse_type(n[1], d), _parse_expr(n[2], d))),
    "case": (3, _case),
    "alloc": (1, lambda n, d: AllocE(_parse_expr(n[1], d))),
    "!": (1, lambda n, d: DerefE(_parse_expr(n[1], d))),
    ":=": (2, lambda n, d: AssignE(_parse_expr(n[1], d), _parse_expr(n[2], d))),
    "llnil": (1, lambda n, d: LLNilE(_parse_type(n[1], d))),
    "llcons": (2, lambda n, d: LLConsE(_parse_expr(n[1], d), _parse_expr(n[2], d))),
    "casell": (3, _casell),
}


def _parse_expr(sx, depth: int) -> Expr:
    node, at = sx
    if depth > MAX_DEPTH:
        raise _Bad(f"nesting deeper than {MAX_DEPTH}", at)
    if type(node) is str:
        atom = _ATOMS.get(node)
        if atom is not None:
            return atom()
        if _INT_RE.match(node):
            return LitInt(int(node))
        return Var(node)
    if not node:
        raise _Bad("empty form", at)
    head = node[0][0]
    form = _FORMS.get(head) if type(head) is str else None
    if form is not None:
        if len(node) != form[0] + 1:
            raise _Bad(f"{head} wants {form[0]} argument(s)", at)
        return form[1](node, depth + 1)
    # anything else is application, one spine level per argument
    depth += len(node) - 1 or 1
    expr = _parse_expr(node[0], depth)
    for arg in node[1:]:
        expr = App(expr, _parse_expr(arg, depth))
    return expr


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column of the index-th token of text, comments stripped."""
    rows = enumerate(text.split("\n"), 1)
    spans = ((line, m.start() + 1) for line, row in rows for m in _TOKEN_RE.finditer(row))
    return next(itertools.islice(spans, index, None))


def parse(text: str) -> Expr:
    text = _COMMENT_RE.sub("", text)
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    if not toks:
        raise SrefParseError("empty input", 1, 1)
    try:
        return _parse_expr(_read(toks), 1)
    except _Bad as bad:
        msg, index = bad.args
        raise SrefParseError(msg, *_position(text, index)) from None


# ---------------------------------------------------------------------------
# typechecker


def typecheck(e: Expr, types: Optional[dict] = None) -> TypeTag:
    """Infer the type of the closed term e, raising TargetTypeError with a reason on failure.

    When a `types` dict is supplied it is filled with id(node) -> type for
    every subexpression, and with `Fix` -> True if the term has a `fix`; the
    compiler uses them for allocation tags and to pick its backend.

    An inferred type past either bound, or not well formed, is refused; that
    test also catches a function type that an annotation or `alloc` stores.
    """
    types = types if types is not None else {}

    def expect(t, want, what):
        if t is not want:
            raise TargetTypeError("Mismatch", f"{what}: expected {want}, found {t}")

    def go(e, env) -> TypeTag:
        k = type(e)
        if k is Var:
            if e.name not in env:
                raise TargetTypeError("UnboundVar", f"unknown name {e.name!r}")
            t = env[e.name]
        elif k is App:
            fn_t = go(e.fn, env)
            if type(fn_t) is not Arrow:
                raise TargetTypeError("NotAFunction", f"cannot apply {fn_t}")
            expect(go(e.arg, env), fn_t.arg, "application argument")
            t = fn_t.res
        elif k is Let:
            t = go(e.body, {**env, e.name: go(e.bound, env)})
        elif k is LitInt:
            t = INT
        elif k is LitUnit:
            t = UNIT
        elif k is BinOp:
            expect(go(e.left, env), INT, f"left operand of {e.op}")
            expect(go(e.right, env), INT, f"right operand of {e.op}")
            t = INT if e.op in ("+", "-", "*") else BOOL
        elif k is DerefE:
            rt = go(e.ref, env)
            if type(rt) is not Ref:
                raise TargetTypeError("NotARef", f"dereference of {rt}")
            t = rt.target
        elif k is Lam:
            t = Arrow(e.param_ty, go(e.body, {**env, e.param: e.param_ty}))
        elif k is If:
            expect(go(e.cond, env), BOOL, "if condition")
            t = go(e.then, env)
            expect(go(e.other, env), t, "else branch")
        elif k is AssignE:
            rt = go(e.ref, env)
            if type(rt) is not Ref:
                raise TargetTypeError("NotARef", f"assignment to {rt}")
            expect(go(e.value, env), rt.target, "assignment value")
            t = UNIT
        elif k is AllocE:
            t = Ref(go(e.init, env))
        elif k is LLConsE:
            ht = go(e.head, env)
            tt = go(e.tail, env)
            if tt is not Ref(LList(ht)):
                raise TargetTypeError(
                    "Mismatch", f"llcons tail: expected (ref (llist {ht})), found {tt}"
                )
            t = LList(ht)
        elif k is CaseLL:
            st = go(e.scrut, env)
            if type(st) is not LList:
                raise TargetTypeError("NotAList", f"casell of {st}")
            t = go(e.nil_branch, env)
            cons_env = {**env, e.hname: st.elem, e.tname: Ref(st)}
            expect(go(e.cons_branch, cons_env), t, "casell branches")
        elif k is Fix:
            fty = Arrow(e.param_ty, e.res_ty)
            body_t = go(e.body, {**env, e.fname: fty, e.param: e.param_ty})
            expect(body_t, e.res_ty, "fix body")
            types[Fix] = True
            t = fty
        elif k is LitBool:
            t = BOOL
        elif k is LLNilE:
            t = LList(e.elem_ty)
        elif k is PairE:
            t = Pair(go(e.first, env), go(e.second, env))
        elif k is Fst:
            pt = go(e.pair, env)
            if type(pt) is not Pair:
                raise TargetTypeError("NotAPair", f"fst of {pt}")
            t = pt.first
        elif k is Snd:
            pt = go(e.pair, env)
            if type(pt) is not Pair:
                raise TargetTypeError("NotAPair", f"snd of {pt}")
            t = pt.second
        elif k is InlE:
            t = Sum(go(e.payload, env), e.right_ty)
        elif k is InrE:
            t = Sum(e.left_ty, go(e.payload, env))
        elif k is Case:
            st = go(e.scrut, env)
            if type(st) is not Sum:
                raise TargetTypeError("NotASum", f"case of {st}")
            t = go(e.lbranch, {**env, e.lname: st.left})
            expect(go(e.rbranch, {**env, e.rname: st.right}), t, "case branches")
        else:
            raise TargetTypeError("Mismatch", f"not an expression: {e!r}")
        if t.depth > MAX_TYPE_DEPTH:
            raise TargetTypeError("TooLarge", f"an inferred type is deeper than {MAX_TYPE_DEPTH}")
        if t.size > MAX_TYPE_SIZE:
            raise TargetTypeError("TooLarge", f"an inferred type has more than {MAX_TYPE_SIZE} nodes")
        if not t.well_formed:
            raise TargetTypeError("FunctionInStore", f"{t} stores a function type")
        types[id(e)] = t
        return t

    try:
        return go(e, {})
    finally:
        go = None  # go's cell holds go; unbound, refcounting frees the walk


# ---------------------------------------------------------------------------
# compilation to closures
#
# A checked term without a `fix` compiles once into nested closures.  Each
# takes the run's environment, a tuple: slot 0 holds the CtxOps of the
# build, slot i > 0 the value of the i-th enclosing binder, so a variable is
# an index fixed at compile time.  Node dispatch and the tags of `alloc` and
# `casell` are resolved at compile time as well; at run time a node costs
# one call.

# a comparison picks one of the two shared booleans by its bool result
_shared_bool = (V_FALSE, V_TRUE).__getitem__
_BINOP_IMPL = {
    "+": (operator.add, VInt),
    "-": (operator.sub, VInt),
    "*": (operator.mul, VInt),
    "=": (operator.eq, _shared_bool),
    "<": (operator.lt, _shared_bool),
    "<=": (operator.le, _shared_bool),
}

_Code = Callable[[tuple], Any]


def _bind(scope: dict, depth: int, *names: str) -> dict:
    """`scope` extended with slots for names; a later name shadows an
    earlier one, as in the typechecker's env."""
    inner = dict(scope)
    for i, name in enumerate(names):
        inner[name] = depth + i
    return inner


def _const(value) -> _Code:
    return lambda env: value


def _compile(e: Expr, scope: dict, depth: int, types: dict) -> _Code:
    """Closures for e, where `scope` maps each name in scope to its slot and
    `depth` is the environment's length.  Branches are ordered by how often
    the node kinds occur in generated terms."""
    t = type(e)
    if t is Var:
        return operator.itemgetter(scope[e.name])
    if t is Let:
        bound = _compile(e.bound, scope, depth, types)
        body = _compile(e.body, _bind(scope, depth, e.name), depth + 1, types)
        return lambda env: body(env + (bound(env),))
    if t is Lam:
        body = _compile(e.body, _bind(scope, depth, e.param), depth + 1, types)
        return lambda env: lambda v: body(env + (v,))
    if t is LitUnit:
        return _const(V_UNIT)
    if t is App:
        fn = _compile(e.fn, scope, depth, types)
        arg = _compile(e.arg, scope, depth, types)
        return lambda env: fn(env)(arg(env))
    if t is LitInt:
        return _const(VInt(e.value))
    if t is AllocE:
        tag, init = types[id(e.init)], _compile(e.init, scope, depth, types)
        return lambda env: env[0].alloc(tag, init(env))
    if t is AssignE:
        ref = _compile(e.ref, scope, depth, types)
        value = _compile(e.value, scope, depth, types)

        def assign(env):
            env[0].write(ref(env), value(env))
            return V_UNIT

        return assign
    if t is Fst or t is Snd:
        pair = _compile(e.pair, scope, depth, types)
        if t is Fst:
            return lambda env: pair(env).first
        return lambda env: pair(env).second
    if t is DerefE:
        ref = _compile(e.ref, scope, depth, types)
        return lambda env: env[0].read(ref(env))
    if t is BinOp:
        op, box = _BINOP_IMPL[e.op]
        left = _compile(e.left, scope, depth, types)
        right = _compile(e.right, scope, depth, types)
        return lambda env: box(op(left(env).value, right(env).value))
    if t is LLConsE:
        head = _compile(e.head, scope, depth, types)
        tail = _compile(e.tail, scope, depth, types)
        return lambda env: VLLCons(head(env), tail(env).addr)
    if t is LLNilE:
        return _const(V_NIL)
    if t is CaseLL:
        tag, scrut = types[id(e.scrut)], _compile(e.scrut, scope, depth, types)
        nil = _compile(e.nil_branch, scope, depth, types)
        cons = _compile(e.cons_branch, _bind(scope, depth, e.hname, e.tname), depth + 2, types)

        def casell(env):
            s = scrut(env)
            if isinstance(s, VLLNil):
                return nil(env)
            return cons(env + (s.head, VRef(s.tail, tag)))

        return casell
    if t is If:
        cond = _compile(e.cond, scope, depth, types)
        then = _compile(e.then, scope, depth, types)
        other = _compile(e.other, scope, depth, types)
        return lambda env: then(env) if cond(env).value else other(env)
    if t is LitBool:
        return _const(VBool(e.value))
    if t is PairE:
        first = _compile(e.first, scope, depth, types)
        second = _compile(e.second, scope, depth, types)
        return lambda env: VPair(first(env), second(env))
    if t is InlE or t is InrE:
        box = VInl if t is InlE else VInr
        payload = _compile(e.payload, scope, depth, types)
        return lambda env: box(payload(env))
    if t is Case:
        scrut = _compile(e.scrut, scope, depth, types)
        left = _compile(e.lbranch, _bind(scope, depth, e.lname), depth + 1, types)
        right = _compile(e.rbranch, _bind(scope, depth, e.rname), depth + 1, types)

        def case(env):
            s = scrut(env)
            return (left if isinstance(s, VInl) else right)(env + (s.payload,))

        return case
    raise TargetTypeError("Mismatch", f"not an expression: {e!r}")


def compile_closures(e: Expr, types: dict) -> Callable[[CtxOps], Any]:
    """The closure backend: a builder from the build's CtxOps to e's value,
    for a term without a `fix`; `compile_term` sends it no other."""
    code = _compile(e, {}, 1, types)
    return lambda ops: code((ops,))


# ---------------------------------------------------------------------------
# compilation to Python functions
#
# The term becomes a `build(ops)` function holding one `def` per `lam` and
# `fix`.  It is made as `ast` nodes, because as source text blocks nested
# past 100 levels are an IndentationError.  Each binder and each non-trivial
# node's value is a local with its own name, assigned once, so operands run
# in the closure compiler's order and a `let` needs no assignment.  Tags,
# literals and the value constructors are globals of a namespace made per
# compile; every effect is still a call of the build's CtxOps.

_LOAD, _STORE = ast.Load(), ast.Store()
_AT = {"lineno": 1, "col_offset": 0}
_PY_GLOBALS = {
    "VInt": VInt, "VPair": VPair, "VInl": VInl, "VInr": VInr, "VLLCons": VLLCons,
    "VLLNil": VLLNil, "VRef": VRef, "V_UNIT": V_UNIT, "V_NIL": V_NIL,
    "V_TRUE": V_TRUE, "V_FALSE": V_FALSE, "weakref": weakref.ref,
}
_PY_ARITH = {"+": ast.Add(), "-": ast.Sub(), "*": ast.Mult()}
_PY_COMPARE = {"=": ast.Eq(), "<": ast.Lt(), "<=": ast.LtE()}


def _load(name: str) -> ast.Name:
    return ast.Name(name, _LOAD, **_AT)


def _assign(name: str, value: ast.expr) -> ast.Assign:
    return ast.Assign([ast.Name(name, _STORE, **_AT)], value, **_AT)


def _call(fn: str, *args: ast.expr) -> ast.Call:
    return ast.Call(_load(fn), list(args), [], **_AT)


def _field(name: str, field: str) -> ast.Attribute:
    return ast.Attribute(_load(name), field, _LOAD, **_AT)


def _def(name: str, param: str, body: list) -> ast.FunctionDef:
    args = ast.arguments([], [ast.arg(param, **_AT)], None, [], [], None, [])
    return ast.FunctionDef(name, args, body, [], **_AT)


class _PyCode:
    """One compile's names: each local gets a fresh `<hint>_<n>`, which no
    global and no other local can equal, and each constant a global `k<n>`."""

    def __init__(self, types: dict):
        self.types = types
        self.globals = dict(_PY_GLOBALS)
        self._count = itertools.count()

    def local(self, hint: str = "t") -> str:
        return f"{hint if hint.isidentifier() else 't'}_{next(self._count)}"

    def const(self, value) -> ast.Name:
        name = f"k{next(self._count)}"
        self.globals[name] = value
        return _load(name)

    def emit(self, e: Expr, scope: dict, out: list) -> str:
        """Append e's statements to out; return the name that holds its value,
        which stays valid to the end of the enclosing function."""
        t = type(e)
        if t is Var:
            return scope[e.name]
        if t is Let:
            bound = self.emit(e.bound, scope, out)
            return self.emit(e.body, {**scope, e.name: bound}, out)
        if t is LitUnit or t is LLNilE:
            return "V_UNIT" if t is LitUnit else "V_NIL"
        if t is LitInt:
            return self.const(VInt(e.value)).id
        if t is LitBool:
            return "V_TRUE" if e.value else "V_FALSE"
        if t is Lam or t is Fix:
            return self.function(e, scope, out)
        if t is AssignE:
            ref, value = self.emit(e.ref, scope, out), self.emit(e.value, scope, out)
            out.append(ast.Expr(_call("write", _load(ref), _load(value)), **_AT))
            return "V_UNIT"
        if t is If:
            cond = self.emit(e.cond, scope, out)
            return self.branches(out, _field(cond, "value"),
                                 (e.then, scope, []), (e.other, scope, []))
        if t is CaseLL:
            s = self.emit(e.scrut, scope, out)
            h, tl = self.local(e.hname), self.local(e.tname)
            tail = _call("VRef", _field(s, "tail"), self.const(self.types[id(e.scrut)]))
            return self.branches(
                out, _call("isinstance", _load(s), _load("VLLNil")),
                (e.nil_branch, scope, []),
                (e.cons_branch, {**scope, e.hname: h, e.tname: tl},
                 [_assign(h, _field(s, "head")), _assign(tl, tail)]))
        if t is Case:
            s = self.emit(e.scrut, scope, out)
            left, right = self.local(e.lname), self.local(e.rname)
            return self.branches(
                out, _call("isinstance", _load(s), _load("VInl")),
                (e.lbranch, {**scope, e.lname: left}, [_assign(left, _field(s, "payload"))]),
                (e.rbranch, {**scope, e.rname: right}, [_assign(right, _field(s, "payload"))]))
        name = self.local()
        out.append(_assign(name, self.value(e, t, scope, out)))
        return name

    def value(self, e: Expr, t: type, scope: dict, out: list) -> ast.expr:
        """The expression for a node that computes its value from its
        operands' names, after appending the operands' statements."""
        if t is App:
            fn = self.emit(e.fn, scope, out)
            return _call(fn, _load(self.emit(e.arg, scope, out)))
        if t is AllocE:
            init = self.emit(e.init, scope, out)
            return _call("alloc", self.const(self.types[id(e.init)]), _load(init))
        if t is DerefE:
            return _call("read", _load(self.emit(e.ref, scope, out)))
        if t is Fst or t is Snd:
            return _field(self.emit(e.pair, scope, out), "first" if t is Fst else "second")
        if t is BinOp:
            left = _field(self.emit(e.left, scope, out), "value")
            right = _field(self.emit(e.right, scope, out), "value")
            if e.op in _PY_ARITH:
                return _call("VInt", ast.BinOp(left, _PY_ARITH[e.op], right, **_AT))
            test = ast.Compare(left, [_PY_COMPARE[e.op]], [right], **_AT)
            return ast.IfExp(test, _load("V_TRUE"), _load("V_FALSE"), **_AT)
        if t is LLConsE:
            head = self.emit(e.head, scope, out)
            return _call("VLLCons", _load(head), _field(self.emit(e.tail, scope, out), "addr"))
        if t is PairE:
            first = self.emit(e.first, scope, out)
            return _call("VPair", _load(first), _load(self.emit(e.second, scope, out)))
        if t is InlE or t is InrE:
            return _call("VInl" if t is InlE else "VInr", _load(self.emit(e.payload, scope, out)))
        raise TargetTypeError("Mismatch", f"not an expression: {e!r}")

    def branches(self, out: list, test: ast.expr, *arms) -> str:
        """An `if test` whose two arms, each a (term, scope, leading
        statements) triple, store their value in one fresh local."""
        result, blocks = self.local(), []
        for e, scope, block in arms:
            block.append(_assign(result, _load(self.emit(e, scope, block))))
            blocks.append(block)
        out.append(ast.If(test, *blocks, **_AT))
        return result

    def function(self, e: Union[Lam, Fix], scope: dict, out: list) -> str:
        """A `def` for a `lam` or `fix`.  A fix ticks on entry and reaches
        itself through a weak reference, so it forms no reference cycle and
        a finished run is freed by reference counting; while it runs, its
        caller holds it."""
        param = self.local(e.param)
        if type(e) is Lam:
            name, body, inner = self.local("lam"), [], {**scope, e.param: param}
        else:
            name, me, self_ = self.local(e.fname), self.local("me"), self.local(e.fname)
            body = [ast.Expr(_call("tick"), **_AT), _assign(self_, _call(me))]
            inner = {**scope, e.fname: self_, e.param: param}
        body.append(ast.Return(_load(self.emit(e.body, inner, body)), **_AT))
        out.append(_def(name, param, body))
        if type(e) is Fix:
            out.append(_assign(me, _call("weakref", _load(name))))
        return name


def compile_python(e: Expr, types: dict, name: str = "ctx") -> Callable[[CtxOps], Any]:
    """The Python backend: a builder from the build's CtxOps to e's value.
    Its code objects carry the file name `<sref:name>`, so a traceback
    through context code names the context."""
    code = _PyCode(types)
    body = [_assign(op, _field("ops", op)) for op in ("tick", "alloc", "read", "write")]
    body.append(ast.Return(_load(code.emit(e, {}, body)), **_AT))
    module = ast.Module([_def("build", "ops", body)], [])
    exec(compile(module, f"<sref:{name}>", "exec"), code.globals)
    # taken out, so the namespace does not hold the function that holds it
    return code.globals.pop("build")


def compile_term(e: Expr, types: dict, name: str = "ctx") -> Callable[[CtxOps], Any]:
    """Compile a checked term, given the node types `typecheck` recorded,
    into a builder: a function from the build's CtxOps to the term's value.
    A term with a `fix` takes the Python backend, any other the closures."""
    if Fix in types:
        return compile_python(e, types, name)
    return compile_closures(e, types)


def elaborate(e: Expr, spec: InterfaceSpec, name: str = "ctx") -> TargetContext:
    """Typecheck e against the interface and package it as a context builder.

    The term compiles on the context's first build, so a context that is
    loaded but never run costs only its typecheck."""
    types: dict = {}
    inferred = typecheck(e, types)
    wanted = spec_type(spec)
    if inferred is not wanted:
        raise InterfaceMismatch(f"context has type {inferred}, interface wants {wanted}")
    compiled = None

    def build(ops: CtxOps):
        nonlocal compiled
        if compiled is None:
            compiled = compile_term(e, types, name)
        return compiled(ops)

    return TargetContext(name=name, builder=build)


def load_sref(text: str, spec: InterfaceSpec, name: str = "ctx") -> TargetContext:
    return elaborate(parse(text), spec, name)


# ---------------------------------------------------------------------------
# random well-typed context generation


def gen_random_context(spec: InterfaceSpec, seed: int, size: int = 40) -> Expr:
    """A seed-deterministic well-typed expression of the interface's type.

    Generation is type-directed with a shrinking budget; when the budget or
    depth runs out it falls back to the smallest canonical term, so every
    call yields a term unless the budget starts non-positive.
    """
    if size <= 0:
        raise GenerationExhausted(f"size budget {size} leaves no room for a term")
    rng = random.Random(seed)
    ty = spec_type(spec)
    budget = [size]
    return _gen(ty, {}, 4, rng, budget)


def _vars_of(env: dict, ty: TypeTag) -> list[str]:
    return sorted(name for name, t in env.items() if t is ty)


def _canonical(ty: TypeTag, env: dict, rng: random.Random) -> Expr:
    names = _vars_of(env, ty)
    if names:
        return Var(rng.choice(names))
    if isinstance(ty, Unit):
        return LitUnit()
    if isinstance(ty, Int):
        return LitInt(rng.randint(-3, 9))
    if isinstance(ty, Bool):
        return LitBool(rng.random() < 0.5)
    if isinstance(ty, Pair):
        return PairE(_canonical(ty.first, env, rng), _canonical(ty.second, env, rng))
    if isinstance(ty, Sum):
        return InlE(ty.right, _canonical(ty.left, env, rng))
    if isinstance(ty, Ref):
        return AllocE(_canonical(ty.target, env, rng))
    if isinstance(ty, LList):
        return LLNilE(ty.elem)
    return Lam("u", ty.arg, _canonical(ty.res, {}, rng))


def _effect_stmt(env: dict, depth: int, rng: random.Random, budget) -> Optional[Expr]:
    """A typeable side-effecting expression, or None if nothing applies."""
    cands = []
    for name, t in sorted(env.items()):
        if isinstance(t, Ref):
            cands.append(("write", name, t))
            cands.append(("stash", name, t))
        if isinstance(t, Arrow):
            cands.append(("call", name, t))
    if not cands:
        return None
    kind, name, t = rng.choice(cands)
    if kind == "write":
        return AssignE(Var(name), _gen(t.target, env, depth - 1, rng, budget))
    if kind == "stash":
        # keep a copy of a reachable reference in fresh storage
        return AllocE(DerefE(Var(name))) if rng.random() < 0.7 else AllocE(Var(name))
    return App(Var(name), _gen(t.arg, env, depth - 1, rng, budget))


def _walker_stmt(env: dict, rng: random.Random) -> Optional[Expr]:
    """A fix-powered chain traversal writing zeros over every element cell."""
    lists = [(n, t) for n, t in sorted(env.items())
             if isinstance(t, Ref) and isinstance(t.target, LList) and t.target.elem is INT]
    if not lists:
        return None
    name, t = rng.choice(lists)
    walk = Fix(
        "walk", "cur", t, UNIT,
        CaseLL(
            DerefE(Var("cur")),
            LitUnit(),
            "h", "tl",
            Let("_w", AssignE(Var("cur"), LLConsE(LitInt(rng.randint(-2, 2)), Var("tl"))),
                App(Var("walk"), Var("tl"))),
        ),
    )
    return App(walk, Var(name))


def _gen(ty: TypeTag, env: dict, depth: int, rng: random.Random, budget) -> Expr:
    budget[0] -= 1
    if budget[0] <= 0 or depth <= 0:
        return _canonical(ty, env, rng)

    # sometimes sequence an effect before producing the value
    if rng.random() < 0.35:
        stmt = _walker_stmt(env, rng) if rng.random() < 0.25 else _effect_stmt(env, depth, rng, budget)
        if stmt is not None:
            rest = _gen(ty, env, depth - 1, rng, budget)
            return Let(f"_s{budget[0]}", stmt, rest)

    names = _vars_of(env, ty)
    roll = rng.random()
    if names and roll < 0.3:
        return Var(rng.choice(names))

    if isinstance(ty, Int):
        choice = rng.random()
        if choice < 0.35:
            return LitInt(rng.randint(-5, 20))
        if choice < 0.55:
            return BinOp(rng.choice(["+", "-", "*"]),
                         _gen(INT, env, depth - 1, rng, budget),
                         _gen(INT, env, depth - 1, rng, budget))
        refs = _vars_of(env, Ref(INT))
        if choice < 0.75 and refs:
            return DerefE(Var(rng.choice(refs)))
        arrows = [n for n, t in sorted(env.items()) if isinstance(t, Arrow) and t.res is INT]
        if arrows:
            fn = rng.choice(arrows)
            return App(Var(fn), _gen(env[fn].arg, env, depth - 1, rng, budget))
        return LitInt(rng.randint(-5, 20))
    if isinstance(ty, Bool):
        if rng.random() < 0.5:
            return LitBool(rng.random() < 0.5)
        return BinOp(rng.choice(["=", "<", "<="]),
                     _gen(INT, env, depth - 1, rng, budget),
                     _gen(INT, env, depth - 1, rng, budget))
    if isinstance(ty, Unit):
        stmt = _effect_stmt(env, depth, rng, budget)
        if stmt is not None and rng.random() < 0.7:
            return Let(f"_u{budget[0]}", stmt, LitUnit())
        return LitUnit()
    if isinstance(ty, Pair):
        return PairE(_gen(ty.first, env, depth - 1, rng, budget),
                     _gen(ty.second, env, depth - 1, rng, budget))
    if isinstance(ty, Sum):
        if rng.random() < 0.5:
            return InlE(ty.right, _gen(ty.left, env, depth - 1, rng, budget))
        return InrE(ty.left, _gen(ty.right, env, depth - 1, rng, budget))
    if isinstance(ty, Ref):
        names = _vars_of(env, ty)
        if names and rng.random() < 0.5:
            return Var(rng.choice(names))
        return AllocE(_gen(ty.target, env, depth - 1, rng, budget))
    if isinstance(ty, LList):
        if rng.random() < 0.4:
            return LLNilE(ty.elem)
        return LLConsE(_gen(ty.elem, env, depth - 1, rng, budget),
                       _gen(Ref(ty), env, depth - 1, rng, budget))
    if isinstance(ty, Arrow):
        param = f"x{len(env)}"
        inner = {**env, param: ty.arg}
        if isinstance(ty.arg, Pair):
            # expose the components so generated bodies actually use them
            a, b = f"{param}a", f"{param}b"
            body_env = {**inner, a: ty.arg.first, b: ty.arg.second}
            body = Let(a, Fst(Var(param)),
                       Let(b, Snd(Var(param)),
                           _gen(ty.res, body_env, depth - 1, rng, budget)))
        else:
            body = _gen(ty.res, inner, depth - 1, rng, budget)
        return Lam(param, ty.arg, body)
    return _canonical(ty, env, rng)


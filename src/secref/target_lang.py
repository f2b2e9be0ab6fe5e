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
compiles it into nested closures on the context's first build
(Feeley and Lapalme, "Using closures for code generation", 1987); a
context that is loaded but never run is never compiled.  Compiled code
recurses on the Python stack, one frame per node between two `fix`
unfoldings: the depth a tree-walking evaluator reaches, no more.
"""
from __future__ import annotations

import operator
import random
import re
import weakref
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Union

from .contracts import ArrowS, BaseS, InterfaceSpec, LListS, PairS, RefS, RefinedS, SumS
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
    V_NIL,
    V_UNIT,
    VBool,
    VInl,
    VInr,
    VInt,
    VLLCons,
    VLLNil,
    VPair,
    VRef,
    is_storable,
)

# ---------------------------------------------------------------------------
# types: the `values` tags, arrows included, so a checked term's types are
# the cell tags its allocations use


def spec_type(spec: InterfaceSpec) -> TypeTag:
    """The type at which untrusted code sees a boundary value."""
    if isinstance(spec, BaseS):
        return spec.tag
    if isinstance(spec, RefS):
        return Ref(spec.target)
    if isinstance(spec, LListS):
        return Ref(LList(spec.elem))
    if isinstance(spec, PairS):
        return Pair(spec_type(spec.first), spec_type(spec.second))
    if isinstance(spec, SumS):
        return Sum(spec_type(spec.left), spec_type(spec.right))
    if isinstance(spec, RefinedS):
        return spec_type(spec.base)
    if isinstance(spec, ArrowS):
        if spec.pre is not None:
            raise InterfaceMismatch(
                "arrows with pre-checks have no plain target type"
            )
        return Arrow(spec_type(spec.arg), spec_type(spec.res))
    raise InterfaceMismatch(f"not an interface spec: {spec!r}")


# ---------------------------------------------------------------------------
# expressions


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    param: str
    param_ty: TypeTag
    body: "Expr"


@dataclass(frozen=True)
class Fix:
    fname: str
    param: str
    param_ty: TypeTag
    res_ty: TypeTag
    body: "Expr"


@dataclass(frozen=True)
class App:
    fn: "Expr"
    arg: "Expr"


@dataclass(frozen=True)
class Let:
    name: str
    bound: "Expr"
    body: "Expr"


@dataclass(frozen=True)
class LitUnit:
    pass


@dataclass(frozen=True)
class LitInt:
    value: int


@dataclass(frozen=True)
class LitBool:
    value: bool


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * = < <=
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class If:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


@dataclass(frozen=True)
class PairE:
    first: "Expr"
    second: "Expr"


@dataclass(frozen=True)
class Fst:
    pair: "Expr"


@dataclass(frozen=True)
class Snd:
    pair: "Expr"


@dataclass(frozen=True)
class InlE:
    right_ty: TypeTag
    payload: "Expr"


@dataclass(frozen=True)
class InrE:
    left_ty: TypeTag
    payload: "Expr"


@dataclass(frozen=True)
class Case:
    scrut: "Expr"
    lname: str
    lbranch: "Expr"
    rname: str
    rbranch: "Expr"


@dataclass(frozen=True)
class AllocE:
    init: "Expr"


@dataclass(frozen=True)
class DerefE:
    ref: "Expr"


@dataclass(frozen=True)
class AssignE:
    ref: "Expr"
    value: "Expr"


@dataclass(frozen=True)
class LLNilE:
    elem_ty: TypeTag


@dataclass(frozen=True)
class LLConsE:
    head: "Expr"
    tail: "Expr"


@dataclass(frozen=True)
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


_INT_RE = re.compile(r"-?[0-9]+$")
_BINOPS = ("+", "-", "*", "=", "<", "<=")


class _Tok(NamedTuple):
    text: str
    line: int
    col: int


# a token is a parenthesis or a run of characters that are neither
# whitespace, parentheses nor `;`; a `;` starts a comment that runs to the
# end of its line
_TOKEN_RE = re.compile(r"[()]|[^\s();]+|;")


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for line, row in enumerate(text.split("\n"), 1):
        for m in _TOKEN_RE.finditer(row):
            tok = m.group()
            if tok == ";":
                break
            toks.append(_Tok(tok, line, m.start() + 1))
    return toks


def _read_sexpr(toks: list[_Tok], pos: int):
    if pos >= len(toks):
        last = toks[-1] if toks else _Tok("", 1, 1)
        raise SrefParseError("unexpected end of input", last.line, last.col)
    tok = toks[pos]
    if tok.text == "(":
        items = []
        pos += 1
        while pos < len(toks) and toks[pos].text != ")":
            item, pos = _read_sexpr(toks, pos)
            items.append(item)
        if pos >= len(toks):
            raise SrefParseError("missing )", tok.line, tok.col)
        return (items, tok), pos + 1
    if tok.text == ")":
        raise SrefParseError("unexpected )", tok.line, tok.col)
    return (tok.text, tok), pos + 1


def _parse_type(sx) -> TypeTag:
    node, tok = sx
    if isinstance(node, str):
        if node == "unit":
            return UNIT
        if node == "int":
            return INT
        if node == "bool":
            return BOOL
        raise SrefParseError(f"unknown type {node!r}", tok.line, tok.col)
    if not node:
        raise SrefParseError("empty type", tok.line, tok.col)
    head = node[0][0]
    if head == "pair" and len(node) == 3:
        return Pair(_parse_type(node[1]), _parse_type(node[2]))
    if head == "sum" and len(node) == 3:
        return Sum(_parse_type(node[1]), _parse_type(node[2]))
    if head == "ref" and len(node) == 2:
        return Ref(_parse_type(node[1]))
    if head == "llist" and len(node) == 2:
        return LList(_parse_type(node[1]))
    if head == "->" and len(node) == 3:
        return Arrow(_parse_type(node[1]), _parse_type(node[2]))
    raise SrefParseError(f"bad type form {head!r}", tok.line, tok.col)


def _binder(sx, what: str) -> tuple[str, "TypeTag"]:
    node, tok = sx
    if not isinstance(node, list) or len(node) != 2 or not isinstance(node[0][0], str):
        raise SrefParseError(f"{what} wants (name type)", tok.line, tok.col)
    return node[0][0], _parse_type(node[1])


def _name_of(sx, what: str) -> str:
    node, tok = sx
    if not isinstance(node, str):
        raise SrefParseError(f"{what} wants a name", tok.line, tok.col)
    return node


def _parse_expr(sx) -> Expr:
    node, tok = sx
    if isinstance(node, str):
        if _INT_RE.match(node):
            return LitInt(int(node))
        if node == "unit":
            return LitUnit()
        if node == "true":
            return LitBool(True)
        if node == "false":
            return LitBool(False)
        return Var(node)
    if not node:
        raise SrefParseError("empty form", tok.line, tok.col)
    head = node[0][0]

    def arity(n):
        if len(node) != n + 1:
            raise SrefParseError(f"{head} wants {n} argument(s)", tok.line, tok.col)

    if isinstance(head, str):
        if head == "lam":
            arity(2)
            param, ty = _binder(node[1], "lam")
            return Lam(param, ty, _parse_expr(node[2]))
        if head == "fix":
            arity(4)
            fname = _name_of(node[1], "fix")
            param, ty = _binder(node[2], "fix")
            return Fix(fname, param, ty, _parse_type(node[3]), _parse_expr(node[4]))
        if head == "let":
            arity(2)
            inner, itok = node[1]
            if not isinstance(inner, list) or len(inner) != 2:
                raise SrefParseError("let wants (name expr)", itok.line, itok.col)
            return Let(_name_of(inner[0], "let"), _parse_expr(inner[1]), _parse_expr(node[2]))
        if head in _BINOPS:
            arity(2)
            return BinOp(head, _parse_expr(node[1]), _parse_expr(node[2]))
        if head == "if":
            arity(3)
            return If(_parse_expr(node[1]), _parse_expr(node[2]), _parse_expr(node[3]))
        if head == "pair":
            arity(2)
            return PairE(_parse_expr(node[1]), _parse_expr(node[2]))
        if head == "fst":
            arity(1)
            return Fst(_parse_expr(node[1]))
        if head == "snd":
            arity(1)
            return Snd(_parse_expr(node[1]))
        if head == "inl":
            arity(2)
            return InlE(_parse_type(node[1]), _parse_expr(node[2]))
        if head == "inr":
            arity(2)
            return InrE(_parse_type(node[1]), _parse_expr(node[2]))
        if head == "case":
            arity(3)
            ln, ltok = node[2]
            rn, rtok = node[3]
            if not (isinstance(ln, list) and len(ln) == 2):
                raise SrefParseError("case wants (name expr) branches", ltok.line, ltok.col)
            if not (isinstance(rn, list) and len(rn) == 2):
                raise SrefParseError("case wants (name expr) branches", rtok.line, rtok.col)
            return Case(
                _parse_expr(node[1]),
                _name_of(ln[0], "case"), _parse_expr(ln[1]),
                _name_of(rn[0], "case"), _parse_expr(rn[1]),
            )
        if head == "alloc":
            arity(1)
            return AllocE(_parse_expr(node[1]))
        if head == "!":
            arity(1)
            return DerefE(_parse_expr(node[1]))
        if head == ":=":
            arity(2)
            return AssignE(_parse_expr(node[1]), _parse_expr(node[2]))
        if head == "llnil":
            arity(1)
            return LLNilE(_parse_type(node[1]))
        if head == "llcons":
            arity(2)
            return LLConsE(_parse_expr(node[1]), _parse_expr(node[2]))
        if head == "casell":
            arity(3)
            cn, ctok = node[3]
            if not (isinstance(cn, list) and len(cn) == 3):
                raise SrefParseError(
                    "casell wants (head tail expr) as the cons branch", ctok.line, ctok.col
                )
            return CaseLL(
                _parse_expr(node[1]),
                _parse_expr(node[2]),
                _name_of(cn[0], "casell"),
                _name_of(cn[1], "casell"),
                _parse_expr(cn[2]),
            )
    # anything else is application
    expr = _parse_expr(node[0])
    for arg in node[1:]:
        expr = App(expr, _parse_expr(arg))
    return expr


def parse(text: str) -> Expr:
    toks = _tokenize(text)
    if not toks:
        raise SrefParseError("empty input", 1, 1)
    sx, pos = _read_sexpr(toks, 0)
    if pos != len(toks):
        extra = toks[pos]
        raise SrefParseError("trailing tokens", extra.line, extra.col)
    return _parse_expr(sx)


# ---------------------------------------------------------------------------
# typechecker


def _validate_annotation(t: TypeTag) -> None:
    if isinstance(t, (Ref, LList)):
        # is_storable walks the whole payload, so no nested check is left
        if not is_storable(t):
            raise TargetTypeError("FunctionInStore", f"{t} stores a function type")
    elif isinstance(t, Pair):
        _validate_annotation(t.first)
        _validate_annotation(t.second)
    elif isinstance(t, Sum):
        _validate_annotation(t.left)
        _validate_annotation(t.right)
    elif isinstance(t, Arrow):
        _validate_annotation(t.arg)
        _validate_annotation(t.res)


def typecheck(e: Expr, env: Optional[dict] = None, types: Optional[dict] = None) -> TypeTag:
    """Infer the type of e, raising TargetTypeError with a reason on failure.

    When a `types` dict is supplied it is filled with id(node) -> type for
    every subexpression; the compiler uses it for allocation tags.
    """
    env = env or {}
    types = types if types is not None else {}

    def expect(t, want, what):
        if t != want:
            raise TargetTypeError("Mismatch", f"{what}: expected {want}, found {t}")

    def go(e, env) -> TypeTag:
        if isinstance(e, Var):
            if e.name not in env:
                raise TargetTypeError("UnboundVar", f"unknown name {e.name!r}")
            t = env[e.name]
        elif isinstance(e, Lam):
            _validate_annotation(e.param_ty)
            t = Arrow(e.param_ty, go(e.body, {**env, e.param: e.param_ty}))
        elif isinstance(e, Fix):
            _validate_annotation(e.param_ty)
            _validate_annotation(e.res_ty)
            fty = Arrow(e.param_ty, e.res_ty)
            body_t = go(e.body, {**env, e.fname: fty, e.param: e.param_ty})
            expect(body_t, e.res_ty, "fix body")
            t = fty
        elif isinstance(e, App):
            fn_t = go(e.fn, env)
            if not isinstance(fn_t, Arrow):
                raise TargetTypeError("NotAFunction", f"cannot apply {fn_t}")
            arg_t = go(e.arg, env)
            expect(arg_t, fn_t.arg, "application argument")
            t = fn_t.res
        elif isinstance(e, Let):
            t = go(e.body, {**env, e.name: go(e.bound, env)})
        elif isinstance(e, LitUnit):
            t = UNIT
        elif isinstance(e, LitInt):
            t = INT
        elif isinstance(e, LitBool):
            t = BOOL
        elif isinstance(e, BinOp):
            expect(go(e.left, env), INT, f"left operand of {e.op}")
            expect(go(e.right, env), INT, f"right operand of {e.op}")
            t = INT if e.op in ("+", "-", "*") else BOOL
        elif isinstance(e, If):
            expect(go(e.cond, env), BOOL, "if condition")
            t = go(e.then, env)
            expect(go(e.other, env), t, "else branch")
        elif isinstance(e, PairE):
            t = Pair(go(e.first, env), go(e.second, env))
        elif isinstance(e, Fst):
            pt = go(e.pair, env)
            if not isinstance(pt, Pair):
                raise TargetTypeError("NotAPair", f"fst of {pt}")
            t = pt.first
        elif isinstance(e, Snd):
            pt = go(e.pair, env)
            if not isinstance(pt, Pair):
                raise TargetTypeError("NotAPair", f"snd of {pt}")
            t = pt.second
        elif isinstance(e, InlE):
            _validate_annotation(e.right_ty)
            t = Sum(go(e.payload, env), e.right_ty)
        elif isinstance(e, InrE):
            _validate_annotation(e.left_ty)
            t = Sum(e.left_ty, go(e.payload, env))
        elif isinstance(e, Case):
            st = go(e.scrut, env)
            if not isinstance(st, Sum):
                raise TargetTypeError("NotASum", f"case of {st}")
            t = go(e.lbranch, {**env, e.lname: st.left})
            expect(go(e.rbranch, {**env, e.rname: st.right}), t, "case branches")
        elif isinstance(e, AllocE):
            it = go(e.init, env)
            if not is_storable(it):
                raise TargetTypeError("FunctionInStore", f"cannot store {it}")
            t = Ref(it)
        elif isinstance(e, DerefE):
            rt = go(e.ref, env)
            if not isinstance(rt, Ref):
                raise TargetTypeError("NotARef", f"dereference of {rt}")
            t = rt.target
        elif isinstance(e, AssignE):
            rt = go(e.ref, env)
            if not isinstance(rt, Ref):
                raise TargetTypeError("NotARef", f"assignment to {rt}")
            expect(go(e.value, env), rt.target, "assignment value")
            t = UNIT
        elif isinstance(e, LLNilE):
            _validate_annotation(e.elem_ty)
            if not is_storable(e.elem_ty):
                raise TargetTypeError("FunctionInStore", f"cannot store {e.elem_ty}")
            t = LList(e.elem_ty)
        elif isinstance(e, LLConsE):
            ht = go(e.head, env)
            tt = go(e.tail, env)
            if tt != Ref(LList(ht)):
                raise TargetTypeError(
                    "Mismatch", f"llcons tail: expected (ref (llist {ht})), found {tt}"
                )
            t = LList(ht)
        elif isinstance(e, CaseLL):
            st = go(e.scrut, env)
            if not isinstance(st, LList):
                raise TargetTypeError("NotAList", f"casell of {st}")
            t = go(e.nil_branch, env)
            cons_env = {**env, e.hname: st.elem, e.tname: Ref(st)}
            expect(go(e.cons_branch, cons_env), t, "casell branches")
        else:
            raise TargetTypeError("Mismatch", f"not an expression: {e!r}")
        types[id(e)] = t
        return t

    return go(e, env)


# ---------------------------------------------------------------------------
# compilation to closures
#
# A checked term compiles once into nested closures.  Each takes the run's
# environment, a tuple: slot 0 holds the CtxOps of the build, slot i > 0 the
# value of the i-th enclosing binder, so a variable is an index fixed at
# compile time.  Node dispatch and the tags of `alloc` and `casell` are
# resolved at compile time as well; at run time a node costs one call.

_BINOP_IMPL = {
    "+": (operator.add, VInt),
    "-": (operator.sub, VInt),
    "*": (operator.mul, VInt),
    "=": (operator.eq, VBool),
    "<": (operator.lt, VBool),
    "<=": (operator.le, VBool),
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
    if t is Fix:
        body = _compile(e.body, _bind(scope, depth, e.fname, e.param), depth + 2, types)

        def fix(env):
            ops = env[0]

            def fn(v):
                ops.tick()
                return body(env + (me(), v))

            # a weak self-reference keeps fn out of a reference cycle, so a
            # finished run is freed by reference counting; while fn runs, its
            # caller holds it
            me = weakref.ref(fn)
            return fn

        return fix
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


def compile_term(e: Expr, types: dict) -> Callable[[CtxOps], Any]:
    """Compile a checked term, given the node types `typecheck` recorded,
    into a builder: a function from the build's CtxOps to the term's value."""
    code = _compile(e, {}, 1, types)
    return lambda ops: code((ops,))


def elaborate(e: Expr, spec: InterfaceSpec, name: str = "ctx") -> TargetContext:
    """Typecheck e against the interface and package it as a context builder.

    The term compiles on the context's first build, so a context that is
    loaded but never run costs only its typecheck."""
    types: dict = {}
    inferred = typecheck(e, {}, types)
    wanted = spec_type(spec)
    if inferred != wanted:
        raise InterfaceMismatch(f"context has type {inferred}, interface wants {wanted}")
    compiled = None

    def build(ops: CtxOps):
        nonlocal compiled
        if compiled is None:
            compiled = compile_term(e, types)
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
    return sorted(name for name, t in env.items() if t == ty)


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
             if isinstance(t, Ref) and isinstance(t.target, LList) and t.target.elem == INT]
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
        arrows = [n for n, t in sorted(env.items()) if isinstance(t, Arrow) and t.res == INT]
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


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

import itertools
import operator
import random
import re
import weakref
from dataclasses import dataclass
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
    is_storable,
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
# recurses once per level of the term and of its inferred types.
MAX_DEPTH = 200


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
        if t is not want and t != want:
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
            _validate_annotation(e.param_ty)
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
            it = go(e.init, env)
            if not is_storable(it):
                raise TargetTypeError("FunctionInStore", f"cannot store {it}")
            t = Ref(it)
        elif k is LLConsE:
            ht = go(e.head, env)
            tt = go(e.tail, env)
            if tt != Ref(LList(ht)):
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
            _validate_annotation(e.param_ty)
            _validate_annotation(e.res_ty)
            fty = Arrow(e.param_ty, e.res_ty)
            body_t = go(e.body, {**env, e.fname: fty, e.param: e.param_ty})
            expect(body_t, e.res_ty, "fix body")
            t = fty
        elif k is LitBool:
            t = BOOL
        elif k is LLNilE:
            _validate_annotation(e.elem_ty)
            if not is_storable(e.elem_ty):
                raise TargetTypeError("FunctionInStore", f"cannot store {e.elem_ty}")
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
            _validate_annotation(e.right_ty)
            t = Sum(go(e.payload, env), e.right_ty)
        elif k is InrE:
            _validate_annotation(e.left_ty)
            t = Sum(e.left_ty, go(e.payload, env))
        elif k is Case:
            st = go(e.scrut, env)
            if type(st) is not Sum:
                raise TargetTypeError("NotASum", f"case of {st}")
            t = go(e.lbranch, {**env, e.lname: st.left})
            expect(go(e.rbranch, {**env, e.rname: st.right}), t, "case branches")
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


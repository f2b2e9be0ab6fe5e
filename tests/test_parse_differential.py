"""The parser against the reader it replaced.

The oracle below is the recursive front end `secref.target_lang` had before
its tokens became plain strings: one `_Tok` with line and column per token,
and a recursive `_read_sexpr`.  Over the shipped contexts and a seeded corpus
of mutated texts, `parse` must give the same `Expr`, or an error with the
same message, line and column.  The one message that differs on purpose is
the one for a type form whose head is itself a form: the oracle prints its
reader's internal structure there.
"""
import random
import re
from pathlib import Path
from typing import NamedTuple

import pytest

import secref
from secref.errors import SrefParseError
from secref.target_lang import (
    AllocE,
    App,
    AssignE,
    BinOp,
    Case,
    CaseLL,
    DerefE,
    Expr,
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
    parse,
)
from secref.values import BOOL, INT, UNIT, Arrow, LList, Pair, Ref, Sum, TypeTag

CONTEXTS = Path(secref.__file__).parent / "contexts"
SHIPPED = sorted(CONTEXTS.glob("*.sref"))

# ---------------------------------------------------------------------------
# oracle


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


def oracle_parse(text: str) -> Expr:
    toks = _tokenize(text)
    if not toks:
        raise SrefParseError("empty input", 1, 1)
    sx, pos = _read_sexpr(toks, 0)
    if pos != len(toks):
        extra = toks[pos]
        raise SrefParseError("trailing tokens", extra.line, extra.col)
    return _parse_expr(sx)


# ---------------------------------------------------------------------------
# differential checks


def _outcome(parser, text):
    try:
        return parser(text)
    except SrefParseError as err:
        return (str(err), err.line, err.col)


def _outcomes(text):
    return _outcome(oracle_parse, text), _outcome(parse, text)


def _agree(want, got) -> bool:
    if want == got:
        return True
    # the reworded message for a type form headed by a form, at the same place
    return (
        isinstance(want, tuple) and isinstance(got, tuple)
        and want[1:] == got[1:]
        and "bad type form [" in want[0]
        and got[0].endswith("bad type form: its head is a form, not a type name")
    )


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_contexts_parse_to_the_oracles_terms(path):
    text = path.read_text()
    expr = oracle_parse(text)
    assert parse(text) == expr


EDIT_CHARS = "();\n\t"


def _mutate(text: str, rng: random.Random) -> str:
    """text with one to three parentheses, `;`, newlines or tabs inserted or
    deleted."""
    for _ in range(rng.randint(1, 3)):
        spots = [i for i, c in enumerate(text) if c in EDIT_CHARS]
        if spots and rng.random() < 0.5:
            i = rng.choice(spots)
            text = text[:i] + text[i + 1:]
        else:
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(EDIT_CHARS) + text[i:]
    return text


def test_mutated_texts_parse_or_fail_as_the_oracle_does():
    rng = random.Random(2026)
    texts = [p.read_text() for p in SHIPPED]
    outcomes = {"expr": 0, "error": 0}
    disagree = []
    for _ in range(3000):
        text = _mutate(rng.choice(texts), rng)
        want, got = _outcomes(text)
        if not _agree(want, got):
            disagree.append(text)
        outcomes["error" if isinstance(got, tuple) else "expr"] += 1
    assert disagree == []
    # the corpus exercises both outcomes, not only one
    assert min(outcomes.values()) > 100, outcomes


@pytest.mark.parametrize("text", [
    "", "  ; only a comment", ")", "x y", "(a) b", "(a (b", "(a (b) (c", "()",
    "(lam x x)", "(lam (x) x)", "(lam ((x) int) x)", "(lam (x ()) x)",
    "(lam (next ((-) unit int)) 7)", "(lam (x (pair int)) x)", "(fix (f) (x int) int x)",
    "(let x 1)", "(let ((x) 1) x)", "(case x y z)", "(case x (a b) z)",
    "(casell x y (h t))", "(casell x y ((h) t e))", "(+ 1)", "(if 1 2)",
    "(f)", "((f))", "(((f) 1) (g 2 3))", "(inl (sum) 1)", "(llnil (ref (-> int int)))",
    "x\r\n(", "\u00a0(f\u2028x)\x0b",
    # two faults in one form: the first in reading order is reported
    "(let ((x) 1) ())", "(case () (a ()) (b 1))", "(fix (f) (x) () ())",
])
def test_edge_cases_agree_with_the_oracle(text):
    assert _agree(*_outcomes(text))

"""Seeded value samplers for the property suites.

Everything takes an explicit random.Random so campaigns and tests replay
byte-for-byte from a seed.
"""
from __future__ import annotations

import random

from .heap import Preorder
from .values import (
    BOOL,
    INT,
    UNIT,
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
    VPair,
    VRef,
    Value,
)


def sample_tag(rng: random.Random, depth: int = 2, with_refs: bool = True) -> TypeTag:
    choices = ["unit", "int", "bool"]
    if depth > 0:
        choices += ["sum", "pair"]
        if with_refs:
            choices += ["ref", "llist"]
    pick = rng.choice(choices)
    if pick == "unit":
        return UNIT
    if pick == "int":
        return INT
    if pick == "bool":
        return BOOL
    if pick == "sum":
        return Sum(sample_tag(rng, depth - 1, with_refs), sample_tag(rng, depth - 1, with_refs))
    if pick == "pair":
        return Pair(sample_tag(rng, depth - 1, with_refs), sample_tag(rng, depth - 1, with_refs))
    if pick == "ref":
        return Ref(sample_tag(rng, depth - 1, with_refs))
    return LList(sample_tag(rng, depth - 1, with_refs))


def sample_value(tag: TypeTag, rng: random.Random, addr_pool=(1, 2, 3)) -> Value:
    """A conforming value; embedded addresses are drawn from addr_pool."""
    if isinstance(tag, Unit):
        return V_UNIT
    if isinstance(tag, Int):
        return VInt(rng.randint(-50, 50))
    if isinstance(tag, Bool):
        return VBool(rng.random() < 0.5)
    if isinstance(tag, Sum):
        if rng.random() < 0.5:
            return VInl(sample_value(tag.left, rng, addr_pool))
        return VInr(sample_value(tag.right, rng, addr_pool))
    if isinstance(tag, Pair):
        return VPair(
            sample_value(tag.first, rng, addr_pool),
            sample_value(tag.second, rng, addr_pool),
        )
    if isinstance(tag, Ref):
        return VRef(rng.choice(list(addr_pool)), tag.target)
    if rng.random() < 0.4:
        return V_NIL
    return VLLCons(sample_value(tag.elem, rng, addr_pool), rng.choice(list(addr_pool)))


def sample_for_preorder(p: Preorder, rng: random.Random) -> Value:
    """A value from the domain each registered preorder is used at."""
    if p.name == "trivial":
        return sample_value(sample_tag(rng, depth=1, with_refs=False), rng)
    if p.name == "int_leq":
        return VInt(rng.randint(-20, 20))
    if p.name == "none_then_fixed":
        if rng.random() < 0.4:
            return VInl(V_UNIT)
        return VInr(VInt(rng.randint(0, 10)))
    if p.name == "nil_then_fixed":
        if rng.random() < 0.4:
            return V_NIL
        return VLLCons(VInt(rng.randint(0, 10)), rng.randint(1, 4))
    if p.name == "hist_prefix":
        first = V_NIL if rng.random() < 0.4 else VLLCons(VInt(rng.randint(0, 8)), rng.randint(1, 4))
        return VPair(first, VPair(VInt(rng.randint(0, 8)), VInt(rng.randint(0, 8))))
    return VInt(rng.randint(-20, 20))


def preorder_laws(p: Preorder, rng: random.Random, samples: int = 60):
    """Check reflexivity and transitivity on sampled values.

    Returns a list of human-readable violations (empty when the laws hold).
    """
    bad = []
    values = [sample_for_preorder(p, rng) for _ in range(samples)]
    for v in values:
        if not p.holds(v, v):
            bad.append(f"{p.name} not reflexive at {v!r}")
    for _ in range(samples * 4):
        a, b, c = (rng.choice(values) for _ in range(3))
        if p.holds(a, b) and p.holds(b, c) and not p.holds(a, c):
            bad.append(f"{p.name} not transitive at {a!r}, {b!r}, {c!r}")
    return bad

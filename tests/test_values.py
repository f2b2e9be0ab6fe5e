import copy
import pickle
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass

import pytest

from secref import values
from secref.campaigns import campaign_universal
from secref.contracts import ArrowS, BaseS, PairS
from secref.errors import FrozenRecordError, TypeMismatch, Uncontained
from secref.heap import EMPTY_HEAP, NIL_THEN_FIXED, TRIVIAL, alloc, write
from secref.sampling import sample_tag, sample_value
from secref.target_lang import parse, spec_type, typecheck
from secref.values import (
    BOOL,
    INT,
    Arrow,
    Bool,
    Int,
    LList,
    Pair,
    Ref,
    Sum,
    UNIT,
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
    VUnit,
    conforms,
    llist_collect,
    llist_sorted,
    ref_entries,
)


def test_importing_the_cli_and_campaigns_loads_no_dataclasses_inspect_or_importlib_resources():
    # records are made by values.record, which generates one __init__ per
    # class and nothing else; shipped contexts are found beside the package,
    # without importlib.resources and the tempfile and shutil it pulls in
    src = os.path.dirname(os.path.dirname(values.__file__))
    unwanted = {"dataclasses", "inspect", "importlib.resources", "tempfile", "shutil"}
    probe = ("import sys, secref.cli, secref.campaigns; "
             f"print(sorted({unwanted!r} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"


def test_values_are_slotted_hashable_and_equal_by_value():
    def build():
        return [V_UNIT, VInt(3), VBool(True), VInl(VInt(1)), VInr(V_UNIT),
                VPair(VInt(1), VRef(2, INT)), VRef(2, INT), V_NIL, VLLCons(VInt(1), 4)]

    first, second = build(), build()
    assert {type(v) for v in first} == {VUnit, VInt, VBool, VInl, VInr, VPair, VRef,
                                        VLLNil, VLLCons}
    for v, same in zip(first, second):
        assert not hasattr(v, "__dict__")
        assert v == same and hash(v) == hash(same)
        for name in v._fields:
            with pytest.raises(FrozenRecordError):
                setattr(v, name, V_UNIT)
        with pytest.raises(FrozenRecordError):
            v.extra = 0
    assert len(set(first + second)) == len(first)
    assert VBool(True) == V_TRUE and VBool(False) == V_FALSE
    assert V_TRUE != V_FALSE and V_TRUE.value is True and V_FALSE.value is False


def test_conforms_int():
    assert conforms(VInt(3), INT)


def test_conforms_pair_with_ref():
    v = VPair(VInt(1), VRef(2, INT))
    assert conforms(v, Pair(INT, Ref(INT)))


def test_conforms_rejects_wrong_shape():
    assert not conforms(VInl(V_UNIT), INT)
    assert not conforms(VRef(1, INT), Ref(BOOL))
    assert not conforms(VBool(True), UNIT)


@pytest.mark.parametrize("v, t", [
    (VInt(True), INT), (VInt(1.5), INT), (VInt("a"), INT), (VBool(1), BOOL),
    (VRef(True, INT), Ref(INT)), (VRef("x", INT), Ref(INT)),
    (VLLCons(VInt(1), "x"), LList(INT)), (VLLCons(VInt(1), True), LList(INT)),
    (VLLCons(VInt("a"), 1), LList(INT)), (VPair(VInt(0), VRef(1.0, INT)), Pair(INT, Ref(INT))),
], ids=repr)
def test_a_payload_of_the_wrong_host_type_does_not_conform(v, t):
    # a bool is an int to Python, but not an int payload or address here
    assert not conforms(v, t)
    with pytest.raises(TypeMismatch, match="does not conform"):
        ref_entries(t, v)


def test_no_value_conforms_to_an_arrow():
    fn = Arrow(INT, INT)
    for v in (VInt(1), V_UNIT, VRef(1, INT), VPair(VInt(1), VInt(2))):
        assert not conforms(v, fn)
    with pytest.raises(TypeMismatch):
        list(ref_entries(fn, VInt(1)))


TAG_CLASSES = (Unit, Int, Bool, Sum, Pair, Ref, LList, Arrow)


def test_a_tag_is_equal_only_to_itself():
    for cls in TAG_CLASSES:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
    assert Unit() is UNIT and Int() is INT and Bool() is BOOL
    assert Pair(Int(), Ref(LList(Bool()))) is Pair(INT, Ref(LList(BOOL)))
    assert Sum(INT, UNIT) is not Sum(UNIT, INT) and Sum(INT, UNIT) != Pair(INT, UNIT)


def test_copy_deepcopy_and_pickle_return_the_interned_tag():
    composite = {Sum: (INT, UNIT), Pair: (INT, BOOL), Ref: (LList(INT),),
                 LList: (Pair(INT, Ref(INT)),), Arrow: (Ref(INT), Sum(BOOL, UNIT))}
    for cls in TAG_CLASSES:
        tag = cls(*composite.get(cls, ()))
        for same in (copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))):
            assert same(tag) is tag, (cls, same)


def test_the_same_type_built_twice_is_the_same_object():
    text = "(lam (x (ref (llist (pair int (sum bool unit))))) (pair (! x) (alloc 1)))"
    first, second = parse(text), parse(text)
    elems = LList(Pair(INT, Sum(BOOL, UNIT)))
    assert first.param_ty is second.param_ty is Ref(elems)
    # typecheck builds the pair and ref types of each run afresh
    assert typecheck(first) is typecheck(second) is Arrow(Ref(elems), Pair(elems, Ref(INT)))
    spec = ArrowS(PairS(BaseS(Ref(INT)), BaseS(BOOL)), BaseS(UNIT))
    assert spec_type(spec) is spec_type(spec) is typecheck(parse("(lam (p (pair (ref int) bool)) unit)"))
    rngs = random.Random(5), random.Random(5)
    for _ in range(200):
        assert sample_tag(rngs[0], depth=3) is sample_tag(rngs[1], depth=3)


def test_tags_refuse_attribute_writes():
    fn = Arrow(INT, Ref(INT))
    for t in (UNIT, Sum(INT, BOOL), Pair(UNIT, fn), Ref(INT), LList(INT), fn):
        assert not hasattr(t, "__dict__")
        for name in [*t._fields, "storable", "well_formed", "depth", "size", "x"]:
            with pytest.raises(FrozenRecordError):
                setattr(t, name, INT)
    assert fn.arg is INT and fn.res is Ref(INT) and not fn.storable


def test_a_wrong_number_of_children_is_refused_before_anything_is_cached():
    before = len(values._TAGS)
    for build in (lambda: Pair(INT), lambda: Ref(INT, BOOL), lambda: Unit(INT), lambda: Arrow()):
        with pytest.raises(TypeError, match="children"):
            build()
    assert len(values._TAGS) == before


def test_tag_facts_come_from_the_children():
    fn = Arrow(INT, INT)
    t = Pair(INT, Ref(fn))
    assert (t.storable, t.well_formed, t.depth, t.size) == (False, False, 4, 6)
    assert (fn.storable, fn.well_formed) == (False, True)
    assert Arrow(INT, Ref(INT)).well_formed and not Arrow(INT, LList(fn)).well_formed
    assert Sum(fn, UNIT).well_formed and not LList(Sum(fn, UNIT)).well_formed
    assert (UNIT.storable, UNIT.well_formed, UNIT.depth, UNIT.size) == (True, True, 1, 1)
    # a DAG: each fact is read off the children, never by walking the tree
    doubled = INT
    for _ in range(60):
        doubled = Pair(doubled, doubled)
    assert (doubled.depth, doubled.size, doubled.storable) == (61, 2 ** 61 - 1, True)


def test_the_tag_table_stays_small_over_a_campaign():
    before = len(values._TAGS)
    assert campaign_universal(trials=200).ok
    after = len(values._TAGS)
    assert after - before <= 64, (before, after)
    # the same campaign again builds no tag the first run did not
    assert campaign_universal(trials=200).ok
    assert len(values._TAGS) == after


def test_is_storable_is_false_for_arrows_nested_anywhere():
    for t in (UNIT, Sum(INT, BOOL), Pair(UNIT, Ref(INT)), LList(Pair(INT, Ref(BOOL)))):
        assert t.storable
    fn = Arrow(UNIT, INT)
    for t in (fn, Pair(INT, fn), Pair(fn, INT), Sum(fn, INT), Sum(INT, fn), Ref(fn), LList(fn),
              Ref(Pair(INT, LList(Sum(BOOL, fn)))), Arrow(INT, Ref(INT))):
        assert not t.storable


def _addrs(t, v):
    return frozenset(a for a, _ in ref_entries(t, v))


def test_forall_refs_always_true_pred():
    v = VPair(VRef(3, INT), VRef(5, INT))
    assert list(ref_entries(Pair(Ref(INT), Ref(INT)), v)) == [(3, INT), (5, INT)]


def test_forall_refs_enumerates_embedded_addrs():
    v = VPair(VRef(3, INT), VRef(5, INT))
    assert all(a % 2 == 1 for a, _ in ref_entries(Pair(Ref(INT), Ref(INT)), v))
    v2 = VPair(VRef(3, INT), VRef(4, INT))
    assert not all(a % 2 == 1 for a, _ in ref_entries(Pair(Ref(INT), Ref(INT)), v2))


def test_forall_refs_covers_list_node_tail_and_head():
    assert list(ref_entries(LList(INT), VLLCons(VInt(7), 4))) == [(4, LList(INT))]
    node = VLLCons(VRef(2, INT), 4)
    assert list(ref_entries(LList(Ref(INT)), node)) == [(2, INT), (4, LList(Ref(INT)))]


def test_forall_refs_rejects_nonconforming():
    with pytest.raises(TypeMismatch):
        list(ref_entries(INT, V_UNIT))


def test_embedded_addrs_base():
    assert _addrs(INT, VInt(1)) == frozenset()


def test_embedded_addrs_ref():
    assert _addrs(Ref(INT), VRef(9, INT)) == frozenset({9})


def test_embedded_addrs_structural():
    v = VPair(VRef(1, INT), VLLCons(V_UNIT, 2))
    t = Pair(Ref(INT), LList(UNIT))
    assert _addrs(t, v) == frozenset({1, 2})


def _oracle_collect_addrs(t, v):
    # independent recursion over the value shape, written head-first
    if isinstance(t, (type(UNIT), type(INT), type(BOOL))):
        return []
    if isinstance(t, Sum):
        inner = t.left if isinstance(v, VInl) else t.right
        return _oracle_collect_addrs(inner, v.payload)
    if isinstance(t, Pair):
        return _oracle_collect_addrs(t.first, v.first) + _oracle_collect_addrs(
            t.second, v.second
        )
    if isinstance(t, Ref):
        return [v.addr]
    if isinstance(v, VLLCons):
        return _oracle_collect_addrs(t.elem, v.head) + [v.tail]
    return []


def test_forall_refs_agrees_with_embedded_addrs_on_samples():
    rng = random.Random(31)
    for _ in range(300):
        t = sample_tag(rng)
        v = sample_value(t, rng)
        assert [a for a, _ in ref_entries(t, v)] == _oracle_collect_addrs(t, v)


# ---------------------------------------------------------------------------
# the isinstance-chain conformance and traversal, kept as oracles of the
# per-tag methods


def old_conforms(v, t) -> bool:
    if isinstance(t, Unit):
        return isinstance(v, VUnit)
    if isinstance(t, Int):
        return isinstance(v, VInt) and type(v.value) is int
    if isinstance(t, Bool):
        return isinstance(v, VBool) and type(v.value) is bool
    if isinstance(t, Sum):
        if isinstance(v, VInl):
            return old_conforms(v.payload, t.left)
        if isinstance(v, VInr):
            return old_conforms(v.payload, t.right)
        return False
    if isinstance(t, Pair):
        return (
            isinstance(v, VPair)
            and old_conforms(v.first, t.first)
            and old_conforms(v.second, t.second)
        )
    if isinstance(t, Ref):
        return isinstance(v, VRef) and v.target is t.target and type(v.addr) is int
    if isinstance(t, LList):
        if isinstance(v, VLLNil):
            return True
        return isinstance(v, VLLCons) and type(v.tail) is int and old_conforms(v.head, t.elem)
    if isinstance(t, Arrow):
        return False
    raise TypeMismatch(f"unknown type tag {t!r}")


def old_ref_entries(t, v):
    if not old_conforms(v, t):
        raise TypeMismatch(f"value {v!r} does not conform to {t}")
    if isinstance(t, (Unit, Int, Bool)):
        return
    if isinstance(t, Sum):
        inner = t.left if isinstance(v, VInl) else t.right
        yield from old_ref_entries(inner, v.payload)
    elif isinstance(t, Pair):
        yield from old_ref_entries(t.first, v.first)
        yield from old_ref_entries(t.second, v.second)
    elif isinstance(t, Ref):
        yield (v.addr, t.target)
    elif isinstance(t, LList):
        if isinstance(v, VLLCons):
            yield from old_ref_entries(t.elem, v.head)
            yield (v.tail, LList(t.elem))


@dataclass(frozen=True)
class NotATag:
    name: str


def random_tag(rng, depth=4):
    """Any tag up to `depth` constructors deep, arrows included, and now
    and then a node that is not a tag at all."""
    roll = rng.random()
    if roll < 0.02:
        return NotATag("junk")
    if depth == 0 or roll < 0.3:
        return rng.choice((UNIT, INT, BOOL))
    kind = rng.choice(("sum", "pair", "ref", "llist", "arrow"))
    if kind == "ref":
        return Ref(random_tag(rng, depth - 1))
    if kind == "llist":
        return LList(random_tag(rng, depth - 1))
    a, b = random_tag(rng, depth - 1), random_tag(rng, depth - 1)
    return {"sum": Sum, "pair": Pair, "arrow": Arrow}[kind](a, b)


def random_value(rng, depth=3):
    """A value of any shape, unrelated to any tag."""
    kinds = ["unit", "int", "bool", "nil", "ref"] + ["inl", "inr", "pair", "cons"] * (depth > 0)
    kind = rng.choice(kinds)
    if kind == "unit":
        return V_UNIT
    if kind == "int":
        return VInt(rng.randint(-3, 3))
    if kind == "bool":
        return VBool(rng.random() < 0.5)
    if kind == "nil":
        return V_NIL
    if kind == "ref":
        return VRef(rng.randint(1, 9), random_tag(rng, 1))
    if kind == "inl":
        return VInl(random_value(rng, depth - 1))
    if kind == "inr":
        return VInr(random_value(rng, depth - 1))
    if kind == "pair":
        return VPair(random_value(rng, depth - 1), random_value(rng, depth - 1))
    return VLLCons(random_value(rng, depth - 1), rng.randint(1, 9))


def guided_value(t, rng, stray):
    """A value that follows t's shape, leaving it at each node with
    probability `stray` (no value follows an arrow or a non-tag)."""
    if rng.random() < stray or not isinstance(t, (Unit, Int, Bool, Sum, Pair, Ref, LList)):
        return random_value(rng)
    if isinstance(t, (Unit, Int, Bool)):
        return {Unit: V_UNIT, Int: VInt(rng.randint(-3, 3)), Bool: VBool(True)}[type(t)]
    if isinstance(t, Sum):
        if rng.random() < 0.5:
            return VInl(guided_value(t.left, rng, stray))
        return VInr(guided_value(t.right, rng, stray))
    if isinstance(t, Pair):
        return VPair(guided_value(t.first, rng, stray), guided_value(t.second, rng, stray))
    if isinstance(t, Ref):
        return VRef(rng.randint(1, 9), t.target)
    if rng.random() < 0.3:
        return V_NIL
    return VLLCons(guided_value(t.elem, rng, stray), rng.randint(1, 9))


def _outcome(f, *args):
    try:
        return ("ok", list(f(*args)) if f in (ref_entries, old_ref_entries) else f(*args))
    except TypeMismatch as err:
        return ("TypeMismatch", str(err))


def test_tag_methods_agree_with_the_isinstance_chains():
    rng = random.Random(2026)
    seen = Counter()
    for _ in range(6000):
        t = random_tag(rng)
        v = guided_value(t, rng, rng.choice((0.0, 0.0, 0.1, 0.3, 1.0)))
        got, want = _outcome(conforms, v, t), _outcome(old_conforms, v, t)
        assert got == want, (t, v)
        got, want = _outcome(ref_entries, t, v), _outcome(old_ref_entries, t, v)
        assert got == want, (t, v)
        seen[want[0], bool(want[1]) if want[0] == "ok" else "unknown" in want[1]] += 1
    # every kind of outcome occurred: no refs, some refs, refused, unknown tag
    assert min(seen[key] for key in (("ok", False), ("ok", True), ("TypeMismatch", False),
                                     ("TypeMismatch", True))) > 50, seen


def test_an_unknown_tag_at_any_depth_raises_type_mismatch():
    junk = NotATag("junk")
    for t, v in ((junk, VInt(1)), (Pair(INT, junk), VPair(VInt(1), VInt(2))),
                 (Sum(INT, LList(junk)), VInr(VLLCons(V_UNIT, 3)))):
        for f, args in ((conforms, (v, t)), (ref_entries, (t, v))):
            with pytest.raises(TypeMismatch, match="unknown type tag NotATag"):
                list(f(*args)) if f is ref_entries else f(*args)
    # a node the value never reaches is never looked at, as before
    assert not conforms(VInt(1), Pair(INT, junk))


def _walk_cases(rng):
    """(tag, value) pairs: sampled pairs, values sampled for another tag, a
    list node whose head embeds addresses, arrows at the top and inside,
    and tags with a child that is not a tag."""
    junk = NotATag("junk")
    for _ in range(1500):
        t, other = sample_tag(rng, depth=3), sample_tag(rng, depth=3)
        v = sample_value(t, rng)
        yield t, v
        yield t, sample_value(other, rng)
        yield LList(t), VLLCons(v, 4)
        yield Arrow(t, other), v
        yield Pair(t, Arrow(other, t)), VPair(v, v)
        yield Sum(Arrow(t, t), t), rng.choice((VInl(v), VInr(v)))
        with_junk = rng.choice((Pair(t, junk), Pair(junk, t), Sum(junk, t), LList(junk), Ref(junk)))
        yield with_junk, rng.choice((VPair(v, v), VInl(v), VInr(v), VLLCons(v, 1), V_NIL,
                                     VRef(1, junk)))


def test_the_one_walk_agrees_with_the_two_pass_rule_on_sampled_values():
    # the oracles above are the rule the one walk replaced: conformance,
    # then the entries of a conforming value
    rng = random.Random(2029)
    seen = Counter()
    for t, v in _walk_cases(rng):
        got, want = _outcome(conforms, v, t), _outcome(old_conforms, v, t)
        assert got == want, (t, v)
        got, want = _outcome(ref_entries, t, v), _outcome(old_ref_entries, t, v)
        assert got == want, (t, v)  # the entries in order, or the error and its message
        seen[want[0], bool(want[1]) if want[0] == "ok" else "unknown" in want[1]] += 1
    # no refs, some refs, refused, and an unknown tag all occurred
    assert min(seen[key] for key in (("ok", False), ("ok", True), ("TypeMismatch", False),
                                     ("TypeMismatch", True))) > 100, seen


def test_one_walk_enters_each_tag_node_it_reaches_once():
    t = Pair(LList(INT), Pair(INT, INT))
    v = VPair(VLLCons(VInt(1), 5), VPair(VInt(2), VInt(3)))
    calls = []

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename == values.__file__
                and code.co_varnames[:1] == ("self",)
                and isinstance(frame.f_locals["self"], values._Tag)):
            calls.append((code.co_name, frame.f_locals["self"]))

    sys.setprofile(profile)
    try:
        entries = ref_entries(t, v)
    finally:
        sys.setprofile(None)
    assert entries == [(5, LList(INT))]
    # one call per tag node: the pair, the list, its int, the inner pair and
    # its two ints; the two-pass rule made 12, a check and a walk per node
    assert calls == [("_walk", t), ("_walk", t.first), ("_walk", INT), ("_walk", t.second),
                     ("_walk", INT), ("_walk", INT)]


def _nested(depth):
    """A tag `depth` constructors deep around a reference, with a value that
    reaches the reference."""
    t, v = Ref(Int()), VRef(1, INT)
    entries = [(1, t.target)]
    for i in range(depth):
        if i % 3 == 0:
            t, v = Pair(Int(), t), VPair(VInt(i), v)
        elif i % 3 == 1:
            t, v = Sum(Unit(), t), VInr(v)
        else:
            t, v = LList(t), VLLCons(v, 100 + i)
            entries.append((100 + i, t))
    return t, v, entries


def _tag_nodes(t):
    """Every tree position of t; a tag shared by several positions (tags are
    hash-consed, so every `int` is one object) is listed once per position."""
    out = [t]
    for name in t._fields:
        sub = getattr(t, name)
        if isinstance(sub, values.Record):
            out += _tag_nodes(sub)
    return out


def _visits_of_one_walk(t, v):
    """The entries of one ref_entries(t, v) call, how often each function
    of `values` was entered with each tag, and how many tree positions
    each tag fills in t."""
    positions = Counter(id(n) for n in _tag_nodes(t))
    visits = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == values.__file__:
            for name in code.co_varnames[:code.co_argcount]:
                if id(frame.f_locals.get(name)) in positions:
                    visits[code.co_name, id(frame.f_locals[name])] += 1

    sys.setprofile(profile)
    try:
        entries = list(ref_entries(t, v))
    finally:
        sys.setprofile(None)
    return entries, visits, positions


@pytest.mark.parametrize("depth", [4, 16])
def test_ref_entries_visits_each_tag_node_once(depth):
    t, v, expected = _nested(depth)
    entries, visits, positions = _visits_of_one_walk(t, v)
    assert entries == expected  # inner head first, then each tail outward
    assert visits, "the profile hook saw no call"
    # a (function, tag) pair is entered at most once per tree position of the tag
    repeated = {key: n for key, n in visits.items() if n > positions[key[1]]}
    assert not repeated, f"{len(repeated)} (function, tag) pairs entered more than once a position"
    # one walk visit per position, plus the two entry calls
    assert sum(visits.values()) <= sum(positions.values()) + 2


def build_chain(values, preorder=TRIVIAL):
    """Allocate a nil-terminated chain and return (head addr, heap)."""
    h = EMPTY_HEAP
    tail, h = alloc(h, LList(INT), preorder, V_NIL)
    for x in reversed(values):
        tail, h = alloc(h, LList(INT), preorder, VLLCons(VInt(x), tail))
    return tail, h


def test_llist_collect_in_order():
    head, h = build_chain([1, 2, 3])
    assert llist_collect(h, head) == [VInt(1), VInt(2), VInt(3)]


def test_llist_collect_cycle():
    addr, h = alloc(EMPTY_HEAP, LList(INT), TRIVIAL, V_NIL)
    h = write(h, addr, VLLCons(VInt(1), addr))
    assert llist_collect(h, addr) is None


def test_llist_collect_empty():
    addr, h = alloc(EMPTY_HEAP, LList(INT), NIL_THEN_FIXED, V_NIL)
    assert llist_collect(h, addr) == []


def test_llist_collect_uncontained_tail():
    addr, h = alloc(EMPTY_HEAP, LList(INT), TRIVIAL, VLLCons(VInt(1), 99))
    with pytest.raises(Uncontained):
        llist_collect(h, addr)


def test_llist_sorted():
    head, h = build_chain([1, 2, 2, 5])
    assert llist_sorted(h, head)
    head2, h2 = build_chain([3, 1])
    assert not llist_sorted(h2, head2)


def test_llist_sorted_false_on_cycle():
    addr, h = alloc(EMPTY_HEAP, LList(INT), TRIVIAL, V_NIL)
    h = write(h, addr, VLLCons(VInt(1), addr))
    assert not llist_sorted(h, addr)


def test_collection_terminates_on_dense_heaps():
    rng = random.Random(13)
    for _ in range(40):
        h = EMPTY_HEAP
        addrs = []
        for i in range(6):
            a, h = alloc(h, LList(INT), TRIVIAL, V_NIL)
            addrs.append(a)
        for a in addrs:
            h = write(h, a, VLLCons(VInt(rng.randint(0, 9)), rng.choice(addrs)))
        # every walk ends: either a cycle is reported or a nil is reached
        result = llist_collect(h, addrs[0])
        assert result is None or isinstance(result, list)

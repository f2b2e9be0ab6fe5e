"""Step lemmas over every world of at most two cells and over a reduced
three-cell scope, and a differential of the context write rule against its
layered statement.

Worlds are built from a small universe of cells: an int under the trivial
or the `int_leq` preorder, a bool, a reference to an int, and a pair of two
int references, each under every label.  Every step runs from every such
world: the three `CtxOps` steps and the checked `op_write`, `op_alloc`,
`op_label_shareable` and `op_label_encapsulated`, with targets from
address 0 to one past the last cell and stored values from the same
universe, at both check levels.  A paranoid run starts from a world the
monitor has validated, so each step runs the incremental monitor.  The
three-cell scope holds only int and `(ref int)` cells under the trivial
preorder, and runs only the checked write.

From every world, a successful step evolves every cell along its preorder
(`heap_leq`) and every label along the label order (`labels_monotone`),
and a refused step leaves the run's world the same object.  From a world
that satisfies `lr_inv`:
- a successful step keeps `lr_inv`;
- a successful context step also keeps the span property,
  `modif_only_shareable_and_encaps` and `same_labels`;
- after a step that touched one address, `lr_inv_at` agrees with `lr_inv`.
"""
from contextlib import nullcontext
from functools import partial
from itertools import product

import pytest

import mutate
from stores import addr_map
from secref.errors import (
    BoundaryViolation,
    DanglingInit,
    InvariantViolation,
    PreorderViolation,
    RunFailure,
    ShareLeak,
    TypeMismatch,
    Uncontained,
)
from secref.heap import INT_LEQ, TRIVIAL, Heap, HeapCell, heap_leq
from secref.labels import (
    Label,
    World,
    _private_embedded,
    labels_monotone,
    lr_inv,
    lr_inv_at,
    modif_only_shareable_and_encaps,
    same_labels,
)
from secref.linker import CtxOps, render_world
from secref.programs import RunConfig, RunState, TraceLog
from secref.values import BOOL, INT, V_TRUE, Pair, Ref, VInt, VPair, VRef, conforms, ref_entries

REF = Ref(INT)
PAIR = Pair(REF, REF)
R1, R2, R3 = VRef(1, INT), VRef(2, INT), VRef(3, INT)
LABELS = (Label.PRIVATE, Label.SHAREABLE, Label.ENCAPSULATED)

# (tag, preorder, value) of every cell a world may hold, before its label
CELLS = (
    *((INT, pre, VInt(n)) for pre in (TRIVIAL, INT_LEQ) for n in (0, 1)),
    (BOOL, TRIVIAL, V_TRUE),
    (REF, TRIVIAL, R1),
    (REF, TRIVIAL, R2),
    (PAIR, TRIVIAL, VPair(R1, R2)),
)
# stored values: scalars, a reference to each address of a two-cell world
# and one past it, and both orders of a pair of references
VALUES = (VInt(0), VInt(1), V_TRUE, R1, R2, R3, VPair(R1, R2), VPair(R2, R1))
TAGS = (INT, BOOL, REF, PAIR)
TARGETS = (0, 1, 2, 3)


def worlds(universe=CELLS, sizes=(0, 1, 2)):
    """Every world of cells from the universe, of each size in turn."""
    for n in sizes:
        for cells in product(product(universe, LABELS), repeat=n):
            heap = {a: HeapCell(tag, pre, v) for a, ((tag, pre, v), _) in enumerate(cells, 1)}
            labels = {a: label for a, (_, label) in enumerate(cells, 1)
                      if label is not Label.PRIVATE}
            yield World(Heap(addr_map(heap), n + 1), addr_map(labels))


# a step: (description, side, run), where run(state, ops) makes the step and
# returns the address it touched, or None
def _steps():
    out = []
    for target in (VInt(0), *(VRef(a, INT) for a in TARGETS)):
        for v in VALUES:
            out.append((f"ctx_write({target}, {v})", "context",
                        lambda s, o, t=target, v=v: o.write(t, v) or getattr(t, "addr", None)))
        out.append((f"ctx_read({target})", "context", lambda s, o, t=target: o.read(t) and None))
    for tag, v in product(TAGS, VALUES):
        out.append((f"ctx_alloc({tag}, {v})", "context",
                    lambda s, o, tag=tag, v=v: o.alloc(tag, v).addr))
    for a, v in product(TARGETS, VALUES):
        out.append((f"op_write({a}, {v})", "checked",
                    lambda s, o, a=a, v=v: s.op_write(a, v) or a))
    for tag, pre, v in product(TAGS, (TRIVIAL, INT_LEQ), VALUES):
        out.append((f"op_alloc({tag}, {pre.name}, {v})", "checked",
                    lambda s, o, tag=tag, pre=pre, v=v: s.op_alloc(tag, pre, v)))
    for a in TARGETS:
        out.append((f"op_label_shareable({a})", "checked",
                    lambda s, o, a=a: s.op_label_shareable(a) or a))
        out.append((f"op_label_encapsulated({a})", "checked",
                    lambda s, o, a=a: s.op_label_encapsulated(a) or a))
    return out


STEPS = _steps()
WORLDS = list(worlds())
FAST, PARANOID = RunConfig(), RunConfig(check_level="paranoid")


def _start(state: RunState, w0: World, valid: bool) -> None:
    """Put the run back at w0; a paranoid run has validated it if it holds."""
    state.world = w0
    state._validated = w0 if valid else None
    state.trace.steps = 0


def broken_lemma(w0: World, valid: bool, side: str, outcome, w1: World, touched):
    """The name of the first lemma a step from w0, where lr_inv is `valid`,
    to w1 breaks, or None.  The outcome is the step's refusal, the paranoid
    monitor's alarm, or None."""
    if isinstance(outcome, RunFailure):
        return None if w1 is w0 else "refused step changed the world"
    if outcome is not None:
        return "monitor alarm" if valid else None
    if not heap_leq(w0.heap, w1.heap):
        return "heap_leq"
    if not labels_monotone(w0, w1):
        return "labels_monotone"
    if not valid:
        return None
    inv = lr_inv(w1)
    if not inv:
        return "lr_inv"
    if side == "context" and not (modif_only_shareable_and_encaps(w0, w1)
                                  and same_labels(w0, w1)):
        return "modif_only_shareable_and_encaps and same_labels"
    if touched is not None and lr_inv_at(w1, touched, None, w1.heap.cells.get(touched)) != inv:
        return "lr_inv_at"
    return None


def run_step(state, ops, w0, valid, run):
    _start(state, w0, valid)
    try:
        touched = run(state, ops)
    except (RunFailure, InvariantViolation) as failure:
        return failure, None
    return None, touched


def first_counterexample(config=FAST, worlds=WORLDS, steps=STEPS):
    """The first (world, step, lemma) in enumeration order where a step
    breaks a lemma."""
    state = RunState(config=config, trace=TraceLog())
    ops = CtxOps(state)
    for w0 in worlds:
        valid = lr_inv(w0)
        for name, side, run in steps:
            failure, touched = run_step(state, ops, w0, valid, run)
            lemma = broken_lemma(w0, valid, side, failure, state.world, touched)
            if lemma is not None:
                return " | ".join(render_world(w0)), name, lemma
    return None


def every_step_keeps_the_lemmas(config, worlds, steps):
    """Run each step from each world and require every lemma; the counts
    of (lemma-checked successes, refusals)."""
    state = RunState(config=config)
    ops = CtxOps(state)
    ok = refused = 0
    for w0 in worlds:
        valid = lr_inv(w0)
        state.trace = TraceLog()
        for name, side, run in steps:
            failure, touched = run_step(state, ops, w0, valid, run)
            lemma = broken_lemma(w0, valid, side, failure, state.world, touched)
            assert lemma is None, (render_world(w0), name, lemma, failure)
            ok += valid and failure is None
            refused += isinstance(failure, RunFailure)
    return ok, refused


@pytest.mark.parametrize("config", [FAST, PARANOID], ids=["fast", "paranoid"])
def test_every_step_keeps_the_lemmas_in_every_world_of_two_cells(config):
    # the same steps succeed and are refused at both check levels
    assert (len(WORLDS), len(STEPS)) == (1 + 24 + 24 * 24, 181)
    assert every_step_keeps_the_lemmas(config, WORLDS, STEPS) == (5972, 98749)


# (mutant, the first counterexample: world, step, broken lemma)
COUNTEREXAMPLES = {
    "ctx_write_unchecked": ("1: int [Private] = 0", "ctx_write(ref@1, 1)",
                            "modif_only_shareable_and_encaps and same_labels"),
    "ctx_alloc_unchecked": ("1: int [Private] = 0", "ctx_alloc((ref int), ref@1)", "lr_inv"),
    "label_share_unchecked": ("1: int [Private] = 0 | 2: (ref int) [Private] = ref@1",
                              "op_label_shareable(2)", "lr_inv"),
}


@pytest.mark.parametrize("mutant", sorted(COUNTEREXAMPLES))
def test_each_step_rule_mutant_has_a_named_first_counterexample(mutant):
    # with no mutant there is none: the lemma test above
    with mutate.enabled(mutant):
        assert first_counterexample() == COUNTEREXAMPLES[mutant]


# -- a reduced three-cell scope: int and (ref int) cells under the trivial
# preorder, holding 0 or a reference to one of the three addresses, and
# every checked write of those values.  No two-cell world kills
# `lr_write_share_unchecked`: a shareable reference cell must point at a
# shareable int, so the leak needs a third cell, a private int, whose
# address the write stores.

CELLS_3 = ((INT, TRIVIAL, VInt(0)), *((REF, TRIVIAL, r) for r in (R1, R2, R3)))
WORLDS_3 = list(worlds(CELLS_3, sizes=(3,)))
WRITES_3 = [(f"op_write({a}, {v})", "checked", lambda s, o, a=a, v=v: s.op_write(a, v) or a)
            for a in (*TARGETS, 4) for v in (VInt(0), R1, R2, R3)]


@pytest.mark.parametrize("config", [FAST, PARANOID], ids=["fast", "paranoid"])
def test_every_checked_write_keeps_the_lemmas_in_the_reduced_three_cell_scope(config):
    assert (len(WORLDS_3), len(WRITES_3)) == (12 ** 3, 20)
    assert every_step_keeps_the_lemmas(config, WORLDS_3, WRITES_3) == (726, 31752)


def test_lr_write_share_unchecked_needs_the_third_cell():
    with mutate.enabled("lr_write_share_unchecked"):
        assert first_counterexample() is None
        # the shareable reference cell 3 is given the address of the
        # private int in cell 1
        assert first_counterexample(worlds=WORLDS_3, steps=WRITES_3) == (
            "1: int [Private] = 0 | 2: int [Shareable] = 0 | 3: (ref int) [Shareable] = ref@2",
            "op_write(3, ref@1)", "lr_inv")


# -- ctx_write's ShareLeak check is dominated by its boundary walk: once the
# target and every embedded address are shareable, no embedded address is
# private, so the check never fires.  It stays, as the labeled rule's own
# safety code; this is why deleting it is an equivalent mutant.

SCOPES = {
    "two_cells": (WORLDS, TARGETS, VALUES),
    "three_cells": (WORLDS_3, (*TARGETS, 4), (VInt(0), R1, R2, R3)),
}


# the writes past the boundary walk that embed an address
@pytest.mark.parametrize("scope, embedding", [("two_cells", 162), ("three_cells", 2160)])
def test_a_context_write_past_its_boundary_walk_embeds_nothing_private(scope, embedding):
    worlds, targets, values = SCOPES[scope]
    state = RunState()
    ops = CtxOps(state)
    outcomes, past_walk = [], 0
    for w0 in worlds:
        for a, v in product(targets, values):
            _start(state, w0, False)
            try:
                ops.write(VRef(a, INT), v)
                outcomes.append(None)
            except RunFailure as failure:
                outcomes.append((type(failure), str(failure)))
                if isinstance(failure, (BoundaryViolation, Uncontained)):
                    continue  # refused before or by the boundary walk
            cell = w0.heap.cells[a]
            if conforms(v, cell.tag):
                entries = ref_entries(cell.tag, v)
                assert not _private_embedded(w0, entries), (render_world(w0), a, v)
                past_walk += bool(entries)
    assert ShareLeak not in {o and o[0] for o in outcomes}
    assert past_walk == embedding
    # deleting the check changes no outcome
    with mutate.mutant(mutate.Site("linker", "ctx_write", "raise ShareLeak")):
        for i, (w0, (a, v)) in enumerate(product(worlds, product(targets, values))):
            _start(state, w0, False)
            try:
                ops.write(VRef(a, INT), v)
                assert outcomes[i] is None
            except RunFailure as failure:
                assert outcomes[i] == (type(failure), str(failure))


# -- the context write rule before it was fused: the label check, then the
# boundary walk, then `labels.lr_write` and `heap.write`, transcribed


def layered_ctx_write(ops: CtxOps, ref, v, boundary=True, share_leak=True) -> None:
    """The transcription; `boundary` and `share_leak` switch its checks off
    as the named mutants `ctx_write_unchecked` and `lr_write_share_unchecked`
    switch off the fused rule's."""
    st = ops._state
    if st.fuel <= 0:
        st._tick()
    st.fuel -= 1
    st.trace.steps += 1
    if not isinstance(ref, VRef):
        raise BoundaryViolation(f"context write to a non-reference: {ref}")
    r = ref.addr
    w0 = st.world
    entries = None
    if boundary:
        if w0.label_of(r) is not Label.SHAREABLE:
            raise BoundaryViolation(f"context write to non-shareable address {r}")
        cell = w0.heap.cells.get(r)
        if cell is not None:
            entries = ref_entries(cell.tag, v)
            for sub, _ in entries:
                if w0.label_of(sub) is not Label.SHAREABLE:
                    raise BoundaryViolation(f"context write embeds non-shareable address {sub}")
    # labels.lr_write
    cell = w0.heap.cell(r)
    if entries is None:
        entries = ref_entries(cell.tag, v)
    for sub, expected in entries:
        if not w0.heap.contains(sub):
            raise DanglingInit(f"write: embedded address {sub} not in heap")
        actual = w0.heap.cell(sub).tag
        if actual is not expected:
            raise TypeMismatch(f"write: embedded ref {sub} expects cell of {expected}, "
                               f"found {actual}")
    if w0.label_of(r) is Label.SHAREABLE:
        leaked = frozenset(a for a, _ in entries if w0.label_of(a) is not Label.SHAREABLE)
        if leaked and share_leak:
            raise ShareLeak(r, v, leaked)
    # heap.write
    if not conforms(v, cell.tag):
        raise TypeMismatch(f"value {v!r} does not conform to {cell.tag} at {r}")
    if not cell.preorder.holds(cell.value, v):
        raise PreorderViolation(r, cell.preorder.name, cell.value, v)
    cells = w0.heap.cells.set(r, HeapCell(cell.tag, cell.preorder, v))
    st.world = World(Heap(cells, w0.heap.next_addr), w0.labels)
    st._after_step(w0, r)


def _write_outcome(state, ops, write, w0, valid, ref, v):
    _start(state, w0, valid)
    try:
        write(ops, ref, v)
    except Exception as err:  # every refusal, and a paranoid monitor's alarm
        return type(err), str(err), state.world is w0
    return None, render_world(state.world), state.world.heap.next_addr


@pytest.mark.parametrize("config, mutant", [
    (FAST, None), (PARANOID, None), (FAST, "ctx_write_unchecked"),
    (PARANOID, "ctx_write_unchecked"), (FAST, "lr_write_share_unchecked"),
], ids=["fast", "paranoid", "fast-ctx_write_unchecked", "paranoid-ctx_write_unchecked",
        "fast-lr_write_share_unchecked"])
def test_the_fused_context_write_agrees_with_the_layered_rule(config, mutant):
    state = RunState(config=config)
    ops = CtxOps(state)
    writes = [(ref, v) for ref in (VInt(0), *(VRef(a, INT) for a in TARGETS)) for v in VALUES]
    layered_write = partial(layered_ctx_write, boundary=mutant != "ctx_write_unchecked",
                            share_leak=mutant != "lr_write_share_unchecked")
    outcomes = set()
    with mutate.enabled(mutant) if mutant else nullcontext():
        for w0 in WORLDS:
            valid = lr_inv(w0)
            state.trace = TraceLog()
            for ref, v in writes:
                fused = _write_outcome(state, ops, CtxOps.write, w0, valid, ref, v)
                layered = _write_outcome(state, ops, layered_write, w0, valid, ref, v)
                assert fused == layered, (render_world(w0), ref, v)
                outcomes.add(fused[0])
    assert {None, BoundaryViolation, TypeMismatch} <= outcomes

"""The incremental paranoid step monitor and the world journal.

The per-step invariant check looks only at the address a step touched; the
full-heap `lr_inv` stays as its oracle and as the base check of each run.
`trace.worlds` is a journal of deltas that replays the per-step worlds; the
checks that read it step by step are compared with replay in
`test_journal_checks.py`.
"""
import pytest

from stores import addr_map
from secref import campaigns
from secref import labels as lb
from secref import values
from secref.campaigns import _collect_transitions
from secref.errors import InvariantViolation, UniversalViolation
from secref.heap import TRIVIAL, Heap, HeapCell
from secref.labels import Label, World, lr_inv, lr_inv_at
from secref.linker import CtxOps
from secref.programs import RunConfig, RunState, alloc_op, do, read_op
from secref.scenarios import (
    run_scenario,
    run_scheduler,
    scenario_prng,
    scheduler_checks,
    yielding_task,
)
from secref.values import INT, Ref, VInt, VRef
from test_journal_checks import replayed_scheduler_checks, replayed_transition_checks

PARANOID = RunConfig(check_level="paranoid")


def _touched(w0: World, w1: World) -> set:
    cells0, cells1 = w0.heap.cells, w1.heap.cells
    labels0, labels1 = w0.labels, w1.labels
    return {a for a in cells0.keys() | cells1.keys() if cells0.get(a) is not cells1.get(a)} | {
        a for a in labels0.keys() | labels1.keys() if labels0.get(a) is not labels1.get(a)
    }


def _corruptions(w: World, r: int):
    """Worlds that differ from w only at r and break lr_inv there."""
    h = w.heap
    dangling = HeapCell(Ref(INT), TRIVIAL, VRef(h.next_addr, INT))
    yield World(Heap(h.cells.set(r, dangling), h.next_addr), w.labels)
    cell = h.cells[r]
    if not lb.is_shareable(w, r) and any(
        not lb.is_shareable(w, a) for a, _ in values.ref_entries(cell.tag, cell.value)
    ):
        yield World(h, w.labels.set(r, Label.SHAREABLE))


def test_delta_check_agrees_with_full_scan_on_the_campaign_corpus():
    transitions = _collect_transitions(seed=2026)
    assert len(transitions) > 200
    corrupted = 0
    for w0, w1 in transitions:
        assert lr_inv(w0)
        touched = _touched(w0, w1)
        assert len(touched) <= 1, touched
        for r in touched:
            assert lr_inv_at(w1, r, None, w1.heap.cells.get(r)) == lr_inv(w1)
            for bad in _corruptions(w1, r):
                corrupted += 1
                assert not lr_inv(bad)
                assert not lr_inv_at(bad, r, None, bad.heap.cells.get(r))
    assert corrupted > 150


def test_paranoid_run_from_a_heap_with_a_dangling_ref_fails_its_first_step():
    h0 = Heap(cells=addr_map({1: HeapCell(Ref(INT), TRIVIAL, VRef(7, INT))}), next_addr=2)

    def gen():
        yield alloc_op(INT, TRIVIAL, VInt(0))
        return 0

    def run(program, config):
        return RunState(world=World(h0, lb.NO_LABELS), config=config).interpret(program)

    with pytest.raises(InvariantViolation, match="after step 1"):
        run(do(gen), PARANOID)
    # a read changes nothing, but the first step still scans the whole heap
    with pytest.raises(InvariantViolation, match="after step 1"):
        run(read_op(1), PARANOID)
    # fast mode never looks
    assert run(read_op(1), RunConfig()) == VRef(7, INT)


def test_a_world_installed_from_outside_is_scanned_in_full():
    state = RunState(config=PARANOID)
    p = state.op_alloc(INT, TRIVIAL, VInt(0))
    q = state.op_alloc(Ref(INT), TRIVIAL, VRef(p, INT))
    state.world = World(state.world.heap, addr_map({q: Label.SHAREABLE}))
    with pytest.raises(InvariantViolation):
        state.op_read(p)


def _forged(state: RunState) -> World:
    """The state's world plus a cell that embeds a dangling address."""
    h = state.world.heap
    a = h.next_addr
    bad = HeapCell(Ref(INT), TRIVIAL, VRef(a + 5, INT))
    return World(Heap(h.cells.set(a, bad), a + 1), state.world.labels)


def test_paranoid_context_steps_run_the_monitors():
    state = RunState(config=PARANOID)
    ops = CtxOps(state)
    r = ops.alloc(INT, VInt(0))
    state.world = _forged(state)
    with pytest.raises(InvariantViolation):
        ops.read(r)


def test_the_config_is_fixed_at_construction():
    state = RunState(config=PARANOID)
    with pytest.raises(AttributeError):
        state.config = RunConfig()
    assert state.config is PARANOID


def test_fast_context_steps_never_check_the_invariant(monkeypatch):
    calls = []
    for name in ("lr_inv", "lr_inv_at"):
        monkeypatch.setattr(lb, name, lambda *args, _n=name: calls.append(_n) or True)
    state = RunState()
    ops = CtxOps(state)
    r = ops.alloc(INT, VInt(0))
    state.world = _forged(state)
    ops.write(r, VInt(1))
    assert ops.read(r) == VInt(1)
    ops.tick()
    assert calls == []
    assert state.trace.steps == 4


@pytest.fixture
def eager_worlds(monkeypatch):
    """The world after every paranoid step, recorded eagerly."""
    seen = []
    real = RunState._after_step

    def after_step(self, *args):
        real(self, *args)
        if self.config.paranoid:
            seen.append(self.world)

    monkeypatch.setattr(RunState, "_after_step", after_step)
    return seen


def test_journal_replays_a_scheduler_run(eager_worlds):
    tasks = [yielding_task(4, write_value=7), yielding_task(2), yielding_task(3, write_value=1)]
    run_ = run_scheduler(tasks, cfg=PARANOID)
    journal = run_.state.trace.worlds
    assert len(journal) == run_.state.trace.steps == len(eager_worlds)
    assert list(journal) == eager_worlds
    checks = scheduler_checks(run_, len(tasks))
    assert "history_prefix_monotone" in checks
    run_.state.trace.worlds = eager_worlds
    assert replayed_scheduler_checks(run_, len(tasks)) == checks


def test_journal_replays_a_prng_run(eager_worlds):
    scenario = scenario_prng(seed=99)
    result = run_scenario(scenario, "three_calls", PARANOID)
    journal = result.state.trace.worlds
    assert len(journal) == result.state.trace.steps == len(eager_worlds)
    assert list(journal) == eager_worlds
    assert [lb.initial_world(), *journal] == [lb.initial_world(), *eager_worlds]
    assert "counter_counts_callback_calls" in result.checks
    result.state.trace.worlds = eager_worlds
    assert replayed_transition_checks(result) == {"counter_counts_callback_calls": True}
    assert result.checks["counter_counts_callback_calls"] is True


def test_journal_replays_worlds_installed_between_steps(eager_worlds):
    state = RunState(config=PARANOID)
    p = state.op_alloc(INT, TRIVIAL, VInt(0))
    q = state.op_alloc(INT, TRIVIAL, VInt(1))
    # a world built elsewhere, sharing no chunk: one cell rewritten, one relabeled
    cells = {**state.world.heap.cells, q: HeapCell(INT, TRIVIAL, VInt(3))}
    state.world = World(Heap(addr_map(cells), state.world.heap.next_addr),
                        addr_map({p: Label.SHAREABLE}))
    state.op_write(q, VInt(5))
    state.op_read(p)
    state.world = World(state.world.heap, addr_map({p: Label.SHAREABLE, q: Label.ENCAPSULATED}))
    state.op_read(q)
    journal = state.trace.worlds
    assert len(journal) == 5 and list(journal) == eager_worlds
    assert [w.label_of(q) for w in journal][-1] is Label.ENCAPSULATED


def _monitor_entries_per_write(cells: int, monkeypatch) -> int:
    """Embedded-address entries the paranoid step monitor checks for one
    write step on a heap of `cells` cells."""
    fast = RunState()
    p = fast.op_alloc(INT, TRIVIAL, VInt(0))
    for _ in range(cells - 1):
        fast.op_alloc(Ref(INT), TRIVIAL, VRef(p, INT))
    state = RunState(world=fast.world, config=PARANOID)
    state.op_write(cells, VRef(p, INT))  # the run's base scan

    checked = [0]
    monitoring = [False]
    entries_ok = lb._entries_ok

    def counted(w, addr, entries):
        checked[0] += monitoring[0] * len(entries)
        return entries_ok(w, addr, entries)

    real = RunState._after_step

    def after_step(self, *args):
        monitoring[0] = True
        try:
            real(self, *args)
        finally:
            monitoring[0] = False

    with monkeypatch.context() as patch:
        patch.setattr(lb, "_entries_ok", counted)
        patch.setattr(RunState, "_after_step", after_step)
        state.op_write(cells, VRef(p, INT))
    assert len(state.world.heap.cells) == cells
    return checked[0]


def test_paranoid_monitor_work_per_write_does_not_grow_with_the_heap(monkeypatch):
    small = _monitor_entries_per_write(250, monkeypatch)
    large = _monitor_entries_per_write(4000, monkeypatch)
    assert small == large > 0


def test_an_alarm_while_collecting_the_transition_corpus_propagates(monkeypatch):
    real = campaigns.run_scenario
    fired = []

    def alarming(*args):
        if not fired:
            fired.append(True)
            raise UniversalViolation("planted")
        return real(*args)

    monkeypatch.setattr(campaigns, "run_scenario", alarming)
    with pytest.raises(UniversalViolation, match="planted"):
        campaigns.campaign_props(seed=0)
    assert fired


def test_an_alarm_in_an_honest_autograder_run_is_named_in_the_report(monkeypatch):
    real = campaigns.run_scenario

    def alarming(scenario, context, *rest):
        if context == "honest":
            raise UniversalViolation("planted")
        return real(scenario, context, *rest)

    monkeypatch.setattr(campaigns, "run_scenario", alarming)
    report = campaigns.campaign_autograder(seed=1, honest_runs=2, adversary_runs=1)
    [honest] = [c for c in report.checks if c.name == "honest_sorts_everything"]
    assert not honest.ok
    assert honest.detail == "0/2; UniversalViolation: planted; UniversalViolation: planted"


def test_honest_autograder_runs_without_alarms_report_only_the_count():
    report = campaigns.campaign_autograder(seed=1, honest_runs=2, adversary_runs=1)
    [honest] = [c for c in report.checks if c.name == "honest_sorts_everything"]
    assert (honest.ok, honest.detail) == (True, "2/2")

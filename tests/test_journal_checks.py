"""The journal-driven transition checks against the world-replaying loops
they replaced.

The prng, guess and scheduler checks read one step's changes at a time from
`programs.WorldJournal`. The loops below replay every recorded world and
re-walk the history in each with `chain_history`; they stay here as the
oracles, and the two must agree on honest runs, on generated-context runs
and on journals corrupted by hand.
"""
import gc
import random
import weakref

import pytest

from secref import campaigns
from secref.errors import Uncontained
from secref.heap import Heap, changed
from secref.labels import World, is_private
from secref.programs import RunConfig, WorldJournal
from secref.scenarios import (
    COUNTER_ADDR,
    GUESSES_ADDR,
    SCHED_COUNTER_ADDR,
    SCHED_HISTORY,
    TASK_DONE,
    HistoryFollower,
    chain_history,
    fairness,
    run_scenario,
    run_scheduler,
    scenario_guess,
    scenario_prng,
    scheduler_checks,
    value_changes,
    yielding_task,
)
from secref.values import V_NIL, VInr, VInt, VLLCons, VPair

PARANOID = RunConfig(check_level="paranoid")
HEAD = 1  # the scheduler's counter cell, the guess history and the prng counter
assert SCHED_COUNTER_ADDR == GUESSES_ADDR == COUNTER_ADDR == HEAD
FIRST = {"sched": SCHED_HISTORY, "guess": None}  # each family's head projection


# ---------------------------------------------------------------------------
# oracles: the replaying loops


def replayed_history_monotone(worlds, head=HEAD, first=None) -> bool:
    """Every world's history extends the one before it, the first extending
    []; stops at the first world that fails."""
    prev = []
    for w in worlds:
        cur = chain_history(w.heap, head, first)
        if cur is None or cur[: len(prev)] != prev:
            return False
        prev = cur
    return True


def replayed_value_changes(worlds, addr=COUNTER_ADDR) -> int:
    changes = 0
    prev = None
    for w in worlds:
        if not w.heap.contains(addr):
            continue
        cur = w.heap.cell(addr).value
        if prev is not None and cur != prev:
            changes += 1
        prev = cur
    return changes


def replayed_scheduler_checks(run, k: int) -> dict:
    """`scheduler_checks` as it was, reading `run.state.trace.worlds` by
    iteration."""
    from secref.labels import modif_only_shareable_and_encaps, same_labels

    checks = {
        "fairness": fairness(k, run.hist, run.finished_at),
        "all_tasks_finished": run.record.outcome == ("ok", k),
        "counter_private": is_private(run.w1, SCHED_COUNTER_ADDR),
        "recorded_history_matches": chain_history(run.w1.heap, SCHED_COUNTER_ADDR,
                                                  SCHED_HISTORY) == run.hist,
        "task_steps_touch_only_shareable": all(
            modif_only_shareable_and_encaps(w0, w1) and same_labels(w0, w1)
            for name, w0, w1 in run.state.trace.context_spans
        ),
    }
    worlds = list(run.state.trace.worlds)
    if worlds:
        checks["history_prefix_monotone"] = replayed_history_monotone(worlds, first=SCHED_HISTORY)
    return checks


def replayed_transition_checks(result) -> dict:
    """The transition checks of a prng or guess scenario run, replayed from
    `result.state.trace.worlds`."""
    worlds = list(result.state.trace.worlds)
    if not worlds:
        return {}
    if result.scenario == "prng":
        final = result.w1.heap.cell(COUNTER_ADDR).value.value
        return {"counter_counts_callback_calls": replayed_value_changes(worlds) == final}
    if result.scenario == "guess":
        return {"history_prefix_monotone": replayed_history_monotone(worlds)}
    return {}


# ---------------------------------------------------------------------------
# helpers


def outcome(fn):
    """A call's result, or the type and message of what it raised."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - the oracle may raise anything
        return ("raised", type(exc).__name__, str(exc))


def journal_of(worlds) -> WorldJournal:
    """A journal of the steps between consecutive worlds. A step that changed
    one address records it as touched, as the step monitor does; any other
    records what `heap.changed` finds, as for a world installed from
    outside."""
    journal = WorldJournal()
    for before, after in zip(worlds, worlds[1:]):
        touched = {*changed(before.heap.cells, after.heap.cells),
                   *changed(before.labels, after.labels)}
        addr = touched.pop() if len(touched) == 1 else None
        journal.record(before, after, addr, None if addr is None else after.heap.cells.get(addr))
    assert journal.start is worlds[0] and list(journal) == worlds[1:]
    return journal


def families_agree(journal: WorldJournal, addr: int) -> list:
    """Both history checks and the value check at addr, each with its
    oracle's outcome."""
    worlds = list(journal)
    return [
        *((outcome(lambda: HistoryFollower(journal, addr, first).monotone()),
           outcome(lambda: replayed_history_monotone(worlds, addr, first)))
          for first in FIRST.values()),
        (outcome(lambda: value_changes(journal, addr)),
         outcome(lambda: replayed_value_changes(worlds, addr))),
    ]


def replaced(record, **changes):
    """A copy of record with the named fields changed."""
    return type(record)(**{name: changes[name] if name in changes else getattr(record, name)
                           for name in record._fields})


def rebind(w: World, addr: int, value) -> World:
    """w with the cell at addr holding value, or unbound when value is None."""
    cells = w.heap.cells
    cell = None if value is None else replaced(cells[addr], value=value)
    return World(Heap(cells.set(addr, cell), w.heap.next_addr), w.labels)


def chain(w: World, family: str) -> list:
    """The addresses of the list cells of w's history, head first, up to the
    first repeated, absent or nil one."""
    if family == "sched":
        node = w.heap.cell(SCHED_COUNTER_ADDR).value.first
        addrs = []
    else:
        addrs = [GUESSES_ADDR]
        node = w.heap.cell(GUESSES_ADDR).value
    while isinstance(node, VLLCons) and node.tail not in addrs and w.heap.contains(node.tail):
        addrs.append(node.tail)
        node = w.heap.cell(node.tail).value
    return addrs if isinstance(node, VLLCons) else addrs[:-1]


def honest_worlds(family: str) -> list:
    """The start world and every recorded world of one honest paranoid run."""
    if family == "sched":
        tasks = [yielding_task(3, write_value=7), yielding_task(2), yielding_task(4, write_value=1)]
        journal = run_scheduler(tasks, cfg=PARANOID).state.trace.worlds
    else:
        journal = run_scenario(scenario_guess(0, 100, pick=42), "binary_search",
                               PARANOID).state.trace.worlds
    return [journal.start, *journal]


def check_of(family: str):
    first = FIRST[family]
    return (lambda j: HistoryFollower(j, HEAD, first).monotone(),
            lambda worlds: replayed_history_monotone(worlds, HEAD, first))


# ---------------------------------------------------------------------------
# corruptions: each maps (world, list-node addresses) to a corrupted world


def _mid_node_rewritten(w, nodes):
    m = nodes[len(nodes) // 2]
    node = w.heap.cell(m).value
    return rebind(w, m, VLLCons(VInt(node.head.value + 1), node.tail))


def _cycle_spliced(w, nodes):
    m = nodes[len(nodes) // 2]
    return rebind(w, m, VLLCons(w.heap.cell(m).value.head, nodes[1]))


def _dangling_tail(w, nodes):
    m = nodes[len(nodes) // 2]
    return rebind(w, m, VLLCons(w.heap.cell(m).value.head, w.heap.next_addr + 5))


def _two_nodes_rewritten(w, nodes):
    # one world installed from outside, changing two chain cells at once
    return _mid_node_rewritten(rebind(
        w, nodes[1], VLLCons(VInt(-1), w.heap.cell(nodes[1]).value.tail)), nodes)


def _first_replaced(w, nodes):
    pair = w.heap.cell(SCHED_COUNTER_ADDR).value
    return rebind(w, SCHED_COUNTER_ADDR, VPair(VLLCons(VInt(9), nodes[2]), pair.second))


def _first_reset(w, nodes):
    pair = w.heap.cell(SCHED_COUNTER_ADDR).value
    return rebind(w, SCHED_COUNTER_ADDR, VPair(V_NIL, pair.second))


def _head_removed(w, nodes):
    return rebind(w, HEAD, None)


def _cyclic_append(w, nodes):
    # the nil end after the last list cell becomes a cons whose tail points
    # back at the first list cell, a write the nil-then-fixed preorder allows
    end = w.heap.cell(nodes[-1]).value.tail
    return rebind(w, end, VLLCons(VInt(0), nodes[0]))


CORRUPTIONS = {
    "sched": {
        "mid_node_rewritten": _mid_node_rewritten,
        "cycle_spliced": _cycle_spliced,
        "first_replaced": _first_replaced,
        "first_reset": _first_reset,
        "installed_from_outside": _two_nodes_rewritten,
        "dangling_tail": _dangling_tail,
        "cyclic_append": _cyclic_append,
    },
    "guess": {
        "mid_node_rewritten": _mid_node_rewritten,
        "cycle_spliced": _cycle_spliced,
        "installed_from_outside": _two_nodes_rewritten,
        "dangling_tail": _dangling_tail,
        "cyclic_append": _cyclic_append,
    },
}


def corrupted(worlds, at, corrupt, nodes, persistent) -> list:
    """worlds with world `at` corrupted at the list cells `nodes`, and every
    later world too when persistent."""
    out = list(worlds)
    for i in range(at, len(worlds) if persistent else at + 1):
        out[i] = corrupt(worlds[i], nodes)
    return out


def _corruption_sites(worlds, family):
    """Indexes of recorded worlds whose history has at least 5 nodes."""
    return [i for i in range(1, len(worlds) - 1) if len(chain(worlds[i], family)) >= 5]


# ---------------------------------------------------------------------------
# agreement on real runs


def test_transition_checks_agree_with_replay_on_the_transition_corpus(monkeypatch):
    results = []
    real = campaigns.run_scenario

    def recording(*args):
        result = real(*args)
        results.append(result)
        return result

    monkeypatch.setattr(campaigns, "run_scenario", recording)
    campaigns._collect_transitions(seed=2026)
    assert len(results) >= 20
    compared = agreed = 0
    for result in results:
        oracle = replayed_transition_checks(result)
        assert {k: result.checks[k] for k in oracle} == oracle, result.scenario
        compared += len(oracle)
        journal = result.state.trace.worlds
        for addr in range(1, min(result.w1.heap.next_addr, 12)):
            for ours, theirs in families_agree(journal, addr):
                assert ours == theirs, (result.scenario, addr)
                agreed += 1
    assert compared >= 10 and agreed > 200


def test_scheduler_checks_equal_the_replaying_checks_on_the_campaign(monkeypatch):
    seen = []
    real = campaigns.scheduler_checks

    def recording(run, k):
        checks = real(run, k)
        seen.append((run, k, checks))
        return checks

    monkeypatch.setattr(campaigns, "scheduler_checks", recording)
    report = campaigns.campaign_scheduler(seed=2026, trials=100)
    assert report.ok and len(seen) == 100
    for run, k, checks in seen:
        assert "history_prefix_monotone" in checks
        assert checks == replayed_scheduler_checks(run, k)


def test_scheduler_and_guess_history_checks_on_honest_runs():
    for family in ("sched", "guess"):
        worlds = honest_worlds(family)
        ours, oracle = check_of(family)
        journal = journal_of(worlds)
        assert ours(journal) is True and oracle(worlds[1:]) is True
        # worlds installed from outside that skip steps still only append
        for stride in (2, 3, 7):
            skipping = worlds[::stride] + [worlds[-1]]
            assert ours(journal_of(skipping)) is True
            assert oracle(skipping[1:]) is True
        # a repeated world records a step that changed nothing
        repeated = [w for w in worlds for _ in range(2)]
        assert ours(journal_of(repeated)) is True


# ---------------------------------------------------------------------------
# corrupted journals


@pytest.mark.parametrize("family,name", [
    (family, name) for family in CORRUPTIONS for name in CORRUPTIONS[family]
])
def test_a_corrupted_history_is_caught_as_the_replay_catches_it(family, name):
    worlds = honest_worlds(family)
    ours, oracle = check_of(family)
    sites = _corruption_sites(worlds, family)
    assert len(sites) >= 5
    for at in sites[:: max(1, len(sites) // 6)]:
        for persistent in (False, True):
            bad = corrupted(worlds, at, CORRUPTIONS[family][name], chain(worlds[at], family),
                            persistent)
            journal = journal_of(bad)
            got = outcome(lambda: ours(journal))
            assert got == outcome(lambda: oracle(bad[1:])), (name, at, persistent)
            if name == "dangling_tail":
                assert got[:2] == ("raised", "Uncontained"), got
            else:
                assert got == ("ok", False), (name, at, persistent)


def test_a_removed_head_resets_the_history_in_both_families():
    for family in ("sched", "guess"):
        worlds = honest_worlds(family)
        ours, oracle = check_of(family)
        at = _corruption_sites(worlds, family)[0]
        bad = corrupted(worlds, at, _head_removed, [], persistent=False)
        assert ours(journal_of(bad)) is oracle(bad[1:]) is False
        # the check stops at the first failing world: a dangling tail in
        # every world after the gap is never walked
        bad = corrupted(bad, at + 1, _dangling_tail, chain(worlds[at + 1], family),
                        persistent=True)
        assert ours(journal_of(bad)) is oracle(bad[1:]) is False


def test_a_cycle_fails_the_history_check_in_both_families():
    # the first recorded world holds a cycle; every later one a history
    # that differs from the honest one before the node the cycle left from
    for family in ("sched", "guess"):
        worlds = honest_worlds(family)
        ours, oracle = check_of(family)
        at = _corruption_sites(worlds, family)[0]
        nodes = chain(worlds[at], family)
        bad = corrupted(worlds, at, _cycle_spliced, nodes, persistent=False)
        bad = corrupted(bad, at + 1, _two_nodes_rewritten, nodes, persistent=True)[at - 1:]
        assert ours(journal_of(bad)) is oracle(bad[1:]) is False


def test_a_start_world_the_replay_never_walks_is_not_walked():
    for family in ("sched", "guess"):
        worlds = honest_worlds(family)
        ours, oracle = check_of(family)
        at = _corruption_sites(worlds, family)[0]
        bad = corrupted(worlds, at, _dangling_tail, chain(worlds[at], family), persistent=False)
        assert ours(journal_of(bad[at:])) is True
        assert oracle(bad[at + 1:]) is True


def test_random_corruptions_agree_with_replay():
    rng = random.Random(2026)
    kinds = [(f, c) for f in CORRUPTIONS for c in CORRUPTIONS[f].values()]
    kinds += [("sched", _head_removed), ("guess", _head_removed)]
    base = {family: honest_worlds(family) for family in CORRUPTIONS}
    verdicts = set()
    for _ in range(150):
        family = rng.choice(tuple(CORRUPTIONS))
        worlds = base[family]
        sites = _corruption_sites(worlds, family)
        bad = worlds
        # up to three corruptions, each at a site of the honest run
        for _ in range(rng.randint(1, 3)):
            corrupt = rng.choice([c for f, c in kinds if f == family])
            at = rng.choice(sites)
            try:
                bad = corrupted(bad, at, corrupt, chain(worlds[at], family), rng.random() < 0.5)
            except (AttributeError, KeyError, Uncontained):
                pass  # the cell this corruption rewrites is already gone
        if rng.random() < 0.3:
            bad = bad[:1] + bad[1::2]
        journal = journal_of(bad)
        ours, oracle = check_of(family)
        got = outcome(lambda: ours(journal))
        assert got == outcome(lambda: oracle(bad[1:]))
        verdicts.add(got[:2])
        assert outcome(lambda: value_changes(journal, HEAD)) == \
            outcome(lambda: replayed_value_changes(bad[1:], HEAD))
    assert {("ok", True), ("ok", False), ("raised", "Uncontained")} <= verdicts


def test_the_prng_counter_check_agrees_with_replay():
    scenario = scenario_prng(seed=5)
    result = run_scenario(scenario, "three_calls", PARANOID)
    journal = result.state.trace.worlds
    worlds = [journal.start, *journal]
    assert value_changes(journal, COUNTER_ADDR) == replayed_value_changes(worlds[1:]) == 3
    # a counter rewound and restored from outside, between two steps that
    # leave it alone, counts both moves
    value = [w.heap.cell(COUNTER_ADDR).value if w.heap.contains(COUNTER_ADDR) else None
             for w in worlds]
    at = next(i for i in range(2, len(worlds) - 1)
              if value[i - 1] == value[i] == value[i + 1] is not None)
    bad = worlds[:at] + [rebind(worlds[at], COUNTER_ADDR, VInt(-7))] + worlds[at + 1:]
    assert value_changes(journal_of(bad), COUNTER_ADDR) == replayed_value_changes(bad[1:]) == 5
    result.state.trace.worlds = journal_of(bad)
    assert not scenario.check(result)["counter_counts_callback_calls"]
    # a journal that starts with the counter in place: its first recorded
    # world is compared with nothing
    for start in range(2, len(worlds) - 1):
        assert value_changes(journal_of(worlds[start:]), COUNTER_ADDR) == \
            replayed_value_changes(worlds[start + 1:])


# ---------------------------------------------------------------------------
# cost: a history check's reads per step do not grow with the history


def _cells_read_per_step(runs: int, monkeypatch) -> list:
    """Cells the scheduler history check reads for each journal entry of a
    four-task run with `runs` task runs."""
    tasks = [yielding_task(runs // 4 - 1, write_value=i if i % 2 else None) for i in range(4)]
    run = run_scheduler(tasks, cfg=PARANOID)
    assert len(run.hist) == runs
    journal = run.state.trace.worlds
    reads = [0]
    cell = HistoryFollower.cell

    def counted(self, addr):
        reads[0] += 1
        return cell(self, addr)

    follower = HistoryFollower(journal, SCHED_COUNTER_ADDR, SCHED_HISTORY)
    out = []
    with monkeypatch.context() as patch:
        patch.setattr(HistoryFollower, "cell", counted)
        for delta in journal.deltas():
            reads[0] = 0
            assert follower.step(delta)
            out.append(reads[0])
    assert follower.values == run.hist
    return out


def test_history_check_reads_per_step_do_not_grow_with_the_history(monkeypatch):
    small = _cells_read_per_step(40, monkeypatch)
    large = _cells_read_per_step(280, monkeypatch)
    assert len(large) > 5 * len(small)
    assert max(small) == max(large) <= 2
    # one read for the first walk, then two per append: the old nil end,
    # now a node, and the fresh nil end
    assert sum(small) == 2 * 40 + 1 and sum(large) == 2 * 280 + 1


def test_no_scenario_check_replays_the_journal(monkeypatch):
    def refuse(self):
        raise AssertionError("a check replayed the world journal")

    monkeypatch.setattr(WorldJournal, "__iter__", refuse)
    tasks = [yielding_task(5, write_value=3), yielding_task(2), yielding_task(7)]
    run = run_scheduler(tasks, cfg=PARANOID)
    checks = scheduler_checks(run, len(tasks))
    assert checks["history_prefix_monotone"] and all(checks.values()), checks
    prng = run_scenario(scenario_prng(seed=3), "three_calls", PARANOID)
    assert prng.checks["counter_counts_callback_calls"] and prng.ok, prng.checks
    guess = run_scenario(scenario_guess(0, 100, pick=42), "binary_search", PARANOID)
    assert guess.checks["history_prefix_monotone"] and guess.ok, guess.checks


# ---------------------------------------------------------------------------
# one meaning per case, in the reader and the follower alike


def test_the_reader_and_the_follower_read_each_case_one_way():
    for family in ("sched", "guess"):
        worlds = honest_worlds(family)
        w, first = worlds[-1], FIRST[family]
        nodes = chain(w, family)
        cases = {
            "head_removed": ("ok", []),
            "cyclic_append": ("ok", None),
            "cycle_spliced": ("ok", None),
            "dangling_tail": ("raised", "Uncontained"),
            "non_list_node": ("raised", "TypeMismatch"),
        }
        corrupt = {**CORRUPTIONS[family], "head_removed": _head_removed,
                   "non_list_node": lambda w, nodes: rebind(w, nodes[-1], VInt(3))}
        for name, expected in cases.items():
            bad = corrupt[name](w, nodes)
            got = outcome(lambda: chain_history(bad.heap, HEAD, first))
            assert got[:2] == expected, (family, name)
            # the start world is never walked: the honest world before bad is
            # the first one compared
            journal = journal_of([worlds[-3], worlds[-2], bad])
            follower = outcome(lambda: HistoryFollower(journal, HEAD, first).monotone())
            assert follower[:2] == (("ok", False) if got[0] == "ok" else got[:2]), (family, name)


def test_scheduler_checks_fail_a_history_appended_into_a_cycle():
    run = run_scheduler([yielding_task(3, write_value=7), yielding_task(2)], cfg=PARANOID)
    assert all(scheduler_checks(run, 2).values())
    w = run.state.world
    nodes = chain(w, "sched")
    # a checked-side write that the nil end's nil-then-fixed preorder allows
    run.state.op_write(w.heap.cell(nodes[-1]).value.tail, VLLCons(VInt(0), nodes[0]))
    checks = scheduler_checks(replaced(run, w1=run.state.world), 2)
    assert checks["history_prefix_monotone"] is False
    assert checks["recorded_history_matches"] is False
    assert checks["counter_private"] and checks["fairness"]


def self_closing_task(yields: int):
    """A task whose step closes over itself and its ops: a cycle that only
    the cyclic collector frees."""

    def make(ops, shared):
        left = [yields]

        def step():
            ops.write(shared, VInt(left[0]))
            if left[0] <= 0:
                return TASK_DONE
            left[0] -= 1
            return VInr(step)

        return step

    return make


def test_a_finished_scheduler_run_is_freed_by_reference_counting():
    # the run's end revokes the tasks' ops, so a task that closed over itself
    # holds neither the run state nor every world the paranoid journal recorded
    gc.collect()
    gc.disable()
    try:
        for tasks in ([yielding_task(3, write_value=7), yielding_task(2)],
                      [self_closing_task(3), self_closing_task(2)]):
            run = run_scheduler(tasks, cfg=PARANOID)
            assert run.record.outcome == ("ok", 2) and len(run.state.trace.worlds) > 0
            state = weakref.ref(run.state)
            del run
            assert state() is None
    finally:
        gc.enable()

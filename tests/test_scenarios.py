import pathlib
import random

import pytest

import mutate
from secref import campaigns, scenarios, target_lang
from secref.errors import InvariantViolation, ShareLeak
from secref.labels import is_encapsulated, is_private, is_shareable
from secref.linker import TargetContext
from secref.programs import RunConfig
from secref.scenarios import (
    COUNTER_ADDR,
    GRADE_ADDR,
    GUESSES_ADDR,
    NAMED_TASK_SETS,
    SCHED_COUNTER_ADDR,
    SECRET_ADDR,
    SECRET_SNOOP,
    SECRET_STASH,
    SCHED_COUNTER_TAG,
    TASK_DONE,
    all_scenarios,
    chain_history,
    fairness,
    generate_nr,
    run_scenario,
    run_scheduler,
    scenario_autograder,
    scenario_guess,
    scenario_prng,
    scenario_safe_prog,
    scheduler_checks,
    yielding_task,
)
from secref.values import V_NIL, V_UNIT, VInr, VInt, VLLCons, VPair, VRef

PARANOID = RunConfig(check_level="paranoid")


# -- intro example


def test_safe_prog_survives_the_adversary():
    scenario = scenario_safe_prog()
    result = run_scenario(scenario, "adversarial", PARANOID)
    assert result.record.outcome == ("ok", 42)
    assert result.ok, result.checks


def test_safe_prog_benign():
    result = run_scenario(scenario_safe_prog(), "benign", PARANOID)
    assert result.ok, result.checks


def test_safe_prog_forger_is_refused_but_harmless():
    result = run_scenario(scenario_safe_prog(), "forger", PARANOID)
    assert result.ok, result.checks


def test_a_forged_read_of_the_secret_ends_the_run():
    result = run_scenario(scenario_safe_prog(), SECRET_SNOOP, PARANOID)
    assert result.record.outcome[:2] == ("err", "BoundaryViolation")
    assert result.checks["psi_secret_42"] and result.checks["secret_private"]
    # with the read's shareable check gone, the library reads the secret
    with mutate.enabled("ctx_read_unchecked"):
        result = run_scenario(scenario_safe_prog(), SECRET_SNOOP, PARANOID)
        assert result.record.outcome == ("ok", 42)
        assert not campaigns.campaign_intro().ok


def test_a_forged_alloc_of_the_secret_ends_the_run():
    result = run_scenario(scenario_safe_prog(), SECRET_STASH, PARANOID)
    assert result.record.outcome[:2] == ("err", "BoundaryViolation")
    assert result.checks["psi_secret_42"] and result.checks["secret_private"]
    # with the alloc's embedded-shareable check gone, a shareable cell holds
    # the secret's address, and the paranoid step monitor alarms
    with mutate.enabled("ctx_alloc_unchecked"):
        with pytest.raises(InvariantViolation):
            run_scenario(scenario_safe_prog(), SECRET_STASH, PARANOID)
        assert not campaigns.campaign_intro().ok


def _homework_writing_head(head):
    """A host homework that writes head over the list's first node."""
    def build(ops):
        def homework(ll):
            ops.write(ll, VLLCons(head, ops.read(ll).tail))
            return V_UNIT

        return homework

    return TargetContext(name="ill_typed_head", builder=build)


@pytest.mark.parametrize("cfg", [RunConfig(), PARANOID], ids=["fast", "paranoid"])
@pytest.mark.parametrize("head", ["a", -0.5])
def test_a_homework_writing_an_ill_typed_list_head_ends_in_a_type_mismatch(head, cfg):
    # a str head used to crash the sorting post with a host TypeError, and
    # a float one to be graded 0
    result = run_scenario(scenario_autograder(), _homework_writing_head(VInt(head)), cfg)
    assert result.record.outcome[:2] == ("err", "TypeMismatch")
    assert "does not conform to (llist int)" in result.record.outcome[2]


def test_shipped_contexts_are_read_once_per_process_and_parsed_per_build(monkeypatch):
    shipped = list(scenarios.CONTEXTS.glob("*.sref"))
    for factory in all_scenarios().values():
        factory()

    def refuse(*args):
        raise AssertionError("a shipped context was read again")

    parses = []
    parse = target_lang.parse
    monkeypatch.setattr(pathlib.Path, "read_text", refuse)
    monkeypatch.setattr(target_lang, "parse", lambda text: parses.append(text) or parse(text))
    for factory in all_scenarios().values():
        factory()
    assert len(parses) == len(shipped) == 11


def test_safe_prog_adversary_zeroes_shared_cells_only():
    result = run_scenario(scenario_safe_prog(), "adversarial", PARANOID)
    # allocation order: secret=1, inner=2, r=3, adversary's stash=4, then the
    # fresh shared int v=5 that the callback saw through r and zeroed
    assert result.w1.heap.cell(5).value == VInt(0)
    assert is_shareable(result.w1, 5)
    assert result.w1.heap.cell(SECRET_ADDR).value == VInt(42)


def test_unlabeled_variant_fails_with_share_leak_at_that_write():
    scenario = scenario_safe_prog(labeled=False)
    result = run_scenario(scenario, "adversarial")
    assert result.record.outcome[0] == "err"
    assert result.record.outcome[1] == "ShareLeak"
    # the write was r := v with r at address 3 and v the fresh private cell
    assert "3" in result.record.outcome[2]


def test_unlabeled_share_leak_is_raised_by_the_exact_write():
    from secref.heap import TRIVIAL
    from secref.labels import initial_world, label_shareable
    from stores import alloc_walked, write_walked
    from secref.values import INT, Ref, VRef

    p, w = alloc_walked(initial_world(), INT, TRIVIAL, VInt(0))
    r, w = alloc_walked(w, Ref(INT), TRIVIAL, VRef(p, INT))
    w = label_shareable(w, p)
    w = label_shareable(w, r)
    v, w = alloc_walked(w, INT, TRIVIAL, VInt(1))
    with pytest.raises(ShareLeak) as leak:
        write_walked(w, r, VRef(v, INT))
    assert leak.value.addr == r
    assert leak.value.leaked == {v}


# -- autograder


def test_autograder_honest_gets_full_grade():
    scenario = scenario_autograder((4, 1, 3))
    result = run_scenario(scenario, "honest", PARANOID)
    assert result.record.outcome == ("ok", 10)
    assert result.w1.heap.cell(GRADE_ADDR).value == VInr(VInt(10))
    assert result.ok, result.checks


@pytest.mark.parametrize("adversary", ["cycler", "mutator", "lazy"])
def test_autograder_adversaries_get_zero(adversary):
    scenario = scenario_autograder((4, 1, 3))
    result = run_scenario(scenario, adversary, PARANOID)
    assert result.record.outcome == ("ok", 0)
    assert result.w1.heap.cell(GRADE_ADDR).value == VInr(VInt(0))
    assert result.ok, result.checks


def test_autograder_mutator_on_a_sorted_list_fails_only_same_values():
    # (1, 2, 3) becomes (2, 2, 3): still sorted, so only the multiset check
    # of the sorting post-condition refuses it
    result = run_scenario(scenario_autograder((1, 2, 3)), "mutator", PARANOID)
    assert result.record.outcome == ("ok", 0)
    assert result.ok, result.checks


def test_autograder_honest_on_random_lists():
    rng = random.Random(7)
    for _ in range(10):
        tests = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 8)))
        result = run_scenario(scenario_autograder(tests), "honest", PARANOID)
        assert result.record.outcome == ("ok", 10), tests
        assert result.ok


def test_autograder_grade_byte_identical_across_homework_call():
    result = run_scenario(scenario_autograder((9, 2, 5)), "honest", PARANOID)
    assert result.checks["grade_untouched_by_homework"]


# -- prng


def test_prng_counter_counts_calls():
    scenario = scenario_prng(seed=11)
    for name, expected in (("three_calls", 3), ("zero_calls", 0), ("counter_snoop", 2)):
        result = run_scenario(scenario, name, PARANOID)
        assert result.ok, (name, result.checks)
        assert result.w1.heap.cell(COUNTER_ADDR).value.value == expected
        assert is_encapsulated(result.w1, COUNTER_ADDR)


def test_prng_returns_generated_number():
    result = run_scenario(scenario_prng(seed=11), "three_calls", PARANOID)
    assert result.record.outcome == ("ok", generate_nr(11, 3))


def test_generate_nr_is_pure():
    assert generate_nr(5, 1) == generate_nr(5, 1)
    assert generate_nr(5, 1) != generate_nr(5, 2)


# -- guessing game


def test_guess_binary_search_finds_the_pick():
    result = run_scenario(scenario_guess(0, 100, 42), "binary_search", PARANOID)
    assert result.record.outcome == ("ok", 1)
    history = chain_history(result.w1.heap, GUESSES_ADDR)
    # hand-simulated bisection trace for (0, 100, pick 42), plus the final echo
    assert history == [50, 25, 37, 43, 40, 41, 42, 42]
    assert result.ok, result.checks


def test_guess_one_wrong_records_two_entries():
    result = run_scenario(scenario_guess(0, 100, 42), "one_wrong", PARANOID)
    assert result.record.outcome == ("ok", 0)
    assert chain_history(result.w1.heap, GUESSES_ADDR) == [7, 7]


def test_guess_no_calls_records_single_entry():
    result = run_scenario(scenario_guess(0, 100, 42), "no_calls", PARANOID)
    assert result.record.outcome == ("ok", 0)
    assert chain_history(result.w1.heap, GUESSES_ADDR) == [0]


def test_guess_history_stays_encapsulated_and_monotone():
    result = run_scenario(scenario_guess(0, 100, 42), "binary_search", PARANOID)
    assert result.checks["history_prefix_monotone"]
    assert is_encapsulated(result.w1, GUESSES_ADDR)


# -- scheduler


def test_scheduler_three_tasks_round_robin():
    tasks = NAMED_TASK_SETS["three_tasks_two_yields"]
    run = run_scheduler(tasks, cfg=PARANOID)
    assert run.hist == [0, 1, 2, 0, 1, 2, 0, 1, 2]
    checks = scheduler_checks(run, 3)
    assert all(checks.values()), checks


def test_scheduler_single_return():
    run = run_scheduler(NAMED_TASK_SETS["single_return"], cfg=PARANOID)
    assert run.hist == [0]
    checks = scheduler_checks(run, 1)
    assert all(checks.values()), checks


def test_scheduler_shared_mutation_visible_counter_untouched():
    run = run_scheduler(NAMED_TASK_SETS["shared_mutators"], cfg=PARANOID)
    checks = scheduler_checks(run, 3)
    assert all(checks.values()), checks
    assert is_private(run.w1, SCHED_COUNTER_ADDR)
    # shared cell reflects some task write
    from secref.scenarios import SCHED_SHARED_ADDR

    assert run.w1.heap.cell(SCHED_SHARED_ADDR).value != VInt(0)


def test_scheduler_runs_out_of_fuel_on_immortal_tasks():
    immortal = [yielding_task(10**9)]
    run = run_scheduler(immortal, cfg=RunConfig(fuel=500))
    assert run.record.outcome[0] == "err"
    assert run.record.outcome[1] == "OutOfFuel"


@pytest.mark.parametrize("mode", ["fast", "paranoid"])
def test_scheduler_history_matches_on_every_aborted_run(mode):
    """A spinner never finishes, so fuel runs out at each step of recording
    a history entry in turn; the host history still equals the recorded one."""
    for fuel in range(60, 66):
        tasks = [yielding_task(10**9), yielding_task(2, write_value=7)]
        run = run_scheduler(tasks, cfg=RunConfig(check_level=mode, fuel=fuel))
        assert run.record.outcome[1] == "OutOfFuel"
        checks = scheduler_checks(run, 2)
        assert not checks.pop("all_tasks_finished")
        assert all(checks.values()), (fuel, checks)


def _counter_forger(ops, shared):
    """A task that yields once, then resets the scheduler's private counter
    through a forged reference."""
    ran = [False]

    def step():
        if not ran[0]:
            ran[0] = True
            return VInr(step)
        ops.write(VRef(SCHED_COUNTER_ADDR, SCHED_COUNTER_TAG),
                  VPair(V_NIL, VPair(VInt(0), VInt(0))))
        return TASK_DONE

    return step


def test_a_forged_counter_write_is_refused_and_the_history_survives():
    run = run_scheduler([yielding_task(2), _counter_forger], cfg=PARANOID)
    assert run.record.outcome[:2] == ("err", "BoundaryViolation")
    assert run.hist == [0, 1, 0]
    checks = scheduler_checks(run, 2)
    assert checks["counter_private"] and checks["recorded_history_matches"]
    assert checks["history_prefix_monotone"]
    assert not checks.pop("all_tasks_finished") and all(checks.values()), checks


def _history_sealer(ops, shared):
    """A host task that yields once, then labels the first history cell,
    which the scheduler keeps private, encapsulated."""
    ran = [False]

    def step():
        if not ran[0]:
            ran[0] = True
            return VInr(step)
        state = ops._state
        first_entry = state.world.heap.cell(SCHED_COUNTER_ADDR).value.first
        assert is_private(state.world, first_entry.tail)
        state.op_label_encapsulated(first_entry.tail)
        return TASK_DONE

    return step


@pytest.mark.parametrize("mode", ["fast", "paranoid"])
def test_a_task_that_relabels_a_private_history_cell_fails_the_task_step_check(mode):
    run = run_scheduler([yielding_task(2), _history_sealer],
                        cfg=RunConfig(check_level=mode))
    assert run.record.outcome == ("ok", 2)
    checks = scheduler_checks(run, 2)
    assert checks.pop("task_steps_touch_only_shareable") is False
    # the task's step changes no private value, and nothing else notices
    assert all(checks.values()), checks


def test_fairness_counterexample():
    # task 1 starved between the two runs of task 0 while still active
    assert not fairness(2, [0, 1, 0, 0, 1], {0: 3, 1: 4})
    assert fairness(2, [0, 1, 0, 1], {0: 2, 1: 3})


def _pairwise_fairness(k, hist, finished_at):
    """The definition, checked pair of runs by pair of runs."""
    for i in range(k):
        occurrences = [idx for idx, t in enumerate(hist) if t == i]
        for p, q in zip(occurrences, occurrences[1:]):
            for j in range(k):
                fin = finished_at.get(j)
                still_active = fin is None or fin >= q
                if j != i and still_active and j not in hist[p + 1:q]:
                    return False
    return True


def test_one_pass_fairness_agrees_with_the_pairwise_definition():
    rng = random.Random(404)
    verdicts = []
    for _ in range(600):
        k = rng.randint(1, 5)
        # mostly round-robin, with some runs swapped, dropped or out of range
        hist = [t % k for t in range(rng.randint(0, 4 * k))]
        for _ in range(rng.randint(0, 2)):
            if hist:
                a, b = rng.randrange(len(hist)), rng.randrange(len(hist))
                hist[a], hist[b] = hist[b], hist[a]
                if rng.random() < 0.3:
                    hist[a] = rng.choice([hist[a] + 1, -1, k])
        finished_at = {j: rng.randint(0, len(hist)) for j in range(k) if rng.random() < 0.4}
        verdict = fairness(k, hist, finished_at)
        assert verdict == _pairwise_fairness(k, hist, finished_at), (k, hist, finished_at)
        verdicts.append(verdict)
    assert 100 < sum(verdicts) < 500


def test_randomized_task_sets():
    rng = random.Random(99)
    for _ in range(20):
        k = rng.randint(1, 8)
        tasks = [
            yielding_task(
                rng.randint(0, 16),
                write_value=rng.randint(0, 50) if rng.random() < 0.5 else None,
            )
            for _ in range(k)
        ]
        run = run_scheduler(tasks, cfg=PARANOID)
        checks = scheduler_checks(run, k)
        assert all(checks.values()), checks

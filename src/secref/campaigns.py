"""Property campaigns: the executable counterparts of the framework's laws.

Each campaign returns a Report of named checks; the CLI prints them and the
acceptance suite asserts them.  Campaigns are seed-deterministic.
"""
from __future__ import annotations

import random
import sys
from collections import Counter
from typing import Optional

from . import heap as hp
from .contracts import ArrowS, BaseS
from .errors import MonitorAlarm, RecallUnwitnessed, SecrefError, ShareLeak
from .heap import PREORDERS, TRIVIAL
from .labels import initial_world, labels_monotone, lr_inv, modif_only_shareable_and_encaps
from .linker import (
    DualProgram,
    back_translate,
    beh,
    beh_equal,
    compile_program,
    link_dual,
    link_source,
    link_target,
)
from .programs import (
    RunConfig,
    RunState,
    alloc_op,
    contains_pred,
    do,
    encapsulated_pred,
    label_shareable_op,
    private_pred,
    recall_op,
    run_closed,
    shareable_pred,
    witness_op,
    write_op,
)
from .sampling import preorder_laws
from .scenarios import (
    SECRET_SNOOP,
    SECRET_STASH,
    Scenario,
    counter_callback,
    run_scenario,
    run_scheduler,
    scenario_autograder,
    scenario_guess,
    scenario_prng,
    scenario_safe_prog,
    scheduler_checks,
    yielding_task,
)
from .target_lang import Expr, elaborate, gen_random_context
from .values import INT, UNIT, Ref, VInt, VRef, record

FUZZ_FUEL = 1500
_MIN_RECURSION = 30_000


def _ensure_recursion_headroom():
    if sys.getrecursionlimit() < _MIN_RECURSION:
        sys.setrecursionlimit(_MIN_RECURSION)


@record
class Check:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.name}{suffix}"


class Report:
    __slots__ = ("title", "checks", "stats")

    def __init__(self, title: str):
        self.title, self.checks, self.stats = title, [], {}

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))

    def lines(self):
        yield f"== {self.title}"
        for c in self.checks:
            yield c.line()
        for k in sorted(self.stats):
            yield f"   {k}: {self.stats[k]}"

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
        }


# ---------------------------------------------------------------------------
# fuzz targets: scenario family with randomized parameters


def _fuzz_targets():
    return (
        ("safe_prog", lambda rng: scenario_safe_prog()),
        (
            "autograder",
            lambda rng: scenario_autograder(
                tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 7)))
            ),
        ),
        ("prng", lambda rng: scenario_prng(seed=rng.randint(0, 10**9))),
        (
            "guess",
            lambda rng: scenario_guess(0, rng.randint(10, 120), pick=rng.randint(1, 9)),
        ),
    )


def _generated_trials(rng: random.Random, trials: int):
    """Draw the generated trials of a campaign from rng, cycling through the
    families: yields (index, family, factory, scenario, context seed)."""
    targets = _fuzz_targets()
    for i in range(trials):
        name, factory = targets[i % len(targets)]
        scenario = factory(rng)
        yield i, name, factory, scenario, rng.randint(0, 2**31)


def _generated_context(scenario: Scenario, seed: int):
    expr = gen_random_context(scenario.interface.spec, seed=seed, size=35)
    return expr, elaborate(expr, scenario.interface.spec, name=f"gen{seed}")


def generated_term(family: str, ctx_seed: int) -> Expr:
    """The term that a generated trial of family ran with ctx_seed.  It reads
    only the family's interface spec, which no scenario parameter changes."""
    scenario = dict(_fuzz_targets())[family](random.Random(ctx_seed))
    return _generated_context(scenario, ctx_seed)[0]


# ---------------------------------------------------------------------------
# criteria 3, 4 and 9: universal property, global invariant, contract purity


def _label_share_probe() -> Optional[str]:
    """Label a ref whose target is private; the points-to check must refuse.

    Returns None when the probe behaves as required, else a description.
    This also arms the per-step invariant monitor: if the refusal is
    missing, the very next step check sees the broken invariant.
    """

    def gen():
        p = yield alloc_op(INT, TRIVIAL, VInt(0))
        q = yield alloc_op(Ref(INT), TRIVIAL, VRef(p, INT))
        yield label_shareable_op(q)
        return 0

    try:
        run_closed(do(gen), RunConfig(check_level="paranoid"))
    except ShareLeak:
        return None
    except MonitorAlarm as alarm:
        return f"invariant monitor tripped instead of the refusal: {alarm}"
    return "labeling a ref-to-private was not refused"


def campaign_universal(seed: int = 0, trials: int = 1000, fuel: int = FUZZ_FUEL) -> Report:
    """Run generated contexts (plus every shipped adversary) in paranoid
    mode, asserting the universal property around each context execution and
    the global invariant after every interpreter step."""
    _ensure_recursion_headroom()
    report = Report(title=f"universal+invariant+purity (seed={seed}, trials={trials})")
    rng = random.Random(seed)
    cfg = RunConfig(check_level="paranoid", fuel=fuel)
    tally = Counter()
    abort_codes = set()
    violations = []
    failed_checks = []  # "family/context: key" of each false scenario check
    failing_seed = failing_target = None

    def one(name: str, scenario: Scenario, ctx) -> None:
        result = run_scenario(scenario, ctx, cfg)
        trace = result.state.trace
        monotone = all(hp.heap_leq(w0.heap, w1.heap) for _, w0, w1 in trace.context_spans)
        tally.update(spans=len(trace.context_spans), steps=trace.steps,
                     checks=trace.contract_checks, purity_failures=trace.purity_failures,
                     non_monotone=int(not monotone))
        if result.record.outcome[0] == "err":
            tally["aborted"] += 1
            abort_codes.add(result.record.outcome[1])
        else:
            tally["completed"] += 1
            failed_checks.extend(f"{name}/{result.context}: {key}"
                                 for key, ok in result.checks.items() if not ok)

    for name, factory in _fuzz_targets():
        scenario = factory(rng)
        for ctx_name in scenario.contexts:
            try:
                one(name, scenario, ctx_name)
            except MonitorAlarm as alarm:
                violations.append(f"{name}/{ctx_name}: {alarm}")

    for _, name, _, scenario, ctx_seed in _generated_trials(rng, trials):
        try:
            _, ctx = _generated_context(scenario, ctx_seed)
            one(name, scenario, ctx)
        except MonitorAlarm as alarm:
            violations.append(f"{name}/gen{ctx_seed}: {alarm}")
            if failing_seed is None:
                failing_seed, failing_target = ctx_seed, name

    probe = _label_share_probe()
    report.add("label_share_points_to_check", probe is None, probe or "")
    report.add("universal_property_zero_violations", not violations,
               "; ".join(violations[:3]))
    # well-typed contexts can only ever die of fuel: never a boundary
    # refusal from their own allocations, never a heap type error
    report.add("aborts_are_fuel_only", abort_codes <= {"OutOfFuel"},
               ",".join(sorted(abort_codes)))
    report.add("heap_monotone_across_runs", tally["non_monotone"] == 0,
               f"{tally['non_monotone']} runs regressed")
    report.add("scenario_checks_hold_on_completed_runs", not failed_checks,
               failed_checks[0] if failed_checks else "")
    report.add("invariant_checked_every_step", tally["steps"] > 0 and not violations,
               f"{tally['steps']} steps monitored")
    report.add("contract_purity_zero_violations", tally["purity_failures"] == 0,
               f"{tally['checks']} checks monitored")
    report.stats.update(
        trials=trials,
        context_spans_checked=tally["spans"],
        interpreter_steps_monitored=tally["steps"],
        contract_checks_monitored=tally["checks"],
        aborted_runs=tally["aborted"],
        completed_runs=tally["completed"],
        failing_seed=failing_seed,
        failing_target=failing_target,
    )
    return report


# ---------------------------------------------------------------------------
# criteria 5 and 6: syntactic inversion and soundness


def campaign_inversion(seed: int = 0, trials: int = 500, paranoid: bool = False,
                       fuel: int = FUZZ_FUEL) -> Report:
    """Differentially compare compile-then-link against back-translate-then-
    link on randomized (program, context) pairs, asserting the declared
    post-condition on every completed run.

    Every few trials the same context is replayed against a second program
    of the same interface: one back-translation witness must work for all
    programs, so both pairings have to agree as well.
    """
    _ensure_recursion_headroom()
    report = Report(title=f"inversion+soundness (seed={seed}, trials={trials})")
    rng = random.Random(seed)
    cfg = RunConfig(check_level="paranoid" if paranoid else "fast", fuel=fuel)
    problems = {"behavior_records_identical": [], "psi_holds_on_completed_runs": []}
    tally = Counter()
    failing_seed = None

    def compare(scenario, expr, ctx_seed, label):
        """Link one context both ways; returns (check, problem) or None."""
        ctx = elaborate(expr, scenario.interface.spec, name=f"gen{ctx_seed}")
        t_state = RunState(config=cfg)
        t_w0 = t_state.world
        try:
            t_rec = beh(link_target(compile_program(scenario.program, scenario.interface), ctx),
                        state=t_state)
        except MonitorAlarm as alarm:
            return "behavior_records_identical", f"{label}: target side alarm {alarm}"
        s_state = RunState(config=cfg)
        try:
            s_rec = beh(link_source(scenario.program, back_translate(ctx, scenario.interface)),
                        state=s_state)
        except MonitorAlarm as alarm:
            return "behavior_records_identical", f"{label}: source side alarm {alarm}"
        if not beh_equal(t_rec, s_rec):
            return "behavior_records_identical", f"{label}: {t_rec.outcome} vs {s_rec.outcome}"
        if t_rec.outcome[0] != "ok":
            tally["aborted"] += 1
            return None
        tally["completed"] += 1
        if not scenario.interface.psi(t_w0, t_rec.outcome[1], t_state.world):
            return "psi_holds_on_completed_runs", label
        return None

    for i, name, factory, scenario, ctx_seed in _generated_trials(rng, trials):
        expr = gen_random_context(scenario.interface.spec, seed=ctx_seed, size=35)
        found = [compare(scenario, expr, ctx_seed, f"{name}/gen{ctx_seed}")]
        if i % 7 == 0:  # the same context against fresh parameters of the family
            found.append(compare(factory(rng), expr, ctx_seed, f"{name}/gen{ctx_seed}/replay"))
            tally["replayed"] += 1
        for check, problem in filter(None, found):
            problems[check].append(problem)
            failing_seed = failing_seed if failing_seed is not None else ctx_seed

    for check, details in problems.items():
        report.add(check, not details, "; ".join(details[:3]))
    report.stats.update(
        trials=trials,
        completed_runs=tally["completed"],
        aborted_runs=tally["aborted"],
        same_context_replays=tally["replayed"],
        failing_seed=failing_seed,
    )
    return report


# ---------------------------------------------------------------------------
# criterion 7: dual direction (context has initial control)

_DUAL_CALLBACK_SPEC = ArrowS(BaseS(UNIT), BaseS(INT))
_DUAL_MAIN_SPEC = ArrowS(_DUAL_CALLBACK_SPEC, BaseS(INT))


def campaign_dual(seed: int = 0, trials: int = 200, fuel: int = FUZZ_FUEL) -> Report:
    """Hand an exported program value to generated context-main functions
    and assert that the final world differs from the one the context was
    built in only at shareable or encapsulated cells."""
    _ensure_recursion_headroom()
    report = Report(title=f"dual-direction (seed={seed}, trials={trials})")
    rng = random.Random(seed)

    def make_dual(mix_seed: int) -> DualProgram:
        def setup(state: RunState):
            counter = state.op_alloc(INT, PREORDERS["int_leq"], VInt(0))
            state.op_label_encapsulated(counter)
            state.op_alloc(INT, TRIVIAL, VInt(0))  # private, never handed out
            return counter_callback(counter, mix_seed)

        return DualProgram(name="dual_counter", setup=setup, spec=_DUAL_CALLBACK_SPEC)

    violations = []
    aborted = 0
    for i in range(trials):
        ctx_seed = rng.randint(0, 2**31)
        expr = gen_random_context(_DUAL_MAIN_SPEC, seed=ctx_seed, size=30)
        ctx = elaborate(expr, _DUAL_MAIN_SPEC, name=f"dualgen{ctx_seed}")
        dual = make_dual(rng.randint(0, 2**31))
        state = RunState(config=RunConfig(check_level="paranoid", fuel=fuel))
        try:
            rec = beh(link_dual(dual, ctx), state=state)
        except MonitorAlarm as alarm:
            violations.append(f"gen{ctx_seed}: {alarm}")
            continue
        if rec.outcome[0] == "err":
            aborted += 1
        # from the world the context is built in, the setup's private cells
        # stay as they are
        built = [w0 for name, w0, _ in state.trace.context_spans if name.startswith("build:")]
        if built and not modif_only_shareable_and_encaps(built[0], state.world):
            violations.append(f"gen{ctx_seed}: private cell changed")

    report.add("final_world_modifies_only_shareable_and_encaps", not violations,
               "; ".join(violations[:3]))
    report.stats.update(trials=trials, aborted_runs=aborted)
    return report


# ---------------------------------------------------------------------------
# criterion 8: witness/recall soundness and the stability suite


def stability_suite(transitions, preds) -> dict:
    """For each candidate predicate, scan world transitions for a break of
    p(w0) => p(w1).  Returns pred name -> list of offending indexes."""
    flagged = {}
    for pred in preds:
        breaks = [
            idx
            for idx, (w0, w1) in enumerate(transitions)
            if pred.holds(w0) and not pred.holds(w1)
        ]
        flagged[pred.name] = breaks
    return flagged


def _collect_transitions(seed: int, runs: int = 24):
    _ensure_recursion_headroom()
    cfg = RunConfig(check_level="paranoid", fuel=FUZZ_FUEL)
    transitions = []
    for _, _, _, scenario, ctx_seed in _generated_trials(random.Random(seed), runs):
        _, ctx = _generated_context(scenario, ctx_seed)
        result = run_scenario(scenario, ctx, cfg)
        worlds = [initial_world(), *result.state.trace.worlds]
        transitions.extend(zip(worlds, worlds[1:]))
    return transitions


def campaign_witness(seed: int = 0, recall_cases: int = 50) -> Report:
    report = Report(title=f"witness/recall soundness (seed={seed})")
    rng = random.Random(seed)

    refused = 0
    for i in range(recall_cases):
        pred = rng.choice(
            [shareable_pred(rng.randint(1, 9)), contains_pred(rng.randint(1, 9))]
        )
        prefix_allocs = rng.randint(0, 3)

        def gen(pred=pred, n=prefix_allocs):
            for _ in range(n):
                yield alloc_op(INT, TRIVIAL, VInt(0))
            yield recall_op(pred)
            return 0

        try:
            run_closed(do(gen))
        except RecallUnwitnessed:
            refused += 1
    report.add(
        "bare_recall_always_refused",
        refused == recall_cases,
        f"{refused}/{recall_cases}",
    )

    # the positive control: predicates witnessed and still true are recalled
    def witnessed():
        a = yield alloc_op(INT, TRIVIAL, VInt(0))
        yield label_shareable_op(a)
        preds = (shareable_pred(a), contains_pred(a))
        for op in (*map(witness_op, preds), alloc_op(INT, TRIVIAL, VInt(1)),
                   write_op(a, VInt(2)), *map(recall_op, preds)):
            yield op

    try:
        run_closed(do(witnessed), RunConfig(check_level="paranoid"))
        refused = ""
    except SecrefError as err:
        refused = f"{type(err).__name__}: {err}"
    report.add("witnessed_recall_succeeds", not refused, refused)

    transitions = _collect_transitions(seed)
    report.stats["transitions_observed"] = len(transitions)

    stable_candidates = []
    unstable_candidates = []
    for addr in range(1, 7):
        stable_candidates += [shareable_pred(addr), encapsulated_pred(addr), contains_pred(addr)]
        unstable_candidates.append(private_pred(addr))

    flagged = stability_suite(transitions[:1000], stable_candidates + unstable_candidates)
    stable_ok = all(not flagged[p.name] for p in stable_candidates)
    negative_flagged = any(flagged[p.name] for p in unstable_candidates)
    report.add("registered_stable_predicates_hold", stable_ok,
               "; ".join(n for n in flagged if flagged[n] and not n.startswith("is_private"))[:80])
    report.add("is_private_flagged_as_unstable", negative_flagged,
               "negative control must be caught")
    return report


# ---------------------------------------------------------------------------
# criterion 10: scheduler fairness


def campaign_scheduler(seed: int = 0, trials: int = 100) -> Report:
    report = Report(title=f"scheduler fairness (seed={seed}, trials={trials})")
    rng = random.Random(seed)
    bad = []
    for i in range(trials):
        k = rng.randint(1, 8)
        tasks = [
            yielding_task(
                rng.randint(0, 16),
                write_value=rng.randint(0, 99) if rng.random() < 0.5 else None,
            )
            for _ in range(k)
        ]
        run = run_scheduler(tasks, cfg=RunConfig(check_level="paranoid"))
        checks = scheduler_checks(run, k)
        if not all(checks.values()):
            bad.append(f"trial {i}: " + ",".join(n for n, ok in checks.items() if not ok))
    report.add("all_task_sets_fair_and_accounted", not bad, "; ".join(bad[:3]))
    report.stats.update(trials=trials)
    return report


# ---------------------------------------------------------------------------
# property suite (preorder laws, label monotonicity, initial world)


def campaign_props(seed: int = 0) -> Report:
    report = Report(title=f"module property suites (seed={seed})")
    rng = random.Random(seed)

    for p in PREORDERS.values():
        violations = preorder_laws(p, rng)
        report.add(f"preorder_laws[{p.name}]", not violations, "; ".join(violations[:2]))

    broken = preorder_laws(
        type(TRIVIAL)("strictly_greater", lambda a, b: a != b), rng
    )
    report.add("law_suite_detects_broken_preorder", bool(broken), "negative control")

    w = initial_world()
    report.add("initial_world_satisfies_invariant", lr_inv(w))
    report.add("initial_world_empty", not list(w.heap.addresses()))

    transitions = _collect_transitions(seed, runs=12)
    monotone = all(labels_monotone(w0, w1) for w0, w1 in transitions)
    report.add("labels_monotone_on_trace", monotone,
               f"{len(transitions)} transitions")

    inv_holds = all(lr_inv(w1) for _, w1 in transitions)
    report.add("invariant_holds_on_trace", inv_holds)
    return report


# ---------------------------------------------------------------------------
# criterion 1 and 2 engines (scenario-level acceptance)


def campaign_intro() -> Report:
    report = Report(title="intro example (secret vs adversarial library)")
    scenario = scenario_safe_prog()
    cfg = RunConfig(check_level="paranoid")

    for name in ("adversarial", "benign", "forger"):
        try:
            result = run_scenario(scenario, name, cfg)
            report.add(f"safe_prog[{name}]", result.ok and result.record.outcome == ("ok", 42),
                       str(result.record.outcome))
        except MonitorAlarm as alarm:
            report.add(f"safe_prog[{name}]", False, str(alarm))

    for check, forger in (("forged_read_of_secret_refused", SECRET_SNOOP),
                          ("forged_alloc_of_secret_refused", SECRET_STASH)):
        try:
            result = run_scenario(scenario, forger, cfg)
            outcome = result.record.outcome[:2]
            report.add(check,
                       outcome == ("err", "BoundaryViolation") and result.checks["psi_secret_42"],
                       str(outcome))
        except MonitorAlarm as alarm:
            report.add(check, False, str(alarm))

    unlabeled = scenario_safe_prog(labeled=False)
    try:
        result = run_scenario(unlabeled, "adversarial")
        leak = result.record.outcome[0] == "err" and result.record.outcome[1] == "ShareLeak"
        report.add("unlabeled_variant_share_leak", leak, str(result.record.outcome[:2]))
    except MonitorAlarm as alarm:
        report.add("unlabeled_variant_share_leak", False, str(alarm))
    return report


def campaign_autograder(seed: int = 0, honest_runs: int = 50, adversary_runs: int = 50) -> Report:
    report = Report(title=f"autograder (seed={seed})")
    rng = random.Random(seed)
    cfg = RunConfig(check_level="paranoid")

    honest_ok, alarms = 0, []
    for _ in range(honest_runs):
        tests = tuple(rng.randint(-20, 20) for _ in range(rng.randint(0, 10)))
        try:
            result = run_scenario(scenario_autograder(tests), "honest", cfg)
        except MonitorAlarm as alarm:
            alarms.append(f"{type(alarm).__name__}: {alarm}")
            continue
        if result.record.outcome == ("ok", 10) and result.ok:
            honest_ok += 1
    report.add("honest_sorts_everything", honest_ok == honest_runs,
               "; ".join([f"{honest_ok}/{honest_runs}", *alarms[:3]]))

    def graded_zero(adversary, tests, failures) -> int:
        """Run one adversary trial; 1 if it ran to an outcome, 0 on an alarm."""
        try:
            result = run_scenario(scenario_autograder(tuple(tests)), adversary, cfg)
        except MonitorAlarm as alarm:
            failures.append(f"{adversary}: {alarm}")
            return 0
        if result.record.outcome != ("ok", 0) or not result.ok:
            failures.append(f"{adversary}@{tests}: {result.record.outcome}")
        return 1

    runs = 0
    failures = []
    for adversary in ("cycler", "mutator", "lazy"):
        for _ in range(adversary_runs):
            size = rng.randint(2, 8)
            tests = [rng.randint(-20, 20) for _ in range(size)]
            # ensure the list is genuinely unsorted so laziness is caught
            tests.sort()
            tests[0], tests[-1] = tests[-1], tests[0]
            if tests[0] == tests[-1]:
                tests[0] += 1
            runs += graded_zero(adversary, tests, failures)
    report.add("adversaries_always_zero", not failures, "; ".join(failures[:3]))

    # distinct sorted values stay sorted when the mutator bumps the head, so
    # only the same-values law can refuse it
    sorted_failures = []
    for _ in range(adversary_runs):
        tests = sorted(rng.sample(range(-20, 21), rng.randint(2, 8)))
        graded_zero("mutator", tests, sorted_failures)
    report.add("mutator_on_sorted_lists_zero", not sorted_failures,
               "; ".join(sorted_failures[:3]))
    report.stats.update(honest_runs=honest_runs, adversary_runs=runs)
    return report

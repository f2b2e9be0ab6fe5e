"""The four workloads: seed-deterministic trial inputs and one checked verdict
per trial.

A trial input is plain data drawn from the workload seed (family, list
contents, task yield counts, context-generation seeds).  Running a trial
builds the program objects from that data, links and runs them, runs the
program's own post-run checks, and then compares the outcome against the
independent references in `reference.py`.

Program functions are always reached through their module (`sc.run_scenario`,
never a bare imported name), so the traced run's wrappers see every call.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator

from secref import campaigns as cp
from secref import contracts as ct
from secref import heap as hp
from secref import labels as lb
from secref import linker as lk
from secref import programs as pg
from secref import scenarios as sc
from secref import target_lang as tl
from secref.errors import MonitorAlarm
from secref.values import INT, UNIT, VInr, VInt

import reference as ref

GEN_SIZE = 35        # campaign_universal / campaign_inversion context size
DUAL_GEN_SIZE = 30   # campaign_dual context size
FAMILIES = ("safe_prog", "autograder", "prng", "guess")
# `secref fuzz` runs T universal, T inversion and T/2 dual trials
FUZZ_CYCLE = ("universal", "inversion", "universal", "inversion", "dual")
SORT_BLOCK = 8  # trials per block: seven honest, one adversary
ADVERSARIES = ("cycler", "mutator", "lazy")

GOLDEN = 0.6180339887498949
SILVER = 0.4142135623730951


@dataclass
class Verdict:
    seconds: float       # build + link-and-run + the program's own checks
    run_seconds: float   # link-and-run only
    steps: int           # summed trace.steps of every run in the verdict
    worlds: int          # worlds the paranoid monitor retained
    signature: tuple     # outcome, steps and final heap size
    problems: list       # empty when the verdict is correct


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Iterator[tuple]]
    run: Callable[[tuple], Verdict]
    corpus: int          # trials per pass of the traced run
    prepare: Callable[[], None] = lambda: None
    expect_zero: tuple = ()      # per-layer metrics that must read 0 when traced
    expect_nonzero: tuple = ()   # and those that must not


def weyl(rng: random.Random, step: float) -> Iterator[float]:
    """A low-discrepancy sequence in [0, 1) with a seeded offset, so every
    run covers the size range evenly whatever its seed."""
    u = rng.random()
    while True:
        yield u
        u = (u + step) % 1.0


def _timed_check(scenario) -> list:
    """Time the scenario's own post-run check so it can be split from the
    link-and-run time of `run_scenario`."""
    spent = [0.0]
    check = scenario.check

    def timed(result):
        t = perf_counter()
        try:
            return check(result)
        finally:
            spent[0] += perf_counter() - t

    scenario.check = timed
    return spent


def _failed_checks(checks: dict) -> list:
    return [f"program check {name} failed" for name, ok in checks.items() if not ok]


def _alarm_verdict(t0: float, t1: float, alarm: MonitorAlarm) -> Verdict:
    now = perf_counter()
    return Verdict(now - t0, now - t1, 0, 0, ("alarm", type(alarm).__name__),
                   [f"monitor alarm: {alarm}"])


# ---------------------------------------------------------------------------
# fuzz: the trial stream of `secref fuzz` and the acceptance campaigns


def _campaign_headroom() -> None:
    """campaign_universal, campaign_inversion and campaign_dual raise the
    recursion limit before their trial loops.  The fuzz workload runs those
    loops' trials, so it makes the same call; the other workloads run at the
    interpreter's default limit, like campaign_autograder and
    campaign_scheduler."""
    cp._ensure_recursion_headroom()


def _draw_params(family: str, rng: random.Random) -> tuple:
    # the parameter ranges of campaigns._fuzz_targets
    if family == "autograder":
        return (tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 7))),)
    if family == "prng":
        return (rng.randint(0, 10**9),)
    if family == "guess":
        return (rng.randint(10, 120), rng.randint(1, 9))
    return ()


def fuzz_inputs(seed: int) -> Iterator[tuple]:
    rng = random.Random(seed)
    drawn = {"universal": 0, "inversion": 0}
    for i in itertools.count():
        kind = FUZZ_CYCLE[i % len(FUZZ_CYCLE)]
        if kind == "dual":
            yield (kind, None, (), rng.randint(0, 2**31), rng.randint(0, 2**31))
            continue
        family = FAMILIES[drawn[kind] % len(FAMILIES)]
        drawn[kind] += 1
        yield (kind, family, _draw_params(family, rng), rng.randint(0, 2**31), None)


def _build_scenario(family: str, params: tuple):
    if family == "safe_prog":
        return sc.scenario_safe_prog()
    if family == "autograder":
        return sc.scenario_autograder(params[0])
    if family == "prng":
        return sc.scenario_prng(seed=params[0])
    return sc.scenario_guess(0, params[0], pick=params[1])


def _fuzz_config(paranoid: bool) -> pg.RunConfig:
    return pg.RunConfig(check_level="paranoid" if paranoid else "fast", fuel=cp.FUZZ_FUEL)


def _universal(family, params, ctx_seed) -> Verdict:
    t0 = perf_counter()
    scenario = _build_scenario(family, params)
    spec = scenario.interface.spec
    ctx = tl.elaborate(tl.gen_random_context(spec, seed=ctx_seed, size=GEN_SIZE), spec,
                       name=f"gen{ctx_seed}")
    check_s = _timed_check(scenario)
    t1 = perf_counter()
    try:
        result = sc.run_scenario(scenario, ctx, _fuzz_config(paranoid=True))
    except MonitorAlarm as alarm:
        return _alarm_verdict(t0, t1, alarm)
    t2 = perf_counter()
    monotone = hp.heap_leq(result.w0.heap, result.w1.heap)
    t3 = perf_counter()

    outcome = result.record.outcome
    trace = result.state.trace
    problems = ref.outcome_problems(outcome)
    problems += ref.family_problems(family, params, outcome, result.w1)
    if not monotone:
        problems.append("heap regressed across the run")
    if outcome[0] == "ok":
        problems += _failed_checks(result.checks)
    return Verdict(t3 - t0, t2 - t1 - check_s[0], trace.steps, len(trace.worlds),
                   (outcome, trace.steps, len(result.w1.heap.cells)), problems)


def _inversion(family, params, ctx_seed) -> Verdict:
    t0 = perf_counter()
    scenario = _build_scenario(family, params)
    spec = scenario.interface.spec
    expr = tl.gen_random_context(spec, seed=ctx_seed, size=GEN_SIZE)
    ctx = tl.elaborate(expr, spec, name=f"gen{ctx_seed}")
    ctx2 = tl.elaborate(expr, spec, name=ctx.name)
    cfg = _fuzz_config(paranoid=False)
    t_state = pg.RunState(config=cfg)
    s_state = pg.RunState(config=cfg)
    t_w0 = t_state.world
    t1 = perf_counter()
    try:
        compiled = lk.compile_program(scenario.program, scenario.interface)
        t_rec = lk.beh(lk.link_target(compiled, ctx), state=t_state)
        back = lk.back_translate(ctx2, scenario.interface)
        s_rec = lk.beh(lk.link_source(scenario.program, back), state=s_state)
    except MonitorAlarm as alarm:
        return _alarm_verdict(t0, t1, alarm)
    t2 = perf_counter()
    same = lk.beh_equal(t_rec, s_rec)
    psi = t_rec.outcome[0] != "ok" or scenario.interface.psi(
        t_w0, t_rec.outcome[1], t_state.world)
    t3 = perf_counter()

    problems = ref.outcome_problems(t_rec.outcome)
    if t_rec.outcome != s_rec.outcome or t_rec.dump != s_rec.dump:
        problems.append(f"inversion records differ: {t_rec.outcome} vs {s_rec.outcome}")
    problems += ref.family_problems(family, params, t_rec.outcome, t_state.world)
    if not (same and psi):
        problems.append("program check behavior_records_identical or psi failed")
    steps = t_state.trace.steps + s_state.trace.steps
    return Verdict(t3 - t0, t2 - t1, steps, 0,
                   (t_rec.outcome, steps, len(t_state.world.heap.cells)), problems)


CB_SPEC = ct.ArrowS(ct.BaseS(UNIT), ct.BaseS(INT))
MAIN_SPEC = ct.ArrowS(CB_SPEC, ct.BaseS(INT))


def _dual_program(mix_seed: int, calls: list):
    """campaign_dual's exported counter, counting its own callback calls."""

    def setup(state):
        counter = state.op_alloc(INT, hp.PREORDERS["int_leq"], VInt(0))
        state.op_label_encapsulated(counter)

        def cb(_arg):
            calls[0] += 1

            def gen():
                cur = yield pg.read_op(counter)
                yield pg.write_op(counter, VInt(cur.value + 1))
                return VInt(sc.generate_nr(mix_seed, cur.value + 1))

            return pg.do(gen)

        return cb

    return lk.DualProgram(name="dual_counter", setup=setup, spec=CB_SPEC,
                          hocs=ct.hocs_of(CB_SPEC))


def _dual(ctx_seed, mix_seed) -> Verdict:
    t0 = perf_counter()
    expr = tl.gen_random_context(MAIN_SPEC, seed=ctx_seed, size=DUAL_GEN_SIZE)
    ctx = tl.elaborate(expr, MAIN_SPEC, name=f"dualgen{ctx_seed}")
    calls = [0]
    dual = _dual_program(mix_seed, calls)
    state = pg.RunState(config=_fuzz_config(paranoid=True))
    w0 = state.world
    t1 = perf_counter()
    try:
        rec = lk.beh(lk.link_dual(dual, ctx), state=state)
    except MonitorAlarm as alarm:
        return _alarm_verdict(t0, t1, alarm)
    t2 = perf_counter()
    footprint = lb.modif_only_shareable_and_encaps(w0, state.world)
    t3 = perf_counter()

    problems = ref.dual_problems(rec.outcome, state.world, calls[0])
    if not footprint:
        problems.append("program check final_world_modifies_only_shareable_and_encaps failed")
    trace = state.trace
    return Verdict(t3 - t0, t2 - t1, trace.steps, len(trace.worlds),
                   (rec.outcome, trace.steps, len(state.world.heap.cells)), problems)


def run_fuzz(trial: tuple) -> Verdict:
    kind, family, params, ctx_seed, mix_seed = trial
    if kind == "universal":
        return _universal(family, params, ctx_seed)
    if kind == "inversion":
        return _inversion(family, params, ctx_seed)
    return _dual(ctx_seed, mix_seed)


# ---------------------------------------------------------------------------
# sort_fast: the autograder in fast mode


def with_mean_disorder(values: list, rng: random.Random) -> list:
    """The sorted `values` rearranged in a random order with exactly
    n(n-1)/4 inversions, the mean over uniform permutations.  The honest
    sort's cost follows the inversion count, so fixing it keeps lists of one
    length equally costly and the verdict-time median steady."""
    n = len(values)
    code = [0] * n  # Lehmer code: element i goes before code[i] earlier ones
    left = n * (n - 1) // 4
    while left:
        i = rng.randrange(1, n)
        if code[i] < i:
            code[i] += 1
            left -= 1
    order = []
    for value, before in zip(values, code):
        order.insert(len(order) - before, value)
    return order


def sort_inputs(seed: int) -> Iterator[tuple]:
    """Blocks of SORT_BLOCK trials: one adversary, in turn cycler, mutator
    and lazy, at a random slot; honest submissions everywhere else."""
    rng = random.Random(seed)
    honest_sizes = weyl(rng, GOLDEN)
    other_sizes = weyl(rng, SILVER)
    for block in itertools.count():
        slot = rng.randrange(SORT_BLOCK)
        for i in range(SORT_BLOCK):
            if i != slot:
                n = 8 + int(next(honest_sizes) * 57)
                tests = with_mean_disorder(sorted(rng.sample(range(-99, 100), n)), rng)
                yield ("honest", tuple(tests))
                continue
            tests = [rng.randint(-99, 99) for _ in range(8 + int(next(other_sizes) * 57))]
            # genuinely unsorted, as in campaign_autograder
            tests.sort()
            tests[0], tests[-1] = tests[-1], tests[0]
            if tests[0] == tests[-1]:
                tests[0] += 1
            yield (ADVERSARIES[block % len(ADVERSARIES)], tuple(tests))


def run_sort(trial: tuple) -> Verdict:
    context, tests = trial
    t0 = perf_counter()
    scenario = sc.scenario_autograder(tests)
    check_s = _timed_check(scenario)
    t1 = perf_counter()
    result = sc.run_scenario(scenario, context, pg.RunConfig())
    t2 = perf_counter()
    outcome = result.record.outcome
    problems = ref.sort_problems(context, tests, outcome, result.w1)
    problems += _failed_checks(result.checks)
    steps = result.state.trace.steps
    return Verdict(t2 - t0, t2 - t1 - check_s[0], steps, 0,
                   (outcome, steps, len(result.w1.heap.cells)), problems)


# ---------------------------------------------------------------------------
# the cooperative scheduler


def _writes(i: int, rng: random.Random):
    # every other task writes the shared cell: half of them, as the
    # scheduler campaign's coin flip gives on average
    return rng.randint(0, 99) if i % 2 == 0 else None


def _split(runs: int, k: int, low: int, rng: random.Random) -> list:
    """k yield counts of at least `low` whose runs (yields + 1) sum to `runs`."""
    spare = runs - k * (low + 1)
    cuts = sorted(rng.randint(0, spare) for _ in range(k - 1))
    return [low + b - a for a, b in zip([0] + cuts, cuts + [spare])]


def sched_inputs(seed: int) -> Iterator[tuple]:
    """Task sets whose total number of task runs, one history cell each, is
    spread evenly over 40..280: a paranoid verdict costs about the square
    of it, so every run sees the same cost mix."""
    rng = random.Random(seed)
    totals = weyl(rng, GOLDEN)
    while True:
        runs = 40 + int(next(totals) * 241)
        k = rng.randint(max(2, -(-runs // 61)), min(8, runs // 11))
        yield tuple((y, _writes(i, rng)) for i, y in enumerate(_split(runs, k, 10, rng)))


def large_sched_inputs(seed: int) -> Iterator[tuple]:
    """2-8 buffered tasks sharing 2000..4000 buffer cells, both spread
    evenly over the run, each yielding 5-20 times."""
    rng = random.Random(seed)
    task_counts = weyl(rng, GOLDEN)
    heap_sizes = weyl(rng, SILVER)
    while True:
        k = 2 + int(next(task_counts) * 7)
        total = 2000 + int(next(heap_sizes) * 2000)
        sizes = [total // k + (total % k if i == 0 else 0) for i in range(k)]
        yield tuple((rng.randint(5, 20), _writes(i, rng), size) for i, size in enumerate(sizes))


def buffered_task(yields: int, write_value, buffer: int):
    """A yielding task that allocates `buffer` shareable cells when built; a
    writing task also stores each step's value into its buffer, slot
    `left % buffer`, where `left` counts its remaining yields."""

    def make(ops, shared):
        cells = [ops.alloc(INT, VInt(0)) for _ in range(buffer)]
        left = [yields]

        def step():
            if write_value is not None:
                value = VInt(write_value + left[0])
                ops.write(shared, value)
                ops.write(cells[left[0] % buffer], value)
            if left[0] <= 0:
                return sc.TASK_DONE
            left[0] -= 1
            return VInr(step)

        return step

    return make


def _sched_verdict(tasks, builders, mode: str, buffers=None) -> Verdict:
    t0 = perf_counter()
    run = sc.run_scheduler(builders, cfg=pg.RunConfig(check_level=mode))
    t1 = perf_counter()
    checks = sc.scheduler_checks(run, len(builders))
    t2 = perf_counter()
    outcome = run.record.outcome
    problems = ref.scheduler_problems(tasks, outcome, run.hist, run.w1, buffers)
    problems += _failed_checks(checks)
    trace = run.state.trace
    return Verdict(t2 - t0, t1 - t0, trace.steps, len(trace.worlds),
                   (outcome, trace.steps, len(run.w1.heap.cells)), problems)


def run_sched_paranoid(trial: tuple) -> Verdict:
    builders = [sc.yielding_task(y, write_value=w) for y, w in trial]
    return _sched_verdict(trial, builders, "paranoid")


def run_sched_fast_large(trial: tuple) -> Verdict:
    builders = [buffered_task(y, w, size) for y, w, size in trial]
    bases = itertools.accumulate([3] + [size for _, _, size in trial])
    buffers = [(base, size) for base, (_, _, size) in zip(bases, trial)]
    return _sched_verdict([t[:2] for t in trial], builders, "fast", buffers)


# zero / non-zero patterns of the traced run: a wrapper that silently stops
# firing (say, a call site that bound its target with `from .x import f`)
# fails the run instead of reporting 0 s
EVERYWHERE = (
    "programs.steps", "values.conforms.calls", "values.ref_entries.calls",
    "heap.alloc.calls", "heap.write.calls", "heap.self_s", "heap.cells_copied",
    "labels.ops.self_s", "labels.footprint.calls", "labels.footprint.self_s",
    "labels.footprint.cells_scanned", "programs.ops.alloc", "programs.ops.write",
    "programs.ops.label", "programs.interpret.self_s", "programs.after_step.self_s",
    "linker.ctx_ops.write", "linker.ctx_ops.self_s", "linker.beh.self_s",
    "scenarios.check.self_s", "programs.monitor_share", "trace_overhead_ratio",
)
LR_INV = ("labels.lr_inv.calls", "labels.lr_inv.self_s", "labels.lr_inv.cells_scanned",
          "programs.worlds_retained")
CONTRACTS = ("contracts.import.calls", "contracts.export.calls", "contracts.wrap.self_s",
             "contracts.check.calls", "contracts.check.self_s")
SREF = ("target_lang.parse.calls", "target_lang.parse.self_s", "target_lang.typecheck.self_s",
        "target_lang.eval.self_s", "scenarios.build.calls", "scenarios.build.self_s",
        "linker.close_span.calls", "linker.close_span.self_s")
GEN = ("target_lang.gen.self_s",)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("fuzz", fuzz_inputs, run_fuzz, corpus=1000, prepare=_campaign_headroom,
                 expect_nonzero=EVERYWHERE + LR_INV + CONTRACTS + SREF + GEN + (
                     "heap.read.calls", "programs.ops.read", "programs.ops.witness",
                     "linker.ctx_ops.alloc", "linker.ctx_ops.read")),
        Workload("sort_fast", sort_inputs, run_sort, corpus=10,
                 expect_zero=LR_INV + GEN,
                 expect_nonzero=EVERYWHERE + CONTRACTS + SREF + (
                     "programs.ops.witness", "linker.ctx_ops.alloc", "linker.ctx_ops.read")),
        Workload("sched_paranoid", sched_inputs, run_sched_paranoid, corpus=8,
                 expect_zero=CONTRACTS + SREF + GEN,
                 expect_nonzero=EVERYWHERE + LR_INV),
        Workload("sched_fast_large", large_sched_inputs, run_sched_fast_large, corpus=6,
                 expect_zero=LR_INV + CONTRACTS + SREF + GEN,
                 expect_nonzero=EVERYWHERE + ("linker.ctx_ops.alloc",)),
    )
}

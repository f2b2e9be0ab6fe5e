"""Smoke test of the benchmark harness under bench/.

It imports bench/workloads.py and bench/tracing.py as they are and runs a
few trials of every workload, so a change that renames or deletes a program
name the benchmark calls or patches fails here, not only in a benchmark run.
Nothing under bench/ is written, not even bytecode caches.
"""
import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 2026  # the benchmark's default seed


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import run
        import tracing
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    return workloads, tracing, run


def _first(workload, n):
    workload.prepare()
    return list(itertools.islice(workload.inputs(SEED), n))


def test_fuzz_trials_of_every_kind_pass_their_checks(bench):
    workloads, _, _ = bench
    fuzz = workloads.WORKLOADS["fuzz"]
    trials = _first(fuzz, 5)
    assert {t[0] for t in trials} == {"universal", "inversion", "dual"}
    for trial in trials:
        assert fuzz.run(trial).problems == [], trial


@pytest.mark.parametrize("name", ["sort_fast", "sched_paranoid", "sched_fast_large"])
def test_first_trial_of_each_other_workload_passes_its_checks(bench, name):
    workloads, _, _ = bench
    workload = workloads.WORKLOADS[name]
    (trial,) = _first(workload, 1)
    assert workload.run(trial).problems == []


def test_tracer_installs_and_uninstalls(bench):
    workloads, tracing, _ = bench
    from secref import linker

    close_span = linker._close_span
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert linker._close_span is not close_span
    finally:
        tracer.uninstall()
    assert linker._close_span is close_span


@pytest.mark.parametrize("name", ["fuzz", "sort_fast", "sched_paranoid", "sched_fast_large"])
def test_traced_first_trial_keeps_the_cross_layer_identities(bench, name):
    """Under the tracer, every step is counted once and every labeled
    operation reaches its heap operation once, and the verdict is the one
    an untraced run gives."""
    workloads, tracing, run = bench
    workload = workloads.WORKLOADS[name]
    (trial,) = _first(workload, 1)
    plain = workload.run(trial)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workload.run(trial)
    finally:
        tracer.uninstall()
    assert traced.problems == []
    assert traced.signature == plain.signature
    calls = dict(tracer.calls)
    assert calls.get("labels.lr_write.calls", 0) + calls.get("labels.lr_alloc.calls", 0) > 0
    assert run.identities(calls, traced.steps) == []


# expect_nonzero keys that are ratios of whole passes, not readings of one trial
RATIOS = ("programs.monitor_share", "trace_overhead_ratio")


@pytest.mark.parametrize("name", ["sort_fast", "sched_paranoid", "sched_fast_large"])
def test_traced_first_trial_reaches_every_layer_the_workload_expects(bench, name):
    """One traced trial already reads non-zero for each of the workload's
    `expect_nonzero` keys, so a layer that stops being entered (a skipped
    step monitor, a dump made lazy) fails here, not only in a traced run."""
    workloads, tracing, run = bench
    workload = workloads.WORKLOADS[name]
    (trial,) = _first(workload, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        verdict = workload.run(trial)
    finally:
        tracer.uninstall()
    derived = {"programs.steps": verdict.steps, "programs.worlds_retained": verdict.worlds}
    zero = []
    for key in workload.expect_nonzero:
        if key in RATIOS:
            continue
        if key.endswith(".self_s"):
            reading = tracer.self_s.get(key[:-len(".self_s")], 0.0)
        elif key in derived:
            reading = derived[key]
        else:
            assert key in run.COUNTS, key
            reading = tracer.calls.get(key, 0)
        if not reading:
            zero.append(key)
    assert zero == []


def test_traced_fuzz_cycle_parses_typechecks_and_generates(bench):
    """One full fuzz cycle under the tracer parses and typechecks shipped
    contexts and generates random ones, so a parse cache or a lazy load
    that would zero these readings in a traced run fails here.  The cycle
    runs once untraced first, so such a cache would already be full."""
    workloads, tracing, _ = bench
    fuzz = workloads.WORKLOADS["fuzz"]
    trials = _first(fuzz, len(workloads.FUZZ_CYCLE))
    for trial in trials:
        fuzz.run(trial)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for trial in trials:
            assert fuzz.run(trial).problems == [], trial
    finally:
        tracer.uninstall()
    assert tracer.calls.get("target_lang.parse.calls", 0) > 0
    for layer in ("target_lang.parse", "target_lang.typecheck", "target_lang.gen"):
        assert tracer.self_s.get(layer, 0.0) > 0, layer

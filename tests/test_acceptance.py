"""Acceptance criteria, one test per criterion, with stated budgets.

Run `pytest tests/test_acceptance.py -s` to see one verdict line per
criterion.  Campaigns that feed several criteria run once per session.
"""
import time

import pytest

import mutate
from secref import campaigns
from secref.campaigns import (
    campaign_autograder,
    campaign_dual,
    campaign_intro,
    campaign_inversion,
    campaign_scheduler,
    campaign_universal,
    campaign_witness,
)
from secref.errors import StabilityViolation
from secref.heap import Heap
from secref.labels import World, is_private
from secref.programs import RunState
from secref.values import VInt

SEED = 2026


def _verdict(num, desc, ok, elapsed=None, limit=None):
    within = limit is None or (elapsed is not None and elapsed < limit)
    status = "PASS" if (ok and within) else "FAIL"
    timing = f"  [{elapsed:.2f}s < {limit}s]" if limit is not None else ""
    print(f"\ncriterion {num:>2} ({desc}): {status}{timing}")
    assert ok, f"criterion {num} checks failed"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def universal():
    return _timed(campaign_universal, seed=SEED, trials=1000)


@pytest.fixture(scope="module")
def inversion():
    return _timed(campaign_inversion, seed=SEED, trials=500)


def test_criterion_1_intro_example():
    report, elapsed = _timed(campaign_intro)
    _verdict(1, "intro: secret survives, unlabeled leak refused", report.ok,
             elapsed, 1.0)


def test_criterion_2_autograder():
    report, elapsed = _timed(campaign_autograder, seed=SEED,
                             honest_runs=50, adversary_runs=50)
    runs = report.stats["honest_runs"] + report.stats["adversary_runs"]
    _verdict(2, f"autograder 100% of {runs} runs", report.ok and runs == 200,
             elapsed, 5.0)


def test_criterion_3_universal_property(universal):
    report, elapsed = universal
    enough = report.stats["trials"] >= 1000
    clean = next(c for c in report.checks if c.name == "universal_property_zero_violations")
    _verdict(3, f"universal property over {report.stats['context_spans_checked']} spans",
             clean.ok and enough, elapsed, 60.0)


def test_criterion_4_global_invariant(universal):
    report, _ = universal
    inv = next(c for c in report.checks if c.name == "invariant_checked_every_step")
    probe = next(c for c in report.checks if c.name == "label_share_points_to_check")
    _verdict(4, f"lr_inv after {report.stats['interpreter_steps_monitored']} steps",
             inv.ok and probe.ok)


def test_criterion_5_syntactic_inversion(inversion):
    report, elapsed = inversion
    equal = next(c for c in report.checks if c.name == "behavior_records_identical")
    _verdict(5, f"inversion law on {report.stats['trials']} pairs, tolerance 0",
             equal.ok and report.stats["trials"] == 500, elapsed, 60.0)


def test_criterion_6_soundness(inversion):
    report, _ = inversion
    psi = next(c for c in report.checks if c.name == "psi_holds_on_completed_runs")
    _verdict(6, f"psi on {report.stats['completed_runs']} completed target runs", psi.ok)


def test_criterion_7_dual_setting():
    report, elapsed = _timed(campaign_dual, seed=SEED, trials=200)
    _verdict(7, "dual direction: context-first, 200 trials", report.ok, elapsed)


def test_criterion_8_witness_recall(universal):
    report, elapsed = _timed(campaign_witness, seed=SEED)
    corpus_clean = universal[0].ok  # any StabilityViolation would have failed it
    _verdict(8, "witness/recall soundness + stability controls",
             report.ok and corpus_clean, elapsed)


def test_criterion_9_contract_purity(universal):
    report, _ = universal
    purity = next(c for c in report.checks if c.name == "contract_purity_zero_violations")
    _verdict(9, f"purity of {report.stats['contract_checks_monitored']} contract checks",
             purity.ok and report.stats["contract_checks_monitored"] > 0)


def test_criterion_10_scheduler():
    report, elapsed = _timed(campaign_scheduler, seed=SEED, trials=100)
    _verdict(10, "scheduler fairness on 100 task sets", report.ok, elapsed, 10.0)


def mutation_detected(name: str) -> bool:
    """Run, under the named mutant, the acceptance check it must break."""
    # the intro campaign catches the boundary and ShareLeak mutants; under
    # ctx_alloc_unchecked the forged alloc stores the secret's address in a
    # shareable cell, and the paranoid monitor's lr_inv_at alarms
    campaign = {
        "label_share_unchecked": lambda: campaign_universal(seed=1, trials=4),
        "import_no_post": lambda: campaign_autograder(seed=1, honest_runs=2, adversary_runs=2),
    }.get(name, campaign_intro)
    with mutate.enabled(name):
        return not campaign().ok


def test_criterion_11_mutation_sensitivity():
    names = ("ctx_alloc_unchecked", "ctx_read_unchecked", "ctx_write_unchecked",
             "label_share_unchecked", "lr_write_share_unchecked", "import_no_post")
    assert set(names) == set(mutate.KNOWN)
    results = {name: mutation_detected(name) for name in names}
    _verdict(11, f"seeded mutants detected: {sorted(results)}", all(results.values()))


# ---------------------------------------------------------------------------
# the footprint checks compare worlds a run went through, so each can fail


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_a_context_span_that_drops_a_cell_fails_the_monotone_heap_check(monkeypatch):
    real, dropped = campaigns.run_scenario, []

    def dropping(scenario, ctx, cfg):
        # the first span that starts with a cell ends without it
        result = real(scenario, ctx, cfg)
        spans = result.state.trace.context_spans
        for i, (name, w0, w1) in enumerate(spans):
            if w0.heap.cells and not dropped:
                addr = next(iter(w0.heap.cells))
                heap = Heap(w1.heap.cells.set(addr, None), w1.heap.next_addr)
                spans[i] = (name, w0, World(heap, w1.labels))
                dropped.append(addr)
        return result

    monkeypatch.setattr(campaigns, "run_scenario", dropping)
    check = _check(campaign_universal(seed=SEED, trials=4), "heap_monotone_across_runs")
    assert dropped and not check.ok and check.detail == "1 runs regressed"


def test_a_false_scenario_check_on_a_completed_run_fails_the_universal_campaign(monkeypatch):
    real, forced = campaigns.run_scenario, []

    def failing(scenario, ctx, cfg):
        # the first run that ends ok reads one scenario check as false
        result = real(scenario, ctx, cfg)
        if result.record.outcome[0] == "ok" and not forced:
            result.checks["forced"] = False
            forced.append(f"{scenario.name}/{result.context}: forced")
        return result

    monkeypatch.setattr(campaigns, "run_scenario", failing)
    check = _check(campaign_universal(seed=SEED, trials=4), "scenario_checks_hold_on_completed_runs")
    assert forced and not check.ok and check.detail == forced[0]


def test_a_refused_recall_of_a_witnessed_predicate_fails_the_witness_campaign(monkeypatch):
    assert _check(campaign_witness(seed=SEED, recall_cases=2), "witnessed_recall_succeeds").ok
    real = RunState.op_recall

    def refusing(state, pred):
        if pred.name in state.witnesses:
            raise StabilityViolation(f"recalled {pred.name} refused")
        return real(state, pred)

    monkeypatch.setattr(RunState, "op_recall", refusing)
    report = campaign_witness(seed=SEED, recall_cases=2)
    check = _check(report, "witnessed_recall_succeeds")
    assert not check.ok and check.detail == "StabilityViolation: recalled is_shareable@1 refused"
    assert _check(report, "bare_recall_always_refused").ok


def test_a_host_write_to_a_private_cell_after_the_context_returns_fails_the_dual_check(
        monkeypatch):
    real = campaigns.link_dual

    def then_write(dual, ctx):
        run = real(dual, ctx)

        def wrote(state):
            out = run(state)
            w = state.world
            state.op_write(next(a for a in w.heap.addresses() if is_private(w, a)), VInt(1))
            return out

        return wrote

    monkeypatch.setattr(campaigns, "link_dual", then_write)
    check = _check(campaign_dual(seed=SEED, trials=4),
                   "final_world_modifies_only_shareable_and_encaps")
    assert not check.ok and "private cell changed" in check.detail

"""Acceptance criteria, one test per criterion, with stated budgets.

Run `pytest tests/test_acceptance.py -s` to see one verdict line per
criterion.  Campaigns that feed several criteria run once per session.
"""
import time

import pytest

import mutate
from secref.campaigns import (
    campaign_autograder,
    campaign_dual,
    campaign_intro,
    campaign_inversion,
    campaign_scheduler,
    campaign_universal,
    campaign_witness,
)

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

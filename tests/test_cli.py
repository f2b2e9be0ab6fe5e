import hashlib
import json
import sys

import pytest

from secref import campaigns
from secref.cli import main


def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return main(args)


def test_run_autograder_honest_exits_zero(tmp_path, monkeypatch):
    code = run_cli(
        ["run", "autograder", "honest", "--json", str(tmp_path / "r.json")],
        tmp_path, monkeypatch,
    )
    assert code == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["ok"] is True


def test_run_autograder_cycler_is_an_expected_adversary(tmp_path, monkeypatch):
    code = run_cli(
        ["run", "autograder", "cycler", "--paranoid", "--json", str(tmp_path / "r.json")],
        tmp_path, monkeypatch,
    )
    assert code == 0


def test_run_safe_prog_adversarial(tmp_path, monkeypatch):
    code = run_cli(
        ["run", "safe_prog", "adversarial", "--json", str(tmp_path / "r.json")],
        tmp_path, monkeypatch,
    )
    assert code == 0


def test_run_scheduler_named_task_set(tmp_path, monkeypatch):
    code = run_cli(
        ["run", "scheduler", "three_tasks_two_yields", "--json", str(tmp_path / "r.json")],
        tmp_path, monkeypatch,
    )
    assert code == 0


def test_run_external_sref_context(tmp_path, monkeypatch):
    ctx = tmp_path / "noop.sref"
    ctx.write_text("(lam (ll (ref (llist int))) unit)")
    code = run_cli(
        ["run", "autograder", str(ctx), "--json", str(tmp_path / "r.json")],
        tmp_path, monkeypatch,
    )
    assert code == 0


def test_run_unknown_context_exits_2(tmp_path, monkeypatch):
    assert run_cli(["run", "autograder", "nope"], tmp_path, monkeypatch) == 2


def test_check_valid_and_invalid_files(tmp_path, monkeypatch):
    good = tmp_path / "good.sref"
    good.write_text("(lam (x int) (+ x 1))")
    assert run_cli(["check", str(good)], tmp_path, monkeypatch) == 0

    stores_fn = tmp_path / "fn.sref"
    stores_fn.write_text("(alloc (lam (x int) x))")
    assert run_cli(["check", str(stores_fn)], tmp_path, monkeypatch) == 1

    broken = tmp_path / "broken.sref"
    broken.write_text("(lam (x int)")
    assert run_cli(["check", str(broken)], tmp_path, monkeypatch) == 1


@pytest.mark.parametrize("text", [
    "(lam (x int) " * 1200 + "x" + ")" * 1200,
    "(lam (f (-> int int)) (f" + " 1" * 3000 + "))",
])
def test_check_fails_deep_input_without_crashing(text, tmp_path, monkeypatch, capsys):
    deep = tmp_path / "deep.sref"
    deep.write_text(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default, whatever an earlier test set
    try:
        code = run_cli(["check", str(deep)], tmp_path, monkeypatch)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL ") and "nesting deeper than" in out


def test_check_reports_a_file_that_is_not_utf8(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.sref"
    bad.write_bytes(b"\xff(lam (x int) x)")
    assert run_cli(["check", str(bad)], tmp_path, monkeypatch) == 2
    assert capsys.readouterr().out.startswith(f"cannot read {bad}: ")


def test_run_reports_a_context_that_is_not_utf8(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.sref"
    bad.write_bytes(b"\xff(lam (ll (ref (llist int))) unit)")
    code = run_cli(["run", "autograder", str(bad), "--json", str(tmp_path / "r.json")],
                   tmp_path, monkeypatch)
    assert code == 2
    assert capsys.readouterr().out.startswith("cannot load context: ")


def test_a_seed_that_is_not_an_integer_is_reported(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SECREF_SEED", "abc")
    assert run_cli(["props"], tmp_path, monkeypatch) == 2
    assert "SECREF_SEED" in capsys.readouterr().out


def test_fuzz_writes_deterministic_report(tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["fuzz", "--seed", "4", "--trials", "12", "--json", str(a)],
                   tmp_path, monkeypatch) == 0
    assert run_cli(["fuzz", "--seed", "4", "--trials", "12", "--json", str(b)],
                   tmp_path, monkeypatch) == 0
    assert a.read_text() == b.read_text()


def test_fuzz_respects_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("SECREF_SEED", "77")
    a = tmp_path / "a.json"
    assert run_cli(["fuzz", "--trials", "8", "--json", str(a)], tmp_path, monkeypatch) == 0
    assert json.loads(a.read_text())["meta"]["seed"] == 77


def test_props_exits_zero(tmp_path, monkeypatch):
    code = run_cli(["props", "--seed", "2", "--json", str(tmp_path / "p.json")],
                   tmp_path, monkeypatch)
    assert code == 0


def test_shrinker_finds_a_minimal_term():
    from secref.campaigns import shrink_generated_context

    def nodes(e):
        total = 1
        for fname in getattr(e, "__dataclass_fields__", {}):
            sub = getattr(e, fname)
            if hasattr(sub, "__dataclass_fields__"):
                total += nodes(sub)
        return total

    # a synthetic always-failing predicate exercises the regeneration ladder
    expr = shrink_generated_context("autograder", 1234, lambda s, c, e: True)
    assert expr is not None
    big = shrink_generated_context("autograder", 1234, lambda s, c, e: True,
                                   sizes=(28,))
    assert nodes(expr) <= nodes(big)


def test_shrinker_lets_a_generator_error_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("generator bug")

    monkeypatch.setattr(campaigns, "gen_random_context", broken)
    with pytest.raises(RuntimeError, match="generator bug"):
        campaigns.shrink_generated_context("autograder", 1234, lambda s, c, e: True)


def test_fuzz_fuel_does_not_leak_into_later_campaigns(tmp_path, monkeypatch):
    fresh, after = tmp_path / "fresh.json", tmp_path / "after.json"
    assert run_cli(["props", "--seed", "7", "--json", str(fresh)], tmp_path, monkeypatch) == 0
    run_cli(["fuzz", "--seed", "7", "--trials", "4", "--fuel", "5",
             "--json", str(tmp_path / "fuzz.json")], tmp_path, monkeypatch)
    assert campaigns.FUZZ_FUEL == 1500
    assert run_cli(["props", "--seed", "7", "--json", str(after)], tmp_path, monkeypatch) == 0
    assert after.read_text() == fresh.read_text()


# sha256 of the fixed-seed reports: the determinism contract says the same
# seed and config give a byte-identical report, and a change that keeps
# behaviour (a faster evaluator, a new store) must keep these digests
PINNED_REPORTS = {
    "fuzz": (["fuzz", "--seed", "7", "--trials", "200", "--fuel", "1500", "--paranoid"],
             "4183cbb1b77d47d22fbc98935b61cc4e41ec3136aa966a7b843482e1a09d8a86"),
    "props": (["props", "--seed", "7"],
              "84a912fcd37532ec5f6bd5cc96d3c68a897430ecac131dd998ee25cbd1278d5d"),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_fixed_seed_report_matches_its_pinned_digest(name, tmp_path, monkeypatch):
    args, digest = PINNED_REPORTS[name]
    out = tmp_path / f"{name}.json"
    assert run_cli(args + ["--json", str(out)], tmp_path, monkeypatch) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

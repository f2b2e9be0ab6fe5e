import hashlib
import json
import sys

import pytest

from secref import campaigns
from secref.cli import main
from secref.errors import UniversalViolation


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


# 100 nested lets, each binding a 90-deep pair around the previous name: the
# term nests fewer than 200 levels, but its inferred type is about 9000 deep
LET_CHAIN = "".join(
    f"(let (a{i} {'(pair 1 ' * 90}{f'a{i - 1}' if i else '1'}{')' * 90}) " for i in range(100)
) + "(alloc a99)" + ")" * 100
# 40 lets that each pair the previous name with itself: a 1 KB term whose
# inferred type is 41 deep and has 2^41 nodes as a tree
DOUBLING = "(let (a0 1) " + "".join(
    f"(let (a{i} (pair a{i - 1} a{i - 1})) " for i in range(1, 41)
) + "(alloc a40)" + ")" * 41
DEEP_INPUT_ERRORS = {LET_CHAIN: "TooLarge: an inferred type is deeper than 400",
                     DOUBLING: "TooLarge: an inferred type has more than 4096 nodes"}


def run_cli_at_default_recursion_limit(args, tmp_path, monkeypatch):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default, whatever an earlier test set
    try:
        return run_cli(args, tmp_path, monkeypatch)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("text", [
    "(lam (x int) " * 1200 + "x" + ")" * 1200,
    "(lam (f (-> int int)) (f" + " 1" * 3000 + "))",
    pytest.param(LET_CHAIN, id="let_chain"),
    pytest.param(DOUBLING, id="doubling"),
])
def test_check_fails_deep_input_without_crashing(text, tmp_path, monkeypatch, capsys):
    deep = tmp_path / "deep.sref"
    deep.write_text(text)
    code = run_cli_at_default_recursion_limit(["check", str(deep)], tmp_path, monkeypatch)
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL ") and DEEP_INPUT_ERRORS.get(text, "nesting deeper than") in out


def test_run_refuses_a_context_whose_inferred_type_is_too_deep(tmp_path, monkeypatch, capsys):
    deep = tmp_path / "letchain.sref"
    deep.write_text(LET_CHAIN)
    code = run_cli_at_default_recursion_limit(
        ["run", "prng", str(deep), "--json", str(tmp_path / "r.json")], tmp_path, monkeypatch)
    assert code == 2
    out = capsys.readouterr().out
    assert out.startswith("cannot load context: ") and DEEP_INPUT_ERRORS[LET_CHAIN] in out


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


@pytest.mark.parametrize("keyed_on", ["name", "term"])
def test_fuzz_repro_is_the_term_the_failing_trial_ran(keyed_on, tmp_path, monkeypatch):
    # a planted fault in the third generated universal trial: keyed on the
    # context's name, every term elaborated under that name trips it; keyed
    # on the term, only the size-35 term that the trial ran does
    terms, ran = [], []
    gen, run = campaigns.gen_random_context, campaigns.run_scenario

    def recording_gen(spec, seed, size):
        terms.append(gen(spec, seed=seed, size=size))
        return terms[-1]

    def faulty_run(scenario, ctx, cfg):
        if not isinstance(ctx, str):
            ran.append({"name": ctx.name, "term": terms[-1]})
            if len(ran) >= 3 and ran[-1][keyed_on] == ran[2][keyed_on]:
                raise UniversalViolation(f"planted fault in {ctx.name}")
        return run(scenario, ctx, cfg)

    monkeypatch.setattr(campaigns, "gen_random_context", recording_gen)
    monkeypatch.setattr(campaigns, "run_scenario", faulty_run)
    repro = tmp_path / "repro.txt"
    code = run_cli(["fuzz", "--seed", "7", "--trials", "8", "--json", str(tmp_path / "f.json"),
                    "--repro", str(repro)], tmp_path, monkeypatch)
    assert code == 1
    universal = json.loads((tmp_path / "f.json").read_text())["reports"][0]
    assert ran[2]["name"] == f"gen{universal['stats']['failing_seed']}"
    assert repro.read_text() == repr(ran[2]["term"]) + "\n"


def test_a_passing_fuzz_run_removes_an_older_repro(tmp_path, monkeypatch):
    repro = tmp_path / "secref-repro.txt"
    repro.write_text("stale\n")
    assert run_cli(["fuzz", "--seed", "3", "--trials", "8", "--json", str(tmp_path / "f.json"),
                    "--repro", str(repro)], tmp_path, monkeypatch) == 0
    assert not repro.exists()


def test_a_generator_error_propagates_out_of_the_universal_campaign(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("generator bug")

    monkeypatch.setattr(campaigns, "gen_random_context", broken)
    with pytest.raises(RuntimeError, match="generator bug"):
        campaigns.campaign_universal(seed=1234, trials=2)


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

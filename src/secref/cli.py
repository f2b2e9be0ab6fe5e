"""Command-line harness.

    secref run <scenario> <context-or-file.sref>   link one pair and report
    secref check <file.sref>                       parse and typecheck
    secref fuzz  [--seed N --trials N --fuel N --paranoid]
    secref props [--seed N]

Every command prints one line per check, writes a machine-readable JSON
report, and exits 0 exactly when every check passed.  SECREF_SEED sets the
default seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import campaigns
from .campaigns import Report
from .errors import SecrefError, SrefParseError, TargetTypeError
from .programs import RunConfig
from .scenarios import (
    NAMED_TASK_SETS,
    all_scenarios,
    run_scenario,
    run_scheduler,
    scheduler_checks,
)
from .target_lang import load_sref, parse, typecheck


def _emit(reports: list[Report], json_path: str, meta: dict) -> int:
    for report in reports:
        for line in report.lines():
            print(line)
        print()
    ok = all(r.ok for r in reports)
    payload = {
        "ok": ok,
        "meta": {k: meta[k] for k in sorted(meta)},
        "reports": [r.to_dict() for r in reports],
    }
    Path(json_path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    total = sum(len(r.checks) for r in reports)
    failed = sum(1 for r in reports for c in r.checks if not c.ok)
    print(f"{total - failed}/{total} checks passed; report written to {json_path}")
    return 0 if ok else 1


def cmd_run(args) -> int:
    cfg = RunConfig(
        check_level="paranoid" if args.paranoid else "fast", fuel=args.fuel
    )
    report = Report(title=f"run {args.scenario} {args.context}")

    if args.scenario == "scheduler":
        tasks = NAMED_TASK_SETS.get(args.context)
        if tasks is None:
            print(f"unknown task set {args.context!r}; have: {sorted(NAMED_TASK_SETS)}")
            return 2
        run = run_scheduler(tasks, cfg=cfg)
        for line in run.record.lines():
            print(line)
        for name, ok in scheduler_checks(run, len(tasks)).items():
            report.add(name, ok)
        return _emit([report], args.json, {"command": "run", "scenario": "scheduler"})

    factories = all_scenarios()
    if args.scenario not in factories:
        print(f"unknown scenario {args.scenario!r}; have: {sorted(factories)} and scheduler")
        return 2
    scenario = factories[args.scenario]()

    context = args.context
    if context.endswith(".sref"):
        try:
            text = Path(context).read_text(encoding="utf-8")
            context = load_sref(text, scenario.interface.spec, name=Path(context).stem)
        except (OSError, UnicodeDecodeError, SecrefError) as err:
            print(f"cannot load context: {err}")
            return 2
    elif context not in scenario.contexts:
        print(f"unknown context {context!r}; have: {sorted(scenario.contexts)}")
        return 2

    result = run_scenario(scenario, context, cfg)
    for line in result.record.lines():
        print(line)
    for name, ok in result.checks.items():
        report.add(name, ok)
    return _emit(
        [report], args.json, {"command": "run", "scenario": args.scenario}
    )


def cmd_check(args) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read {args.file}: {err}")
        return 2
    try:
        expr = parse(text)
        inferred = typecheck(expr)
    except (SrefParseError, TargetTypeError) as err:
        print(f"FAIL {args.file}: {err}")
        return 1
    print(f"OK {args.file}: {inferred}")
    return 0


def cmd_fuzz(args) -> int:
    global_cfg = {"seed": args.seed, "trials": args.trials, "fuel": args.fuel}
    reports = [
        campaigns.campaign_universal(seed=args.seed, trials=args.trials, fuel=args.fuel),
        campaigns.campaign_inversion(
            seed=args.seed, trials=args.trials, paranoid=args.paranoid, fuel=args.fuel
        ),
        campaigns.campaign_dual(seed=args.seed, trials=max(1, args.trials // 2), fuel=args.fuel),
    ]

    failing_seed = reports[0].stats["failing_seed"]
    repro = Path(args.repro)
    repro.unlink(missing_ok=True)  # no older repro outlives a passing run
    if failing_seed is not None:
        expr = campaigns.generated_term(reports[0].stats["failing_target"], failing_seed)
        repro.write_text(repr(expr) + "\n")
        print(f"failing context written to {args.repro}")

    return _emit(reports, args.json, {"command": "fuzz", **global_cfg})


def cmd_props(args) -> int:
    reports = [
        campaigns.campaign_props(seed=args.seed),
        campaigns.campaign_witness(seed=args.seed),
    ]
    return _emit(reports, args.json, {"command": "props", "seed": args.seed})


def main(argv=None) -> int:
    try:
        seed = int(os.environ.get("SECREF_SEED", "0"))
    except ValueError:
        print(f"SECREF_SEED must be an integer, not {os.environ['SECREF_SEED']!r}")
        return 2
    parser = argparse.ArgumentParser(prog="secref", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="link one scenario with one context and run it")
    p_run.add_argument("scenario")
    p_run.add_argument("context", help="a named context or a path to a .sref file")
    p_run.add_argument("--fuel", type=int, default=RunConfig().fuel)
    p_run.add_argument("--paranoid", action="store_true")
    p_run.add_argument("--json", default="secref-report.json")
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="parse and typecheck a .sref file")
    p_check.add_argument("file")
    p_check.set_defaults(fn=cmd_check)

    p_fuzz = sub.add_parser("fuzz", help="differential and universal-property campaigns")
    p_fuzz.add_argument("--seed", type=int, default=seed)
    p_fuzz.add_argument("--trials", type=int, default=200)
    p_fuzz.add_argument("--fuel", type=int, default=campaigns.FUZZ_FUEL)
    p_fuzz.add_argument("--paranoid", action="store_true")
    p_fuzz.add_argument("--json", default="secref-report.json")
    p_fuzz.add_argument("--repro", default="secref-repro.txt")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_props = sub.add_parser("props", help="module invariant suites")
    p_props.add_argument("--seed", type=int, default=seed)
    p_props.add_argument("--json", default="secref-report.json")
    p_props.set_defaults(fn=cmd_props)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""Reach census: the statements of the model that production traffic runs.

The traffic is what the model is run for, in this one process with fixed
seeds and every report written to a temporary directory:
- the CLI's `fuzz --trials 60`, fast and `--paranoid`; `props`; `run` on
  every scenario with every named context and on every named task set, at
  both check levels; and `check` on every shipped `.sref`;
- the intro, autograder (10 + 10) and scheduler (30) acceptance campaigns;
- the first trials of each benchmark workload, imported from `bench/` as
  they are, with nothing written there.

A line tracer records the lines run in frames of `secref` modules only.  The
model is imported afresh under it, so what runs at start-up counts, and the
modules imported before are put back after.  The universe is every statement of every function and method of a `secref`
module, nested functions included, named as `mutate` names a site.  `def`s,
classes, imports, docstrings and `global`/`nonlocal` declarations are left
out: they run no code of their own inside a function.  A statement is
reached when a line of its own span ran: its lines, less those of the
statements nested in it.

    PYTHONPATH=src python tests/reach.py --census

prints the unreached statements by function, the `raise` statements apart
from the rest, and exits 1 when more statements other than `raise` are
unreached than `UNREACHED_MAX`.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import itertools
import sys
import tempfile
import time
from pathlib import Path

import mutate

PACKAGE = Path(mutate.campaigns.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_SEED = 2026  # the benchmark's default seed
# how many trials of each workload to run: five `fuzz` trials cover its
# universal, inversion and dual kinds
BENCH_TRIALS = {"fuzz": 5, "sort_fast": 1, "sched_paranoid": 1, "sched_fast_large": 1}

# the statements other than `raise` that the traffic leaves unreached; a
# change that leaves more unreached fails the census
UNREACHED_MAX = 222

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Global, ast.Nonlocal)


def modules() -> list:
    """The names of the `secref` modules, sorted."""
    return sorted(path.stem for path in PACKAGE.glob("*.py"))


def own_lines(stmt: ast.stmt) -> set:
    """The lines of stmt less those of the statements nested in it: a
    compound statement's header, `else:`, `except ...:` and `case ...:`
    lines; all the lines of a simple statement."""
    lines = set(range(stmt.lineno, stmt.end_lineno + 1))
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(stmt, field, ()):
            for nested in child.body if isinstance(child, (ast.ExceptHandler,
                                                           ast.match_case)) else (child,):
                lines -= set(range(nested.lineno, nested.end_lineno + 1))
    return lines


def _counted(stmt: ast.stmt) -> bool:
    # a docstring, like any bare constant, compiles to no code
    return not (isinstance(stmt, _SKIPPED)
                or isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))


def universe(names=None) -> dict:
    """Site -> (file, statement, its own lines) for every counted statement
    of the named modules, by default all of them."""
    return {site: (mutate._module(name).__file__, stmt, own_lines(stmt))
            for name in names or modules()
            for site, stmt in mutate.statement_sites(name) if _counted(stmt)}


def traced(run) -> set:
    """Run run() under a line tracer; the (file, line) pairs that ran in
    frames of `secref` modules."""
    files = {str(PACKAGE / f"{name}.py") for name in modules()}
    hits = set()
    add = hits.add

    def line(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hits


@contextlib.contextmanager
def _fresh_model():
    """Run the block with no `secref` module imported, and put back the
    modules imported before after it."""
    def model():
        return [name for name in sys.modules if name.split(".")[0] == "secref"]

    saved = {name: sys.modules.pop(name) for name in model()}
    try:
        yield
    finally:
        for name in model():
            del sys.modules[name]
        sys.modules.update(saved)


def _bench_workloads():
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    return workloads.WORKLOADS


def production_traffic() -> None:
    """Run the production traffic; raise if a command or campaign fails."""
    from secref import campaigns, cli
    from secref.scenarios import CONTEXTS, NAMED_TASK_SETS, all_scenarios

    workloads = _bench_workloads()
    failed = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        json_path = str(Path(tmp, "report.json"))

        def secref(*argv):
            if cli.main([*argv, "--json", json_path] if argv[0] != "check" else list(argv)):
                failed.append(" ".join(argv))

        repro = str(Path(tmp, "repro.txt"))
        for level in ((), ("--paranoid",)):
            secref("fuzz", "--seed", "0", "--trials", "60", "--repro", repro, *level)
        secref("props", "--seed", "0")
        for level in ((), ("--paranoid",)):
            for scenario, factory in all_scenarios().items():
                for context in factory().contexts:
                    secref("run", scenario, context, *level)
            for tasks in NAMED_TASK_SETS:
                secref("run", "scheduler", tasks, *level)
        for path in sorted(CONTEXTS.glob("*.sref")):
            secref("check", str(path))
        for campaign in (campaigns.campaign_intro(), campaigns.campaign_autograder(0, 10, 10),
                       campaigns.campaign_scheduler(0, 30)):
            if not campaign.ok:
                failed.append(campaign.title)
        for name, n in BENCH_TRIALS.items():
            workload = workloads[name]
            workload.prepare()
            for trial in itertools.islice(workload.inputs(BENCH_SEED), n):
                if workload.run(trial).problems:
                    failed.append(f"bench {name} {trial!r:.60}")
    if failed:
        raise RuntimeError(f"production traffic failed: {failed}")


def unreached(stmts: dict, hits: set) -> list:
    """The sites of stmts none of whose own lines ran, in source order."""
    return [site for site, (path, _, lines) in stmts.items()
            if not any((path, line) in hits for line in lines)]


def census(traffic=production_traffic, bound=None) -> int:
    started = time.perf_counter()
    bound = UNREACHED_MAX if bound is None else bound
    stmts = universe()

    def run():
        for name in modules():
            importlib.import_module(f"secref.{name}")
        traffic()

    with _fresh_model():
        hits = traced(run)
    missed = unreached(stmts, hits)
    raises = [site for site in missed if isinstance(stmts[site][1], ast.Raise)]
    others = [site for site in missed if not isinstance(stmts[site][1], ast.Raise)]
    for title, sites in (("raise statements", raises), ("other statements", others)):
        print(f"unreached {title}: {len(sites)}")
        for (module, function), group in itertools.groupby(
                sites, lambda site: (site.module, site.function)):
            print(f"  {module}.{function}")
            for site in group:
                print(f"    line {stmts[site][1].lineno}: {site.head} #{site.ordinal}")
    print(f"\n{len(stmts) - len(missed)} of {len(stmts)} statements reached; unreached: "
          f"{len(raises)} raise, {len(others)} other (bound {bound}); "
          f"{time.perf_counter() - started:.1f} s")
    if len(others) > bound:
        print(f"more statements other than raise unreached than the bound: {len(others)} > {bound}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--census", action="store_true", required=True)
    parser.parse_args(argv)
    return census()


if __name__ == "__main__":
    sys.exit(main())

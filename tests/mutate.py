"""Mutants of the model, made by rewriting its check sites.

A site names one statement of one function in a `secref` module: the
function by its qualified name (`ctx_read`, or `RunState._tick` for a
method), the statement by the start of its source text, as `ast.unparse`
prints it, and its ordinal among the statements of that function that start
so, in source order, nested functions included.  So
`Site("linker", "ctx_read", "raise BoundaryViolation", 2)` is `ctx_read`'s
second `raise BoundaryViolation`.  A site never names a line number.

There is one operator: the statement becomes `pass`.  On a `raise` that is
`raise -> pass`; on an `if` without `else` it is the same as making its
guard `False`.

`mutant(*sites)` rebuilds each named function from its module's source with
those statements deleted, compiled beside the module's imports (which carry
its `__future__` flags) at the original line numbers, so a rebuild with no
site deleted equals the function's own code.  It swaps the function's
`__code__` for the length of the `with` block and restores it however the
block ends.  Every binding of the function sees the swap: `CtxOps.read`, the
same function imported into another module, and a method bound from it.  A
closure made from a nested function keeps the code it was made with, so a
closure made before the block runs unmutated.

`KNOWN` names six mutants, each a set of sites that switches off one dynamic
check; criterion 11 requires a campaign to detect each of them.

Run as a script, it is the census of the model's raise sites:

    PYTHONPATH=src python tests/mutate.py --census --seed 0

It makes one `raise -> pass` mutant per `raise` statement in `heap`,
`labels`, `linker`, `programs`, `contracts` and `values`, runs each, and
each named mutant, in a forked child against a reduced set of campaigns,
and prints a site x campaign table: `K` the campaign's report failed, `C` it
raised, `T` it ran past its time budget, `.` it passed (the mutant
survived).  It exits 1 if a site in `KILLED`, or a named mutant, survives.
"""
from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import os
import signal
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple

from secref import campaigns


class Site(NamedTuple):
    module: str  # a module of the secref package
    function: str  # qualified name: `fn`, or `Class.method`
    head: str  # the start of the statement's source
    ordinal: int = 1

    def __str__(self):
        return f"{self.module}.{self.function}: {self.head} #{self.ordinal}"


def _starts(head: str, text: str) -> bool:
    """Does the statement whose first source line is head start with text,
    at a word boundary?"""
    if not head.startswith(text):
        return False
    rest = head[len(text):len(text) + 1]
    return not (rest.isalnum() or rest == "_")


def _statements(node: ast.AST) -> list:
    """(statement, its first source line) for each statement under node,
    nested functions included, in source order."""
    stmts = sorted((n for n in ast.walk(node) if isinstance(n, ast.stmt) and n is not node),
                   key=lambda n: (n.lineno, n.col_offset))
    return [(n, ast.unparse(n).split("\n", 1)[0]) for n in stmts]


def _module(name: str):
    return importlib.import_module(f"secref.{name}")


def _function(module, qualname: str):
    """The function object that qualname binds, under the staticmethod of a
    `__new__`."""
    obj = module
    for name in qualname.split("."):
        obj = vars(obj)[name]
    return getattr(obj, "__func__", obj)


def _def_path(tree: ast.Module, qualname: str) -> list:
    """The class definitions down to the function definition named by
    qualname."""
    path, body = [], tree.body
    for name in qualname.split("."):
        node = next(n for n in body
                    if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name)
        path.append(node)
        body = node.body
    return path


def _find_code(code, qualname: str):
    for const in code.co_consts:
        if inspect.iscode(const):
            found = const if const.co_qualname == qualname else _find_code(const, qualname)
            if found is not None:
                return found
    return None


class _Delete(ast.NodeTransformer):
    def __init__(self, targets: set):
        self.targets = targets

    def visit(self, node):
        if id(node) in self.targets:
            return ast.copy_location(ast.Pass(), node)
        return super().visit(node)


def mutated_code(module, qualname: str, sites) -> object:
    """The code of the function qualname with each site's statement deleted."""
    tree = ast.parse(inspect.getsource(module))
    *classes, node = _def_path(tree, qualname)
    statements = _statements(node)
    targets = set()
    for site in sites:
        matches = [stmt for stmt, head in statements if _starts(head, site.head)]
        if len(matches) < site.ordinal:
            raise LookupError(f"no site {site}: {len(matches)} statements start so")
        targets.add(id(matches[site.ordinal - 1]))
    node = _Delete(targets).visit(node)
    node.decorator_list = []
    # a method is compiled in its class, for its qualified name, private
    # names and `__class__` cell
    for cls in reversed(classes):
        node = ast.copy_location(
            ast.ClassDef(name=cls.name, bases=[], keywords=[], body=[node], decorator_list=[]), cls)
    # the module's imports, compiled but never run: they carry its
    # `__future__` flags, and a call through an imported module compiles
    # to other bytecode than a method call
    imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
    tree = ast.fix_missing_locations(ast.Module(body=[*imports, node], type_ignores=[]))
    code = compile(tree, module.__file__, "exec", dont_inherit=True)
    return _find_code(code, qualname)


@contextmanager
def mutant(*sites: Site):
    """Run the block with every site's statement deleted."""
    by_function: dict = {}
    for site in sites:
        by_function.setdefault((site.module, site.function), []).append(site)
    swaps = []
    for (name, qualname), group in by_function.items():
        module = _module(name)
        fn = _function(module, qualname)
        swaps.append((fn, fn.__code__, mutated_code(module, qualname, group)))
    try:
        for fn, _, code in swaps:
            fn.__code__ = code
        yield
    finally:
        for fn, code, _ in swaps:
            fn.__code__ = code


# each named mutant switches off one dynamic check
KNOWN = {
    # the boundary alloc's embedded-shareable check
    "ctx_alloc_unchecked": (Site("linker", "ctx_alloc", "raise BoundaryViolation"),),
    # the boundary read's shareable check
    "ctx_read_unchecked": (Site("linker", "ctx_read", "raise BoundaryViolation", 2),),
    # the boundary write's shareable checks, on the target and on the
    # embedded addresses; the alloc keeps its own
    "ctx_write_unchecked": (Site("linker", "ctx_write", "raise BoundaryViolation", 2),
                            Site("linker", "ctx_write", "raise BoundaryViolation", 3)),
    # label_shareable's points-to check, with the walk it makes for it and
    # hands to the paranoid monitor
    "label_share_unchecked": (Site("labels", "label_shareable", "entries ="),
                              Site("labels", "label_shareable", "leaked ="),
                              Site("labels", "label_shareable", "if leaked"),
                              Site("labels", "label_shareable", "if walk is not None")),
    # the labeled write's ShareLeak check, in lr_write and in the fused
    # context write
    "lr_write_share_unchecked": (Site("labels", "lr_write", "raise ShareLeak"),
                                 Site("linker", "ctx_write", "raise ShareLeak")),
    # an imported arrow's post contract
    "import_no_post": (Site("contracts", "_import_arrow", "if spec.post is not None", 2),),
}


def enabled(name: str):
    """Run the block under the named mutant."""
    return mutant(*KNOWN[name])


# ---------------------------------------------------------------------------
# the census

CENSUS_MODULES = ("heap", "labels", "linker", "programs", "contracts", "values")

# the raise sites that the census kills at seed 0, each of which must stay
# killed
KILLED = frozenset({
    "labels.lr_write: raise ShareLeak #1",
    "labels.label_shareable: raise ShareLeak #1",
    "linker.ctx_alloc: raise BoundaryViolation #1",
    "linker.ctx_read: raise BoundaryViolation #2",
    "linker.ctx_write: raise BoundaryViolation #2",
    "programs.RunState.op_recall: raise RecallUnwitnessed #1",
})

# seconds one campaign may run under a mutant before it counts as a kill:
# a mutant that deletes a loop's exit, such as `OutOfFuel`, can run forever
CAMPAIGN_BUDGET = 30


def _functions(body, prefix: str = ""):
    """(qualified name, definition) for each function and method of a
    module body."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node


def statement_sites(name: str):
    """(site, statement) for each statement of each function and method of
    the module, in source order, each counted in the function or method that
    holds it and named by its source up to the first parenthesis."""
    for qualname, node in _functions(ast.parse(inspect.getsource(_module(name))).body):
        statements = _statements(node)
        for i, (stmt, head) in enumerate(statements):
            text = head.split("(", 1)[0]
            ordinal = sum(_starts(h, text) for _, h in statements[:i + 1])
            yield Site(name, qualname, text, ordinal), stmt


def raise_sites(name: str) -> list:
    """One site per `raise` statement of the module."""
    return [site for site, stmt in statement_sites(name) if isinstance(stmt, ast.Raise)]


# the reduced campaign set, by name
CAMPAIGNS = {
    "universal": lambda seed: campaigns.campaign_universal(seed=seed, trials=300),
    "inversion": lambda seed: campaigns.campaign_inversion(seed=seed, trials=300),
    "paranoid_inversion": lambda seed: campaigns.campaign_inversion(seed=seed, trials=150,
                                                                    paranoid=True),
    "dual": lambda seed: campaigns.campaign_dual(seed=seed, trials=150),
    "props": lambda seed: campaigns.campaign_props(seed=seed),
    "witness": lambda seed: campaigns.campaign_witness(seed=seed),
    "scheduler": lambda seed: campaigns.campaign_scheduler(seed=seed, trials=30),
    "intro": lambda seed: campaigns.campaign_intro(),
    "autograder": lambda seed: campaigns.campaign_autograder(seed=seed, honest_runs=10,
                                                             adversary_runs=10),
}


class _OverBudget(BaseException):
    pass


def _over_budget(signum, frame):
    raise _OverBudget


def _verdicts(sites, seed: int) -> str:
    """One letter per campaign, from a forked child that runs them all
    under the mutant, so no mutant's run leaves state behind."""
    read, write = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        try:  # whatever happens, the child never returns to the caller's code
            os.close(read)
            out = []
            signal.signal(signal.SIGALRM, _over_budget)
            with mutant(*sites):
                for run in CAMPAIGNS.values():
                    signal.alarm(CAMPAIGN_BUDGET)
                    try:
                        out.append("." if run(seed).ok else "K")
                    except _OverBudget:
                        out.append("T")
                    except Exception:
                        out.append("C")
                    finally:
                        signal.alarm(0)
            os.write(write, "".join(out).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        verdicts = pipe.read()
    os.waitpid(pid, 0)
    if len(verdicts) != len(CAMPAIGNS):
        raise RuntimeError(f"the child running {[str(s) for s in sites]} died")
    return verdicts


def census(seed: int) -> int:
    started = time.perf_counter()
    sites = {str(site): (site,) for name in CENSUS_MODULES for site in raise_sites(name)}
    named = {f"named: {name}": known for name, known in KNOWN.items()}
    rows = {**sites, **named}
    width = max(map(len, rows))
    print(f"{'site':<{width}}  {' '.join(name[:3] for name in CAMPAIGNS)}")
    survived = set()
    for label, row in rows.items():
        verdicts = _verdicts(row, seed)
        print(f"{label:<{width}}  {'   '.join(verdicts)}", flush=True)
        if not verdicts.strip("."):
            survived.add(label)
    print(f"\n{len(sites.keys() - survived)} of {len(sites)} raise sites killed; seed {seed}; "
          f"{time.perf_counter() - started:.1f} s")
    missing = KILLED - sites.keys()
    for label in sorted(missing):
        print(f"listed as killed, but no such site: {label}")
    required = KILLED | named.keys()
    for label in sorted(required & survived):
        print(f"listed as killed, but survived: {label}")
    return 1 if missing or required & survived else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--census", action="store_true", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    return census(args.seed)


if __name__ == "__main__":
    sys.exit(main())

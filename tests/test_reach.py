"""The reach census: its statement universe, the own span of a statement,
and its gate.  None of these runs the production traffic."""
import ast
import re

import mutate
import reach
from mutate import Site
from secref import heap
from secref.heap import EMPTY_HEAP


def test_the_universe_names_each_counted_statement_once_as_mutate_does():
    stmts = reach.universe()
    kinds = {type(stmt) for _, stmt, _ in stmts.values()}
    assert not kinds & set(reach._SKIPPED)
    # no docstring, nor any other bare constant
    assert not any(isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                   for _, stmt, _ in stmts.values())
    # a nested function's statements count in the function that holds it,
    # its `nonlocal` does not count
    assert Site("target_lang", "elaborate", "compiled = compile_term", 1) in stmts
    assert not any(site.function == "elaborate" and site.head.startswith("nonlocal")
                   for site in stmts)
    # a method is named by its class, as in `mutate`
    assert Site("programs", "RunState.op_write", "self._tick", 1) in stmts
    # the raise statements are `mutate`'s raise sites
    for name in mutate.CENSUS_MODULES:
        raises = {site for site, (_, stmt, _) in stmts.items()
                  if site.module == name and isinstance(stmt, ast.Raise)}
        assert raises == set(mutate.raise_sites(name)), name
    # and `mutate` finds the statement that each site of a module names
    for site in reach.universe(["heap"]):
        module = mutate._module(site.module)
        assert mutate.mutated_code(module, site.function, [site]) is not None, site


def test_a_statement_spans_its_own_lines_not_those_of_its_nested_statements():
    source = ("if (a and\n"          # 1
              "        b):\n"        # 2
              "    x = (1 +\n"       # 3
              "         2)\n"        # 4
              "else:\n"              # 5
              "    try:\n"           # 6
              "        y = 3\n"      # 7
              "    except E:\n"      # 8
              "        pass\n")      # 9
    (if_stmt,) = ast.parse(source).body
    assign = if_stmt.body[0]
    (try_stmt,) = if_stmt.orelse
    assert reach.own_lines(if_stmt) == {1, 2, 5}
    assert reach.own_lines(assign) == {3, 4}
    assert reach.own_lines(try_stmt) == {6, 8}
    # a hit on any line of a multi-line statement reaches it
    stmts = {"if": ("f", if_stmt, reach.own_lines(if_stmt)),
             "x": ("f", assign, reach.own_lines(assign))}
    assert reach.unreached(stmts, {("f", 4)}) == ["if"]
    assert reach.unreached(stmts, {("f", 2)}) == ["x"]


def test_the_tracer_records_only_the_lines_that_ran():
    hits = reach.traced(lambda: heap.heap_leq(EMPTY_HEAP, EMPTY_HEAP))
    missed = set(reach.unreached(reach.universe(["heap"]), hits))
    # the loop over the changed addresses of two equal heaps has no turn
    assert Site("heap", "heap_leq", "cells0, cells1 = h0.cells, h1.cells", 1) not in missed
    assert Site("heap", "heap_leq", "return True", 1) not in missed
    assert Site("heap", "heap_leq", "old = cells0.get", 1) in missed
    assert Site("heap", "alloc", "addr = h.next_addr", 1) in missed
    assert {path for path, _ in hits} == {heap.__file__}


def test_the_census_fails_when_more_than_the_bound_are_unreached(capsys):
    # with no traffic, only what runs as the model is imported is reached
    assert reach.census(traffic=lambda: None, bound=len(reach.universe())) == 0
    out = capsys.readouterr().out
    others = int(re.search(r"unreached: \d+ raise, (\d+) other", out).group(1))
    others_listed = out.split("unreached other statements")[1]
    assert "  heap.heap_leq\n" in others_listed and "  values.record\n" not in others_listed
    assert reach.census(traffic=lambda: None, bound=others) == 0
    assert reach.census(traffic=lambda: None, bound=others - 1) == 1
    out = capsys.readouterr().out
    assert f"than the bound: {others} > {others - 1}" in out
    # and the modules imported before are the ones imported after
    assert mutate._module("heap") is heap

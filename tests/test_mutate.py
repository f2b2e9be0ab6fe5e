"""The test-side mutator: sites, the swap of a function's code, and its
restoration."""
import ast
import inspect

import pytest

import mutate
from mutate import KNOWN, Site
from secref import campaigns, linker
from secref.errors import BoundaryViolation
from secref.heap import TRIVIAL
from secref.linker import CtxOps, ctx_read
from secref.programs import RunState
from secref.values import INT, VInt, VRef


def _functions(sites):
    return {mutate._function(mutate._module(s.module), s.function) for s in sites}


def test_every_swapped_code_is_restored_after_the_block_also_when_it_raises():
    sites = [site for sites in KNOWN.values() for site in sites]
    functions = _functions(sites)
    codes = {fn: fn.__code__ for fn in functions}
    with mutate.mutant(*sites):
        assert all(fn.__code__ is not codes[fn] for fn in functions)
    assert all(fn.__code__ is codes[fn] for fn in functions)
    with pytest.raises(RuntimeError, match="inside"):
        with mutate.mutant(*sites):
            raise RuntimeError("inside")
    assert all(fn.__code__ is codes[fn] for fn in functions)


def test_a_site_that_names_no_statement_swaps_nothing():
    before = linker.ctx_read.__code__
    with pytest.raises(LookupError, match="no site linker.ctx_read: raise BoundaryViolation #3"):
        with mutate.mutant(Site("linker", "ctx_read", "raise BoundaryViolation", 3)):
            pass
    assert linker.ctx_read.__code__ is before


def test_the_swap_reaches_every_binding_of_the_function():
    state = RunState()
    ops = CtxOps(state)
    secret = VRef(state.op_alloc(INT, TRIVIAL, VInt(42)), INT)
    with mutate.enabled("ctx_read_unchecked"):
        # the class attribute, a bound method made before the block, and the
        # name imported here
        assert CtxOps.read is ctx_read
        assert ops.read(secret) == ctx_read(ops, secret) == VInt(42)
        assert not campaigns.campaign_intro().ok
    with pytest.raises(BoundaryViolation, match="non-shareable address 1$"):
        ops.read(secret)


def test_a_rebuild_with_no_site_is_the_original_code_and_each_site_changes_it():
    # so a mutant differs from the model at its sites only: same file, line
    # numbers, flags, names and constants
    sites = [site for name in mutate.CENSUS_MODULES for site in mutate.raise_sites(name)]
    sites += [site for sites in KNOWN.values() for site in sites]
    for site in set(sites):
        module = mutate._module(site.module)
        original = mutate._function(module, site.function).__code__
        assert mutate.mutated_code(module, site.function, []) == original, site
        assert mutate.mutated_code(module, site.function, [site]) != original, site


def test_the_census_has_one_site_per_raise_and_lists_only_sites_as_killed():
    sites = [site for name in mutate.CENSUS_MODULES for site in mutate.raise_sites(name)]
    raises = sum(isinstance(node, ast.Raise) for name in mutate.CENSUS_MODULES
                 for node in ast.walk(ast.parse(inspect.getsource(mutate._module(name)))))
    assert len(sites) == len(set(sites)) == raises == 52
    assert mutate.KILLED <= {str(site) for site in sites}


def test_the_census_fails_when_a_listed_kill_survives_or_is_no_site(monkeypatch, capsys):
    # the census on linker's raise sites and one named mutant, against the
    # intro campaign alone
    monkeypatch.setattr(mutate, "CENSUS_MODULES", ("linker",))
    monkeypatch.setattr(mutate, "CAMPAIGNS", {"intro": lambda seed: campaigns.campaign_intro()})
    monkeypatch.setattr(mutate, "KNOWN", {"ctx_read_unchecked": KNOWN["ctx_read_unchecked"]})
    monkeypatch.setattr(mutate, "KILLED", {"linker.ctx_read: raise BoundaryViolation #2"})
    assert mutate.census(seed=0) == 0
    out = capsys.readouterr().out
    assert "3 of 15 raise sites killed" in out
    rows = dict(line.rsplit(maxsplit=1) for line in out.splitlines()[1:]
                if line.endswith((".", "K")))
    assert rows["linker.ctx_read: raise BoundaryViolation #2"] == "K"
    assert rows["linker.ctx_read: raise Uncontained #1"] == "."
    assert rows["named: ctx_read_unchecked"] == "K"
    monkeypatch.setattr(mutate, "KILLED", {"linker.ctx_read: raise Uncontained #1",
                                           "linker.ctx_read: raise OutOfFuel #1"})
    assert mutate.census(seed=0) == 1
    out = capsys.readouterr().out
    assert "listed as killed, but survived: linker.ctx_read: raise Uncontained #1" in out
    assert "listed as killed, but no such site: linker.ctx_read: raise OutOfFuel #1" in out

"""The store as tests build and step it: address maps built as the model
builds every map, from `heap.EMPTY_MAP` with one `set` per entry, the
labeled alloc, write and shareable labeling called as a step calls them,
and run states moved to a given world."""
from secref.heap import EMPTY_MAP, AddrMap
from secref.labels import World, label_shareable, lr_alloc, lr_write
from secref.programs import RunState
from secref.values import ref_entries


def addr_map(entries) -> AddrMap:
    """An `AddrMap` holding the entries of a mapping, set in ascending
    address order.  Every `set` copies its chunk, so the map shares no
    chunk that holds an entry with any other map."""
    m = EMPTY_MAP
    for addr, value in sorted(dict(entries).items()):
        m = m.set(addr, value)
    return m


def alloc_walked(w: World, tag, rel, init):
    """`lr_alloc`, given the walk of init at tag, as `RunState.op_alloc`
    gives it; the walk refuses an init that does not conform."""
    return lr_alloc(w, tag, rel, init, ref_entries(tag, init))


def write_walked(w: World, r, v) -> World:
    """`lr_write`, given r's cell and the walk of v at its tag, as
    `RunState.op_write` gives them; `Heap.cell` refuses an r with no cell."""
    cell = w.heap.cell(r)
    return lr_write(w, r, v, ref_entries(cell.tag, v), cell)


def share(w: World, r) -> World:
    """`label_shareable`, handed a walk list as `RunState.op_label_shareable`
    hands it, which is then dropped."""
    return label_shareable(w, r, [])


def state_at(world: World, config=None, witnesses=()) -> RunState:
    """A fresh `RunState` for config, moved to world with the predicates in
    witnesses witnessed, as if its run had reached them."""
    state = RunState(config=config)
    state.world = world
    state.witnesses.update((pred.name, pred) for pred in witnesses)
    return state

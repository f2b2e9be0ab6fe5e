"""Independent verdict references.

Every function here re-derives what a correct run must leave behind from the
trial's own inputs and the final heap, read field by field.  None of them
calls a predicate, check or helper of the package under test: they only
read its data structures (cells, labels, values), so a bug in a shared
helper cannot make the program and its reference agree by accident.

Each reference returns a list of problems; an empty list means the verdict
matches.
"""
from __future__ import annotations

from collections import Counter

from secref.values import VInr, VInt, VLLCons, VLLNil, VPair

# fixed cell addresses, from the allocation order of each scenario body
FIRST_CELL = 1        # safe_prog secret, autograder grade, prng counter, guess history
SCHED_COUNTER = 1
SCHED_SHARED = 2


def label(world, addr) -> str:
    found = world.labels.get(addr)
    return "Private" if found is None else found.value


def cell_value(world, addr):
    cell = world.heap.cells.get(addr)
    return None if cell is None else cell.value


def int_chain(world, node):
    """Integer heads along a list chain starting at a node value, or None on
    a cycle, a dangling tail or a non-integer head."""
    out = []
    seen = set()
    while isinstance(node, VLLCons):
        if not isinstance(node.head, VInt) or node.tail in seen:
            return None
        out.append(node.head.value)
        seen.add(node.tail)
        node = cell_value(world, node.tail)
    return out if isinstance(node, VLLNil) else None


def outcome_problems(outcome) -> list:
    """A well-typed generated context may only abort by running out of fuel."""
    if outcome[0] == "err" and outcome[1] != "OutOfFuel":
        return [f"abort other than OutOfFuel: {outcome[:2]}"]
    return []


# ---------------------------------------------------------------------------
# fuzz families: the declared post-condition of each, re-derived


def family_problems(family: str, params: tuple, outcome, world) -> list:
    """Post-condition of a completed run of one fuzz-target family."""
    if outcome[0] != "ok":
        return []
    first = cell_value(world, FIRST_CELL)
    if family == "safe_prog":
        if first != VInt(42) or label(world, FIRST_CELL) != "Private":
            return [f"secret is {first} [{label(world, FIRST_CELL)}]"]
        if outcome != ("ok", 42):
            return [f"safe_prog returned {outcome}"]
        return []
    if family == "autograder":
        (tests,) = params
        if not (isinstance(first, VInr) and isinstance(first.payload, VInt)):
            return [f"grade cell holds {first}"]
        grade = first.payload.value
        problems = []
        if label(world, FIRST_CELL) != "Private":
            problems.append("grade cell is not private")
        if outcome != ("ok", grade):
            problems.append(f"outcome {outcome} but grade {grade}")
        # the chain head is the last cell _create_llist allocated
        chain = int_chain(world, cell_value(world, 2 + len(tests)))
        sorted_same = (chain is not None and chain == sorted(chain)
                       and Counter(chain) == Counter(tests))
        if (grade == 10) != sorted_same:
            problems.append(f"grade {grade} for final list {chain} from {tests}")
        return problems
    if family == "prng":
        if label(world, FIRST_CELL) != "Encapsulated":
            return ["counter is not encapsulated"]
        if not (isinstance(first, VInt) and first.value >= 0):
            return [f"counter holds {first}"]
        return []
    if family == "guess":
        _hi, pick = params
        history = int_chain(world, cell_value(world, FIRST_CELL))
        if label(world, FIRST_CELL) != "Encapsulated":
            return ["guess history is not encapsulated"]
        if not history:
            return [f"guess history is {history}"]
        if outcome != ("ok", 1 if history[-1] == pick else 0):
            return [f"outcome {outcome} for history ending {history[-1]}, pick {pick}"]
        return []
    raise ValueError(f"unknown family {family!r}")


def dual_problems(outcome, world, callback_calls: int) -> list:
    """The dual program's counter moves once per completed callback, and the
    context can only have made shareable cells."""
    problems = outcome_problems(outcome)
    counter = cell_value(world, FIRST_CELL)
    if label(world, FIRST_CELL) != "Encapsulated" or not isinstance(counter, VInt):
        return problems + [f"counter cell holds {counter} [{label(world, FIRST_CELL)}]"]
    allowed = {callback_calls} if outcome[0] == "ok" else {callback_calls - 1, callback_calls}
    if counter.value not in allowed:
        problems.append(f"counter {counter.value} after {callback_calls} callback calls")
    private = [a for a in world.heap.cells if label(world, a) == "Private"]
    if private:
        problems.append(f"private cells after the context ran: {private[:5]}")
    return problems


# ---------------------------------------------------------------------------
# autograder in fast mode


def sort_problems(context: str, tests: tuple, outcome, world) -> list:
    grade = cell_value(world, FIRST_CELL)
    if context == "honest":
        chain = int_chain(world, cell_value(world, 2 + len(tests)))
        problems = []
        if chain != sorted(tests):
            problems.append(f"final chain {chain} is not sorted({list(tests)})")
        if outcome != ("ok", 10) or grade != VInr(VInt(10)):
            problems.append(f"honest graded {outcome}, grade cell {grade}")
        return problems
    if outcome != ("ok", 0) or grade != VInr(VInt(0)):
        return [f"{context} graded {outcome}, grade cell {grade} on {list(tests)}"]
    return []


# ---------------------------------------------------------------------------
# cooperative scheduler


def round_robin(runs: list) -> list:
    """Task order of a round-robin over tasks that each run `runs[i]` times."""
    left = list(runs)
    order = []
    i = 0
    while any(left):
        if left[i]:
            order.append(i)
            left[i] -= 1
        i = (i + 1) % len(left)
    return order


def recorded_history(world) -> list:
    counter = cell_value(world, SCHED_COUNTER)
    if not isinstance(counter, VPair):
        return None
    return int_chain(world, counter.first)


def writes_in_order(order: list, yields: list, writes: list) -> list:
    """(task, left, value) for every store a writing task makes, in order:
    a task stores `write + left`, where `left` counts down from its yield
    count to 0 over its runs."""
    seen = [0] * len(yields)
    stored = []
    for t in order:
        left = yields[t] - seen[t]
        seen[t] += 1
        if writes[t] is not None:
            stored.append((t, left, writes[t] + left))
    return stored


def scheduler_problems(tasks: tuple, outcome, hist, world, buffers=None) -> list:
    """tasks: (yields, write_value or None) per task; buffers: the first
    address and size of each task's buffer, for tasks that have one."""
    yields = [t[0] for t in tasks]
    writes = [t[1] for t in tasks]
    expected = round_robin([y + 1 for y in yields])
    problems = []
    if outcome != ("ok", len(tasks)):
        problems.append(f"scheduler outcome {outcome}")
    if hist != expected:
        problems.append("history differs from round-robin order")
    if recorded_history(world) != expected:
        problems.append("history stored in the counter cell differs from round-robin order")
    stored = writes_in_order(expected, yields, writes)
    shared = VInt(stored[-1][2]) if stored else VInt(0)
    if cell_value(world, SCHED_SHARED) != shared:
        problems.append(f"shared cell holds {cell_value(world, SCHED_SHARED)}, want {shared}")
    if buffers is not None:
        want = {}
        for t, left, value in stored:
            base, size = buffers[t]
            want[base + left % size] = value  # later runs overwrite earlier ones
        for t, (base, size) in enumerate(buffers):
            for addr in range(base, base + size):
                if cell_value(world, addr) != VInt(want.get(addr, 0)):
                    problems.append(f"task {t} buffer cell {addr} holds {cell_value(world, addr)}")
                    break
    return problems

"""Exception taxonomy.

Two families matter at run time: RunFailure subclasses are expected runtime
outcomes (a behavior record captures them instead of crashing), while
MonitorAlarm subclasses witness an internal bug and always propagate.
"""
from __future__ import annotations


class SecrefError(Exception):
    pass


class RunFailure(SecrefError):
    """Runtime error that a whole-program run records as its outcome."""

    code = "RunFailure"


class MonitorAlarm(SecrefError):
    """A broken internal invariant; never swallowed, always propagates."""


# heap level


class ImmutableWrite(TypeError):
    """A refused in-place write to snapshot data, a map's entry or a
    record's field.  Each one made is counted in `ImmutableWrite.refused`,
    so a contract check that attempts one, even one it swallows, is
    reported as a PurityViolation."""

    refused = 0

    def __init__(self, *args):
        ImmutableWrite.refused += 1
        super().__init__(*args)


class FrozenRecordError(ImmutableWrite, AttributeError):
    """An assignment to, or deletion of, an attribute of a `values.Record`."""


class Uncontained(RunFailure):
    code = "Uncontained"

    def __init__(self, addr, why=""):
        super().__init__(f"address {addr} not in heap{': ' + why if why else ''}")


class TypeMismatch(RunFailure):
    code = "TypeMismatch"


class PreorderViolation(RunFailure):
    code = "PreorderViolation"

    def __init__(self, addr, preorder_name, old, new):
        super().__init__(
            f"write to {addr} violates preorder {preorder_name}: {old!r} -/-> {new!r}"
        )


# label level


class DanglingInit(RunFailure):
    code = "DanglingInit"


class ShareLeak(RunFailure):
    code = "ShareLeak"

    def __init__(self, addr, value, leaked):
        self.addr = addr
        self.leaked = leaked
        super().__init__(
            f"operation on {addr} would make private address(es) {sorted(leaked)} "
            f"reachable from shareable data: {value!r}"
        )


class AlreadyLabeled(RunFailure):
    code = "AlreadyLabeled"


class MonotonicRefShare(RunFailure):
    code = "MonotonicRefShare"


# interpreter level


class RecallUnwitnessed(RunFailure):
    code = "RecallUnwitnessed"


class WitnessFalse(RunFailure):
    code = "WitnessFalse"


class OutOfFuel(RunFailure):
    code = "OutOfFuel"


class BoundaryViolation(RunFailure):
    code = "BoundaryViolation"


# monitor alarms (bug witnesses)


class StabilityViolation(MonitorAlarm):
    """A witnessed predicate stopped holding; its stability claim was wrong."""


class InvariantViolation(MonitorAlarm):
    """The global heap invariant failed after an interpreter step."""


class UniversalViolation(MonitorAlarm):
    """Linked unverified code modified something it never should reach."""


class PurityViolation(MonitorAlarm):
    """A contract check changed the world it was only allowed to read."""


# tooling


class SrefParseError(SecrefError):
    def __init__(self, msg, line, col):
        self.line = line
        self.col = col
        super().__init__(f"parse error at {line}:{col}: {msg}")


class TargetTypeError(SecrefError):
    def __init__(self, reason, msg):
        self.reason = reason
        super().__init__(f"{reason}: {msg}")


class InterfaceMismatch(SecrefError):
    pass


class GenerationExhausted(SecrefError):
    pass

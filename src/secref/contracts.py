"""Higher-order contracts: interface descriptions and import/export wrappers.

Import and export mediate between two calling conventions:

  * checked side: arrows are host functions from a value to a program tree;
  * raw side: arrows are host functions from a value to a value, with all
    effects routed through the live run state.

Contract failure is a value (Inr carrying an Err); contract checks may read
the current world but never change it, and a purity monitor asserts exactly
that around every check invocation.
"""
from __future__ import annotations

import enum
from typing import Any, Callable, Optional, Union

from .errors import BoundaryViolation, ImmutableWrite, PurityViolation
from .labels import World
from .programs import ENDED_RUN
from .values import TypeTag, Value, VInl, VInr, VPair, conforms, record


class ErrCode(enum.Enum):
    PRE_VIOLATION = "PreViolation"
    POST_VIOLATION = "PostViolation"
    REFINEMENT_VIOLATION = "RefinementViolation"
    IMPORT_FAILURE = "ImportFailure"


@record
class Err:
    code: ErrCode
    message: str

    def __str__(self):
        return f"{self.code.value}: {self.message}"


@record
class Inl:
    value: Any

    def __str__(self):
        return f"Inl({self.value})"


@record
class Inr:
    error: Err

    def __str__(self):
        return f"Inr({self.error})"


Either = Union[Inl, Inr]


# ---------------------------------------------------------------------------
# interface descriptions


@record
class BaseS:
    tag: TypeTag


@record
class PairS:
    first: "InterfaceSpec"
    second: "InterfaceSpec"


@record
class SumS:
    left: "InterfaceSpec"
    right: "InterfaceSpec"


@record
class ExecPre:
    check: Callable[[Value, World], Optional[Err]]


@record
class ExecPost:
    select: Callable[[Value, World], Any]
    verify: Callable[[Any, Any, World], Optional[Err]]


@record
class ArrowS:
    arg: "InterfaceSpec"
    res: "InterfaceSpec"
    pre: Optional[ExecPre] = None
    post: Optional[ExecPost] = None


@record
class RefinedS:
    base: "InterfaceSpec"  # non-arrow: behavioral checks belong on arrows
    name: str
    check: Callable[[Value], bool]

    def __post_init__(self):
        if isinstance(self.base, ArrowS):
            raise TypeError("refinements are not allowed on arrow nodes")


InterfaceSpec = Union[BaseS, PairS, SumS, ArrowS, RefinedS]


def hocs_of(spec: InterfaceSpec) -> InterfaceSpec:
    """The spec itself: it carries its own checks.  Kept only because the
    benchmark still calls it."""
    return spec


def has_refinements(spec: InterfaceSpec) -> bool:
    if isinstance(spec, RefinedS):
        return True
    if isinstance(spec, PairS):
        return has_refinements(spec.first) or has_refinements(spec.second)
    if isinstance(spec, SumS):
        return has_refinements(spec.left) or has_refinements(spec.right)
    return False


def arrow_export_uses_either(spec: ArrowS) -> bool:
    """Exported arrows grow an error channel only when they can actually fail."""
    return spec.pre is not None or has_refinements(spec.arg) or has_refinements(spec.res)


# ---------------------------------------------------------------------------
# the check-purity monitor


def _run_check(env, fn, *args):
    """Invoke a contract check under the read-only monitor.

    Worlds never change in place, so the check was pure exactly when the
    current world is still the one it started on and it attempted no
    in-place write to a map or a record, even one whose error it caught
    itself: `ImmutableWrite.refused` counts every one.
    """
    before, refused = env.world, ImmutableWrite.refused
    try:
        out = fn(*args)
    except ImmutableWrite:
        out = None  # counted in ImmutableWrite.refused and reported below
    env.trace.contract_checks += 1
    if env.world is not before or ImmutableWrite.refused != refused:
        raise PurityViolation("a contract check modified the world")
    return out


def refinement_errors(spec: InterfaceSpec, v: Any, env) -> Optional[Err]:
    """First refinement violated by v anywhere in a first-order spec."""
    if isinstance(spec, RefinedS):
        err = refinement_errors(spec.base, v, env)
        if err is not None:
            return err
        if not _run_check(env, spec.check, v):
            return Err(ErrCode.REFINEMENT_VIOLATION, f"refinement {spec.name} failed on {v}")
        return None
    if isinstance(spec, PairS) and isinstance(v, VPair):
        return refinement_errors(spec.first, v.first, env) or refinement_errors(
            spec.second, v.second, env
        )
    if isinstance(spec, SumS):
        if isinstance(v, VInl):
            return refinement_errors(spec.left, v.payload, env)
        if isinstance(v, VInr):
            return refinement_errors(spec.right, v.payload, env)
    return None


# ---------------------------------------------------------------------------
# export / import


def export(spec: InterfaceSpec, v: Any, env) -> Any:
    """Lower a checked-side value to the raw side.

    Data passes through structurally.  Arrows are wrapped so that each call
    runs the declared pre-check, imports the argument, interprets the
    underlying program against the live run state, exports the result, and
    re-checks any result refinements.  Wrap time itself never fails.
    """
    if isinstance(spec, BaseS):
        return v
    if isinstance(spec, RefinedS):
        return export(spec.base, v, env)
    if isinstance(spec, PairS):
        return VPair(
            export(spec.first, v.first, env),
            export(spec.second, v.second, env),
        )
    if isinstance(spec, SumS):
        if isinstance(v, VInl):
            return VInl(export(spec.left, v.payload, env))
        return VInr(export(spec.right, v.payload, env))
    if isinstance(spec, ArrowS):
        return _export_arrow(spec, v, env)
    raise TypeError(f"not an interface spec: {spec!r}")


def _export_arrow(spec: ArrowS, f, env):
    """The raw side may keep the wrapper, so it reaches the run state only
    through the run's one CtxOps, and refuses once the run has ended."""
    from .linker import run_ops
    with_either = arrow_export_uses_either(spec)
    ops = run_ops(env)

    def wrapped(x):
        env = ops._state
        if env is ENDED_RUN:
            raise BoundaryViolation("context capability used after its run ended")
        if spec.pre is not None:
            err = _run_check(env, spec.pre.check, x, env.world)
            if err is not None:
                return Inr(err)
        arg_in = import_value(spec.arg, x, env)
        if isinstance(arg_in, Inr):
            return arg_in
        program = f(arg_in.value)
        result = env.interpret(program)
        out = export(spec.res, result, env)
        res_err = refinement_errors(spec.res, out, env)
        if res_err is not None:
            return Inr(res_err)
        return Inl(out) if with_either else out

    return wrapped


def import_value(spec: InterfaceSpec, v: Any, env, monitor=None) -> Either:
    """Raise a raw-side value to the checked side, adding dynamic checks.

    Refinements are checked immediately.  Arrows import without immediate
    failure: each call exports the argument, runs the stateful contract's
    select, invokes the underlying raw function, imports the result, and
    runs verify, turning a violation into the call's Inr result.  Heap
    effects of a failed call are not rolled back.

    A given `monitor` runs each raw call as `monitor(run)`, also in arrows
    those calls return; the linker passes its universal-property span.
    """
    if isinstance(spec, BaseS):
        if callable(v) or not conforms(v, spec.tag):
            return Inr(Err(ErrCode.IMPORT_FAILURE, f"{v} does not fit {spec}"))
        return Inl(v)
    if isinstance(spec, RefinedS):
        base = import_value(spec.base, v, env, monitor)
        if isinstance(base, Inr):
            return base
        if not _run_check(env, spec.check, base.value):
            return Inr(
                Err(ErrCode.REFINEMENT_VIOLATION, f"refinement {spec.name} failed on {v}")
            )
        return base
    if isinstance(spec, PairS):
        if not isinstance(v, VPair):
            return Inr(Err(ErrCode.IMPORT_FAILURE, f"{v} is not a pair"))
        a = import_value(spec.first, v.first, env, monitor)
        if isinstance(a, Inr):
            return a
        b = import_value(spec.second, v.second, env, monitor)
        if isinstance(b, Inr):
            return b
        return Inl(VPair(a.value, b.value))
    if isinstance(spec, SumS):
        if isinstance(v, VInl):
            p = import_value(spec.left, v.payload, env, monitor)
            return p if isinstance(p, Inr) else Inl(VInl(p.value))
        if isinstance(v, VInr):
            p = import_value(spec.right, v.payload, env, monitor)
            return p if isinstance(p, Inr) else Inl(VInr(p.value))
        return Inr(Err(ErrCode.IMPORT_FAILURE, f"{v} is not a sum"))
    if isinstance(spec, ArrowS):
        if not callable(v):
            return Inr(Err(ErrCode.IMPORT_FAILURE, f"{v} is not callable"))
        return Inl(_import_arrow(spec, v, env, monitor))
    raise TypeError(f"not an interface spec: {spec!r}")


def _import_arrow(spec: ArrowS, f, env, monitor):
    def wrapped(x) -> Either:
        out = export(spec.arg, x, env)
        captured = None
        if spec.post is not None:
            captured = _run_check(env, spec.post.select, x, env.world)
        raw = f(out) if monitor is None else monitor(lambda: f(out))
        back = import_value(spec.res, raw, env, monitor)
        if isinstance(back, Inr):
            return back
        if spec.post is not None:
            err = _run_check(env, spec.post.verify, captured, back.value, env.world)
            if err is not None:
                return Inr(err)
        return Inl(back.value)

    return wrapped

"""Per-layer tracing, installed from outside the package.

`Tracer.install()` replaces the public functions of each layer module (and
the interpreter's methods) with wrappers that count calls and charge self
time to a layer key; `uninstall()` puts the originals back.  A function is
replaced under every name any loaded `secref` module binds it to, so call
sites that bound it through `from .x import f` are traced too.

Calls made on every step (heap operations, `lr_inv`, `conforms`) are not
recorded one span per call: each wrapper adds to a per-layer count and a
per-layer time total.  Self time is kept with one stack of layer keys: the
time between two wrapper events is charged to the key on top of the stack,
so a layer's self time excludes the traced layers it calls.  Anything not
inside a traced layer is charged to the trial root.
"""
from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "trial"

# heap-size buckets of the per-op cost curve
BUCKETS = ((256, "cells_lt_256"), (1024, "cells_lt_1k"), (4096, "cells_lt_4k"),
           (None, "cells_ge_4k"))
MODES = ("fast", "paranoid")


def bucket(cells: int) -> str:
    for limit, name in BUCKETS:
        if limit is None or cells < limit:
            return name


def _heap_cells(args) -> int:
    return len(args[0].cells)


def _world_cells(args) -> int:
    return len(args[0].heap.cells)


def _label_keys(args) -> int:
    return len(args[0].labels.keys() | args[1].labels.keys())


class Tracer:
    def __init__(self):
        self.calls = Counter()               # counter name -> exact count
        self.self_s = defaultdict(float)     # layer key -> self seconds
        self.monitor_s = 0.0                 # inclusive seconds in monitors
        self.op_s = defaultdict(float)       # (mode, bucket) -> inclusive seconds
        self._stack = [ROOT]
        self._mark = [perf_counter()]
        self._patches = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.monitor_s = 0.0
        self.op_s.clear()
        self._mark[0] = perf_counter()

    def flush(self) -> None:
        """Charge the time since the last event to the root."""
        now = perf_counter()
        self.self_s[self._stack[-1]] += now - self._mark[0]
        self._mark[0] = now

    # -- wrapper factories

    def count(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def span(self, key, fn, count=None, scanned=None, copied=None, monitor=False):
        """Charge fn's self time to `key`.  `count` names a call counter;
        `scanned(args)` adds to `<count stem>.cells_scanned` before the
        call, `copied(args)` to `heap.cells_copied` after a successful one."""
        stack, mark, self_s, calls = self._stack, self._mark, self.self_s, self.calls
        scan_name = count.rsplit(".", 1)[0] + ".cells_scanned" if scanned else None
        tracer = self

        def spanned(*args, **kwargs):
            if count is not None:
                calls[count] += 1
            if scanned is not None:
                calls[scan_name] += scanned(args)
            start = now = perf_counter()
            self_s[stack[-1]] += now - mark[0]
            stack.append(key)
            mark[0] = now
            try:
                out = fn(*args, **kwargs)
            finally:
                now = perf_counter()
                self_s[stack.pop()] += now - mark[0]
                mark[0] = now
                if monitor:
                    tracer.monitor_s += now - start
            if copied is not None:
                calls["heap.cells_copied"] += copied(args)
            return out

        return spanned

    def op(self, key, count, fn, state_of):
        """An interpreter step: a span that also adds its inclusive time to
        the per-op cost curve, by check level and heap size at entry.  The
        step counts under `count` only if it got past the fuel meter."""
        stack, mark, self_s, calls, op_s = (self._stack, self._mark, self.self_s,
                                            self.calls, self.op_s)

        def stepped(obj, *args, **kwargs):
            state = state_of(obj)
            where = (state.config.check_level, bucket(len(state.world.heap.cells)))
            steps = state.trace.steps
            calls["programs.op_n." + ".".join(where)] += 1
            start = now = perf_counter()
            self_s[stack[-1]] += now - mark[0]
            stack.append(key)
            mark[0] = now
            try:
                return fn(obj, *args, **kwargs)
            finally:
                now = perf_counter()
                self_s[stack.pop()] += now - mark[0]
                mark[0] = now
                op_s[where] += now - start
                if state.trace.steps > steps:
                    calls[count] += 1

        return stepped

    def tick(self, count, fn):
        """A bare fuel tick (one `fix` unfolding), counted if it succeeded."""
        calls = self.calls

        def ticked(ops):
            trace = ops._state.trace
            steps = trace.steps
            try:
                return fn(ops)
            finally:
                if trace.steps > steps:
                    calls[count] += 1

        return ticked

    def context_code(self, fn):
        """Elaborated context code: a builder or a function it returned.
        Functions it returns are traced the same way when called."""
        spanned = self.span("target_lang.eval", fn)

        def entered(*args):
            out = spanned(*args)
            return self.context_code(out) if callable(out) else out

        return entered

    # -- installation

    def _replace(self, owner, name, wrap) -> None:
        """Replace owner.name with wrap(owner.name), also under every
        module-level alias of the same function in the package."""
        original = getattr(owner, name)
        wrapper = wrap(original)
        if isinstance(owner, type):
            self._patches.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for module in [m for n, m in sys.modules.items()
                       if n == "secref" or n.startswith("secref.")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def install(self) -> None:
        from secref import contracts, heap, labels, linker, programs, scenarios
        from secref import target_lang, values

        if self._patches:
            raise RuntimeError("tracer already installed")
        r = self._replace

        def spanned(key, **options):
            return lambda fn: self.span(key, fn, **options)

        def traced_arrow(make):
            return lambda *args: self.span("contracts.wrap", make(*args))

        # values: counts only, they run inside every other layer
        for name in ("conforms", "ref_entries"):
            r(values, name, lambda fn, _name=name: self.count(f"values.{_name}.calls", fn))

        # heap
        for name in ("alloc", "write"):
            r(heap, name, spanned("heap", count=f"heap.{name}.calls", copied=_heap_cells))
        r(heap, "read", spanned("heap", count="heap.read.calls"))
        r(heap, "heap_leq", spanned("heap"))

        # labels
        r(labels, "lr_inv", spanned("labels.lr_inv", count="labels.lr_inv.calls",
                                    scanned=_world_cells))
        for name in ("lr_alloc", "lr_read", "lr_write", "label_shareable", "label_encapsulated"):
            r(labels, name, spanned("labels.ops", count=f"labels.{name}.calls"))
        for name, scanned in (("modif_only_shareable_and_encaps", _world_cells),
                              ("modif_shareable_and", _world_cells),
                              ("same_labels", _world_cells),
                              ("labels_monotone", _label_keys)):
            r(labels, name, spanned("labels.footprint", count="labels.footprint.calls",
                                    scanned=scanned))

        # programs: RunState.op_* are the checked side's steps
        state = programs.RunState
        for name, kind in (("op_read", "read"), ("op_write", "write"), ("op_alloc", "alloc"),
                           ("op_witness", "witness"), ("op_recall", "recall"),
                           ("op_label_shareable", "label"), ("op_label_encapsulated", "label")):
            r(state, name, lambda fn, _kind=kind: self.op(
                "programs.interpret", f"programs.ops.{_kind}", fn, lambda s: s))
        r(state, "interpret", spanned("programs.interpret"))
        r(state, "_after_step", spanned("programs.after_step", monitor=True))

        # contracts
        r(contracts, "import_value", spanned("contracts.wrap", count="contracts.import.calls"))
        r(contracts, "export", spanned("contracts.wrap", count="contracts.export.calls"))
        for name in ("_import_arrow", "_export_arrow"):
            r(contracts, name, traced_arrow)
        r(contracts, "_run_check", spanned("contracts.check", count="contracts.check.calls",
                                           monitor=True))

        # linker: CtxOps.* are the context side's steps
        ops = linker.CtxOps
        for name in ("alloc", "read", "write"):
            r(ops, name, lambda fn, _name=name: self.op(
                "linker.ctx_ops", f"linker.ctx_ops.{_name}", fn, lambda o: o._state))
        r(ops, "tick", lambda fn: self.tick("linker.ctx_ops.tick", fn))
        for name in ("ctx_alloc", "ctx_read", "ctx_write"):
            r(linker, name, spanned("linker.ctx_ops"))
        r(linker, "_close_span", spanned("linker.close_span", count="linker.close_span.calls",
                                         monitor=True))
        for name in ("beh", "render_world", "beh_equal"):
            r(linker, name, spanned("linker.beh"))

        # target_lang
        r(target_lang, "parse", spanned("target_lang.parse", count="target_lang.parse.calls"))
        r(target_lang, "typecheck", spanned("target_lang.typecheck"))
        r(target_lang, "gen_random_context", spanned("target_lang.gen"))

        def traced_elaborate(fn):
            elaborate = self.span("target_lang.typecheck", fn)

            def elaborated(*args, **kwargs):
                ctx = elaborate(*args, **kwargs)
                return linker.TargetContext(name=ctx.name,
                                            builder=self.context_code(ctx.builder))

            return elaborated

        r(target_lang, "elaborate", traced_elaborate)

        # scenarios: construction (with the shipped .sref loads) and checks
        def traced_build(fn):
            build = self.span("scenarios.build", fn, count="scenarios.build.calls")

            def built(*args, **kwargs):
                scenario = build(*args, **kwargs)
                scenario.check = self.span("scenarios.check", scenario.check)
                return scenario

            return built

        for name in ("scenario_safe_prog", "scenario_autograder", "scenario_prng",
                     "scenario_guess"):
            r(scenarios, name, traced_build)
        r(scenarios, "scheduler_checks", spanned("scenarios.check"))

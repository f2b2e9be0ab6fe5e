"""Checked-verdict benchmark for secref.

    python3 bench/run.py --workload fuzz --seed 2026 --seconds 25 --trace 0

Runs one workload as a closed loop: one client, one process, one thread,
each trial starting when the previous verdict is complete.  A verdict is one
behaviour record plus its checks; every verdict is also compared against an
independent reference (reference.py), and a mismatch or monitor alarm counts
as a failed verdict.

--trace 0 measures the end-to-end metrics with no instrumentation.
--trace 1 runs a fixed corpus of the workload's first trials in passes that
alternate with and without the per-layer wrappers of tracing.py; it reports
per-layer counts (exact for a seed) and self times per corpus pass, checks
that the counts repeat exactly, and reports the traced/untraced time ratio.

The metric names and units printed are those declared in BENCHMARK.json at
the root of the checkout; the last line of output is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 2026      # the acceptance suite's seed; 7919 is held out for
                         # checking later claims and was never tuned on
SETUP_PROBES = 15        # fresh processes timed for setup_s
WARMUP_S = 0.5


def import_program() -> None:
    """Import secref from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import secref
    except ImportError as err:
        sys.exit(f"cannot import secref from {src}: {err}")
    if not Path(secref.__file__).resolve().is_relative_to(src):
        sys.exit(f"secref was imported from {secref.__file__}, not from {src}")


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def emit(metrics: dict, units: dict, attempted: int, failed: int, problems: list) -> int:
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for problem in problems[:20]:
        print(f"PROBLEM {problem}")
    correct = failed == 0 and not problems and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload, seed: int) -> None:
    """What a run does before its first trial: imports, then input
    generation from the seed."""
    workload.prepare()
    next(workload.inputs(seed))
    print("ready", flush=True)


def setup_seconds(name: str, seed: int) -> float:
    """Time from process start until the first trial is ready, in one fresh
    interpreter process."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as probe:
        line = probe.stdout.readline()
        spent = time.perf_counter() - start
        probe.stdout.read()
        code = probe.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return spent


# ---------------------------------------------------------------------------
# end-to-end run


def tail(seconds: list) -> tuple:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond)."""
    ordered = sorted(seconds)
    n = len(ordered)
    index = max(0, n - 11)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def end_to_end(workload, seed: int, seconds: float, units: dict) -> int:
    workload.prepare()
    stream = workload.inputs(seed)

    warm_until = time.perf_counter() + WARMUP_S
    workload.run(next(stream))
    while time.perf_counter() < warm_until:
        workload.run(next(stream))

    # keep only what the metrics need, so the harness's own memory stays
    # flat however many verdicts a run completes
    times = array("d")
    steps = 0
    run_s = 0.0
    failed = 0
    shown = []
    # The machine's speed drifts in phases of a few seconds, so the set-up
    # probes are spread over the run, one before each of SETUP_PROBES equal
    # slices of it, rather than taken back to back.  The clock stops while
    # a probe runs.
    probes = []
    wall = 0.0
    gc.collect()
    for k in range(1, SETUP_PROBES + 1):
        probes.append(setup_seconds(workload.name, seed))
        start = time.perf_counter()
        until = seconds * k / SETUP_PROBES - wall
        while time.perf_counter() - start < until:
            v = workload.run(next(stream))
            times.append(v.seconds)
            steps += v.steps
            run_s += v.run_seconds
            if v.problems:
                failed += 1
                if len(shown) < 5:
                    shown.append(f"{v.signature}: {'; '.join(v.problems[:3])}")
        wall += time.perf_counter() - start
    setup_s = statistics.median(probes)

    n = len(times)
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "verdicts_per_s": n / wall,
        "verdict_p50_ms": statistics.median(times) * 1e3,
        "verdict_tail_ms": tail_s * 1e3,
        "steps_per_s": steps / run_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdict_pass_ratio": (n - failed) / n,
        "setup_s": setup_s,
    }
    print(f"workload {workload.name}  seed {seed}  closed loop: 1 client, trials back to back")
    print(f"  {n} checked verdicts in {wall:.2f} s wall, {sum(times):.2f} s inside "
          f"verdicts; {steps} interpreter steps")
    for name, unit in units.items():
        print(f"  {name:<20} {metrics[name]:>14.6g} {unit}")
    print(f"  verdict_tail_ms is p{tail_pct:.2f} of {n} verdicts ({beyond} beyond it)")
    print(f"  verdict_fail_ratio   {failed / n:>14.6g} ({failed} of {n})")
    for line in shown:
        print(f"  FAILED {line}")
    return emit(metrics, units, n, failed, [])


# ---------------------------------------------------------------------------
# traced run


COUNTS = (
    "values.conforms.calls", "values.ref_entries.calls",
    "heap.alloc.calls", "heap.write.calls", "heap.read.calls", "heap.cells_copied",
    "labels.lr_inv.calls", "labels.lr_inv.cells_scanned",
    "labels.footprint.calls", "labels.footprint.cells_scanned",
    "programs.ops.read", "programs.ops.write", "programs.ops.alloc",
    "programs.ops.witness", "programs.ops.recall", "programs.ops.label",
    "contracts.import.calls", "contracts.export.calls", "contracts.check.calls",
    "linker.ctx_ops.alloc", "linker.ctx_ops.read", "linker.ctx_ops.write",
    "linker.close_span.calls", "target_lang.parse.calls", "scenarios.build.calls",
)
SELF_TIMES = (
    "heap", "labels.lr_inv", "labels.ops", "labels.footprint", "programs.interpret",
    "programs.after_step", "contracts.wrap", "contracts.check", "linker.ctx_ops",
    "linker.close_span", "linker.beh", "target_lang.parse", "target_lang.typecheck",
    "target_lang.gen", "target_lang.eval", "scenarios.build", "scenarios.check",
)


def identities(calls: dict, steps: int) -> list:
    """Exact relations between counters of different layers.  A call site
    that reaches a layer through an alias the tracer missed breaks one."""
    problems = []
    stepped = sum(calls.get(f"programs.ops.{kind}", 0)
                  for kind in ("read", "write", "alloc", "witness", "recall", "label"))
    stepped += sum(calls.get(f"linker.ctx_ops.{kind}", 0)
                   for kind in ("alloc", "read", "write", "tick"))
    if stepped != steps:
        problems.append(f"{steps} interpreter steps but {stepped} traced steps")
    for op in ("alloc", "read", "write"):
        inner = calls.get(f"heap.{op}.calls", 0)
        outer = calls.get(f"labels.lr_{op}.calls", 0)
        if inner != outer:
            problems.append(f"{outer} labels.lr_{op} calls but {inner} heap.{op} calls")
    return problems


def traced(workload, seed: int, seconds: float, units: dict) -> int:
    from tracing import BUCKETS, MODES, Tracer

    workload.prepare()
    corpus = list(itertools.islice(workload.inputs(seed), workload.corpus))
    tracer = Tracer()

    def one_pass(with_trace: bool) -> dict:
        if with_trace:
            tracer.install()
            tracer.reset()
        try:
            verdicts = [workload.run(trial) for trial in corpus]
        finally:
            if with_trace:
                tracer.flush()
                tracer.uninstall()
        out = {"busy": sum(v.seconds for v in verdicts), "verdicts": verdicts}
        if with_trace:
            out.update(calls=dict(tracer.calls), self_s=dict(tracer.self_s),
                       monitor_s=tracer.monitor_s, op_s=dict(tracer.op_s))
        return out

    one_pass(False)  # warm-up
    plain, marked = [], []
    start = time.perf_counter()
    while len(marked) < 2 or time.perf_counter() - start < seconds:
        marked.append(one_pass(True))
        plain.append(one_pass(False))

    passes = plain + marked
    attempted = sum(len(p["verdicts"]) for p in passes)
    failed = sum(1 for p in passes for v in p["verdicts"] if v.problems)
    problems = []

    # exact counts: every traced pass must count the same work, and tracing
    # must not change what the program does
    first = marked[0]["calls"]
    for i, p in enumerate(marked[1:], 2):
        for name in sorted(set(first) | set(p["calls"])):
            if first.get(name, 0) != p["calls"].get(name, 0):
                problems.append(f"{name} differs between traced passes 1 and {i}: "
                                f"{first.get(name, 0)} vs {p['calls'].get(name, 0)}")
    signatures = [v.signature for v in plain[0]["verdicts"]]
    for p in passes:
        if [v.signature for v in p["verdicts"]] != signatures:
            problems.append("verdict outcomes or step counts differ between passes")
            break

    verdicts = marked[0]["verdicts"]
    metrics = {name: first.get(name, 0) for name in COUNTS}
    metrics["programs.steps"] = sum(v.steps for v in verdicts)
    problems += identities(first, metrics["programs.steps"])
    metrics["programs.worlds_retained"] = sum(v.worlds for v in verdicts)
    for key in SELF_TIMES:
        metrics[f"{key}.self_s"] = statistics.fmean(p["self_s"].get(key, 0.0) for p in marked)
    empty = []
    for mode in MODES:
        for _, name in BUCKETS:
            ops = sum(p["calls"].get(f"programs.op_n.{mode}.{name}", 0) for p in marked)
            spent = sum(p["op_s"].get((mode, name), 0.0) for p in marked)
            metrics[f"programs.op_us.{mode}.{name}"] = spent / ops * 1e6 if ops else 0.0
            if not ops:
                empty.append(f"{mode}.{name}")
    metrics["programs.monitor_share"] = (sum(p["monitor_s"] for p in marked)
                                         / sum(p["busy"] for p in marked))
    metrics["trace_overhead_ratio"] = (statistics.median(p["busy"] for p in marked)
                                       / statistics.median(p["busy"] for p in plain))

    for name in workload.expect_zero:
        if metrics[name] != 0:
            problems.append(f"{name} should be 0 on {workload.name}, is {metrics[name]}")
    for name in workload.expect_nonzero:
        if metrics[name] == 0:
            problems.append(f"{name} should be non-zero on {workload.name}: "
                            "is a call site bypassing its wrapper?")

    print(f"workload {workload.name}  seed {seed}  traced corpus of {len(corpus)} trials; "
          f"{len(marked)} traced and {len(plain)} untraced passes")
    print("  counts are per corpus pass and repeat exactly; times are seconds per "
          "corpus pass, mean over traced passes")
    for name, unit in units.items():
        print(f"  {name:<38} {metrics[name]:>14.6g} {unit}")
    print(f"  programs.op_us: mean microseconds per interpreter op, inclusive of its "
          f"monitors, by check level and heap size; empty buckets read 0: {', '.join(empty)}")
    if {"paranoid.cells_lt_4k", "paranoid.cells_ge_4k"} <= set(empty):
        print("  paranoid buckets above 1k cells are empty: a paranoid step re-scans the "
              "whole heap (about 3.1 ms/step at 1.6k cells when this benchmark was "
              "written), so no workload grows a paranoid heap that far within its run")
    return emit(metrics, units, attempted, failed, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0
    declared = declared_metrics()
    if args.trace:
        return traced(workload, args.seed, args.seconds, declared["per_layer"])
    return end_to_end(workload, args.seed, args.seconds, declared["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())

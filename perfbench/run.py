"""searchorder benchmark.

    python3 perfbench/run.py --workload planted-large --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 [--out FILE]

Run from the root of a checkout; the package is imported from its
`src/`. One process pinned to one CPU, one thread, closed loop: each
call starts when the previous one has returned, and at most one CLI
subprocess runs at a time. Passes over the workload's fixed inputs
repeat while another one fits in --seconds (at least one runs).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced passes and prints the per-layer metrics; its spans go to
.perfbench_out/spans-<workload>.jsonl. Every answer is re-checked after
the timed region. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 31

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DFS_REASONS, FINAL_VERIFY_FAILED, ExactSmall, PlantedLarge, Program, ReduceCli, host_factor,
)

WORKLOADS = ("planted-large", "exact-small", "reduce-cli")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
}

# per-layer metric -> (unit, how it is read from one traced pass)
SPAN_METRICS = {
    "attachment.build_s": ("s", "busy", "attachment.build"),
    "attachment.build_calls": ("count", "calls", "attachment.build"),
    "attachment.out_neighbors_s": ("s", "busy", "attachment.out_neighbors"),
    "attachment.out_neighbors_calls": ("count", "calls", "attachment.out_neighbors"),
    "attachment.gs_self_s": ("s", "self", "attachment.gs"),
    "attachment.enumerate_s": ("s", "busy", "attachment.enumerate"),
    "dfs_tree.q_path_s": ("s", "busy", "dfs_tree.q_path"),
    "dfs_tree.q_path_calls": ("count", "calls", "dfs_tree.q_path"),
    "dfs_tree.purify_s": ("s", "busy", "dfs_tree.purify"),
    "dfs_tree.assign_s": ("s", "busy", "dfs_tree.assign"),
    "dfs_tree.verify_s": ("s", "busy", "dfs_tree.verify"),
    "dfs_tree.verify_calls": ("count", "calls", "dfs_tree.verify"),
    "dfs_tree.self_s": ("s", "self", "dfs_tree.recognize"),
    "verifiers.four_point_s": ("s", "busy", "verifiers.four_point"),
    "verifiers.four_point_calls": ("count", "calls", "verifiers.four_point"),
    "verifiers.simulation_s": ("s", "busy", "verifiers.simulation"),
    "verifiers.simulation_calls": ("count", "calls", "verifiers.simulation"),
    "traversals.enumerate_s": ("s", "busy", "traversals.enumerate"),
    "traversals.orderings": ("count", "count", "traversals.orderings"),
    "traversals.complete_prefix_s": ("s", "busy", "traversals.complete_prefix"),
    "oracles.tree_s": ("s", "busy", "oracles.tree"),
    "oracles.trees_tried": ("count", "count", "oracles.trees_tried"),
    "oracles.supports_found": ("count", "count", "oracles.supports_found"),
    "reductions.build_s": ("s", "busy", "reductions.build"),
    "reductions.validate_self_s": ("s", "self", "reductions.validate"),
    "reductions.rows_validated": ("count", "calls", "reductions.verify"),
    "core.parse_s": ("s", "busy", "core.parse"),
    "core.parse_rows": ("count", "count", "core.parse_rows"),
}

# latency families: op kind -> metric prefix
LATENCIES = {"dfs_tree": "dfs_tree_ms", "gs_tree": "gs_tree_ms", "oracle": "oracle_ms", "cli": "cli_ms"}

PER_LAYER = {
    **{name: spec[0] for name, spec in SPAN_METRICS.items()},
    "oracles.hit_ratio": "ratio",
    "attachment.arcs": "count",
    "attachment.free": "count",
    "core.profile_build_s": "s",
    "pass_raw_s": "s",
    "cli.startup_ms": "ms",
    "cli.inproc_ms": "ms",
    **{f"dfs_tree.reason.{code}": "count" for code in DFS_REASONS},
    **{f"{prefix}_{part}": "ms" for prefix in LATENCIES.values() for part in ("p50", "tail")},
    "trace.overhead_share": "ratio",
    "trace.missing_targets": "count",
    "trace.spans": "count",
}


@dataclass
class Pass:
    traced: bool
    seconds: float
    ops: list
    tracer: Tracer | None


def make_workload(name: str, workdir: Path):
    if name == "planted-large":
        return PlantedLarge()
    if name == "exact-small":
        return ExactSmall()
    return ReduceCli(workdir)


def fresh_import(modules):
    """Import the package from SRC afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "searchorder" or m.startswith("searchorder.")]:
        del sys.modules[name]
    for name in modules:
        importlib.import_module(name)
    so = sys.modules["searchorder"]
    if SRC.resolve() not in Path(so.__file__).resolve().parents:
        raise RuntimeError(f"searchorder was imported from {so.__file__}, not from {SRC}")
    return so


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    that percentile; the maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def op_seconds(passes: list[Pass], traced: bool = False,
               raw: bool = False) -> dict[tuple[str, str], float]:
    """Reference-host seconds (or raw wall seconds) per (kind, key): the
    median over the untraced (or the traced) passes."""
    samples: dict[tuple[str, str], list[float]] = {}
    for p in passes:
        if p.traced == traced:
            for op in p.ops:
                samples.setdefault((op.kind, op.key), []).append(op.seconds if raw else op.scaled)
    return {k: statistics.median(v) for k, v in samples.items()}


def latency(costs: dict[tuple[str, str], float], kinds) -> list[float]:
    """Milliseconds per input key, summed over the given op kinds."""
    per_key: dict[str, float] = {}
    for (kind, key), seconds in costs.items():
        if kind in kinds:
            per_key[key] = per_key.get(key, 0.0) + seconds * 1e3
    return list(per_key.values())


def run(workload, seed: int, seconds: float, trace: bool, overrides=None):
    """Set up, measure and check one workload; returns (result, report lines)."""
    raw = workload.generate(seed)
    problems = workload.check_raw(raw)

    setup, build = [], []
    for _ in range(SETUPS):
        factor = host_factor()
        start = time.perf_counter()
        so = fresh_import(workload.modules)
        built = time.perf_counter()
        inputs = workload.build(so, raw)
        end = time.perf_counter()
        setup.append((end - start) * factor)
        build.append((end - built) * factor)
    prog = Program(overrides)

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and sum(not p.traced for p in passes) > sum(p.traced for p in passes)
        tracer = Tracer() if traced else None
        began = time.perf_counter()
        if tracer is None:
            ops = workload.run_pass(prog, inputs, None)
        else:
            with tracer.installed():
                ops = workload.run_pass(prog, inputs, tracer)
        passes.append(Pass(traced, time.perf_counter() - began, ops, tracer))
        if len(passes) == 1:
            # set-up and one pass; later passes hold the first pass's results
            # for comparison, so their peak is the benchmark's, not the program's
            peak_mb = peak_rss_mb()
        if len(passes) > 1:  # compare with the first pass now, so memory does not grow
            reference = {(op.kind, op.key): op.value for op in passes[0].ops}
            for op in ops:
                if op.error is None and op.value != reference.get((op.kind, op.key)):
                    op.error = "result differs from the first pass"
                op.value = None
        complete = any(not p.traced for p in passes) and (not trace or any(p.traced for p in passes))
        typical = statistics.median(p.seconds for p in passes)
        if complete and time.perf_counter() - start + typical > seconds:
            break


    # correctness, after the timed region and with no wrapper installed
    untraced = [p for p in passes if not p.traced]
    failures = workload.check(so, prog, inputs, untraced[0].ops)
    attempted = failed = 0
    messages = [f"generator: {problem}" for problem in problems]
    for p in passes:
        for op in p.ops:
            attempted += 1
            why = op.error or failures.get((op.kind, op.key))
            if why:
                failed += 1
                messages.append(f"{op.kind} {op.key}: {why}")
    reasons = workload.dfs_reasons(untraced[0].ops)
    correct = failed == 0 and not problems and reasons[FINAL_VERIFY_FAILED] == 0

    costs = op_seconds(passes)
    pass_s = sum(costs.values())
    pass_raw_s = sum(op_seconds(passes, raw=True).values())
    calls = latency(costs, workload.call_kinds)
    call_tail, call_pct = tail(calls)
    named = {}
    for kind, prefix in LATENCIES.items():
        values = latency(costs, (kind,))
        if values:
            named[prefix] = (statistics.median(values), *tail(values), len(values))

    lines = [
        f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
        f"passes {len(untraced)} untraced, {len(passes) - len(untraced)} traced",
        f"  setup_s        {statistics.median(setup):.4f} s   median of {SETUPS} set-ups",
        f"  pass_s         {pass_s:.4f} s   sum over calls of the median of {len(untraced)} passes",
        f"  pass_raw_s     {pass_raw_s:.4f} s   the same in raw wall time, not scaled "
        f"(whole pass with probes {statistics.median(p.seconds for p in untraced):.4f} s)",
        f"  peak_rss_mb    {peak_mb:.1f} MB   up to the end of the first pass",
        f"  failed_share   {failed / attempted:.4f} ratio   {failed} of {attempted} operations",
        f"  call_ms_p50    {statistics.median(calls):.3f} ms   {len(calls)} inputs, {' + '.join(workload.call_kinds)}",
        f"  call_ms_tail   {call_tail:.3f} ms   p{call_pct:.1f} of {len(calls)} inputs",
    ]
    for prefix in LATENCIES.values():
        if prefix in named:
            p50, value, pct, n = named[prefix]
            lines.append(f"  {prefix}_p50  {p50:.3f} ms   {prefix}_tail {value:.3f} ms at p{pct:.1f}   {n} calls")
        else:
            lines.append(f"  {prefix}_p50/_tail  n/a on this workload")

    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": pass_s,
            "peak_rss_mb": peak_mb,
            "call_ms_p50": statistics.median(calls),
            "call_ms_tail": call_tail,
        }
        units = END_TO_END
    else:
        metrics, missing, tracer = layer_metrics(workload, so, prog, inputs, passes, named,
                                                 build, reasons)
        metrics["pass_raw_s"] = pass_raw_s
        tracer.write(OUT / f"spans-{workload.name}.jsonl")
        for name in missing:
            lines.append(f"  missing wrap target (skipped): {name}")
        lines += stage_lines(tracer, workload.group)
        lines.append(f"  trace.overhead_share {metrics['trace.overhead_share']:+.4f}")
        units = PER_LAYER
    lines += [f"  FAILED {m}" for m in messages[:20]]
    lines.append(f"  correct: {'yes' if correct else 'NO'}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def layer_metrics(workload, so, prog, inputs, passes, named, build, reasons):
    traced = [p for p in passes if p.traced]
    per_pass = []
    for p in traced:
        t = p.tracer
        reading = {"busy": t.busy, "calls": t.calls, "self": t.self_time, "count": t.counts.__getitem__}
        values = {name: reading[how](what) for name, (_unit, how, what) in SPAN_METRICS.items()}
        tried = values["oracles.trees_tried"]
        values["oracles.hit_ratio"] = values["oracles.supports_found"] / tried if tried else 0.0
        values["trace.spans"] = len(t.spans)
        per_pass.append(values)
    metrics = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    metrics.update({"attachment.arcs": 0, "attachment.free": 0,
                    "cli.startup_ms": 0.0, "cli.inproc_ms": 0.0})
    metrics.update(workload.layer_extras(so, prog, inputs))
    metrics["core.profile_build_s"] = statistics.median(build)
    for code in DFS_REASONS:
        metrics[f"dfs_tree.reason.{code}"] = reasons[code]
    for prefix in LATENCIES.values():
        p50, value, _pct, _n = named.get(prefix, (0.0, 0.0, 0.0, 0))
        metrics[f"{prefix}_p50"] = p50
        metrics[f"{prefix}_tail"] = value
    plain = sum(op_seconds(passes).values())
    metrics["trace.overhead_share"] = sum(op_seconds(passes, traced=True).values()) / plain - 1
    missing = traced[-1].tracer.missing
    metrics["trace.missing_targets"] = len(missing)
    return metrics, missing, traced[-1].tracer


def stage_lines(tracer: Tracer, group_of) -> list[str]:
    """Where each recognizer's time goes, by input group, from one traced pass."""
    lines = []
    for root in ("dfs_tree.recognize", "attachment.gs"):
        for group, shares in sorted(tracer.breakdown(root, group_of).items()):
            total = shares.pop("total")
            parts = sorted(shares.items(), key=lambda kv: -kv[1])
            lines.append(f"  {root} {group}: {total:.3f} s = " + ", ".join(
                f"{name} {100 * seconds / total:.0f}%" for name, seconds in parts))
    return lines


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_all(seed: int, seconds: float, out: str | None) -> int:
    """Every workload, untraced then traced, each in its own process."""
    record = {"seed": seed, "seconds": seconds, "environment": environment(), "results": {}}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stdout + done.stderr)
                return 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            result["report"] = lines[:-1]
            record["results"].setdefault(name, {})["traced" if trace else "untraced"] = result
    if out:
        Path(out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


def environment() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the results here as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "searchorder" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'searchorder'}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)

    sys.path.insert(0, str(SRC))
    # One CPU for this process and the CLI subprocesses it starts, so that
    # the host probe and the work it scales always run on the same one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = OUT / f"work-{os.getpid()}"
    try:
        result, lines = run(make_workload(args.workload, workdir), args.seed, args.seconds,
                            bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

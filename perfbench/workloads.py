"""The three benchmark workloads.

Each workload generates its raw inputs from a seed (see gen.py), turns
them into the package's values during set-up, makes its timed calls in
`run_pass`, and re-checks every answer in `check`, after the timed
region. Calls go through `Program`, which looks each function up on
its module at call time, so trace wrappers see the benchmark's own
calls as well as the package's internal ones.

Outcomes are read only through `.is_yes`, `.tree` and `.reason`.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import itertools
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import gen

# dfs-tree's NO reasons; the last one marks a defect and must never appear
FINAL_VERIFY_FAILED = "FINAL_VERIFY_FAILED"
DFS_REASONS = (
    "DISCONNECTED_ATTACHMENT",
    "TSTAR_NOT_SUPPORT_FULL",
    "RESTRICTION_FAILS",
    "EMPTY_Q",
    FINAL_VERIFY_FAILED,
)


# What probe_seconds() takes when the host is not slowed by other load:
# the 5th percentile of 3,000 probes on a 2-vCPU Intel Xeon VM, Python 3.11.
REFERENCE_PROBE_S = 0.84e-3


def probe_seconds() -> float:
    """Wall time of a fixed piece of pure-Python work of the kind the
    package does: frozensets, a dict and a keyed sort.

    The collector is off while it runs, and everything it allocates is
    freed before the collector is back on. It builds no small tuples,
    whose free list would keep some of them out of the collector's
    allocation count. So a probe neither triggers a collection nor
    leaves the allocation count changed: its time does not depend on
    the program's heap, and the program's calls see the same
    collections with or without probes around them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(2000):
            table[8 * i + (i & 7)] = frozenset(range(i, i + 2))
        sorted(table, key=lambda k: -k)
        sum(len(v) for v in table.values())
        del table
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_factor() -> float:
    """How much faster the reference host would be right now.

    A shared host's speed moves by a third within seconds. A call's wall
    time times the factor measured around it (its reference-host time)
    moves by a few per cent where its raw wall time moves by 25 %."""
    return REFERENCE_PROBE_S / probe_seconds()


@dataclass
class Op:
    """One timed call: its kind (the latency family it reports into), a
    key naming the input and step (stable across passes), its wall time,
    that time at reference-host speed, the host probe run just after it,
    a comparable summary of its result, and the error it raised."""

    kind: str
    key: str
    seconds: float
    scaled: float
    probe: float
    value: object = None
    error: str | None = None


class Program:
    """Calls into the package, resolved on their modules at call time.

    `overrides` maps a dotted name such as "dfs_tree.recognize_dfs_tree"
    to a replacement; the self-tests use it to inject a wrong answer.
    """

    def __init__(self, overrides: dict | None = None):
        self.overrides = dict(overrides or {})

    def __call__(self, dotted: str):
        if dotted in self.overrides:
            return self.overrides[dotted]
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(f"searchorder.{module}"), attr)


def timed_op(ops: list[Op], tracer, kind: str, key: str, call, summarize=lambda r: r):
    """Run call() as one operation, append its Op and return its result
    (None if it raised). Only call() itself is timed. A host probe runs
    just after it; the one just before it is the previous op's closing
    probe, as ops follow each other with no work between them, or a
    fresh one for the first op of a pass."""
    span = tracer.op(f"op.{kind}", key) if tracer is not None else contextlib.nullcontext()
    result = None
    error = None
    before = ops[-1].probe if ops else probe_seconds()
    start = time.perf_counter()
    try:
        with span:
            result = call()
    except Exception as exc:  # a failing call is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    after = probe_seconds()
    factor = 2 * REFERENCE_PROBE_S / (before + after)
    ops.append(Op(kind, key, seconds, seconds * factor, after,
                  None if error else summarize(result), error))
    return result


def outcome_summary(outcome) -> tuple:
    """(is_yes, reason, witness edges) of a recognizer outcome."""
    if outcome.is_yes:
        return True, None, tuple(sorted(outcome.tree.edge_names()))
    return False, outcome.reason, None


def edge_set(edges) -> frozenset:
    return frozenset(frozenset(e) for e in edges)


def certifies(so, names, edges, rows, paradigm) -> bool:
    """Whether edges make a tree on names that every row replays on."""
    try:
        tree = so.Tree.build(names, edges)
    except (ValueError, KeyError, so.NotATreeError):
        return False
    universe = tree.universe
    return all(
        so.certify_by_simulation(tree, so.Ordering.from_names(universe, row), paradigm)
        for row in rows
    )


class Workload:
    name = ""
    modules: tuple[str, ...] = ("searchorder",)
    call_kinds: tuple[str, ...] = ()

    def generate(self, seed: int):
        raise NotImplementedError

    def check_raw(self, raw) -> list[str]:
        """Problems with the generated inputs themselves."""
        return []

    def build(self, so, raw):
        raise NotImplementedError

    def run_pass(self, prog: Program, inputs, tracer) -> list[Op]:
        raise NotImplementedError

    def check(self, so, prog: Program, inputs, ops: list[Op]) -> dict[tuple[str, str], str]:
        """Failure message by (op kind, op key), for the ops of one pass."""
        raise NotImplementedError

    def dfs_reasons(self, ops: list[Op]) -> Counter:
        return Counter(
            op.value[1] for op in ops if op.kind == "dfs_tree" and op.value and not op.value[0]
        )

    def layer_extras(self, so, prog: Program, inputs) -> dict[str, float]:
        """Per-layer numbers measured outside the traced passes."""
        return {}

    def group(self, key: str) -> str:
        """The input group an op key belongs to, for per-stage shares."""
        return key.split(":")[0]


# ---------------------------------------------------------------------------


class PlantedLarge(Workload):
    """Planted YES instances on random recursive trees at n = 100 and 400.

    DFS rows are YES for both recognizers; GS rows are YES for gs-tree
    and send dfs-tree to its NO exits. k = 2 puts dfs-tree's time in
    purify and gs-tree's in witness assembly; k = 8 moves dfs-tree's
    time to q_path and the final verification.
    """

    name = "planted-large"
    call_kinds = ("dfs_tree", "gs_tree")

    def __init__(self, plan=None):
        # One n = 400 tree per k and eighty at n = 100: a pass near 23 s on
        # a 2-core host, a quarter of it at n = 400. The 320 inputs at
        # n = 100 hold the latency percentiles steady from seed to seed; the
        # four at n = 400 sit beyond the tail and show in pass_s.
        self.plan = plan or {100: 80, 400: 1}

    def generate(self, seed):
        return gen.planted_profiles(seed, self.plan)

    def group(self, key):
        return "-".join(key.split("-")[:2])  # "n400-k2"

    def check_raw(self, raw):
        problems = []
        for item in raw:
            adj = gen.adjacency(item["n"], item["edges"])
            replay = gen.replays_dfs_on_tree if item["kind"] == "dfs" else gen.replays_gs
            if not all(replay(adj, row) for row in item["index_rows"]):
                problems.append(f"{item['key']}: a planted row does not replay on its tree")
        return problems

    def build(self, so, raw):
        return [(item, so.Profile.build(item["names"], item["rows"])) for item in raw]

    def run_pass(self, prog, inputs, tracer):
        ops: list[Op] = []
        for item, profile in inputs:
            timed_op(ops, tracer, "dfs_tree", item["key"],
                     lambda: prog("dfs_tree.recognize_dfs_tree")(profile), outcome_summary)
            timed_op(ops, tracer, "gs_tree", item["key"],
                     lambda: prog("attachment.recognize_gs_tree")(profile), outcome_summary)
        return ops

    def check(self, so, prog, inputs, ops):
        by = {(op.kind, op.key): op.value for op in ops}
        failures = {}
        for item, _profile in inputs:
            key = item["key"]
            dfs, gs = by[("dfs_tree", key)], by[("gs_tree", key)]
            names, rows = item["names"], item["rows"]
            if gs is not None and not gs[0]:
                failures[("gs_tree", key)] = f"NO {gs[1]} on planted {item['kind']} rows"
            elif gs is not None and not certifies(so, names, gs[2], rows, so.Paradigm.GS):
                failures[("gs_tree", key)] = "witness does not replay every row"
            if dfs is None:
                continue
            if item["kind"] == "dfs" and not dfs[0]:
                failures[("dfs_tree", key)] = f"NO {dfs[1]} on planted DFS rows"
            elif dfs[1] == FINAL_VERIFY_FAILED:
                failures[("dfs_tree", key)] = "reached FINAL_VERIFY_FAILED"
            elif dfs[0] and not certifies(so, names, dfs[2], rows, so.Paradigm.DFS):
                failures[("dfs_tree", key)] = "witness does not replay every row"
        return failures

    def layer_extras(self, so, prog, inputs):
        return digraph_size(prog, [profile for _item, profile in inputs])


# ---------------------------------------------------------------------------


class ExactSmall(Workload):
    """Uniform random profiles at n = 5 and 6 plus an n = 7 slice,
    through both recognizers and both exact oracles (and, for n <= 5,
    the GS support enumerator); plus every paradigm's ordering
    enumeration on small connected graphs. This is the Tier-1 hot path:
    oracle tree enumeration and label simulation."""

    name = "exact-small"
    call_kinds = ("oracle",)

    def __init__(self, counts=None, graph_counts=None):
        # Profiles per (n, row count): n = 5 and n = 6 in equal numbers, as
        # the Tier-1 corpus draws them, plus an n = 7 slice (about 0.45 s a
        # profile) that sits beyond the tail and shows in pass_s.
        self.counts = counts or {5: 50, 6: 50, 7: 1}
        self.graph_counts = graph_counts or {5: 4, 6: 4}

    def generate(self, seed):
        return (gen.random_profiles(seed, self.counts),
                gen.connected_graphs(seed, self.graph_counts))

    def group(self, key):
        return key.split("-")[0]  # "n6"

    def build(self, so, raw):
        profiles, graphs = raw
        return (
            [(item, so.Profile.build(item["names"], item["rows"])) for item in profiles],
            [(item, so.Graph.build(item["names"], item["edges"])) for item in graphs],
            list(so.Paradigm),
        )

    def run_pass(self, prog, inputs, tracer):
        profiles, graphs, paradigms = inputs
        dfs, gs = paradigms_by_value(paradigms, "dfs"), paradigms_by_value(paradigms, "gs")
        ops: list[Op] = []
        for item, profile in profiles:
            key = item["key"]
            timed_op(ops, tracer, "dfs_tree", key,
                     lambda: prog("dfs_tree.recognize_dfs_tree")(profile), outcome_summary)
            timed_op(ops, tracer, "gs_tree", key,
                     lambda: prog("attachment.recognize_gs_tree")(profile), outcome_summary)

            def oracles():
                return (prog("oracles.brute_force_tree_support")(profile, dfs),
                        prog("oracles.all_tree_supports")(profile, gs))

            timed_op(ops, tracer, "oracle", key, oracles, lambda r: (
                r[0].is_yes,
                tuple(r[0].witness.edge_names()) if r[0].is_yes else None,
                frozenset(edge_set(t.edge_names()) for t in r[1]),
            ))
            if item["n"] <= 5:
                timed_op(ops, tracer, "enumerate_gs", key,
                         lambda: prog("attachment.enumerate_gs_tree_supports")(profile),
                         lambda r: frozenset(edge_set(t.edge_names()) for t in r))
        for item, graph in graphs:
            for paradigm in paradigms:
                timed_op(ops, tracer, "enumerate", f"{item['key']}:{paradigm.value}",
                         lambda: prog("traversals.enumerate_orderings")(graph, paradigm),
                         lambda r: tuple(o.names for o in r))
        return ops

    def check(self, so, prog, inputs, ops):
        profiles, graphs, paradigms = inputs
        by = {(op.kind, op.key): op.value for op in ops}
        failures = {}
        for item, _profile in profiles:
            key = item["key"]
            dfs, gs, oracle = (by[(kind, key)] for kind in ("dfs_tree", "gs_tree", "oracle"))
            if oracle is None:
                continue
            oracle_dfs_yes, oracle_witness, gs_supports = oracle
            names, rows = item["names"], item["rows"]
            if oracle_dfs_yes and not certifies(so, names, oracle_witness, rows, so.Paradigm.DFS):
                failures[("oracle", key)] = "DFS witness does not replay every row"
            if dfs is not None:
                if dfs[0] != oracle_dfs_yes:
                    failures[("dfs_tree", key)] = f"says {dfs[0]}, the oracle {oracle_dfs_yes}"
                elif dfs[1] == FINAL_VERIFY_FAILED:
                    failures[("dfs_tree", key)] = "reached FINAL_VERIFY_FAILED"
                elif dfs[0] and not certifies(so, names, dfs[2], rows, so.Paradigm.DFS):
                    failures[("dfs_tree", key)] = "witness does not replay every row"
                elif dfs[0] and gs is not None and not gs[0]:
                    failures[("dfs_tree", key)] = "YES where gs-tree says NO"
            if gs is not None:
                if gs[0] != bool(gs_supports):
                    failures[("gs_tree", key)] = f"says {gs[0]}, the oracle found {len(gs_supports)} supports"
                elif gs[0] and not certifies(so, names, gs[2], rows, so.Paradigm.GS):
                    failures[("gs_tree", key)] = "witness does not replay every row"
                elif gs[0] and edge_set(gs[2]) not in gs_supports:
                    failures[("gs_tree", key)] = "witness is not among the oracle's supports"
            enumerated = by.get(("enumerate_gs", key))
            if item["n"] <= 5 and enumerated is not None and enumerated != gs_supports:
                failures[("enumerate_gs", key)] = "supports differ from the oracle's set"
        for item, graph in graphs:
            for paradigm in paradigms:
                key = f"{item['key']}:{paradigm.value}"
                listed = by[("enumerate", key)]
                if listed is None:
                    continue
                universe = graph.universe
                expected = {
                    perm for perm in itertools.permutations(item["names"])
                    if so.certify_by_simulation(
                        graph, so.Ordering.from_names(universe, perm), paradigm)
                }
                if len(set(listed)) != len(listed) or set(listed) != expected:
                    failures[("enumerate", key)] = "enumerated orderings differ from the simulated ones"
        return failures

    def layer_extras(self, so, prog, inputs):
        return digraph_size(prog, [profile for _item, profile in inputs[0]])


def digraph_size(prog: Program, profiles) -> dict[str, int]:
    """Arcs and free vertices of the attachment digraphs, summed."""
    arcs = free = 0
    for profile in profiles:
        digraph = prog("attachment.build_attachment_digraph")(profile)
        arcs += len(digraph.arcs)
        free += len(digraph.free)
    return {"attachment.arcs": arcs, "attachment.free": free}


def paradigms_by_value(paradigms, value):
    return next(p for p in paradigms if p.value == value)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    paradigm: str
    bound: str
    source: str  # "k4" or "petersen"
    kappa: int

    @property
    def name(self) -> str:
        return f"{self.paradigm}-{self.bound}"


# BFS-edge stands in for the BFS-type families (its deg variants and the
# LexBFS ones repeat its shape at 2-5x the cost); MCS, MNS and DFS are cheap
# enough to keep both bounds. LexDFS needs ten source vertices: Petersen.
FAMILIES = (
    Family("dfs", "edge", "k4", 3),
    Family("dfs", "deg", "k4", 3),
    Family("bfs", "edge", "k4", 3),
    Family("mcs", "edge", "k4", 3),
    Family("mcs", "deg", "k4", 3),
    Family("mns", "edge", "k4", 3),
    Family("mns", "deg", "k4", 3),
    Family("lexdfs", "edge", "petersen", 6),
)


class ReduceCli(Workload):
    """Vertex-Cover reductions through the console entry point: each
    family is written by `searchorder reduce` in a subprocess, read back
    and validated in process, then recognized by two `searchorder
    recognize` subprocesses."""

    name = "reduce-cli"
    modules = ("searchorder", "searchorder.cli")
    call_kinds = ("cli",)

    def __init__(self, workdir: Path, families=FAMILIES):
        self.workdir = workdir
        self.families = families
        self.inproc_ms: list[float] = []  # filled by check()

    def generate(self, seed):
        rng = gen.rng_for(self.name, seed)
        return {"k4": gen.k4_graph(rng), "petersen": gen.petersen_graph(rng)}

    def build(self, so, raw):
        self.workdir.mkdir(parents=True, exist_ok=True)
        sources = {}
        for label, graph in raw.items():
            path = self.workdir / f"{label}.graph"
            path.write_text(gen.graph_text(graph))
            value = so.Graph.build(graph["names"], graph["edges"])
            sources[label] = (path, value, so.min_vertex_cover(value))
        return sources

    def _commands(self, family, sources, out_path):
        graph_path = sources[family.source][0]
        return {
            "reduce": ["reduce", "--paradigm", family.paradigm, "--bound", family.bound,
                       "--graph", str(graph_path), "--kappa", str(family.kappa),
                       "--out", str(out_path)],
            "gs": ["recognize", "--paradigm", "gs-tree", "--profile", str(out_path)],
            "dfs": ["recognize", "--paradigm", "dfs-tree", "--profile", str(out_path)],
        }

    def paths(self, family):
        return (self.workdir / f"{family.name}.sub.profile",
                self.workdir / f"{family.name}.inproc.profile")

    def run_pass(self, prog, inputs, tracer):
        sources = inputs
        ops: list[Op] = []
        for family in self.families:
            path = self.paths(family)[0]
            commands = self._commands(family, sources, path)
            timed_op(ops, tracer, "cli", f"{family.name}:reduce",
                     lambda: run_subprocess(commands["reduce"]))
            instance = timed_op(
                ops, tracer, "parse", family.name,
                lambda: prog("reductions.ReductionInstance").parse(path.read_text()),
                lambda inst: (inst.family, len(inst.profile), inst.k))
            if instance is not None:
                cover = sources[family.source][2]
                timed_op(ops, tracer, "validate", family.name,
                         lambda: prog("reductions.validate_forward")(instance, cover))
            for step in ("gs", "dfs"):
                timed_op(ops, tracer, "cli", f"{family.name}:{step}",
                         lambda: run_subprocess(commands[step]))
        return ops

    def check(self, so, prog, inputs, ops):
        """Besides the answers themselves, runs each CLI command again in
        process through `searchorder.cli.run` (untimed for the end-to-end
        metrics) and requires the same exit code, first line, witness and
        file. Every YES witness must replay every row of the instance."""
        by = {(op.kind, op.key): op.value for op in ops}
        failures = {}
        self.inproc_ms = []
        for family in self.families:
            name = family.name
            parsed = by.get(("parse", name))
            if parsed is not None and parsed[0] != name:
                failures[("parse", name)] = f"parsed family {parsed[0]!r}"
            if by.get(("validate", name), True) is not True:
                failures[("validate", name)] = "validate_forward returned False"
            sub_path, inproc_path = self.paths(family)
            commands = self._commands(family, inputs, inproc_path)
            profile = None  # stays None if the file is missing or unreadable
            try:
                profile = prog("reductions.ReductionInstance").parse(sub_path.read_text()).profile
            except (OSError, ValueError):
                pass  # the timed parse op has already failed on it
            codes = {}
            for step in ("reduce", "gs", "dfs"):
                key = ("cli", f"{name}:{step}")
                sub = by[key]
                factor = host_factor()
                start = time.perf_counter()
                try:
                    inproc = run_in_process(prog, commands[step])
                except Exception as exc:  # a crash in process fails the op
                    failures[key] = f"in process: {type(exc).__name__}: {exc}"
                    continue
                self.inproc_ms.append((time.perf_counter() - start) * factor * 1e3)
                if sub is None:
                    continue
                codes[step] = sub[0]
                if sub != inproc:
                    failures[key] = f"subprocess gave {sub}, in process {inproc}"
                elif step == "reduce" and sub[0] != 0:
                    failures[key] = f"exit code {sub[0]}"
                elif step != "reduce" and not _recognize_line_ok(*sub[:2]):
                    failures[key] = f"exit code {sub[0]} with {sub[1]!r}"
                elif step != "reduce" and sub[0] == 0 and (profile is None or not certifies(
                        so, profile.universe.names, sub[2], [row.names for row in profile],
                        so.Paradigm.GS if step == "gs" else so.Paradigm.DFS)):
                    failures[key] = "witness does not replay every row"
            if codes.get("dfs") == 0 and codes.get("gs") != 0:
                failures[("cli", f"{name}:dfs")] = "dfs-tree YES where gs-tree says NO"
            if sub_path.exists() and inproc_path.exists() and \
                    sub_path.read_text() != inproc_path.read_text():
                failures[("cli", f"{name}:reduce")] = "subprocess and in-process files differ"
        return failures

    def dfs_reasons(self, ops):
        reasons = Counter()
        for op in ops:
            if op.kind == "cli" and op.key.endswith(":dfs") and op.value:
                code, line, _witness = op.value
                if code == 1 and line.startswith("NO "):
                    reasons[line[3:].strip()] += 1
        return reasons

    def layer_extras(self, so, prog, inputs):
        startup = []
        for _ in range(5):
            factor = host_factor()
            start = time.perf_counter()
            run_subprocess(["--help"])
            startup.append((time.perf_counter() - start) * factor)
        return {"cli.startup_ms": statistics.median(startup) * 1e3,
                "cli.inproc_ms": statistics.median(self.inproc_ms)}


def _recognize_line_ok(code: int, line: str) -> bool:
    if code == 0:
        return line == "YES"
    return code == 1 and line.startswith("NO ") and FINAL_VERIFY_FAILED not in line


SRC = Path(__file__).resolve().parent.parent / "src"


def run_subprocess(args: list[str]) -> tuple[int, str, tuple]:
    """Run `python -m searchorder <args>` from the checkout; return the
    exit code and `cli_answer` of its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "searchorder", *args],
        cwd=SRC.parent, env=env, capture_output=True, text=True, timeout=120,
    )
    return (done.returncode, *cli_answer(done.stdout))


def run_in_process(prog: Program, args: list[str]) -> tuple[int, str, tuple]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = prog("cli.run")(args)
    return (code, *cli_answer(out.getvalue()))


def cli_answer(text: str) -> tuple[str, tuple]:
    """The first line of a command's standard output and, after `YES`,
    the witness edges printed on the lines below it."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    if not lines:
        return "", ()
    first = " ".join(lines[0])
    return first, tuple(tuple(edge) for edge in lines[1:]) if first == "YES" else ()

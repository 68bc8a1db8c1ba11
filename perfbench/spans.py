"""Spans and counters recorded around calls into the package.

A traced pass installs timing wrappers on the module and class
attributes that the package's callers look up at call time, records
one span per call, and puts the original objects back afterwards.
Nothing inside the package changes. Each span keeps its operation id
(one per call the benchmark makes), its own id, its parent span, its
name, and its start and end times. Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


def _supports(result) -> int:
    # brute_force_tree_support returns one verdict, all_tree_supports a tuple
    return int(result.is_yes) if hasattr(result, "is_yes") else len(result)


# (owner, attribute, span name, (counter, amount from result) or None).
# An owner "module:Class" wraps a function stored on the class. A span
# name of None marks a generator: its items are counted, no span is kept.
TARGETS = [
    ("searchorder.dfs_tree", "recognize_dfs_tree", "dfs_tree.recognize", None),
    ("searchorder.dfs_tree", "build_attachment_digraph", "attachment.build", None),
    ("searchorder.dfs_tree", "q_path", "dfs_tree.q_path", None),
    ("searchorder.dfs_tree", "purify", "dfs_tree.purify", None),
    ("searchorder.dfs_tree", "assign_parents", "dfs_tree.assign", None),
    ("searchorder.dfs_tree", "is_s_ordering", "dfs_tree.verify", None),
    ("searchorder.attachment", "recognize_gs_tree", "attachment.gs", None),
    ("searchorder.attachment", "build_attachment_digraph", "attachment.build", None),
    ("searchorder.attachment", "enumerate_gs_tree_supports", "attachment.enumerate", None),
    ("searchorder.attachment:AttachmentDigraph", "out_neighbors", "attachment.out_neighbors", None),
    ("searchorder.verifiers", "satisfies_property", "verifiers.four_point", None),
    ("searchorder.verifiers", "certify_by_simulation", "verifiers.simulation", None),
    ("searchorder.traversals", "enumerate_orderings", "traversals.enumerate",
     ("traversals.orderings", len)),
    ("searchorder.reductions", "complete_prefix", "traversals.complete_prefix", None),
    ("searchorder.oracles", "brute_force_tree_support", "oracles.tree",
     ("oracles.supports_found", _supports)),
    ("searchorder.oracles", "all_tree_supports", "oracles.tree",
     ("oracles.supports_found", _supports)),
    ("searchorder.oracles", "enumerate_tree_edge_sets", None, ("oracles.trees_tried", None)),
    ("searchorder.reductions", "reduce", "reductions.build", None),
    ("searchorder.reductions", "validate_forward", "reductions.validate", None),
    ("searchorder.reductions", "is_s_ordering", "reductions.verify", None),
    ("searchorder.reductions", "parse_bounded_profile", "core.parse",
     ("core.parse_rows", lambda result: len(result[0]))),
    ("searchorder.cli", "parse_bounded_profile", "core.parse",
     ("core.parse_rows", lambda result: len(result[0]))),
]


def target_label(owner: str, attr: str) -> str:
    return f"{owner}.{attr}".replace(":", ".")


def resolve_owner(owner: str):
    """The module or class named by owner, or None if it no longer exists."""
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


def lookup(owner: str, attr: str):
    """The object currently stored at owner.attr, or None."""
    obj = resolve_owner(owner)
    if obj is None:
        return None
    return vars(obj).get(attr) if isinstance(obj, type) else getattr(obj, attr, None)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self.op_labels: dict[int, str] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._op = 0
        self._next_id = 1

    # -- installing and restoring ------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        self.missing = []
        for owner, attr, name, counter in self.targets:
            holder = resolve_owner(owner)
            original = lookup(owner, attr)
            if holder is None or not callable(original):
                self.missing.append(target_label(owner, attr))
                continue
            if name is None:
                wrapper = self._counting_generator(original, counter[0])
            else:
                wrapper = self._timed(original, name, counter)
            self._saved.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- recording -----------------------------------------------------------

    @contextmanager
    def op(self, name: str, label: str = ""):
        """A root span around one call the benchmark makes; label names
        its input."""
        self._op += 1
        self.op_labels[self._op] = label
        with self._span(name):
            yield

    @contextmanager
    def _span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self._op, sid, parent, name, start, end))

    def _timed(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    def _counting_generator(self, fn, counter_name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts[counter_name] += 1
                yield item

        return wrapper

    # -- reading -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[3] == name)

    def busy(self, name: str) -> float:
        """Seconds covered by at least one span of this name."""
        return _covered([(s[4], s[5]) for s in self.spans if s[3] == name])

    def self_time(self, name: str) -> float:
        """Summed duration of this name's spans minus what their direct
        children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            children.setdefault(span[2], []).append((span[4], span[5]))
        return sum(
            (s[5] - s[4]) - _covered(children.get(s[1], []))
            for s in self.spans
            if s[3] == name
        )

    def breakdown(self, name: str, group_of) -> dict[str, dict[str, float]]:
        """For spans of this name, seconds per direct child name plus
        "self" and "total", summed by group_of(op label)."""
        by_parent: dict[int, list[tuple]] = {}
        for span in self.spans:
            by_parent.setdefault(span[2], []).append(span)
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            if s[3] != name:
                continue
            shares = out.setdefault(group_of(self.op_labels[s[0]]), Counter())
            shares["total"] += s[5] - s[4]
            children = by_parent.get(s[1], [])
            for child in children:
                shares[child[3]] += child[5] - child[4]
            shares["self"] += (s[5] - s[4]) - _covered([(c[4], c[5]) for c in children])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[4] for s in self.spans), default=0.0)
        with path.open("w") as out:
            for op, sid, parent, name, start, end in self.spans:
                out.write(json.dumps({
                    "op": op, "input": self.op_labels.get(op, ""), "id": sid, "parent": parent, "name": name,
                    "start": start - t0, "end": end - t0,
                }) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total

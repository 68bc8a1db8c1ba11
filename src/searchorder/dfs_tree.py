"""Polynomial-time recognition of DFS tree supports.

Given a profile of orderings, decide whether some tree admits every
ordering as a DFS-ordering, and build one if so. Pipeline, with the
cost of each stage for n vertices, k orderings and T* of diameter h:

1. Build the attachment digraph (see `attachment`); a disconnected
   attachment graph rules out any tree support (generic search
   subsumes DFS). The connectivity search runs only when the digraph
   has several sinks.
2. Any support contains T*, the arcs between forced vertices: O(n).
   Arcs lead to strictly later peel rounds, at most one per forced
   vertex, so T* is a forest, and a tree iff it has one edge fewer
   than the forced vertices. All-forced profiles take the same path.
3. Every ordering restricted to the forced set must be a DFS-ordering
   of T*, and each free vertex v gets a candidate set Q(v): for each
   ordering, the T*-path from v's *guider* (nearest preceding forced
   vertex) to the next forced vertex x, less x, or to the ordering's
   first vertex when no forced vertex follows, intersected over all
   orderings. One stack walk per ordering (`q_path`, exact as T* is a
   tree) does both. Its stack is the T*-path from the ordering's first
   vertex to the last forced vertex seen, and it cuts the ordering into
   runs, maximal stretches of free vertices that share guider and path.
   A run reads its path off the stack, as what the next forced vertex
   pops plus the vertex left on top, and keeps the masks of the path's
   prefixes. Each forced vertex is pushed and popped at most once per
   ordering: O(k n) steps in all. Runs stay the unit to the end.
4. Candidate sets, as bitmasks, are narrowed pairwise (purification)
   to a fixed point; an empty set means no support exists, so
   purification runs only when every set is non-empty (removals never
   refill a set). Each member's set lies on its run's path, and on a
   tree the vertex at position d of a path from w is at distance d
   from w, so a run's prefixes are all the distance balls around its
   guider that its sets can tell apart. A run of two or more vertices
   whose sets are all equal cannot narrow and is skipped unsearched;
   any other is narrowed in one sweep over its members: a binary search
   over the prefixes finds each set's nearest and farthest distance
   and one mask AND narrows it, O(run length * log h) mask operations.
   Passes walk the runs until one narrows nothing, skipping any run
   with no set narrowed in the pass before: one more pass than passes
   that narrow, O(n h) in all, and at most 3 on every profile measured.
5. Each free vertex is attached as a leaf to its lowest-index
   remaining candidate: O(n). A final verification of the assembled
   tree (the same walk with every vertex forced, exact as `Tree`
   validates it: O(k n)) is defensive, never expected to fail, and
   skipped when no vertex is free: the tree is T*.

Free vertices are always leaves of the constructed tree.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from itertools import accumulate
from operator import or_
from typing import Sequence

from .attachment import (
    DISCONNECTED_ATTACHMENT,
    RecognitionOutcome,
    build_attachment_digraph,
    forced_subtree,
)
from .core import Graph, Profile, Tree

TSTAR_NOT_SUPPORT_FULL = "TSTAR_NOT_SUPPORT_FULL"
RESTRICTION_FAILS = "RESTRICTION_FAILS"
EMPTY_Q = "EMPTY_Q"
FINAL_VERIFY_FAILED = "FINAL_VERIFY_FAILED"


def q_path(
    tree: Graph, seq: Sequence[int], forced: int
) -> list[tuple[list[int], list[int]]] | None:
    """One ordering's Q-path contributions, one per run of free vertices,
    or None when the ordering restricted to the forced vertices is not a
    DFS-ordering of the tree (the graph's other vertices isolated).

    The stack holds the tree path from the first vertex, forced, to the
    last forced vertex seen; each forced x pops it until its top is
    adjacent to x. A popped vertex with an unvisited neighbour z is z's
    only visited neighbour, then and later (the visited vertices stay
    connected, so another would close a cycle), so the walk fails when z
    comes. Trees only: on the 4-cycle a-b-c-d it accepts a b d c. Both
    callers pass one: T* is a forest with one edge fewer than its
    vertices (stage 2), and `Tree` validates the assembled tree.

    A run's guider is the forced vertex just before it, the stack's top.
    Its Q-path runs from there to the forced vertex x just after the run,
    less x: the vertices x pops, then x's neighbour left on top; or down
    the whole stack to the first vertex when no forced vertex follows.
    Returns [(prefixes, the run's vertices), ...] in the ordering's
    order, where prefixes[d] is the mask of the path's first d + 1
    vertices from the guider.
    """
    adj = tree._adj
    runs: list[tuple[list[int], list[int]]] = []
    run: list[int] = []  # free vertices since the guider, next forced one unseen
    stack = [seq[0]]
    for x in seq[1:]:
        if not forced >> x & 1:
            run.append(x)
            continue
        top = len(stack) - 1
        while x not in adj[stack[top]]:
            top -= 1
            if top < 0:
                return None
        if run:
            runs.append(([*accumulate([1 << v for v in reversed(stack[top:])], or_)], run))
            run = []
        del stack[top + 1:]
        stack.append(x)
    if run:
        runs.append(([*accumulate([1 << v for v in reversed(stack)], or_)], run))
    return runs


def candidate_sets(
    tstar: Graph, rows: Sequence[Sequence[int]], forced: int
) -> tuple[dict[int, int], list[tuple[list[int], list[int]]]] | None:
    """Q(v) for every free vertex v, as the intersection of its Q-paths
    over the orderings, plus the groups for `purify`: the (prefixes,
    members) of every run of two or more free vertices, ordering by
    ordering. None at the first ordering whose restriction to the forced
    vertices T* does not walk."""
    q: dict[int, int] = {}
    groups: list[tuple[list[int], list[int]]] = []
    for seq in rows:
        runs = q_path(tstar, seq, forced)
        if runs is None:
            return None
        for prefixes, members in runs:
            path = prefixes[-1]
            for v in members:
                q[v] = q.get(v, path) & path
            if len(members) > 1:
                groups.append((prefixes, members))
    return q, groups


def purify(q: dict[int, int], groups: list[tuple[list[int], list[int]]]) -> dict[int, int]:
    """Apply the pairwise narrowing rule to a fixed point.

    `q` maps free vertices to candidate masks; `groups` holds (prefixes,
    members) per run of free vertices, members in the ordering's order,
    with prefixes[d] the mask of the first d + 1 vertices of the run's
    Q-path from its guider w. Every member's set lies on that path.
    For members u before v of a group: drop from Q(v) the vertices
    strictly closer to w (in T*) than all of Q(u), and from Q(u) those
    strictly farther from w than all of Q(v). Pairs with an empty set
    are skipped (the empty set itself is the caller's no-instance
    signal).

    A group is narrowed in one sweep: every member against the largest
    nearest distance before it and the smallest farthest distance after
    it, both read from the sets as the sweep found them, by binary search
    over the group's prefixes (on a tree, position d on a path from w is
    distance d from w). A group whose sets are all equal (or all empty)
    is skipped unsearched, as equal sets share both distances. Passes
    sweep the groups in order until one narrows nothing; after the first,
    a pass skips each group with no member narrowed in the pass before.
    So there is at most one more pass than passes that narrow; a call
    took at most 3 on perfbench exact-small and planted-large (seed 1),
    the tests' `stage_corpus`, 3,000 random profiles with n = 6-8 and
    planted profiles and near misses with n = 1,000-2,000. Removals are
    monotone, so when no set empties, the fixed point is the same for
    every visiting order; when one does, some set ends empty for every
    order.
    """
    q = dict(q)
    changed = set(q)  # every free vertex: the first pass visits every group
    while changed:
        narrowed = set()
        for prefixes, members in groups:
            if changed.isdisjoint(members):
                continue  # no member narrowed in the pass before
            sets = [q[v] for v in members]
            if sets.count(sets[0]) == len(sets):
                continue  # equal sets share both distances: nothing narrows
            top = len(prefixes) - 1
            # nearest and farthest distance of each member's set; an empty set
            # bounds nothing. m & prefixes[d] grows with d: it is nonzero from
            # the nearest distance on and equals m from the farthest on.
            nears, fars = [], []
            for m in sets:
                key = m.__and__
                nears.append(bisect_left(prefixes, 1, key=key) if m else 0)
                fars.append(bisect_left(prefixes, m, key=key) if m else top)
            # floors[i]: largest nearest distance before member i;
            # ceilings[i + 1]: smallest farthest distance after it
            floors = [*accumulate(nears, max, initial=0)]
            ceilings = [*accumulate(reversed(fars), min, initial=top)][::-1]
            if floors[1:] == nears and ceilings[:-1] == fars:
                continue  # both distances rise along the group: nothing narrows
            for i, v in enumerate(members):
                low, high = floors[i], ceilings[i + 1]
                if not sets[i] or low <= nears[i] and fars[i] <= high:
                    continue
                q[v] &= prefixes[high] & ~prefixes[low - 1] if low else prefixes[high]
                narrowed.add(v)
        changed = narrowed
    return q


def assign_parents(tstar: Graph, q: dict[int, int]) -> Tree:
    """Attach every free vertex as a leaf to its lowest-index remaining
    candidate."""
    pairs = list(tstar.edges)
    for v, candidates in q.items():
        if not candidates:
            raise ValueError(f"empty candidate set for {tstar.universe.names[v]!r}")
        pairs.append((v, (candidates & -candidates).bit_length() - 1))
    return Tree.from_pairs(tstar.universe, pairs)


def recognize_dfs_tree(profile: Profile) -> RecognitionOutcome:
    """Decide whether a tree admits every profile ordering as a
    DFS-ordering; on YES the outcome carries one witness tree."""
    digraph = build_attachment_digraph(profile)
    if not digraph.is_connected():
        return RecognitionOutcome(False, reason=DISCONNECTED_ATTACHMENT)
    forced = digraph.forced_mask
    forced_count = forced.bit_count()
    tstar = forced_subtree(digraph)
    # Any support contains T*, a forest (arcs lead to later peel rounds, at
    # most one per forced vertex), so T* must be a tree walked by every row
    # restricted to the forced vertices: all of each row when all are forced.
    reason = TSTAR_NOT_SUPPORT_FULL if forced_count == profile.universe.n else RESTRICTION_FAILS
    found = candidate_sets(tstar, profile.rows, forced) if tstar.m == forced_count - 1 else None
    if found is None:
        return RecognitionOutcome(False, reason=reason)
    q, groups = found
    if all(q.values()):  # an empty set stays empty: purify cannot save it
        q = purify(q, groups)
    if not all(q.values()):
        return RecognitionOutcome(False, reason=EMPTY_Q)

    tree = assign_parents(tstar, q)
    for seq in profile.rows if q else ():  # with no free vertex, step 3 walked the whole rows
        if q_path(tree, seq, -1) is None:  # -1: every vertex forced, so no runs
            # all correctness arguments say this branch is dead; if it
            # ever fires it indicates a defect upstream
            warnings.warn("assembled tree failed final verification", RuntimeWarning)
            return RecognitionOutcome(False, reason=FINAL_VERIFY_FAILED)
    return RecognitionOutcome(True, tree=tree)

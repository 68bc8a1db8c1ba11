"""Polynomial-time recognition of DFS tree supports.

Given a profile of orderings, decide whether some tree admits every
ordering as a DFS-ordering, and build one if so. Pipeline, with the
cost of each stage for n vertices, k orderings and T* of diameter h:

1. Build the attachment digraph (see `attachment`); a disconnected
   attachment graph rules out any tree support (generic search
   subsumes DFS). The connectivity search runs only when the digraph
   has several sinks.
2. The forced vertices induce a subgraph T* that any support must
   contain, so T* not being a tree is already a refutation. If every
   vertex is forced, T* is the only candidate; verify it directly.
   T* comes from the forced vertices' out-neighbor masks: O(n).
3. Otherwise every ordering restricted to the forced set must be a
   DFS-ordering of T* (a linear stack check: O(k n)), and each free
   vertex v gets a candidate set Q(v): for each ordering, the T*-path
   between v's *guider* (nearest preceding forced vertex) and a
   per-ordering anchor, intersected over all orderings. One sweep per
   ordering cuts it into runs, maximal stretches of free vertices that
   share guider and anchor; each run walks one path to the meeting
   vertex by parent and depth, in T* rooted once per distinct first
   vertex: O(k (n + r h)) for r runs. Runs stay the unit to the end.
4. Candidate sets, as bitmasks, are narrowed pairwise (purification)
   to a fixed point; an empty set means no support exists. One O(n)
   search per distinct guider w gives its balls, the masks of T*
   within distance d of w. Each run of two or more vertices is
   narrowed in one pass over its members: a binary search over the
   balls finds each set's nearest and farthest distance and one mask
   AND narrows it, O(run length * log h) mask operations. A run is
   passed over again only when one of its sets shrank, so there are at
   most O(n h k) passes in all and usually a few per run.
5. Each free vertex is attached as a leaf to its lowest-index
   remaining candidate: O(n). A final verification of the assembled
   tree (the same linear check, O(k n)) is defensive and is never
   expected to fail.

Free vertices are always leaves of the constructed tree.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from collections import deque
from itertools import accumulate
from typing import Sequence

from .attachment import (
    DISCONNECTED_ATTACHMENT,
    RecognitionOutcome,
    build_attachment_digraph,
    forced_subtree,
)
from .core import Graph, Profile, Tree
from .verifiers import FourPointProperty, frontier_check

TSTAR_NOT_SUPPORT_FULL = "TSTAR_NOT_SUPPORT_FULL"
RESTRICTION_FAILS = "RESTRICTION_FAILS"
EMPTY_Q = "EMPTY_Q"
FINAL_VERIFY_FAILED = "FINAL_VERIFY_FAILED"


def _rooted_at(tstar: Graph, root: int) -> tuple[dict[int, int], dict[int, int]]:
    """Parent and depth maps of root's component, rooted at root (the
    root is its own parent); depths are distances from root."""
    adj = tstar._adj
    parent = {root: root}
    depth = {root: 0}
    order = [root]
    for u in order:
        d = depth[u] + 1
        for w in adj[u]:
            if w not in depth:
                parent[w] = u
                depth[w] = d
                order.append(w)
    return parent, depth


def _balls(tstar: Graph, w: int) -> list[int]:
    """balls[d]: the mask of T* vertices within distance d of w."""
    balls = [0]
    for x, d in _rooted_at(tstar, w)[1].items():  # BFS order: d never falls
        if d == len(balls):
            balls.append(balls[-1])
        balls[-1] |= 1 << x
    return balls


def _path_mask(parent: dict[int, int], depth: dict[int, int], u: int, w: int) -> int:
    """The vertices of the tree path between u and w, as a mask."""
    mask = 1 << u | 1 << w
    while depth[u] > depth[w]:
        u = parent[u]
        mask |= 1 << u
    while depth[w] > depth[u]:
        w = parent[w]
        mask |= 1 << w
    while u != w:
        u, w = parent[u], parent[w]
        mask |= 1 << u | 1 << w
    return mask


def q_path(
    seq: Sequence[int], forced: int, parent: dict[int, int], depth: dict[int, int]
) -> list[tuple[int, int, list[int]]]:
    """One ordering's Q-path contributions, one per run of free vertices.

    `parent` and `depth` describe T* rooted at the ordering's first
    vertex, which is forced. A run's guider is the forced vertex just
    before it; its anchor is the root when no forced vertex follows the
    run, and otherwise the parent of the forced vertex just after it.
    Returns [(guider, mask of the T*-path from guider to anchor, the
    run's vertices), ...] in the ordering's order.
    """
    runs: list[tuple[int, int, list[int]]] = []
    guider = -1
    run: list[int] = []  # free vertices since the guider, next forced one unseen
    for x in (*seq, -1):  # -1 ends the ordering: no forced vertex follows
        if x >= 0 and not forced >> x & 1:
            run.append(x)
            continue
        if run:
            anchor = parent[x] if x >= 0 else seq[0]
            runs.append((guider, _path_mask(parent, depth, guider, anchor), run))
            run = []
        guider = x
    return runs


def candidate_sets(
    rows: Sequence[Sequence[int]], forced: int, tstar: Graph
) -> tuple[dict[int, int], list[tuple[int, list[int]]]]:
    """Q(v) for every free vertex v, as the intersection of its Q-paths
    over the orderings, plus the groups for `purify`: (guider, members)
    for every run of two or more free vertices, ordering by ordering.
    T* is rooted once per distinct first vertex."""
    rooted: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    q: dict[int, int] = {}
    groups: list[tuple[int, list[int]]] = []
    for seq in rows:
        if seq[0] not in rooted:
            rooted[seq[0]] = _rooted_at(tstar, seq[0])
        for w, path, members in q_path(seq, forced, *rooted[seq[0]]):
            for v in members:
                q[v] = q.get(v, path) & path
            if len(members) > 1:
                groups.append((w, members))
    return q, groups


def purify(
    q: dict[int, int], groups: list[tuple[int, list[int]]], tstar: Graph
) -> dict[int, int]:
    """Apply the pairwise narrowing rule to a fixed point.

    `q` maps free vertices to candidate masks; `groups` holds (guider w,
    members) per run of free vertices, members in the ordering's order.
    For members u before v of a group: drop from Q(v) the vertices
    strictly closer to w (in T*) than all of Q(u), and from Q(u) those
    strictly farther from w than all of Q(v). Pairs with an empty set
    are skipped (the empty set itself is the caller's no-instance
    signal).

    A group is narrowed in one pass: every member against the largest
    nearest distance before it and the smallest farthest distance after
    it, both read from the sets as the pass found them, by binary search
    over w's distance balls. A group is visited again only when one of
    its members changed. Removals are monotone,
    so when no set empties, the fixed point is the same for every
    visiting order; when one does, some set ends empty for every order.
    """
    q = dict(q)
    groups_of: dict[int, list[int]] = {}
    for g, (_w, members) in enumerate(groups):
        for v in members:
            groups_of.setdefault(v, []).append(g)

    balls_of: dict[int, list[int]] = {}
    pending = deque(range(len(groups)))
    queued = [True] * len(groups)
    while pending:
        g = pending.popleft()
        queued[g] = False
        w, members = groups[g]
        if w not in balls_of:
            balls_of[w] = _balls(tstar, w)
        balls = balls_of[w]
        top = len(balls) - 1
        # nearest and farthest distance of each member's set; an empty set
        # bounds nothing. m & balls[d] grows with d: it is nonzero from the
        # nearest distance on and equals m from the farthest on.
        nears, fars = [], []
        for v in members:
            m = q[v]
            key = m.__and__
            nears.append(bisect_left(balls, 1, key=key) if m else 0)
            fars.append(bisect_left(balls, m, key=key) if m else top)
        # floors[i]: largest nearest distance before member i; ceilings[i + 1]:
        # smallest farthest distance after it
        floors = [*accumulate(nears, max, initial=0)]
        ceilings = [*accumulate(reversed(fars), min, initial=top)][::-1]
        if floors[1:] == nears and ceilings[:-1] == fars:
            continue  # both distances rise along the group: nothing narrows
        for i, v in enumerate(members):
            low, high = floors[i], ceilings[i + 1]
            if not q[v] or low <= nears[i] and fars[i] <= high:
                continue
            q[v] &= balls[high] & ~balls[low - 1] if low else balls[high]
            for h in groups_of[v]:
                if not queued[h]:
                    queued[h] = True
                    pending.append(h)
    return q


def assign_parents(tstar: Graph, q: dict[int, int]) -> Tree:
    """Attach every free vertex as a leaf to its lowest-index remaining
    candidate."""
    pairs = list(tstar.edges)
    for v, candidates in q.items():
        if not candidates:
            raise ValueError(f"empty candidate set for {tstar.universe.name(v)!r}")
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
    rows = [sigma.seq for sigma in profile.orderings]
    # Any tree support must contain T*, so a cycle or a second component in
    # it already refutes every candidate.  Only supportable profiles are
    # guaranteed to make it a tree.
    start = (forced & -forced).bit_length() - 1
    forced_is_tree = (
        tstar.m == forced_count - 1 and len(_rooted_at(tstar, start)[1]) == forced_count
    )

    if forced_count == profile.universe.n:
        if forced_is_tree and all(frontier_check(tstar, seq, FourPointProperty.D) for seq in rows):
            return RecognitionOutcome(True, tree=Tree(tstar.universe, tstar.edges))
        return RecognitionOutcome(False, reason=TSTAR_NOT_SUPPORT_FULL)

    if not forced_is_tree:
        return RecognitionOutcome(False, reason=RESTRICTION_FAILS)
    for seq in rows:
        if not frontier_check(tstar, [x for x in seq if forced >> x & 1], FourPointProperty.D):
            return RecognitionOutcome(False, reason=RESTRICTION_FAILS)

    q, groups = candidate_sets(rows, forced, tstar)
    q = purify(q, groups, tstar)
    if not all(q.values()):
        return RecognitionOutcome(False, reason=EMPTY_Q)

    tree = assign_parents(tstar, q)
    for seq in rows:
        if not frontier_check(tree, seq, FourPointProperty.D):
            # all correctness arguments say this branch is dead; if it
            # ever fires it indicates a defect upstream
            warnings.warn("assembled tree failed final verification", RuntimeWarning)
            return RecognitionOutcome(False, reason=FINAL_VERIFY_FAILED)
    return RecognitionOutcome(True, tree=tree)

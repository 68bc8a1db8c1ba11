"""Ordering verification.

Six of the seven paradigms admit a "four-point" characterization: an
ordering sigma is a valid search ordering iff for every triple
a < b < c (in sigma order) with {a,c} an edge and {a,b} not an edge,
some witness vertex d adjacent to b exists in a paradigm-specific
scope. The paper's letter for each property names its paradigm:

    S   GS      d before b
    B   BFS     d before a
    D   DFS     d strictly between a and b
    LB  LexBFS  d before a,           d not adjacent to c
    LD  LexDFS  d strictly between a and b, d not adjacent to c
    M   MNS     d before b,           d not adjacent to c

MCS has no such characterization.

Two engines decide `is_s_ordering`: `frontier_check`, one O(n + m) pass,
for GS, BFS and DFS; and `certify_by_simulation`, which `replays` the
ordering against the label semantics and is the ground truth for all
seven paradigms, for LexBFS, LexDFS, MCS and MNS. `satisfies_property`,
the O(n^2)-pair scan of the six properties, is the reference that the
engines are tested against and names the first violating triple.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .core import Graph, Ordering, adjacency_masks, iter_bits
from .traversals import Paradigm, replays


# witness scope is relative to positions of a and b; LB, LD and M
# additionally require the witness to avoid c's neighborhood
_SCOPE_BEFORE_B = (Paradigm.GS, Paradigm.MNS)
_SCOPE_BEFORE_A = (Paradigm.BFS, Paradigm.LEXBFS)
_NEEDS_NONNEIGHBOR_OF_C = (Paradigm.LEXBFS, Paradigm.LEXDFS, Paradigm.MNS)
_FRONTIER = (Paradigm.GS, Paradigm.BFS, Paradigm.DFS)  # what frontier_check decides


def _seq_over(graph: Graph, sigma: Ordering) -> tuple[int, ...]:
    """sigma's index row, if sigma orders the graph's own universe."""
    if sigma.universe != graph.universe:
        raise ValueError("ordering must permute the graph's vertex set")
    return sigma.seq


def satisfies_property(
    graph: Graph, sigma: Ordering, paradigm: Paradigm
) -> tuple[bool, tuple[str, str, str] | None]:
    """Check the paradigm's four-point property.

    Returns (True, None) if it holds, else (False, (a, b, c)) with the
    violating triple that is first in lexicographic position order.
    Runs on position-indexed adjacency bitmasks: O(n^2) premise pairs,
    each resolved with O(n/64)-word mask operations (plus a scan over
    a's later neighbors for the properties whose witness depends on c).
    """
    if paradigm is Paradigm.MCS:
        raise ValueError("MCS has no four-point characterization")
    n, seq = graph.n, _seq_over(graph, sigma)
    pos_of = {v: p for p, v in enumerate(seq)}
    adj = adjacency_masks(n, [(pos_of[u], pos_of[v]) for u, v in graph.edges])
    full = (1 << n) - 1
    needs_c = paradigm in _NEEDS_NONNEIGHBOR_OF_C

    def triple(pa: int, pb: int, pc: int) -> tuple[str, str, str]:
        names = graph.universe.names
        return names[seq[pa]], names[seq[pb]], names[seq[pc]]

    for pa in range(n - 2):
        neigh_a = adj[pa]
        # candidate b positions: after a, not adjacent to a
        for pb in iter_bits(~neigh_a & full & ~((1 << (pa + 1)) - 1)):
            later_cs = neigh_a & ~((1 << (pb + 1)) - 1)
            if not later_cs:
                continue
            if paradigm in _SCOPE_BEFORE_B:
                scope = (1 << pb) - 1
            elif paradigm in _SCOPE_BEFORE_A:
                scope = (1 << pa) - 1
            else:  # strictly between a and b
                scope = ((1 << pb) - 1) & ~((1 << (pa + 1)) - 1)
            witnesses = adj[pb] & scope
            if witnesses and not needs_c:
                continue
            for pc in iter_bits(later_cs):
                if not witnesses & ~adj[pc]:
                    return False, triple(pa, pb, pc)
    return True, None


def frontier_check(graph: Graph, seq: Sequence[int], paradigm: Paradigm) -> bool:
    """Whether seq, listing once each vertex of the graph that has an edge,
    has property S, B or D of GS, BFS or DFS, in O(n + m) time; any other
    paradigm is a ValueError. Visited vertices sit in a deque; one with no
    unvisited neighbour left is finished and is dropped as it reaches the
    front (B), the back (D) or either end (S). While one is unfinished, the
    next vertex must be adjacent to the front (B), the back (D) or any
    visited vertex (S), else it starts a new component."""
    if paradigm not in _FRONTIER:
        raise ValueError(f"frontier_check decides GS, BFS or DFS, not {paradigm.name}")
    adj = graph._adj
    unvisited = [len(neighbors) for neighbors in adj]
    from_front, from_back = paradigm is not Paradigm.DFS, paradigm is not Paradigm.BFS
    anywhere, end = from_front and from_back, 0 if from_front else -1
    visited: deque[int] = deque()
    for x in seq:
        while from_front and visited and not unvisited[visited[0]]:
            visited.popleft()
        while from_back and visited and not unvisited[visited[-1]]:
            visited.pop()
        if visited and (unvisited[x] == len(adj[x]) if anywhere else x not in adj[visited[end]]):
            return False
        for y in adj[x]:
            unvisited[y] -= 1
        visited.append(x)
    return True


def is_s_ordering(graph: Graph, sigma: Ordering, paradigm: Paradigm) -> bool:
    """Whether sigma is a valid ordering of the paradigm: by
    `frontier_check` for GS, BFS and DFS, and by simulation for the rest."""
    if paradigm not in _FRONTIER:
        return certify_by_simulation(graph, sigma, paradigm)
    return frontier_check(graph, _seq_over(graph, sigma), paradigm)


def certify_by_simulation(graph: Graph, sigma: Ordering, paradigm: Paradigm) -> bool:
    """Replay sigma against the label semantics; ground truth for all seven paradigms."""
    return replays(graph._adj, _seq_over(graph, sigma), paradigm)


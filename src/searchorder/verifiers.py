"""Ordering verification.

Six of the seven paradigms admit a "four-point" characterization: an
ordering sigma is a valid search ordering iff for every triple
a < b < c (in sigma order) with {a,c} an edge and {a,b} not an edge,
some witness vertex d adjacent to b exists in a property-specific
scope:

    S   d before b
    B   d before a
    D   d strictly between a and b
    LB  d before a,           d not adjacent to c
    LD  d strictly between a and b, d not adjacent to c
    M   d before b,           d not adjacent to c

S characterizes generic search, B characterizes BFS, D characterizes
DFS, LB LexBFS, LD LexDFS, and M MNS. MCS has no such characterization
and is always checked by simulation.

`certify_by_simulation` replays the ordering step by step against the
label semantics and is the ground truth for all seven paradigms; the
four-point checks are the fast path. `is_partial_ordering` decides
whether a prefix extends to a full ordering by completing it greedily
and verifying the result.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .core import Graph, Ordering, iter_bits
from .traversals import LabelState, Paradigm, complete_prefix


class FourPointProperty(Enum):
    S = "S"
    B = "B"
    D = "D"
    LB = "LB"
    LD = "LD"
    M = "M"


PARADIGM_PROPERTY: dict[Paradigm, FourPointProperty] = {
    Paradigm.GS: FourPointProperty.S,
    Paradigm.BFS: FourPointProperty.B,
    Paradigm.DFS: FourPointProperty.D,
    Paradigm.LEXBFS: FourPointProperty.LB,
    Paradigm.LEXDFS: FourPointProperty.LD,
    Paradigm.MNS: FourPointProperty.M,
}

# witness scope is relative to positions of a and b; the *_C properties
# additionally require the witness to avoid c's neighborhood
_SCOPE_BEFORE_B = (FourPointProperty.S, FourPointProperty.M)
_SCOPE_BEFORE_A = (FourPointProperty.B, FourPointProperty.LB)
_NEEDS_NONNEIGHBOR_OF_C = (
    FourPointProperty.LB,
    FourPointProperty.LD,
    FourPointProperty.M,
)


def satisfies_property(
    graph: Graph, sigma: Ordering, prop: FourPointProperty
) -> tuple[bool, tuple[str, str, str] | None]:
    """Check a four-point property.

    Returns (True, None) if it holds, else (False, (a, b, c)) with the
    violating triple that is first in lexicographic position order.
    Runs on position-indexed adjacency bitmasks: O(n^2) premise pairs,
    each resolved with O(n/64)-word mask operations (plus a scan over
    a's later neighbors for the properties whose witness depends on c).
    """
    n = graph.n
    if not sigma.is_complete or sigma.universe != graph.universe:
        raise ValueError("ordering must permute the graph's vertex set")
    seq = sigma.seq
    pos_of = {v: p for p, v in enumerate(seq)}
    adj = [0] * n
    for u, v in graph.edges:
        pu, pv = pos_of[u], pos_of[v]
        adj[pu] |= 1 << pv
        adj[pv] |= 1 << pu
    full = (1 << n) - 1
    needs_c = prop in _NEEDS_NONNEIGHBOR_OF_C

    def triple(pa: int, pb: int, pc: int) -> tuple[str, str, str]:
        name = graph.universe.name
        return name(seq[pa]), name(seq[pb]), name(seq[pc])

    for pa in range(n - 2):
        neigh_a = adj[pa]
        # candidate b positions: after a, not adjacent to a
        for pb in iter_bits(~neigh_a & full & ~((1 << (pa + 1)) - 1)):
            later_cs = neigh_a & ~((1 << (pb + 1)) - 1)
            if not later_cs:
                continue
            if prop in _SCOPE_BEFORE_B:
                scope = (1 << pb) - 1
            elif prop in _SCOPE_BEFORE_A:
                scope = (1 << pa) - 1
            else:  # strictly between a and b
                scope = ((1 << pb) - 1) & ~((1 << (pa + 1)) - 1)
            witnesses = adj[pb] & scope
            if not needs_c:
                if witnesses:
                    continue
                return False, triple(pa, pb, next(iter_bits(later_cs)))
            if not witnesses:
                return False, triple(pa, pb, next(iter_bits(later_cs)))
            for pc in iter_bits(later_cs):
                if not witnesses & ~adj[pc]:
                    return False, triple(pa, pb, pc)
    return True, None


def is_s_ordering(graph: Graph, sigma: Ordering, paradigm: Paradigm) -> bool:
    """Whether sigma is a valid full ordering of the paradigm.

    Uses the four-point characterization where one exists; MCS falls
    back to simulation.
    """
    if paradigm is Paradigm.MCS:
        return certify_by_simulation(graph, sigma, paradigm)
    ok, _ = satisfies_property(graph, sigma, PARADIGM_PROPERTY[paradigm])
    return ok


def certify_by_simulation(graph: Graph, sigma: Ordering, paradigm: Paradigm) -> bool:
    """Replay sigma against the label semantics; ground truth for all
    seven paradigms."""
    if not sigma.is_complete or sigma.universe != graph.universe:
        raise ValueError("ordering must permute the graph's vertex set")
    state = LabelState(graph._adj, paradigm)
    for v in sigma.seq:
        if not state.is_candidate(v):
            return False
        state.advance(v)
    return True


def is_partial_ordering(graph: Graph, prefix: Sequence[str], paradigm: Paradigm) -> bool:
    """Whether the prefix extends to a full ordering of the paradigm."""
    completed = complete_prefix(graph, prefix, paradigm)
    return is_s_ordering(graph, completed, paradigm)


"""Execution and enumeration of graph-search paradigms.

Seven paradigms are supported: generic search (GS), BFS, DFS, their
lexicographic variants, maximum cardinality search (MCS) and maximal
neighborhood search (MNS). Following Corneil and Krueger's unified view
of graph searching, a run repeatedly visits an eligible vertex and
updates the labels of its unvisited neighbors. Only the label and its
update depend on the paradigm:

    GS      flag, label(u) <- True ("has a visited neighbor")
    BFS     integer, label(u) <- max(label(u), n - i)
    DFS     integer, label(u) <- i
    LexBFS  sequence, append n - i
    LexDFS  sequence, prepend i
    MCS     integer, label(u) <- label(u) + 1
    MNS     set, label(u) <- label(u) ∪ {i}

Here i is the 1-based step at which the neighbor's owner was visited.
One selection rule serves all seven: an unvisited vertex is eligible
iff no unvisited vertex has a strictly greater label, where flags,
integers and sequences compare in their usual total orders (so for GS
the flagged vertices win, and with none flagged all tie) and sets by
inclusion. The searches are nondeterministic; `enumerate_orderings`
branches over every eligible vertex, while `generate_ordering` breaks
ties by lowest universe index.

In code every label is an int, 0 before any update, and a visited
vertex holds -1, below them all. The flag is 1, and a sequence or set
is the bit set of its entries: bit n - i for LexBFS, bit i for LexDFS
and MNS. A sequence's entries are distinct and decreasing, so integer
order is exactly its lexicographic order, and set inclusion is bitmask
inclusion; a candidacy test is then one `max`, or for MNS one pass of
`&` over the larger labels.

One engine runs every search: a plain list of labels and two helpers,
`_visit`, the only code that applies the rule table, and `_candidates`,
the one home of the selection rule. `enumerate_orderings` gives each
branch but the lowest a copy of its parent's list, and the lowest takes
the list over; `complete_prefix` visits the prefix, then the lowest
candidate at each step; `replays` runs indices, testing each vertex's
candidacy inline (a visited vertex never is one): the ground truth of
`certify_by_simulation` and the oracles.
`is_partial_ordering` replays a prefix of names: a label search never
gets stuck, so a prefix of candidates extends to a full ordering.
"""

from __future__ import annotations

from enum import Enum
from operator import add, or_
from typing import Iterable, Sequence

from .core import CapError, Graph, Ordering

DEFAULT_ENUMERATION_CAP = 8


class Paradigm(Enum):
    GS = "gs"
    BFS = "bfs"
    DFS = "dfs"
    LEXBFS = "lexbfs"
    LEXDFS = "lexdfs"
    MCS = "mcs"
    MNS = "mns"

    def __str__(self) -> str:
        return self.value


# paradigm -> (op, x(i, n)): visiting step i's vertex sets each unvisited
# neighbor's label to op(label, x), the table above in the int encoding;
# or and max assign for GS and DFS, as x is at least every unvisited label
_RULES = {
    Paradigm.GS: (or_, lambda i, n: 1),
    Paradigm.BFS: (max, lambda i, n: n - i),
    Paradigm.DFS: (max, lambda i, n: i),
    Paradigm.LEXBFS: (or_, lambda i, n: 1 << n - i),
    Paradigm.LEXDFS: (or_, lambda i, n: 1 << i),
    Paradigm.MCS: (add, lambda i, n: 1),
    Paradigm.MNS: (or_, lambda i, n: 1 << i),
}


def _visit(labels: list[int], adj: Sequence[Iterable[int]], v: int, op, x: int) -> None:
    """Visit v, which must be unvisited: mark it -1 and fold x into each
    unvisited neighbour's label by op."""
    labels[v] = -1
    for u in adj[v]:
        if labels[u] >= 0:
            labels[u] = op(labels[u], x)


def _candidates(labels: list[int], mns: bool) -> list[int]:
    """All vertices a valid run could visit next, ascending by index."""
    if mns:  # inclusion is only a partial order
        return [v for v, label in enumerate(labels)
                if label >= 0 and label not in map(label.__and__, filter(label.__lt__, labels))]
    best = max(labels, default=-1)
    return [v for v, label in enumerate(labels) if label == best >= 0]


def _resolve(graph: Graph, prefix: Sequence[str]) -> list[int]:
    """The indices of the named vertices, left to right; an unknown or
    repeated name is an error at the first place it stands."""
    seq, seen = [], set()
    for name in prefix:
        v = graph.universe.index(name)
        if v in seen:
            raise ValueError(f"duplicate vertex {name!r} in prefix")
        seen.add(v)
        seq.append(v)
    return seq


def generate_ordering(
    graph: Graph, paradigm: Paradigm, start: str | None = None
) -> Ordering:
    """One deterministic full run; ties break to the lowest universe index.

    Every vertex is eligible at step 1 (all labels are equal), so a given
    start is a one-vertex prefix, which `complete_prefix` replays as is.
    """
    return complete_prefix(graph, [] if start is None else [start], paradigm)


def enumerate_orderings(
    graph: Graph, paradigm: Paradigm, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[Ordering, ...]:
    """All full orderings the paradigm can produce, in lexicographic
    index order. Branches over every eligible vertex at every step."""
    n, adj, universe = graph.n, graph._adj, graph.universe
    if n > cap:
        raise CapError(f"enumeration needs n <= {cap}, got n = {n}")
    if not n:
        return (Ordering._trusted(universe, ()),)
    op, x_of = _RULES[paradigm]
    mns = paradigm is Paradigm.MNS
    out: list[Ordering] = []
    # an explicit stack of (prefix, labels) nodes, lowest candidate on top:
    # a path of a thousand vertices would overflow Python's recursion limit
    stack = [((), [0] * n)]
    while stack:
        prefix, labels = stack.pop()
        if len(prefix) == n - 1:  # the one unvisited vertex, label >= 0, is a candidate
            out.append(Ordering._trusted(universe, prefix + (labels.index(max(labels)),)))
            continue
        x = x_of(len(prefix) + 1, n)
        lowest, *rest = _candidates(labels, mns)
        for v in reversed(rest):
            child = labels[:]
            _visit(child, adj, v, op, x)
            stack.append((prefix + (v,), child))
        _visit(labels, adj, lowest, op, x)  # the lowest branch takes the list over
        stack.append((prefix + (lowest,), labels))
    return tuple(out)


def complete_prefix(graph: Graph, prefix: Sequence[str], paradigm: Paradigm) -> Ordering:
    """Extend a prefix to a full ordering: replay the prefix as given,
    then continue greedily (lowest index on ties).

    The replay tests no candidacy, so any prefix of distinct vertices
    extends, and the returned ordering starts with the prefix itself. It
    is a valid ordering of the paradigm iff the prefix is one, which
    `is_partial_ordering` decides without completing it.
    """
    seq, n, adj = _resolve(graph, prefix), graph.n, graph._adj
    op, x_of = _RULES[paradigm]
    mns = paradigm is Paradigm.MNS
    labels = [0] * n
    for i in range(1, n + 1):
        if i > len(seq):  # for MNS the largest int is maximal, maybe not first
            seq.append(_candidates(labels, True)[0] if mns else labels.index(max(labels)))
        _visit(labels, adj, seq[i - 1], op, x_of(i, n))
    return Ordering._trusted(graph.universe, tuple(seq))


def replays(adj: Sequence[Iterable[int]], seq: Sequence[int], paradigm: Paradigm) -> bool:
    """Whether each vertex of seq is a candidate when visited, on neighbour lists adj."""
    op, x_of = _RULES[paradigm]
    mns, n = paradigm is Paradigm.MNS, len(adj)
    labels = [0] * n
    for i, v in enumerate(seq, 1):
        label = labels[v]  # the test of _candidates, for one vertex
        if label < 0 or (label in map(label.__and__, filter(label.__lt__, labels)) if mns
                         else label < max(labels)):
            return False
        _visit(labels, adj, v, op, x_of(i, n))
    return True


def is_partial_ordering(graph: Graph, prefix: Sequence[str], paradigm: Paradigm) -> bool:
    """Whether the prefix extends to a full ordering of the paradigm: whether
    each of its vertices is a candidate when visited. A repeated vertex is
    an error wherever it stands."""
    return replays(graph._adj, _resolve(graph, prefix), paradigm)

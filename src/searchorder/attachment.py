"""Attachment digraphs and tree-support recognition for generic search.

For a profile of orderings, the attachment digraph records, for each
vertex, which vertices it could attach to in a tree on which every
profile ordering is a valid generic-search ordering. It is built by
peeling the bottom-ranked vertices of all orderings: a peeled vertex v
receives an arc to every *common blocker*, i.e. every vertex that
precedes v in all orderings (restricted to the surviving set S), with
the special case that the top-ranked survivor's only blocker is the
second-ranked one.

A vertex with at most one out-neighbor is *forced* (its tree edge is
determined); with two or more it is *free*. A tree support exists iff
some realization keeping one outgoing arc per vertex spans, and the
supports are exactly those realizations.

Everything runs on vertex indices, with vertex sets as bitmasks (bit i
set = index i). For n vertices and k orderings, with w = n/64 machine
words per mask:

    build_attachment_digraph   O(k n) mask operations, O(k n^2 / w)
                               word operations; one out-neighbor mask
                               per vertex, nothing sorted
    forced / free / sinks      O(n) mask tests
    recognize_gs_tree          the digraph, then O(n) on YES; a NO adds
                               one connectivity search, O(n + arcs)
    arcs, arc_names,           O(n + arcs), derived from the masks on
    underlying_graph           demand
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Iterable

from .core import CapError, Graph, Ordering, Profile, Tree, Universe, Value, iter_bits

DISCONNECTED_ATTACHMENT = "DISCONNECTED_ATTACHMENT"
UNREALIZABLE_ATTACHMENT = "UNREALIZABLE_ATTACHMENT"
FREE_VERTEX_CAP = 12


class RecognitionOutcome(Value):
    """A recognizer's answer: a witness tree on YES, a reason code on NO."""

    _fields = ("is_yes", "tree", "reason")

    def __init__(self, is_yes: bool, tree: Tree | None = None, reason: str | None = None) -> None:
        self.__dict__.update(is_yes=is_yes, tree=tree, reason=reason)


def blocker_set(sigma: Ordering, s: Iterable[str], x: str) -> frozenset[str]:
    """Blockers of x within the surviving set s, under ordering sigma.

    If x is the sigma-earliest member of s the result is the singleton
    holding the second-earliest member; otherwise it is every member of
    s before x.
    """
    members = sorted(s, key=sigma.position)
    if x not in members:
        raise ValueError(f"{x!r} is not in the surviving set")
    if members[0] == x:
        if len(members) < 2:
            raise ValueError("top vertex of a singleton set has no blockers")
        return frozenset({members[1]})
    px = sigma.position(x)
    return frozenset(y for y in members if sigma.position(y) < px)


class AttachmentDigraph(Value):
    """out_masks[v] holds v's out-neighbors."""

    _fields = ("universe", "out_masks")

    def __init__(self, universe: Universe, out_masks: tuple[int, ...]) -> None:
        self.__dict__.update(universe=universe, out_masks=out_masks)

    @cached_property
    def forced_mask(self) -> int:
        mask = 0
        for v, out in enumerate(self.out_masks):
            if not out & (out - 1):  # at most one bit set
                mask |= 1 << v
        return mask

    def _names(self, mask: int) -> tuple[str, ...]:
        names = self.universe.names
        return tuple([names[v] for v in iter_bits(mask)])

    def forced_names(self) -> tuple[str, ...]:
        return self._names(self.forced_mask)

    def free_names(self) -> tuple[str, ...]:
        return self._names(((1 << self.universe.n) - 1) & ~self.forced_mask)

    @property
    def free(self) -> frozenset[str]:
        return frozenset(self.free_names())

    def index_arcs(self) -> Iterable[tuple[int, int]]:
        """Arcs as index pairs, sorted."""
        for v, out in enumerate(self.out_masks):
            for u in iter_bits(out):
                yield v, u

    def arc_names(self) -> tuple[tuple[str, str], ...]:
        """Arcs as name pairs, sorted by index pair."""
        names = self.universe.names
        return tuple([(names[v], names[u]) for v, u in self.index_arcs()])

    @property
    def arcs(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.arc_names())

    def sink_count(self) -> int:
        return sum(1 for out in self.out_masks if not out)

    def underlying_graph(self) -> Graph:
        """The attachment graph: arcs undirected."""
        return Graph.from_pairs(self.universe, self.index_arcs())

    def is_connected(self) -> bool:
        """Whether the attachment graph is connected.

        Arcs lead from a vertex to one peeled in a strictly later round
        (or from the lower to the higher of the final pair), so keeping
        one outgoing arc per non-sink gives a forest with one tree per
        sink. A single sink therefore connects everything, and only
        several sinks need a search.
        """
        return self.sink_count() == 1 or self.underlying_graph().is_connected()


def build_attachment_digraph(profile: Profile) -> AttachmentDigraph:
    """Peel bottom-ranked vertices and record their common blockers.

    Each ordering keeps a head and a tail pointer over the `alive` mask;
    a vertex's blockers in an ordering are its "before v" mask ANDed
    with `alive`, unless it heads the survivors there.

    When exactly two vertices survive, they are joined by one arc whose
    direction carries no information; it runs from the lower index to
    the higher, by convention.
    """
    uni = profile.universe
    n = uni.n
    rows = [ordering.seq for ordering in profile.orderings]
    before: list[list[int]] = []
    for seq in rows:
        masks = [0] * n
        ahead = 0
        for v in seq:
            masks[v] = ahead
            ahead |= 1 << v
        before.append(masks)
    heads = [0] * len(rows)
    tails = [n - 1] * len(rows)
    alive = (1 << n) - 1
    left = n
    out = [0] * n
    while left >= 3:
        peeled = set()
        for r, seq in enumerate(rows):
            while not alive >> seq[heads[r]] & 1:
                heads[r] += 1
            while not alive >> seq[tails[r]] & 1:
                tails[r] -= 1
            peeled.add(seq[tails[r]])
        for v in peeled:
            common = alive
            for r, seq in enumerate(rows):
                h = heads[r]
                if seq[h] == v:  # v heads the survivors: blocked by the runner-up only
                    h += 1
                    while not alive >> seq[h] & 1:
                        h += 1
                    common &= 1 << seq[h]
                else:
                    common &= before[r][v]
            out[v] = common
        for v in peeled:
            alive ^= 1 << v
        left -= len(peeled)
    if left == 2:
        low, high = iter_bits(alive)
        out[low] |= 1 << high
    return AttachmentDigraph(uni, tuple(out))


def forced_subtree(digraph: AttachmentDigraph) -> Graph:
    """T*: the arcs between forced vertices, undirected, over the whole
    universe (free vertices stay isolated).

    Every tree support contains it. It is a tree on the forced vertices
    whenever the profile admits a GS-tree support.
    """
    forced = digraph.forced_mask
    pairs = []
    for v in iter_bits(forced):
        head = digraph.out_masks[v] & forced
        if head:  # a forced vertex has at most one out-neighbor
            pairs.append((v, head.bit_length() - 1))
    return Graph.from_pairs(digraph.universe, pairs)


def recognize_gs_tree(profile: Profile) -> RecognitionOutcome:
    """Decide whether some tree admits every profile ordering as a
    generic-search ordering; on YES, return one witness.

    Supports are exactly the realizations that keep one outgoing arc per
    vertex that has any. They are forests with one tree per sink (see
    AttachmentDigraph.is_connected), so they span precisely when the
    digraph has a single sink. The connectivity search runs only on a
    NO, to tell a split attachment graph from a connected one that still
    supports nothing (several sinks can coexist with connectivity).

    The witness keeps, for every vertex with outgoing arcs, the arc to
    its lowest-index out-neighbor.
    """
    digraph = build_attachment_digraph(profile)
    if digraph.sink_count() != 1:
        connected = digraph.is_connected()
        reason = UNREALIZABLE_ATTACHMENT if connected else DISCONNECTED_ATTACHMENT
        return RecognitionOutcome(False, reason=reason)
    lowest = [
        (v, (out & -out).bit_length() - 1)
        for v, out in enumerate(digraph.out_masks)
        if out
    ]
    return RecognitionOutcome(True, tree=Tree.from_pairs(profile.universe, lowest))


def enumerate_gs_tree_supports(profile: Profile) -> tuple[Tree, ...]:
    """All tree supports, as realizations keeping one outgoing arc per
    vertex. Empty when no realization spans (see recognize_gs_tree).
    Raises CapError above FREE_VERTEX_CAP free vertices, since the count
    of realizations is the product of the free vertices' out-degrees."""
    digraph = build_attachment_digraph(profile)
    if digraph.sink_count() != 1:
        return ()
    if len(digraph.free) > FREE_VERTEX_CAP:
        raise CapError(f"profile has more than {FREE_VERTEX_CAP} free vertices")
    choice_lists = [
        [(v, u) for u in iter_bits(out)] for v, out in enumerate(digraph.out_masks) if out
    ]
    trees = [Tree.from_pairs(profile.universe, picks) for picks in product(*choice_lists)]
    trees.sort(key=lambda t: t.edge_names())
    return tuple(trees)

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

    build_attachment_digraph   k row sweeps, O(k n^2 / w) word operations,
                               then one peel over a bytearray, O(k n)
                               steps; memory: one out-neighbor mask per
                               vertex plus k position lists, nothing sorted
    forced_mask, sink_count    O(n) mask tests
    is_connected               one sink: O(n); else at most n - 1 mask
                               merges, O(n^2 / w) words, no arc list
    recognize_gs_tree          the digraph, then O(n) on YES; a NO adds
                               is_connected
    forced, free, arcs         name tuples in index order, O(n + arcs)
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .core import CapError, Graph, Profile, Tree, Value, iter_bits

DISCONNECTED_ATTACHMENT = "DISCONNECTED_ATTACHMENT"
UNREALIZABLE_ATTACHMENT = "UNREALIZABLE_ATTACHMENT"
FREE_VERTEX_CAP = 12


class RecognitionOutcome(Value):
    """A recognizer's answer: a witness tree on YES, a reason code on NO."""

    _fields = ("is_yes", "tree", "reason")

    def __init__(self, is_yes: bool, tree: Tree | None = None, reason: str | None = None) -> None:
        self.__dict__.update(is_yes=is_yes, tree=tree, reason=reason)


class AttachmentDigraph(Value):
    """out_masks[v] holds v's out-neighbors."""

    _fields = ("universe", "out_masks")

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

    @property
    def forced(self) -> tuple[str, ...]:
        return self._names(self.forced_mask)

    @property
    def free(self) -> tuple[str, ...]:
        return self._names(((1 << self.universe.n) - 1) & ~self.forced_mask)

    @property
    def arcs(self) -> tuple[tuple[str, str], ...]:
        """Arcs as name pairs, sorted by index pair."""
        names = self.universe.names
        return tuple(
            [(names[v], names[u]) for v, out in enumerate(self.out_masks) for u in iter_bits(out)]
        )

    def sink_count(self) -> int:
        return sum(1 for out in self.out_masks if not out)

    def is_connected(self) -> bool:
        """Whether the attachment graph (arcs undirected) is connected.

        Arcs lead from a vertex v to one peeled in a strictly later round
        (or from the lower to the higher of the final pair): a common
        blocker precedes v in every row, and a runner-up is second of
        three or more survivors in the rows v heads and precedes v in
        the others, so neither is a row's bottom in v's round. Keeping
        one outgoing arc per non-sink gives a forest with one tree per
        sink. A single sink therefore connects everything. Otherwise a
        union-find on the masks, each merged root holding its component's
        mask, joins every vertex's component with its out-neighbors'.
        """
        if self.sink_count() == 1:
            return True
        root = list(range(self.universe.n))
        members: dict[int, int] = {}  # root of a merged component -> its mask
        parts = len(root)
        for v, out in enumerate(self.out_masks):
            while root[v] != v:
                root[v] = v = root[root[v]]
            inside = members.get(v, 1 << v)
            outside = out & ~inside
            while outside:
                u = (outside & -outside).bit_length() - 1
                while root[u] != u:
                    root[u] = u = root[root[u]]
                root[u] = v
                members[v] = inside = inside | members.pop(u, 1 << u)
                outside &= ~inside
                parts -= 1
        return parts <= 1


def build_attachment_digraph(profile: Profile) -> AttachmentDigraph:
    """Peel bottom-ranked vertices and record their common blockers.

    One sweep per row leaves each vertex v with P(v), the vertices before
    v in every row. No vertex of P(v) is a row's bottom while v survives,
    so P(v) is v's set of common blockers whenever v heads no row's
    survivors. If v heads a row, P(v) is empty; v keeps an arc only to a
    runner-up u that is the same in every row v heads and precedes v in
    every other row. Each row keeps a head and a tail pointer over the
    `dead` flags. The last survivors get no arc, except that a final pair
    is joined low index -> high (the direction carries no information).
    """
    uni = profile.universe
    n = uni.n
    rows = profile.rows
    out = [-1] * n
    places = []
    for seq in rows:
        place = [0] * n
        ahead = 0
        for i, v in enumerate(seq):
            out[v] &= ahead
            ahead |= 1 << v
            place[v] = i
        places.append(place)
    heads = [0] * len(rows)
    tails = [n - 1] * len(rows)
    dead = bytearray(n)
    left = n
    while left >= 3:
        peeled = set()
        for r, seq in enumerate(rows):
            h = heads[r]
            while dead[seq[h]]:
                h += 1
            heads[r] = h
            t = tails[r]
            while dead[seq[t]]:
                t -= 1
            tails[r] = t
            peeled.add(seq[t])
        for v in peeled:
            if out[v]:  # P(v) is non-empty only when v heads no row
                continue
            u = -1
            for seq, h in zip(rows, heads):
                if seq[h] == v:  # here v's only blocker is the runner-up
                    h += 1
                    while dead[seq[h]]:
                        h += 1
                    if 0 <= u != seq[h]:
                        break  # the rows v heads disagree on the runner-up
                    u = seq[h]
            else:
                if u >= 0:
                    for place, seq, h in zip(places, rows, heads):
                        if place[u] > place[v] and seq[h] != v:
                            break  # u follows v in a row that v does not head
                    else:
                        out[v] = 1 << u
        for v in peeled:
            dead[v] = 1
        left -= len(peeled)
    low, high = dead.find(0), dead.rfind(0)  # the one or two survivors, if any
    if low >= 0:
        out[high] = 0
        out[low] = 1 << high if low < high else 0
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
    if profile.universe.n - digraph.forced_mask.bit_count() > FREE_VERTEX_CAP:
        raise CapError(f"profile has more than {FREE_VERTEX_CAP} free vertices")
    choice_lists = [
        [(v, u) for u in iter_bits(out)] for v, out in enumerate(digraph.out_masks) if out
    ]
    trees = [Tree.from_pairs(profile.universe, picks) for picks in product(*choice_lists)]
    trees.sort(key=lambda t: t.edge_names())
    return tuple(trees)

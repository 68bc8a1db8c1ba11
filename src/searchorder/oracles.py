"""Exact brute-force solvers, used as ground truth at small scale.

On a connected graph every paradigm's run is a generic-search run: each
vertex after the first has an earlier neighbour. So a tree support lets
row 1 grow connected, and the trees that do are the (n-1)! ways to hang
each later vertex of row 1 off an earlier one; the tree oracles try only
those on which every other row grows connected too.

A depth-first walk hangs row 1's vertices in turn on one list of
adjacency bitmasks, and takes each edge off again on backtrack. Whether
vertex v of another row r has an earlier neighbour in r is tested once,
at its deadline: the step that hangs the last of v and of the vertices
before v in r. After that step v gains only children hung later, and
those come after v in r, so the answer is final; before it, a vertex
before v in r could still be hung off v. A branch that fails a test is
cut, so the leaves are exactly the trees on which every row grows
connected. Sorting them by Prüfer code restores the order of
`enumerate_tree_edge_sets`. A candidate is accepted only when `replays`
runs every row through the label simulation on its neighbour lists,
never the four-point shortcuts or the attachment digraph, so the oracles
share no nontrivial code path with the recognizers they check; a Tree or
Graph is built only for an answer. Under GS the replay never rejects a
growing tree, as on a tree growing connected is exactly the GS property;
it stays so that every acceptance goes through the label replay. The
bounded problems, named by a bound (EDGE or DEG) and its k, try edge
subsets of increasing size, with the same growth check on each whole
subset before simulation.

Every search here is exponential, so each raises CapError above a fixed
size, set by the module constants: n = 8 for tree supports, 5 for the
edge bound, 6 for the degree bound and 20 for the vertex cover.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Iterator

from .core import DEG, EDGE, CapError, Graph, Profile, Tree, Universe, Value
from .core import adjacency_masks, neighbour_lists
from .traversals import Paradigm, replays

TREE_ENUMERATION_CAP = 8
EDGE_SEARCH_CAP = 5
DEG_SEARCH_CAP = 6
VERTEX_COVER_CAP = 20


class OracleResult(Value):
    _fields = ("is_yes", "witness")

    def __init__(self, is_yes: bool, witness: Graph | None = None) -> None:
        self.__dict__.update(is_yes=is_yes, witness=witness)


def _prufer_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = degree.index(1)  # the smallest leaf
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] = 0
        degree[x] -= 1
    u = degree.index(1)
    edges.append((u, degree.index(1, u + 1)))
    return edges


def enumerate_tree_edge_sets(n: int) -> Iterator[list[tuple[int, int]]]:
    """Edge lists of all labeled trees on n vertices, in Prüfer
    lexicographic order."""
    if n <= 0:
        raise ValueError("need at least one vertex")
    if n == 1:
        yield []
        return
    for seq in product(range(n), repeat=n - 2):
        yield _prufer_edges(seq, n)


def enumerate_labeled_trees(names: Iterable[str]) -> Iterator[Tree]:
    uni = Universe(names)
    for edges in enumerate_tree_edge_sets(uni.n):
        yield Tree(uni, frozenset(edges))


def _prufer_code(masks: list[int]) -> tuple[int, ...]:
    """Prüfer sequence of the tree with these adjacency masks: remove the
    smallest leaf n - 2 times, recording its neighbour each time."""
    masks = list(masks)
    degree = [m.bit_count() for m in masks]
    code = []
    for _ in range(len(masks) - 2):
        leaf = degree.index(1)  # the smallest leaf
        parent = masks[leaf].bit_length() - 1
        code.append(parent)
        masks[parent] ^= 1 << leaf
        degree[leaf] = 0
        degree[parent] -= 1
    return tuple(code)


def _grows_connected(masks: list[int], seq: tuple[int, ...]) -> bool:
    """Whether every vertex of seq after the first has an earlier neighbour."""
    seen = 0
    for v in seq:
        if seen and not masks[v] & seen:
            return False
        seen |= 1 << v
    return True


def _growing_trees(seqs: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], tuple]]:
    """(Prüfer code, (child, parent) pairs) of every tree that hangs each
    later vertex of seqs[0] off an earlier one and on which every row
    grows connected, in the lexicographic order of the parent choices."""
    first, n = seqs[0], len(seqs[0])
    pos = {v: i for i, v in enumerate(first)}
    # due[i]: (v, vertices before v in a row) pairs whose growth test is
    # decided once first[i] hangs
    due: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for seq in seqs[1:]:
        before = deadline = 0
        for v in seq:
            deadline = max(deadline, pos[v])
            if before:
                due[deadline].append((v, before))
            before |= 1 << v
    masks, parents, found = [0] * n, [], []

    def hang(i: int) -> None:
        if i == n:
            found.append((_prufer_code(masks), tuple(zip(first[1:], parents))))
            return
        v = first[i]
        for p in first[:i]:
            masks[v] |= 1 << p
            masks[p] |= 1 << v
            for u, before in due[i]:
                if not masks[u] & before:
                    break
            else:
                parents.append(p)
                hang(i + 1)
                parents.pop()
            masks[v] ^= 1 << p
            masks[p] ^= 1 << v

    hang(1)
    return found


def _tree_supports(profile: Profile, paradigm: Paradigm) -> Iterator[Tree]:
    """Every tree admitting the whole profile, lazily, in Prüfer order."""
    n = profile.universe.n
    if n > TREE_ENUMERATION_CAP:
        raise CapError(f"tree enumeration needs n <= {TREE_ENUMERATION_CAP}, got n = {n}")
    for _code, pairs in sorted(_growing_trees(profile.rows)):
        adj = neighbour_lists(n, pairs)
        if all(replays(adj, seq, paradigm) for seq in profile.rows):
            yield Tree.from_pairs(profile.universe, pairs)


def brute_force_tree_support(profile: Profile, paradigm: Paradigm) -> OracleResult:
    """First tree (in Prüfer order) admitting every profile ordering,
    or NO after exhausting the candidates."""
    witness = next(_tree_supports(profile, paradigm), None)
    return OracleResult(witness is not None, witness)


def all_tree_supports(profile: Profile, paradigm: Paradigm) -> tuple[Tree, ...]:
    """Every tree admitting the whole profile, in Prüfer order."""
    return tuple(_tree_supports(profile, paradigm))


def brute_force_graph_support(
    profile: Profile, paradigm: Paradigm, bound: str, k: int
) -> OracleResult:
    """Exact solver for the bounded-support decision problems: a support
    with at most k edges (bound EDGE) or with maximum degree at most k
    (bound DEG).

    EDGE returns the witness with the fewest edges (lexicographically
    least among those); DEG returns the first witness in the same subset
    order whose degrees respect the bound.

    Only connected candidates count: a traversal visits every vertex,
    so a disconnected graph never replays a full ordering without an
    arbitrary restart, and allowing restarts would make the empty graph
    a support of anything. Every row growing connected implies it, and
    that is the filter applied before simulation.
    """
    if bound not in (EDGE, DEG):
        raise ValueError(f"bound must be '{EDGE}' or '{DEG}'")
    n = profile.universe.n
    limit = EDGE_SEARCH_CAP if bound == EDGE else DEG_SEARCH_CAP
    if n > limit:
        raise CapError(f"graph search needs n <= {limit}, got n = {n}")
    if k < 0:
        raise ValueError("k must be non-negative")
    seqs = profile.rows
    all_edges = list(combinations(range(n), 2))
    max_size = len(all_edges) if bound == DEG else min(k, len(all_edges))
    for size in range(max(0, n - 1), max_size + 1):
        for subset in combinations(all_edges, size):
            masks = adjacency_masks(n, subset)
            if bound == DEG and any(m.bit_count() > k for m in masks):
                continue
            if all(_grows_connected(masks, seq) for seq in seqs):
                adj = neighbour_lists(n, subset)
                if all(replays(adj, seq, paradigm) for seq in seqs):
                    return OracleResult(True, Graph(profile.universe, frozenset(subset)))
    return OracleResult(False)


def min_vertex_cover(graph: Graph) -> tuple[str, ...]:
    """Lexicographically least minimum vertex cover, by index order."""
    n = graph.n
    if n > VERTEX_COVER_CAP:
        raise CapError(f"vertex cover search needs n <= {VERTEX_COVER_CAP}, got n = {n}")
    edges = sorted(graph.edges)
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return tuple(graph.universe.names[i] for i in subset)
    raise AssertionError("unreachable: V itself is always a cover")

"""Shared corpora and hypothesis strategies for the test suite."""

import itertools
import math
import random

from hypothesis import strategies as st

from searchorder import Graph, Ordering, Profile, Tree

NAMES = "abcdefgh"


def assert_as_if_checked(sigma):
    """sigma, which the package built without the permutation check, is
    what the checking constructor builds from its universe and sequence."""
    checked = Ordering(sigma.universe, sigma.seq)
    assert (sigma, hash(sigma), repr(sigma)) == (checked, hash(checked), repr(checked))
    assert Ordering.from_names(sigma.universe, sigma.names) == checked


def all_graphs(max_n, min_n=1):
    """Every labeled graph on a prefix of NAMES, small n only."""
    for n in range(min_n, max_n + 1):
        names = NAMES[:n]
        pairs = list(itertools.combinations(names, 2))
        for mask in range(1 << len(pairs)):
            yield Graph.build(names, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def all_connected_graphs(max_n, min_n=1):
    """Every labeled connected graph on a prefix of NAMES, small n only."""
    return (g for g in all_graphs(max_n, min_n) if g.is_connected())


def k4():
    return Graph.build("abcd", itertools.combinations("abcd", 2))


def petersen():
    names = [f"p{i}" for i in range(5)] + [f"q{i}" for i in range(5)]
    edges = [(f"p{i}", f"p{(i + 1) % 5}") for i in range(5)]
    edges += [(f"p{i}", f"q{i}") for i in range(5)]
    edges += [("q0", "q2"), ("q2", "q4"), ("q4", "q1"), ("q1", "q3"), ("q3", "q0")]
    return Graph.build(names, edges)


@st.composite
def graphs(draw, min_n=1, max_n=6, connected=True):
    n = draw(st.integers(min_n, max_n))
    names = NAMES[:n]
    pairs = list(itertools.combinations(names, 2))
    edges = draw(st.frozensets(st.sampled_from(pairs))) if pairs else frozenset()
    g = Graph.build(names, edges)
    if connected and n > 1:
        # a random spanning path keeps the draw connected without biasing
        # the rest of the edge set
        spine = draw(st.permutations(list(names)))
        g = g.with_edges(zip(spine, spine[1:]))
    return g


@st.composite
def trees(draw, max_n=7):
    """A random labeled tree: each vertex after the first hangs off an
    earlier one, over a shuffled name order."""
    n = draw(st.integers(1, max_n))
    names = draw(st.permutations(list(NAMES[:n])))
    edges = [(names[i], names[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    return Tree.build(NAMES[:n], edges)


@st.composite
def profiles(draw, min_n=3, max_n=6, max_rows=3):
    n = draw(st.integers(min_n, max_n))
    names = list(NAMES[:n])
    rows = draw(
        st.lists(st.permutations(names), min_size=1, max_size=max_rows, unique_by=tuple)
    )
    return Profile.build(names, [tuple(r) for r in rows])


def random_profiles(seed, count, sizes=(5, 6), rows=(2, 3, 4)):
    """Deterministic profile corpus: distinct uniform permutations."""
    if max(sizes) > len(NAMES):
        raise ValueError(f"size {max(sizes)} exceeds the {len(NAMES)} names of NAMES")
    if max(rows) > math.factorial(min(sizes)):
        raise ValueError(f"{max(rows)} distinct rows need more than {min(sizes)} vertices")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(sizes)
        names = NAMES[:n]
        want = rng.choice(rows)
        seen = set()
        while len(seen) < want:
            seen.add(tuple(rng.sample(names, n)))
        out.append(Profile.build(names, sorted(seen)))
    return out


def planted_profiles(seed, n, k):
    """A random recursive tree on n vertices, in a shuffled name order,
    and two profiles over it: k random DFS runs and k random
    generic-search runs. Both are YES instances by construction."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    adj = [[] for _ in range(n)]
    for i in range(1, n):
        j = rng.randrange(i)
        adj[i].append(j)
        adj[j].append(i)

    def dfs_run():
        start = rng.randrange(n)
        row, seen, stack = [start], {start}, [start]
        while stack:
            fresh = [w for w in adj[stack[-1]] if w not in seen]
            if not fresh:
                stack.pop()
                continue
            w = rng.choice(fresh)
            row.append(w)
            seen.add(w)
            stack.append(w)
        return row

    def gs_run():
        start = rng.randrange(n)
        row, seen, frontier = [start], {start}, set(adj[start])
        while frontier:
            w = rng.choice(sorted(frontier))
            row.append(w)
            seen.add(w)
            frontier |= set(adj[w])
            frontier -= seen
        return row

    def build(run):
        return Profile.build(names, [[names[i] for i in run()] for _ in range(k)])

    return build(dfs_run), build(gs_run)


def planted_tree_profiles(seed, count, paradigm, sizes=(4, 5, 6), rows=(1, 2, 3)):
    """Profiles of distinct runs of the paradigm, each on its own random
    labeled tree; YES instances by construction."""
    from searchorder import enumerate_orderings

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(sizes)
        names = rng.sample(NAMES[:n], n)
        edges = [(names[i], names[rng.randrange(i)]) for i in range(1, n)]
        tree = Tree.build(NAMES[:n], edges)
        runs = enumerate_orderings(tree, paradigm)
        picked = {rng.choice(runs).names for _ in range(rng.choice(rows))}
        out.append(Profile.build(tree.universe.names, sorted(picked)))
    return out

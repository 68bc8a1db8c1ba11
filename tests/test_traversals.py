"""Generation, enumeration and prefix handling for the seven paradigms."""

import inspect
import itertools
import random
import sys

import pytest
from hypothesis import given, settings

from searchorder import (
    CapError,
    Graph,
    Ordering,
    Paradigm,
    Tree,
    Universe,
    certify_by_simulation,
    complete_prefix,
    enumerate_labeled_trees,
    enumerate_orderings,
    generate_ordering,
    is_partial_ordering,
    is_s_ordering,
)

from searchorder.oracles import enumerate_tree_edge_sets
from searchorder.traversals import _RULES, _candidates, _visit, replays

from conftest import NAMES, all_connected_graphs, all_graphs, assert_as_if_checked, graphs, k4

PATH3 = Graph.build("abc", [("a", "b"), ("b", "c")])
STAR4 = Graph.build("abcd", [("d", "a"), ("d", "b"), ("d", "c")])
C4 = Graph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
PAW = Graph.build("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")])

# ordering counts per paradigm, checked against hand enumeration for the
# path and the star and frozen from exhaustive runs for the others
COUNTS = {
    "path3": (PATH3, {p: 4 for p in Paradigm}),
    "star4": (STAR4, {p: 12 for p in Paradigm}),
    "c4": (
        C4,
        {
            Paradigm.GS: 16,
            Paradigm.BFS: 8,
            Paradigm.DFS: 8,
            Paradigm.LEXBFS: 8,
            Paradigm.LEXDFS: 8,
            Paradigm.MCS: 16,
            Paradigm.MNS: 16,
        },
    ),
    "paw": (
        PAW,
        {
            Paradigm.GS: 14,
            Paradigm.BFS: 12,
            Paradigm.DFS: 12,
            Paradigm.LEXBFS: 10,
            Paradigm.LEXDFS: 10,
            Paradigm.MCS: 10,
            Paradigm.MNS: 10,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_enumeration_counts(name):
    g, expected = COUNTS[name]
    for paradigm, want in expected.items():
        got = enumerate_orderings(g, paradigm)
        assert len(got) == want, (name, paradigm)
        assert len({o.names for o in got}) == want  # no duplicates


def test_complete_graph_accepts_everything():
    g = k4()
    perms = {p for p in itertools.permutations("abcd")}
    for paradigm in Paradigm:
        assert {o.names for o in enumerate_orderings(g, paradigm)} == perms


def test_generate_breaks_ties_to_lowest_index():
    for paradigm in Paradigm:
        assert generate_ordering(PATH3, paradigm).names == ("a", "b", "c")
    assert generate_ordering(C4, Paradigm.BFS, start="c").names == ("c", "b", "d", "a")
    assert generate_ordering(C4, Paradigm.DFS, start="c").names == ("c", "b", "a", "d")


def test_generate_rejects_unknown_start():
    with pytest.raises(KeyError):
        generate_ordering(PATH3, Paradigm.BFS, start="z")


def test_the_empty_graph_has_one_empty_ordering():
    g = Graph.build([])
    for paradigm in Paradigm:
        assert enumerate_orderings(g, paradigm) == (Ordering(g.universe, ()),)
        assert generate_ordering(g, paradigm) == Ordering(g.universe, ())
        one = Graph.build("a")  # and one vertex, one ordering
        assert enumerate_orderings(one, paradigm) == (Ordering(one.universe, (0,)),)


def test_enumeration_cap():
    big = Graph.build("abcdefghi", [("a", x) for x in "bcdefghi"])
    with pytest.raises(CapError):
        enumerate_orderings(big, Paradigm.BFS)
    assert len(enumerate_orderings(big, Paradigm.BFS, cap=9)) > 0


def test_enumeration_depth_is_not_bounded_by_recursion():
    # DFS on a path: two runs from each inner vertex, one from each end
    names = [f"p{i}" for i in range(80)]
    path = Graph.build(names, list(zip(names, names[1:])))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        orderings = enumerate_orderings(path, Paradigm.DFS, cap=80)
    finally:
        sys.setrecursionlimit(limit)
    assert len(orderings) == 158
    assert orderings[0].names == tuple(names)


def test_enumeration_lists_the_replaying_permutations_in_order():
    # lexicographic index order is the order of itertools.permutations;
    # disconnected graphs included
    for g in all_graphs(4):
        for p in Paradigm:
            replaying = [
                seq for seq in itertools.permutations(range(g.n))
                if certify_by_simulation(g, Ordering(g.universe, seq), p)
            ]
            enumerated = enumerate_orderings(g, p)
            assert [o.seq for o in enumerated] == replaying, (g, p)
            for sigma in enumerated:
                assert_as_if_checked(sigma)


def test_complete_prefix_keeps_the_prefix():
    done = complete_prefix(PATH3, ("c", "a"), Paradigm.DFS)
    assert done.names[:2] == ("c", "a")
    assert len(done.seq) == done.universe.n


# names resolve left to right, so the first unknown or repeated one decides the error
_BAD_PREFIXES = {
    ("a", "a"): (ValueError, "duplicate vertex 'a' in prefix"),
    ("a", "b", "a"): (ValueError, "duplicate vertex 'a' in prefix"),
    ("a", "zz", "a"): (KeyError, "unknown vertex 'zz'"),
    ("a", "a", "zz"): (ValueError, "duplicate vertex 'a' in prefix"),
}


@pytest.mark.parametrize("prefix", _BAD_PREFIXES)
def test_repeated_prefix_vertex_is_named(prefix):
    error, message = _BAD_PREFIXES[prefix]
    for check in (complete_prefix, is_partial_ordering):
        with pytest.raises(error, match=message):
            check(PATH3, prefix, Paradigm.BFS)
    with pytest.raises(KeyError, match="unknown vertex 'zz'"):
        generate_ordering(PATH3, Paradigm.BFS, start="zz")


def test_replays_refuses_a_repeated_index():
    # a visited vertex is never a candidate, also once every label is -1
    single = Graph.build("a", [])
    for paradigm in Paradigm:
        for g, run in ((single, (0,)), (PATH3, (1, 0, 2))):
            assert replays(g._adj, run, paradigm), (run, paradigm)
            for k in range(1, len(run) + 1):
                for v in run[:k]:
                    assert not replays(g._adj, (*run[:k], v), paradigm), (run[:k], v, paradigm)


def test_partial_ordering_pins():
    # no BFS run of the path visits c straight after a
    assert not is_partial_ordering(PATH3, ("a", "c"), Paradigm.BFS)
    assert is_partial_ordering(PATH3, ("b", "c"), Paradigm.BFS)
    assert is_partial_ordering(PATH3, (), Paradigm.BFS)
    assert is_partial_ordering(PATH3, ("a", "b", "c"), Paradigm.DFS)


# ---------------------------------------------------------- label reference
#
# labels recomputed from scratch at every step, following the table in the
# traversals module docstring, from the steps at which each unvisited
# vertex's visited neighbors were visited


def _reference_label(paradigm, steps, n):
    """Label of an unvisited vertex whose neighbors were visited at the
    given steps, in ascending order."""
    if paradigm is Paradigm.GS:
        return bool(steps)
    if paradigm is Paradigm.BFS:
        return n - steps[0] if steps else 0
    if paradigm is Paradigm.DFS:
        return steps[-1] if steps else 0
    if paradigm is Paradigm.LEXBFS:
        return tuple(n - i for i in steps)
    if paradigm is Paradigm.LEXDFS:
        return tuple(reversed(steps))
    if paradigm is Paradigm.MCS:
        return len(steps)
    return frozenset(steps)


def _reference_candidates(g, prefix, paradigm):
    step_of = {v: i for i, v in enumerate(prefix, 1)}
    unvisited = [u for u in range(g.n) if u not in step_of]
    label = {
        u: _reference_label(
            paradigm, sorted(step_of[w] for w in g._adj[u] if w in step_of), g.n
        )
        for u in unvisited
    }
    if paradigm is Paradigm.GS:  # a visited neighbor is required, if any has one
        return [u for u in unvisited if label[u]] or unvisited
    if paradigm is Paradigm.MNS:  # inclusion-maximal
        return [u for u in unvisited if not any(label[u] < label[w] for w in unvisited)]
    best = max(label.values(), default=None)
    return [u for u in unvisited if label[u] == best]


def test_candidates_match_labels_recomputed_from_scratch():
    # every prefix of random permutations, valid runs or not, on connected
    # graphs at n = 5 and n = 7; the greedy completion of each prefix and
    # the generated ordering take the lowest-index candidate at every step;
    # replays' test of one vertex is reachable only after a valid run, so
    # it is checked along the generated ordering and each valid prefix
    rng = random.Random(4242)
    corpus = rng.sample(list(all_connected_graphs(5)), 150)
    sample, pairs = random.Random(77), list(itertools.combinations(NAMES[:7], 2))
    while len(corpus) < 190:
        g = Graph.build(NAMES[:7], [e for e in pairs if sample.random() < 0.4])
        if g.is_connected():
            corpus.append(g)
    for g in corpus:
        adj, names = g._adj, g.universe.names
        for paradigm in Paradigm:
            generated = generate_ordering(g, paradigm)
            assert_as_if_checked(generated)
            seq = generated.seq
            for k in range(g.n):
                want = _reference_candidates(g, seq[:k], paradigm)
                assert seq[k] == want[0], (g.edge_names(), seq[:k], paradigm)
                assert [v for v in range(g.n) if replays(adj, (*seq[:k], v), paradigm)] == want
        for _ in range(4):
            perm = rng.sample(range(g.n), g.n)
            for paradigm in Paradigm:
                op, x = _RULES[paradigm]
                labels, valid = [0] * g.n, True
                for k in range(g.n + 1):
                    want = _reference_candidates(g, perm[:k], paradigm)
                    where = (g.edge_names(), perm[:k], paradigm)
                    assert _candidates(labels, paradigm is Paradigm.MNS) == want, where
                    if valid:
                        got = [v for v in range(g.n) if replays(adj, (*perm[:k], v), paradigm)]
                        assert got == want, where
                    if k < g.n:
                        completed = complete_prefix(g, [names[v] for v in perm[:k]], paradigm)
                        assert_as_if_checked(completed)
                        assert completed.seq[k] == want[0], where
                        valid = valid and perm[k] in want
                        _visit(labels, adj, perm[k], op, x(k + 1, g.n))


def _encoded(paradigm, steps, n):
    """The int label of a vertex whose neighbors were visited at the given
    steps, in ascending order, by the engine's rule table."""
    op, x = _RULES[paradigm]
    label = 0
    for i in steps:
        label = op(label, x(i, n))
    return label


def test_int_labels_order_like_the_reference_labels():
    # all pairs of step sets drawn from {1..7}; n = 8 keeps n - i >= 1
    n = 8
    subsets = [s for r in range(8) for s in itertools.combinations(range(1, 8), r)]
    for paradigm in (Paradigm.GS, Paradigm.BFS, Paradigm.DFS, Paradigm.MCS):
        assert all(_encoded(paradigm, s, n) == _reference_label(paradigm, s, n) for s in subsets)
    lexbfs, lexdfs, mns = (
        {s: (_encoded(p, s, n), _reference_label(p, s, n)) for s in subsets}
        for p in (Paradigm.LEXBFS, Paradigm.LEXDFS, Paradigm.MNS)
    )
    # 0 for no steps and never below: -1 marks a visited vertex
    assert min(label for label, _ in [*lexbfs.values(), *lexdfs.values(), *mns.values()]) == 0
    for s, t in itertools.product(subsets, repeat=2):
        for labels in (lexbfs, lexdfs):  # sequences: (n - i, ...) and steps reversed
            (a, ref_a), (b, ref_b) = labels[s], labels[t]
            assert (a < b, a == b) == (ref_a < ref_b, ref_a == ref_b), (s, t)
        (a, ref_a), (b, ref_b) = mns[s], mns[t]
        assert (a & b == a != b) == (ref_a < ref_b), (s, t)


# --------------------------------------------------- paradigm separations
#
# one frozen witness per strict containment, so a regression that merges
# two paradigms is caught by a unit test and not only by the exhaustive
# acceptance sweep

SEP_GRAPH = Graph.build("abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")])
SEP5A = Graph.build(
    "abcde", [("a", "b"), ("a", "c"), ("a", "e"), ("b", "c"), ("b", "d")]
)
SEP5B = Graph.build(
    "abcde", [("a", "c"), ("a", "d"), ("a", "e"), ("b", "c"), ("b", "d")]
)


@pytest.mark.parametrize(
    "graph,names,inside,outside",
    [
        (SEP_GRAPH, ("a", "b", "d", "c"), Paradigm.BFS, Paradigm.LEXBFS),
        (SEP_GRAPH, ("b", "a", "d", "c"), Paradigm.DFS, Paradigm.LEXDFS),
        (SEP5B, ("a", "c", "d", "e", "b"), Paradigm.MNS, Paradigm.MCS),
        (SEP5A, ("a", "b", "d", "e", "c"), Paradigm.GS, Paradigm.MNS),
    ],
)
def test_strict_containment_witnesses(graph, names, inside, outside):
    enum_in = {o.names for o in enumerate_orderings(graph, inside)}
    enum_out = {o.names for o in enumerate_orderings(graph, outside)}
    assert names in enum_in and names not in enum_out


# ---------------------------------------------------------- trees collapse
#
# On a tree, every unvisited vertex next to the visited set has exactly one
# visited neighbour, so every label holds a single entry and the seven
# searches fall into three classes.

TREE_CLASSES = (
    (Paradigm.GS, Paradigm.MCS, Paradigm.MNS),
    (Paradigm.DFS, Paradigm.LEXDFS),
    (Paradigm.BFS, Paradigm.LEXBFS),
)


def _assert_searches_collapse(tree):
    for members in TREE_CLASSES:
        found = [{o.seq for o in enumerate_orderings(tree, p)} for p in members]
        assert all(f == found[0] for f in found), (tree.edge_names(), members)


def test_searches_collapse_to_three_on_every_tree_up_to_six_vertices():
    trees = [t for n in range(1, 7) for t in enumerate_labeled_trees(NAMES[:n])]
    assert len(trees) == 1442  # n^(n-2) summed over n = 1..6
    for tree in trees:
        _assert_searches_collapse(tree)


def test_searches_collapse_to_three_on_sampled_seven_vertex_trees():
    universe = Universe(NAMES[:7])
    for edges in random.Random(7).sample(list(enumerate_tree_edge_sets(7)), 200):
        _assert_searches_collapse(Tree(universe, frozenset(edges)))


# --------------------------------------------------------------- invariants


def test_prefixes_induce_connected_subgraphs_small():
    # exhaustive for n <= 4; anything a non-generic search visits first
    # must stay glued together
    for g in all_connected_graphs(4):
        for paradigm in Paradigm:
            if paradigm is Paradigm.GS:
                continue
            for sigma in enumerate_orderings(g, paradigm):
                for i in range(1, g.n + 1):
                    prefix = sigma.names[:i]
                    kept = [e for e in g.edge_names() if set(e) <= set(prefix)]
                    assert Graph.build(prefix, kept).is_connected(), (
                        g.edge_names(),
                        paradigm,
                        sigma.names,
                    )


@given(graphs(min_n=2, max_n=6))
@settings(max_examples=60, deadline=None)
def test_generated_ordering_replays(g):
    for paradigm in Paradigm:
        sigma = generate_ordering(g, paradigm)
        assert is_s_ordering(g, sigma, paradigm)


@given(graphs(min_n=2, max_n=5))
@settings(max_examples=40, deadline=None)
def test_enumerated_orderings_all_verify(g):
    for paradigm in Paradigm:
        for sigma in enumerate_orderings(g, paradigm):
            assert is_s_ordering(g, sigma, paradigm)


@given(graphs(min_n=2, max_n=5))
@settings(max_examples=30, deadline=None)
def test_every_enumerated_prefix_is_partial(g):
    for paradigm in (Paradigm.BFS, Paradigm.DFS, Paradigm.MNS, Paradigm.MCS):
        for sigma in enumerate_orderings(g, paradigm):
            for i in range(g.n + 1):
                assert is_partial_ordering(g, sigma.names[:i], paradigm)

"""Brute-force ground truth: labeled-tree enumeration and support search."""

import itertools
from collections import Counter

import pytest

from searchorder import (
    CapError,
    Graph,
    Paradigm,
    Profile,
    Tree,
    all_tree_supports,
    brute_force_graph_support,
    brute_force_tree_support,
    certify_by_simulation,
    enumerate_labeled_trees,
    is_s_ordering,
    min_vertex_cover,
)
from searchorder import oracles
from searchorder.core import DEG, EDGE, adjacency_masks, neighbour_lists
from searchorder.oracles import (
    _growing_trees, _grows_connected, _prufer_code, _prufer_edges,
    enumerate_tree_edge_sets,
)
from searchorder.traversals import replays

from conftest import k4, planted_tree_profiles, random_profiles

SINGLE = Profile.build("abc", [("a", "b", "c")])
PAIR = Profile.build("abc", [("a", "b", "c"), ("a", "c", "b")])
MIRROR = Profile.build("abc", [("a", "b", "c"), ("c", "b", "a")])
ROTATION = Profile.build("abc", [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")])


def test_cayley_counts():
    for n, want in [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125)]:
        trees = list(enumerate_labeled_trees("abcdefgh"[:n]))
        assert len(trees) == want
        assert len({frozenset(t.edge_names()) for t in trees}) == want
        for t in trees:
            assert t.n == n and t.m == n - 1 and t.is_connected()
    assert list(enumerate_tree_edge_sets(2)) == [[(0, 1)]]  # the empty Prüfer code


def test_mirror_profile_has_the_path_as_tree_support():
    result = brute_force_tree_support(MIRROR, Paradigm.DFS)
    assert result.is_yes
    assert sorted(result.witness.edge_names()) == [("a", "b"), ("b", "c")]


@pytest.mark.parametrize(
    "paradigm", [Paradigm.GS, Paradigm.BFS, Paradigm.DFS, Paradigm.MNS]
)
def test_rotation_profile_has_no_tree_support(paradigm):
    assert not brute_force_tree_support(ROTATION, paradigm).is_yes


def test_all_tree_supports_for_one_ordering():
    found = {frozenset(t.edge_names()) for t in all_tree_supports(SINGLE, Paradigm.DFS)}
    assert found == {
        frozenset({("a", "b"), ("a", "c")}),
        frozenset({("a", "b"), ("b", "c")}),
    }


def reference_supports(profile, paradigm):
    """Every labeled tree, in Prüfer order, that replays every row."""
    return tuple(
        tree
        for tree in enumerate_labeled_trees(profile.universe.names)
        if all(certify_by_simulation(tree, sigma, paradigm) for sigma in profile)
    )


@pytest.mark.parametrize("paradigm", list(Paradigm))
def test_row_rooted_oracles_match_the_exhaustive_reference(paradigm):
    seed = list(Paradigm).index(paradigm)
    corpus = random_profiles(700 + seed, 12, sizes=(2, 3, 4, 5, 6), rows=(1, 2))
    corpus += planted_tree_profiles(710 + seed, 12, paradigm, sizes=(2, 3, 4, 5, 6))
    hits = 0
    for profile in corpus:
        want = reference_supports(profile, paradigm)
        assert all_tree_supports(profile, paradigm) == want, profile
        result = brute_force_tree_support(profile, paradigm)
        assert result.is_yes == bool(want), profile
        assert result.witness == (want[0] if want else None), profile
        hits += bool(want)
    assert hits >= 12


def product_growing_trees(seqs):
    """Every choice of an earlier parent for each later vertex of row 1,
    kept when every other row grows connected on it."""
    first, n = seqs[0], len(seqs[0])
    kept = []
    for parents in itertools.product(*(first[:i] for i in range(1, n))):
        pairs = tuple(zip(first[1:], parents))
        masks = adjacency_masks(n, pairs)
        if all(_grows_connected(masks, seq) for seq in seqs[1:]):
            kept.append((_prufer_code(masks), pairs))
    return kept


def test_pruned_walk_keeps_exactly_the_growing_trees_at_n7():
    corpus = random_profiles(720, 24, sizes=(7,), rows=(1, 2, 3, 4))
    for paradigm in (Paradigm.GS, Paradigm.BFS, Paradigm.DFS):
        corpus += planted_tree_profiles(721, 8, paradigm, sizes=(7,), rows=(1, 2, 3, 4))
    kept = 0
    for profile in corpus:
        seqs = [sigma.seq for sigma in profile]
        want = product_growing_trees(seqs)
        assert _growing_trees(seqs) == want, profile
        kept += len(want)
    assert kept > len(corpus)


def test_every_growing_tree_replays_every_row_under_gs():
    # on a tree, growing connected is exactly the GS property: the GS
    # replay that accepts each candidate never rejects one
    corpus = random_profiles(722, 40, sizes=(3, 4, 5, 6), rows=(1, 2, 3))
    corpus += planted_tree_profiles(723, 20, Paradigm.GS, sizes=(3, 4, 5, 6))
    grown = 0
    for profile in corpus:
        seqs = [sigma.seq for sigma in profile]
        for _code, pairs in _growing_trees(seqs):
            adj = neighbour_lists(profile.universe.n, pairs)
            assert all(replays(adj, seq, Paradigm.GS) for seq in seqs), (profile, pairs)
            grown += 1
    assert grown > len(corpus)


def test_prufer_code_inverts_the_decoder():
    for n in range(1, 8):
        for seq in itertools.product(range(n), repeat=max(n - 2, 0)):
            edges = _prufer_edges(seq, n) if n > 1 else []
            assert _prufer_code(adjacency_masks(n, edges)) == seq


# Prüfer (1918): join the smallest leaf to each code entry in turn, then the
# last two vertices. In every code but (1, 1), an entry becomes a leaf once
# its last occurrence is read, and is then smaller than a leaf of the start.
PRUFER_TABLE = [
    (4, (1, 1), {(0, 1), (1, 2), (1, 3)}),
    (4, (2, 0), {(0, 2), (0, 3), (1, 2)}),
    (5, (0, 1, 2), {(0, 1), (0, 3), (1, 2), (2, 4)}),
    (6, (3, 3, 3, 4), {(0, 3), (1, 3), (2, 3), (3, 4), (4, 5)}),
    (7, (4, 0, 0, 1, 6), {(0, 1), (0, 3), (0, 4), (1, 6), (2, 4), (5, 6)}),
]


@pytest.mark.parametrize("n, code, edges", PRUFER_TABLE)
def test_prufer_maps_match_the_textbook_decoding(n, code, edges):
    decoded = _prufer_edges(code, n)
    assert len(decoded) == n - 1 and set(decoded) == edges
    assert _prufer_code(adjacency_masks(n, edges)) == code


# -------------------------------------------------------- bounded problems


def test_single_ordering_walks_its_own_path():
    result = brute_force_graph_support(SINGLE, Paradigm.DFS, EDGE, 2)
    assert result.is_yes and result.witness.m == 2
    for sigma in SINGLE:
        assert is_s_ordering(result.witness, sigma, Paradigm.DFS)


def test_pair_needs_the_star():
    result = brute_force_graph_support(PAIR, Paradigm.GS, EDGE, 2)
    assert result.is_yes
    assert sorted(result.witness.edge_names()) == [("a", "b"), ("a", "c")]
    # one edge cannot reach all three vertices, whatever the paradigm
    assert not brute_force_graph_support(PAIR, Paradigm.GS, EDGE, 1).is_yes


def test_degree_bound_variant():
    assert not brute_force_graph_support(PAIR, Paradigm.BFS, DEG, 1).is_yes
    result = brute_force_graph_support(PAIR, Paradigm.BFS, DEG, 2)
    assert result.is_yes and result.witness.max_degree() <= 2


def test_clique_bound_is_always_enough():
    rows = list(itertools.permutations("abcde"))[:7]
    profile = Profile.build("abcde", rows)
    result = brute_force_graph_support(profile, Paradigm.LEXBFS, EDGE, 10)
    assert result.is_yes


def reference_graph_supports(profile, paradigm):
    """Every connected graph, by edge count and then lexicographically by
    edge list, that replays every row."""
    n = profile.universe.n
    all_edges = list(itertools.combinations(range(n), 2))
    for size in range(len(all_edges) + 1):
        for subset in itertools.combinations(all_edges, size):
            graph = Graph(profile.universe, frozenset(subset))
            if graph.is_connected() and all(
                certify_by_simulation(graph, sigma, paradigm) for sigma in profile
            ):
                yield graph


@pytest.mark.parametrize("paradigm", list(Paradigm))
def test_bounded_oracle_matches_the_exhaustive_reference(paradigm):
    seed = list(Paradigm).index(paradigm)
    corpus = random_profiles(730 + seed, 10, sizes=(1, 2, 3, 4), rows=(1,))
    corpus += random_profiles(740 + seed, 10, sizes=(3, 4), rows=(2, 3))
    answers = Counter()
    for profile in corpus:
        supports = list(reference_graph_supports(profile, paradigm))
        for bound, k in [(EDGE, k) for k in range(7)] + [(DEG, k) for k in range(4)]:
            fits = [g for g in supports if (g.m if bound == EDGE else g.max_degree()) <= k]
            result = brute_force_graph_support(profile, paradigm, bound, k)
            assert result.is_yes == bool(fits), (profile, bound, k)
            assert result.witness == (fits[0] if fits else None), (profile, bound, k)
            answers[bound, result.is_yes] += 1
    assert min(answers.values()) >= 10 and len(answers) == 4


def test_candidates_build_no_values(monkeypatch):
    built = Counter()

    class CountingTree(Tree):
        def __init__(self, *args):
            built["Tree"] += 1
            super().__init__(*args)

    class CountingGraph(Graph):
        def __init__(self, *args):
            built["Graph"] += 1
            super().__init__(*args)

    def counting_replays(*args):
        built["replays"] += 1
        return replays(*args)

    adj = Graph.__dict__["_adj"].func
    monkeypatch.setattr(oracles, "Tree", CountingTree)
    monkeypatch.setattr(oracles, "Graph", CountingGraph)
    monkeypatch.setattr(oracles, "replays", counting_replays)
    monkeypatch.setattr(Graph, "_adj", property(lambda g: built.update(["_adj"]) or adj(g)))
    corpus = random_profiles(750, 20, sizes=(4, 5), rows=(1, 2, 3))
    for paradigm in (Paradigm.GS, Paradigm.DFS, Paradigm.LEXBFS):
        corpus += planted_tree_profiles(751, 5, paradigm, sizes=(4, 5))
    replayed = 0
    for profile in corpus:
        for paradigm in Paradigm:
            built.clear()
            result = brute_force_tree_support(profile, paradigm)
            assert built["Tree"] == result.is_yes and built["Graph"] == 0
            built.clear()
            supports = all_tree_supports(profile, paradigm)
            assert built["Tree"] == len(supports)
            replayed += built["replays"] - len(supports) * len(profile)
            for bound in (EDGE, DEG):
                built.clear()
                result = brute_force_graph_support(profile, paradigm, bound, 2)
                assert built["Graph"] == result.is_yes and built["Tree"] == 0
                replayed += built["replays"] - result.is_yes * len(profile)
            assert built["_adj"] == 0
    assert replayed > 300  # rows replayed on candidates that were not kept


def test_edge_bound_monotonicity_seeded():
    for profile in random_profiles(97, 25, sizes=(4, 5), rows=(1, 2)):
        hits = [
            brute_force_graph_support(profile, Paradigm.DFS, EDGE, k).is_yes
            for k in range(profile.universe.n + 2)
        ]
        # once feasible, feasible forever
        assert hits == sorted(hits)


def test_witnesses_reverify_seeded():
    for profile in random_profiles(98, 40, sizes=(4, 5), rows=(1, 2)):
        for paradigm in (Paradigm.BFS, Paradigm.MCS):
            result = brute_force_graph_support(profile, paradigm, EDGE, 6)
            if result.is_yes:
                assert result.witness.is_connected()
                for sigma in profile:
                    assert is_s_ordering(result.witness, sigma, paradigm)


def test_lexdfs_tree_support_implies_dfs_and_mns():
    from searchorder import enumerate_orderings

    hits = 0
    for tree in itertools.islice(enumerate_labeled_trees("abcde"), 0, 125, 7):
        rows = [o.names for o in enumerate_orderings(tree, Paradigm.LEXDFS)[:3]]
        profile = Profile.build(tree.universe.names, rows)
        if brute_force_tree_support(profile, Paradigm.LEXDFS).is_yes:
            hits += 1
            assert brute_force_tree_support(profile, Paradigm.DFS).is_yes
            assert brute_force_tree_support(profile, Paradigm.MNS).is_yes
    assert hits > 0


# ----------------------------------------------------------- vertex cover


def test_min_vertex_cover_pins():
    assert min_vertex_cover(k4()) == ("a", "b", "c")
    assert min_vertex_cover(Graph.build("ab", [("a", "b")])) == ("a",)
    assert min_vertex_cover(Graph.build("abc", [("a", "b"), ("b", "c")])) == ("b",)
    assert min_vertex_cover(Graph.build("ab", [])) == ()
    c5 = Graph.build("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    assert len(min_vertex_cover(c5)) == 3


def test_caps_and_bad_bounds():
    names = "abcdefghij"
    with pytest.raises(CapError):
        brute_force_tree_support(Profile.build(names[:9], [tuple(names[:9])]), Paradigm.DFS)
    with pytest.raises(CapError):
        brute_force_graph_support(
            Profile.build(names[:6], [tuple(names[:6])]), Paradigm.DFS, EDGE, 3
        )
    with pytest.raises(ValueError):
        brute_force_graph_support(SINGLE, Paradigm.DFS, EDGE, -1)
    with pytest.raises(ValueError, match="k must be non-negative"):
        brute_force_graph_support(SINGLE, Paradigm.DFS, DEG, -1)
    with pytest.raises(ValueError, match="bound must be 'edge' or 'deg'"):
        brute_force_graph_support(SINGLE, Paradigm.DFS, "tree", 3)
    with pytest.raises(CapError):
        min_vertex_cover(Graph.build([f"v{i}" for i in range(21)], []))
    with pytest.raises(ValueError, match="need at least one vertex"):
        next(enumerate_labeled_trees(""))
    with pytest.raises(ValueError, match="need at least one vertex"):
        brute_force_tree_support(Profile.build([], [[]]), Paradigm.DFS)

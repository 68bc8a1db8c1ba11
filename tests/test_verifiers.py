"""Four-point verifiers, the simulation cross-check, and the diagnostics."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings

from searchorder import (
    Graph,
    Ordering,
    Paradigm,
    Universe,
    certify_by_simulation,
    enumerate_orderings,
    generate_ordering,
    is_s_ordering,
    satisfies_property,
)
from searchorder.traversals import replays
from searchorder.verifiers import frontier_check

from conftest import all_graphs, graphs

PATH3 = Graph.build("abc", [("a", "b"), ("b", "c")])
PAW = Graph.build("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")])
FOUR_POINT = [p for p in Paradigm if p is not Paradigm.MCS]
FRONTIER = (Paradigm.GS, Paradigm.BFS, Paradigm.DFS)


def test_property_mapping_is_total_except_mcs():
    sigma = Ordering.from_names(PATH3.universe, ("b", "a", "c"))
    for paradigm in FOUR_POINT:
        assert satisfies_property(PATH3, sigma, paradigm) == (True, None)
    with pytest.raises(ValueError, match="MCS has no four-point characterization"):
        satisfies_property(PATH3, sigma, Paradigm.MCS)


def test_violating_triple_on_the_path():
    sigma = Ordering.from_names(PATH3.universe, ("a", "c", "b"))
    for paradigm in FOUR_POINT:
        ok, triple = satisfies_property(PATH3, sigma, paradigm)
        assert not ok
        assert triple == ("a", "c", "b")


def test_first_violating_triple_is_position_lexicographic():
    # C4 drawn as a-c-b-d-a; visiting (a,b,c,d) breaks several triples,
    # the reported one must be the earliest by position
    g = Graph.build("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    sigma = Ordering.from_names(g.universe, ("a", "b", "c", "d"))
    for paradigm in FRONTIER:
        ok, triple = satisfies_property(g, sigma, paradigm)
        assert (ok, triple) == (False, ("a", "b", "c"))


def beyond_connected():
    """Every graph with n <= 4 and every disconnected one with n = 5: the
    acceptance sweep covers the connected ones."""
    corpus = [g for g in all_graphs(5) if g.n <= 4 or not g.is_connected()]
    assert len(corpus) == 75 + 1024 - 728
    return corpus


def test_frontier_check_equals_four_point_beyond_connected_graphs():
    for g in beyond_connected():
        for perm in itertools.permutations(range(g.n)):
            sigma = Ordering(g.universe, perm)
            for paradigm in FRONTIER:
                expected, _ = satisfies_property(g, sigma, paradigm)
                assert frontier_check(g, perm, paradigm) == expected, (
                    g.edge_names(), perm, paradigm)


@pytest.mark.parametrize(
    "paradigm", [p for p in Paradigm if p not in FRONTIER], ids=str)
def test_frontier_check_rejects_paradigms_it_cannot_decide(paradigm):
    with pytest.raises(ValueError):
        frontier_check(PATH3, (0, 1, 2), paradigm)


def test_simulation_equals_four_point_beyond_connected_graphs():
    for g in beyond_connected():
        for perm in itertools.permutations(range(g.n)):
            sigma = Ordering(g.universe, perm)
            for paradigm in (Paradigm.LEXBFS, Paradigm.LEXDFS, Paradigm.MNS):
                expected, _ = satisfies_property(g, sigma, paradigm)
                assert certify_by_simulation(g, sigma, paradigm) == expected, (
                    g.edge_names(), perm, paradigm)


def test_accepting_ordering_reports_no_triple():
    sigma = Ordering.from_names(PATH3.universe, ("b", "a", "c"))
    ok, triple = satisfies_property(PATH3, sigma, Paradigm.BFS)
    assert ok and triple is None


def test_partial_orderings_are_rejected_by_value():
    with pytest.raises(ValueError):
        satisfies_property(PATH3, Ordering(PATH3.universe, (0, 1)), Paradigm.GS)


def test_an_ordering_over_another_universe_is_rejected():
    stranger = Ordering.from_names(Graph.build("abd").universe, ("a", "b", "d"))
    for check in (satisfies_property, is_s_ordering, certify_by_simulation):
        for paradigm in (Paradigm.GS, Paradigm.LEXBFS):
            with pytest.raises(ValueError, match="ordering must permute the graph's vertex set"):
                check(PATH3, stranger, paradigm)


def test_exhaustive_agreement_on_the_paw():
    # miniature of the acceptance sweep: every permutation, every paradigm
    for paradigm in Paradigm:
        for perm in itertools.permutations("abcd"):
            sigma = Ordering.from_names(PAW.universe, perm)
            assert is_s_ordering(PAW, sigma, paradigm) == certify_by_simulation(
                PAW, sigma, paradigm
            )


def test_frontier_check_agrees_with_replays_at_n_1000():
    # the two engines share no code; on random connected graphs with
    # cycles, relabelled so that index order is not tree order, they judge
    # each generated ordering and three of its adjacent-pair swaps alike
    rng = random.Random(1000)
    n, answers = 1000, set()
    for extra in (300, 3000):
        pairs = [(i, rng.randrange(i)) for i in range(1, n)]
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(extra)]
        label = rng.sample(range(n), n)
        g = Graph.from_pairs(Universe(f"v{i}" for i in range(n)),
                             [(label[a], label[b]) for a, b in pairs])
        for paradigm in FRONTIER:
            seq = generate_ordering(g, paradigm).seq
            swaps = [list(seq) for _ in range(3)]
            for swapped in swaps:
                i = rng.randrange(n - 1)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            for order in [seq, *swaps]:
                verdict = frontier_check(g, order, paradigm)
                assert verdict == replays(g._adj, order, paradigm), (extra, paradigm)
                answers.add(verdict)
    assert answers == {True, False}


def test_mcs_verification_goes_through_simulation():
    sigma = Ordering.from_names(PAW.universe, ("a", "b", "c", "d"))
    assert is_s_ordering(PAW, sigma, Paradigm.MCS) == certify_by_simulation(
        PAW, sigma, Paradigm.MCS
    )


# ------------------------------------------------------------- containments


@given(graphs(min_n=2, max_n=5))
@settings(max_examples=40, deadline=None)
def test_verifier_level_containments(g):
    for perm in itertools.permutations(g.universe.names):
        sigma = Ordering.from_names(g.universe, perm)
        if is_s_ordering(g, sigma, Paradigm.LEXBFS):
            assert is_s_ordering(g, sigma, Paradigm.BFS)
            assert is_s_ordering(g, sigma, Paradigm.MNS)
        if is_s_ordering(g, sigma, Paradigm.LEXDFS):
            assert is_s_ordering(g, sigma, Paradigm.DFS)
            assert is_s_ordering(g, sigma, Paradigm.MNS)
        if is_s_ordering(g, sigma, Paradigm.MCS):
            assert is_s_ordering(g, sigma, Paradigm.MNS)
        for par in (Paradigm.BFS, Paradigm.DFS, Paradigm.MNS):
            if is_s_ordering(g, sigma, par):
                assert is_s_ordering(g, sigma, Paradigm.GS)
                break


def test_accepting_scan_is_fast_at_n_100():
    rng = random.Random(7)
    names = [f"v{i:03d}" for i in range(100)]
    edges = [
        (u, v) for i, u in enumerate(names) for v in names[i + 1 :] if rng.random() < 0.3
    ]
    g = Graph.build(names, edges)
    sigma = generate_ordering(g, Paradigm.LEXBFS)
    t0 = time.perf_counter()
    ok, _ = satisfies_property(g, sigma, Paradigm.LEXBFS)
    assert ok
    assert time.perf_counter() - t0 < 1.0

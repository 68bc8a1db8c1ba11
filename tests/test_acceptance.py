"""Acceptance gate: one test per behavioral criterion.

`pytest -v tests/test_acceptance.py` yields one pass/fail line per
criterion; run with `-s` to additionally see the `[criterion N] PASS`
lines with wall-clock timings. The heavy corpora (all 772 connected
labeled graphs on <= 5 vertices, the 300 exhaustive four-vertex
profiles, and 10,000 seeded random profiles) are built once per module
and shared.
"""

import itertools
import time

import pytest

from searchorder import (
    FINAL_VERIFY_FAILED,
    Graph,
    Ordering,
    Paradigm,
    Profile,
    all_tree_supports,
    brute_force_tree_support,
    build_drone,
    certify_by_simulation,
    enumerate_gs_tree_supports,
    enumerate_labeled_trees,
    enumerate_orderings,
    is_partial_ordering,
    is_s_ordering,
    min_vertex_cover,
    recognize_dfs_tree,
    recognize_gs_tree,
    reduce,
    satisfies_property,
    validate_forward,
)

from conftest import all_connected_graphs, k4, petersen, random_profiles

CHARACTERIZED = (
    Paradigm.GS,
    Paradigm.BFS,
    Paradigm.DFS,
    Paradigm.LEXBFS,
    Paradigm.LEXDFS,
    Paradigm.MNS,
)


def _report(number, label, t0, budget_s):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.0f}s)"
    print(f"\n[criterion {number}] PASS {label} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def connected_corpus():
    corpus = list(all_connected_graphs(5))
    by_n = [sum(1 for g in corpus if g.n == k) for k in range(1, 6)]
    assert by_n == [1, 1, 4, 38, 728]
    return corpus


@pytest.fixture(scope="module")
def profile_corpus():
    perms = list(itertools.permutations("abcd"))
    exhaustive = [Profile.build("abcd", [p]) for p in perms]
    exhaustive += [
        Profile.build("abcd", [p, q]) for p, q in itertools.combinations(perms, 2)
    ]
    assert len(exhaustive) == 300
    return exhaustive + random_profiles(2024, 10_000)


@pytest.fixture(scope="module")
def dfs_scan(profile_corpus):
    """Shared by criteria 3 and 8: recognizer vs oracle over the corpus."""
    t0 = time.perf_counter()
    mismatches = []
    bad_witnesses = []
    final_verify_hits = 0
    for profile in profile_corpus:
        out = recognize_dfs_tree(profile)
        oracle = brute_force_tree_support(profile, Paradigm.DFS)
        if out.is_yes != oracle.is_yes:
            mismatches.append(profile)
        if out.reason == FINAL_VERIFY_FAILED:
            final_verify_hits += 1
        if out.is_yes:
            for sigma in profile:
                if not is_s_ordering(out.tree, sigma, Paradigm.DFS):
                    bad_witnesses.append((profile, sigma))
    return {
        "mismatches": mismatches,
        "bad_witnesses": bad_witnesses,
        "final_verify_hits": final_verify_hits,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_1_four_point_equals_simulation(connected_corpus):
    t0 = time.perf_counter()
    checked = 0
    for g in connected_corpus:
        for perm in itertools.permutations(g.universe.names):
            sigma = Ordering.from_names(g.universe, perm)
            for paradigm in CHARACTERIZED:
                case = (g.edge_names(), perm, paradigm)
                replays = certify_by_simulation(g, sigma, paradigm)
                assert is_s_ordering(g, sigma, paradigm) == replays, case
                ok, _ = satisfies_property(g, sigma, paradigm)
                assert ok == replays, case
                checked += 1
    _report(1, f"four-point = is_s_ordering = simulation on {checked} graph/ordering pairs",
            t0, 300)


def test_criterion_2_containments(connected_corpus):
    t0 = time.perf_counter()
    for g in connected_corpus:
        sets = {p: {o.names for o in enumerate_orderings(g, p)} for p in Paradigm}
        assert sets[Paradigm.LEXBFS] <= sets[Paradigm.BFS]
        assert sets[Paradigm.LEXBFS] <= sets[Paradigm.MNS]
        assert sets[Paradigm.LEXDFS] <= sets[Paradigm.DFS]
        assert sets[Paradigm.LEXDFS] <= sets[Paradigm.MNS]
        assert sets[Paradigm.MCS] <= sets[Paradigm.MNS]
        assert sets[Paradigm.BFS] | sets[Paradigm.DFS] | sets[Paradigm.MNS] <= sets[
            Paradigm.GS
        ]
    _report(2, "containment relations on all 772 connected graphs", t0, 300)


def test_criterion_3_dfs_recognizer_matches_oracle(dfs_scan, profile_corpus):
    assert dfs_scan["mismatches"] == []
    assert dfs_scan["bad_witnesses"] == []
    t0 = time.perf_counter() - dfs_scan["elapsed"]
    _report(3, f"DFS recognizer = oracle on {len(profile_corpus)} profiles", t0, 600)


def test_criterion_4_gs_recognizer_matches_oracle(profile_corpus):
    t0 = time.perf_counter()
    for profile in profile_corpus:
        out = recognize_gs_tree(profile)
        oracle = all_tree_supports(profile, Paradigm.GS)
        assert out.is_yes == bool(oracle), profile
        if out.is_yes:
            witness = frozenset(out.tree.edge_names())
            assert witness in {frozenset(t.edge_names()) for t in oracle}
        if profile.universe.n <= 5:
            assert {frozenset(t.edge_names()) for t in enumerate_gs_tree_supports(profile)} == {
                frozenset(t.edge_names()) for t in oracle
            }
    _report(4, f"GS recognizer + enumeration = oracle on {len(profile_corpus)} profiles", t0, 600)


def test_criterion_5_reduction_integrity():
    t0 = time.perf_counter()
    cover4 = min_vertex_cover(k4())
    dfs_edge = reduce(Paradigm.DFS, "edge", k4(), 3)
    assert (dfs_edge.profile.universe.n, len(dfs_edge.profile), dfs_edge.k) == (9, 22, 13)
    bfs_edge = reduce(Paradigm.BFS, "edge", k4(), 3)
    assert (bfs_edge.profile.universe.n, len(bfs_edge.profile), bfs_edge.k) == (69, 2880, 73)
    for paradigm in (Paradigm.DFS, Paradigm.BFS, Paradigm.LEXBFS, Paradigm.MCS, Paradigm.MNS):
        for bound in ("edge", "deg"):
            inst = reduce(paradigm, bound, k4(), 3)
            assert validate_forward(inst, cover4), (paradigm, bound)
    pet = petersen()
    lexdfs = reduce(Paradigm.LEXDFS, "edge", pet, 6)
    assert validate_forward(lexdfs, min_vertex_cover(pet))
    _report(5, "reduction shapes + forward validation (11 families)", t0, 900)


def test_criterion_6_partial_orderings_are_prefixes(connected_corpus):
    t0 = time.perf_counter()
    for g in connected_corpus:
        names = g.universe.names
        all_prefixes = {
            perm[:i]
            for perm in itertools.permutations(names)
            for i in range(g.n + 1)
        }
        for paradigm in (Paradigm.BFS, Paradigm.DFS, Paradigm.MNS, Paradigm.MCS):
            reachable = {o.names for o in enumerate_orderings(g, paradigm)}
            reachable_prefixes = {full[:i] for full in reachable for i in range(g.n + 1)}
            for prefix in all_prefixes:
                assert is_partial_ordering(g, prefix, paradigm) == (
                    prefix in reachable_prefixes
                ), (g.edge_names(), paradigm, prefix)
    _report(6, "partial orderings = prefixes of full orderings", t0, 600)


def test_criterion_7_structural_counts():
    t0 = time.perf_counter()
    for n, want in [(3, 3), (4, 16), (5, 125)]:
        assert sum(1 for _ in enumerate_labeled_trees("abcdefgh"[:n])) == want
    drone = build_drone(4, 5)
    assert (drone.n, drone.m) == (24, 26)
    for n in range(1, 6):
        names = "abcde"[:n]
        clique = Graph.build(names, itertools.combinations(names, 2))
        for perm in itertools.permutations(names):
            sigma = Ordering.from_names(clique.universe, perm)
            for paradigm in Paradigm:
                assert is_s_ordering(clique, sigma, paradigm)
    _report(7, "tree counts, drone shape, cliques accept everything", t0, 60)


def test_criterion_8_defensive_branch_stays_dead(dfs_scan):
    assert dfs_scan["final_verify_hits"] == 0
    print("\n[criterion 8] PASS final-verify branch never taken across the corpus")

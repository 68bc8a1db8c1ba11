"""Polynomial-time DFS tree-support recognition against frozen fixtures."""

import pytest
from hypothesis import given, settings, strategies as st

from searchorder import (
    DISCONNECTED_ATTACHMENT,
    EMPTY_Q,
    FINAL_VERIFY_FAILED,
    FourPointProperty,
    Ordering,
    Paradigm,
    Profile,
    RESTRICTION_FAILS,
    TSTAR_NOT_SUPPORT_FULL,
    Tree,
    brute_force_tree_support,
    build_attachment_digraph,
    certify_by_simulation,
    forced_subtree,
    is_s_ordering,
    recognize_dfs_tree,
    recognize_gs_tree,
    satisfies_property,
)
from searchorder import dfs_tree
from searchorder.core import iter_bits
from searchorder.dfs_tree import assign_parents, candidate_sets, purify
from searchorder.verifiers import frontier_check

from conftest import planted_profiles, random_profiles, trees

YES_PATH = Profile.build("abcde", [("a", "b", "c", "d", "e"), ("c", "b", "a", "d", "e")])
SHRINK = Profile.build("abcde", [("a", "b", "c", "d", "e"), ("a", "c", "e", "b", "d")])
EMPTY_BY_INTERSECTION = Profile.build(
    "abcde", [("a", "b", "c", "d", "e"), ("c", "e", "a", "d", "b")]
)
EMPTY_BY_PURIFICATION = Profile.build(
    "abcdef", [tuple("abcdef"), tuple("cdfaeb")]
)
DISCONNECTED = Profile.build(
    "abcd", [("a", "b", "c", "d"), ("a", "b", "d", "c"), ("c", "d", "a", "b")]
)
FULL_TSTAR_FAILS = Profile.build(
    "abcd", [("a", "b", "c", "d"), ("a", "c", "b", "d"), ("b", "d", "a", "c")]
)
RESTRICTION_BAD = Profile.build(
    "abcde", [("a", "b", "c", "d", "e"), ("a", "c", "b", "d", "e"), ("b", "d", "a", "c", "e")]
)
# here the forced vertices induce a forest, which already rules out a support
FOREST_TSTAR = Profile.build(
    "abcd", [("a", "b", "c", "d"), ("a", "c", "b", "d"), ("b", "c", "a", "d")]
)

FIXTURES = [
    (YES_PATH, True, None),
    (SHRINK, True, None),
    (EMPTY_BY_INTERSECTION, False, EMPTY_Q),
    (EMPTY_BY_PURIFICATION, False, EMPTY_Q),
    (DISCONNECTED, False, DISCONNECTED_ATTACHMENT),
    (FULL_TSTAR_FAILS, False, TSTAR_NOT_SUPPORT_FULL),
    (RESTRICTION_BAD, False, RESTRICTION_FAILS),
    (FOREST_TSTAR, False, RESTRICTION_FAILS),
]


@pytest.mark.parametrize("profile,is_yes,reason", FIXTURES)
def test_fixture_outcomes(profile, is_yes, reason):
    out = recognize_dfs_tree(profile)
    assert out.is_yes == is_yes
    assert out.reason == reason
    if is_yes:
        for sigma in profile:
            assert is_s_ordering(out.tree, sigma, Paradigm.DFS)
    else:
        assert out.tree is None


@pytest.mark.parametrize("profile,is_yes,reason", FIXTURES)
def test_fixtures_agree_with_the_oracle(profile, is_yes, reason):
    assert brute_force_tree_support(profile, Paradigm.DFS).is_yes == is_yes


def stage_values(profile):
    """T*, the guiders of each ordering, and the candidate sets before
    and after purification, by name, read through the stage functions."""
    dg = build_attachment_digraph(profile)
    tstar = forced_subtree(dg)
    name = profile.universe.name

    def names(q):
        return {name(v): frozenset(map(name, iter_bits(m))) for v, m in q.items()}

    q, guiders = candidate_sets([s.seq for s in profile], dg.forced_mask, tstar)
    cleaned = purify(q, guiders, tstar)
    return {
        "tstar": tstar,
        "guiders": [{name(v): name(w) for v, w in row.items()} for row in guiders],
        "q": names(q),
        "cleaned": names(cleaned),
        "cleaned_masks": cleaned,
    }


def test_shrink_fixture_internals():
    dg = build_attachment_digraph(SHRINK)
    assert sorted(dg.forced_names()) == ["a", "b", "c"]
    assert sorted(dg.free_names()) == ["d", "e"]
    stages = stage_values(SHRINK)
    tstar = stages["tstar"]
    assert sorted(tstar.edge_names()) == [("a", "b"), ("a", "c")]

    first, second = stages["guiders"]
    assert (first["d"], first["e"]) == ("c", "c")
    assert (second["d"], second["e"]) == ("b", "c")

    assert stages["q"] == {"d": frozenset({"a"}), "e": frozenset({"a", "c"})}
    # d and e share the guider c in the first ordering, which pares e down
    assert stages["cleaned"] == {"d": frozenset({"a"}), "e": frozenset({"a"})}

    witness = assign_parents(tstar, stages["cleaned_masks"])
    assert sorted(witness.edge_names()) == [
        ("a", "b"),
        ("a", "c"),
        ("a", "d"),
        ("a", "e"),
    ]
    assert sorted(recognize_dfs_tree(SHRINK).tree.edge_names()) == sorted(
        witness.edge_names()
    )


def test_purification_can_empty_a_candidate_set():
    stages = stage_values(EMPTY_BY_PURIFICATION)
    assert sorted(stages["tstar"].edge_names()) == [("a", "b"), ("a", "c"), ("c", "d")]
    # non-empty before the sweep, empty after: the recognizer must reach
    # the purification stage to reject this one
    assert stages["q"] == {"e": frozenset({"a"}), "f": frozenset({"c", "d"})}
    assert stages["cleaned"] == {"e": frozenset(), "f": frozenset()}


def test_forest_fixture_really_has_a_forest_of_forced_vertices():
    dg = build_attachment_digraph(FOREST_TSTAR)
    induced = dg.underlying_graph().induced(dg.forced_names())
    assert induced.m < induced.n - 1  # forest with several components


def test_recognizer_against_oracle_seeded():
    final_verify_hits = 0
    for profile in random_profiles(2718, 300):
        out = recognize_dfs_tree(profile)
        assert out.is_yes == brute_force_tree_support(profile, Paradigm.DFS).is_yes
        final_verify_hits += out.reason == FINAL_VERIFY_FAILED
        if out.is_yes:
            for sigma in profile:
                assert is_s_ordering(out.tree, sigma, Paradigm.DFS)
    assert final_verify_hits == 0


def test_free_vertices_come_out_as_leaves():
    seen_free = 0
    for profile in random_profiles(2719, 200):
        dg = build_attachment_digraph(profile)
        out = recognize_dfs_tree(profile)
        if out.is_yes:
            for v in dg.free_names():
                seen_free += 1
                assert out.tree.degree(v) == 1
    assert seen_free > 0  # the corpus really exercises the attachment step


@pytest.mark.parametrize("k", [2, 8])
def test_planted_profiles_at_n200(k):
    dfs_rows, gs_rows = planted_profiles(200 + k, 200, k)
    for profile, recognize, paradigm in (
        (dfs_rows, recognize_dfs_tree, Paradigm.DFS),
        (dfs_rows, recognize_gs_tree, Paradigm.GS),
        (gs_rows, recognize_gs_tree, Paradigm.GS),
    ):
        out = recognize(profile)
        assert out.is_yes, (paradigm, out.reason)
        for sigma in profile:
            assert certify_by_simulation(out.tree, sigma, paradigm)


@given(trees(max_n=7), st.data())
@settings(max_examples=300, deadline=None)
def test_linear_tree_dfs_check_matches_four_point(tree, data):
    seq = data.draw(st.permutations(range(tree.n)))
    sigma = Ordering(tree.universe, tuple(seq))
    expected, _ = satisfies_property(tree, sigma, FourPointProperty.D)
    assert frontier_check(tree, sigma.seq, FourPointProperty.D) == expected


def test_a_wrong_assembled_tree_fails_the_final_verification(monkeypatch):
    # the branch is dead for a correct assign_parents; force it with a star
    # on 'e', on which no row starting elsewhere grows connected
    def star_on_e(tstar, q):
        return Tree.build(tstar.universe.names, [("e", v) for v in "abcd"])

    monkeypatch.setattr(dfs_tree, "assign_parents", star_on_e)
    with pytest.warns(RuntimeWarning, match="assembled tree failed final verification"):
        out = recognize_dfs_tree(YES_PATH)
    assert (out.is_yes, out.reason) == (False, FINAL_VERIFY_FAILED)

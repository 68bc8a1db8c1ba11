"""Attachment digraphs and tree recognition for the unrestricted paradigm."""

import pytest
from hypothesis import given, settings

from searchorder import (
    CapError,
    DISCONNECTED_ATTACHMENT,
    Ordering,
    Paradigm,
    Profile,
    UNREALIZABLE_ATTACHMENT,
    all_tree_supports,
    blocker_set,
    build_attachment_digraph,
    enumerate_gs_tree_supports,
    forced_subtree,
    is_s_ordering,
    recognize_gs_tree,
    universe_of,
)

from conftest import profiles, random_profiles

SINGLE = Profile.build("abcd", [("a", "b", "c", "d")])
PAIR = Profile.build("abcd", [("a", "b", "c", "d"), ("b", "a", "c", "d")])
DISCONNECTED = Profile.build(
    "abcd", [("a", "b", "c", "d"), ("a", "b", "d", "c"), ("c", "d", "a", "b")]
)
ROTATION3 = Profile.build("abc", [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")])
# connected attachment graph (a star) that still supports nothing: three
# of the four vertices never appear as an arc tail
UNREALIZABLE_STAR = Profile.build(
    "abcd", [("b", "a", "c", "d"), ("b", "c", "a", "d"), ("c", "a", "b", "d")]
)
UNREALIZABLE_FOREST = Profile.build(
    "abcd", [("a", "b", "c", "d"), ("a", "c", "b", "d"), ("b", "c", "a", "d")]
)


def edge_sets(trees):
    return {frozenset(t.edge_names()) for t in trees}


# ------------------------------------------------------------ blocker sets


def test_blocker_set_cases():
    sigma = Ordering.from_names(universe_of("abcd"), ("a", "b", "c", "d"))
    assert blocker_set(sigma, {"b", "c", "d"}, "c") == {"b"}
    assert blocker_set(sigma, {"b", "c", "d"}, "d") == {"b", "c"}
    # the top-ranked member is blocked by the runner-up alone
    assert blocker_set(sigma, {"b", "c", "d"}, "b") == {"c"}


def test_blocker_set_errors():
    sigma = Ordering.from_names(universe_of("abcd"), ("a", "b", "c", "d"))
    with pytest.raises(ValueError):
        blocker_set(sigma, {"b", "c"}, "a")
    with pytest.raises(ValueError):
        blocker_set(sigma, {"a"}, "a")


# ---------------------------------------------------------------- digraph


def test_digraph_shape_for_a_single_ordering():
    dg = build_attachment_digraph(SINGLE)
    assert sorted(dg.arc_names()) == [
        ("a", "b"),
        ("c", "a"),
        ("c", "b"),
        ("d", "a"),
        ("d", "b"),
        ("d", "c"),
    ]
    assert sorted(dg.forced_names()) == ["a", "b"]
    assert sorted(dg.free_names()) == ["c", "d"]


def test_forced_subtree_of_single_ordering():
    dg = build_attachment_digraph(SINGLE)
    tstar = forced_subtree(dg)
    assert sorted(tstar.edge_names()) == [("a", "b")]


def arcs_by_blocker_sets(profile):
    """The attachment arcs by the definition: peel the bottom vertex of
    every ordering and join it to its common blockers, name by name."""
    surviving = set(profile.universe.names)
    arcs = set()
    while len(surviving) >= 3:
        peeled = {max(surviving, key=sigma.position) for sigma in profile}
        for v in peeled:
            common = frozenset.intersection(
                *(blocker_set(sigma, surviving, v) for sigma in profile)
            )
            arcs.update((v, u) for u in common)
        surviving -= peeled
    if len(surviving) == 2:
        arcs.add(tuple(sorted(surviving, key=profile.universe.index)))
    return arcs


@given(profiles(min_n=1, max_n=7, max_rows=4))
@settings(max_examples=200, deadline=None)
def test_mask_built_arcs_match_blocker_sets(profile):
    assert set(build_attachment_digraph(profile).arc_names()) == arcs_by_blocker_sets(profile)


# ------------------------------------------------------------- recognition


def test_recognize_yes_with_witness():
    for profile in (SINGLE, PAIR):
        out = recognize_gs_tree(profile)
        assert out.is_yes and out.reason is None
        assert sorted(out.tree.edge_names()) == [("a", "b"), ("a", "c"), ("a", "d")]
        for sigma in profile:
            assert is_s_ordering(out.tree, sigma, Paradigm.GS)


@pytest.mark.parametrize("profile", [DISCONNECTED, ROTATION3])
def test_recognize_no_when_attachment_splits(profile):
    out = recognize_gs_tree(profile)
    assert (out.is_yes, out.reason) == (False, DISCONNECTED_ATTACHMENT)
    assert enumerate_gs_tree_supports(profile) == ()


@pytest.mark.parametrize("profile", [UNREALIZABLE_STAR, UNREALIZABLE_FOREST])
def test_recognize_no_when_arcs_cannot_span(profile):
    # connectivity of the attachment graph alone is not enough
    assert build_attachment_digraph(profile).underlying_graph().is_connected()
    out = recognize_gs_tree(profile)
    assert (out.is_yes, out.reason) == (False, UNREALIZABLE_ATTACHMENT)
    assert enumerate_gs_tree_supports(profile) == ()
    assert not all_tree_supports(profile, Paradigm.GS)


def test_enumeration_matches_oracle_on_pins():
    for profile in (SINGLE, PAIR):
        assert edge_sets(enumerate_gs_tree_supports(profile)) == edge_sets(
            all_tree_supports(profile, Paradigm.GS)
        )
        assert len(enumerate_gs_tree_supports(profile)) == 6


def test_enumeration_cap_counts_free_vertices():
    profile = Profile.build("abcde", [("a", "b", "c", "d", "e"), ("a", "c", "e", "b", "d")])
    assert sorted(build_attachment_digraph(profile).free_names()) == ["d", "e"]
    assert edge_sets(enumerate_gs_tree_supports(profile)) == edge_sets(
        all_tree_supports(profile, Paradigm.GS)
    )
    # one row leaves every vertex but the last two free: 13 here, over the cap
    names = [f"v{i}" for i in range(15)]
    row = Profile.build(names, [names])
    assert len(build_attachment_digraph(row).free) == 13
    with pytest.raises(CapError):
        enumerate_gs_tree_supports(row)


def test_recognizer_against_oracle_seeded():
    for profile in random_profiles(411, 150, sizes=(4, 5)):
        out = recognize_gs_tree(profile)
        oracle = all_tree_supports(profile, Paradigm.GS)
        assert out.is_yes == bool(oracle), profile
        assert edge_sets(enumerate_gs_tree_supports(profile)) == edge_sets(oracle)
        if out.is_yes:
            assert frozenset(out.tree.edge_names()) in edge_sets(oracle)


def test_every_support_lives_inside_the_attachment_graph():
    for profile in random_profiles(412, 120, sizes=(4, 5)):
        skeleton = build_attachment_digraph(profile).underlying_graph()
        for tree in all_tree_supports(profile, Paradigm.GS):
            for u, v in tree.edge_names():
                assert skeleton.has_edge(u, v)

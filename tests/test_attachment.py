"""Attachment digraphs and tree recognition for the unrestricted paradigm."""

import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings

from searchorder import (
    CapError,
    DISCONNECTED_ATTACHMENT,
    Graph,
    Ordering,
    Paradigm,
    Profile,
    UNREALIZABLE_ATTACHMENT,
    Universe,
    all_tree_supports,
    build_attachment_digraph,
    enumerate_gs_tree_supports,
    forced_subtree,
    is_s_ordering,
    recognize_gs_tree,
)

from conftest import planted_profiles, profiles, random_profiles

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


def blocker_set(sigma, s, x):
    """Blockers of x within the surviving set s, under ordering sigma.

    If x is the sigma-earliest member of s the result is the singleton
    holding the second-earliest member; otherwise it is every member of
    s before x.
    """
    members = sorted(s, key=sigma.names.index)
    if x not in members:
        raise ValueError(f"{x!r} is not in the surviving set")
    if members[0] == x:
        if len(members) < 2:
            raise ValueError("top vertex of a singleton set has no blockers")
        return frozenset({members[1]})
    return frozenset(members[:members.index(x)])


def test_blocker_set_cases():
    sigma = Ordering.from_names(Universe("abcd"), ("a", "b", "c", "d"))
    assert blocker_set(sigma, {"b", "c", "d"}, "c") == {"b"}
    assert blocker_set(sigma, {"b", "c", "d"}, "d") == {"b", "c"}
    # the top-ranked member is blocked by the runner-up alone
    assert blocker_set(sigma, {"b", "c", "d"}, "b") == {"c"}


def test_blocker_set_errors():
    sigma = Ordering.from_names(Universe("abcd"), ("a", "b", "c", "d"))
    with pytest.raises(ValueError):
        blocker_set(sigma, {"b", "c"}, "a")
    with pytest.raises(ValueError):
        blocker_set(sigma, {"a"}, "a")


# ---------------------------------------------------------------- digraph


def test_digraph_shape_for_a_single_ordering():
    dg = build_attachment_digraph(SINGLE)
    assert sorted(dg.arcs) == [
        ("a", "b"),
        ("c", "a"),
        ("c", "b"),
        ("d", "a"),
        ("d", "b"),
        ("d", "c"),
    ]
    assert sorted(dg.forced) == ["a", "b"]
    assert sorted(dg.free) == ["c", "d"]


def test_listings_partition_the_names_and_count_the_mask_bits():
    # perfbench's attachment.arcs counts len(arcs), that is, the bits of the masks
    fixtures = [SINGLE, PAIR, DISCONNECTED, ROTATION3, UNREALIZABLE_STAR, UNREALIZABLE_FOREST]
    for profile in fixtures + head_case_corpus()[::20]:
        dg = build_attachment_digraph(profile)
        names, index, forced = dg.universe.names, dg.universe.index, dg.forced
        assert forced == tuple(names[v] for v, m in enumerate(dg.out_masks) if m.bit_count() < 2)
        assert dg.free == tuple(name for name in names if name not in forced)
        pairs = [(index(a), index(b)) for a, b in dg.arcs]
        assert pairs == sorted(set(pairs))
        assert len(dg.arcs) == sum(m.bit_count() for m in dg.out_masks)


def test_forced_subtree_of_single_ordering():
    dg = build_attachment_digraph(SINGLE)
    tstar = forced_subtree(dg)
    assert sorted(tstar.edge_names()) == [("a", "b")]


def arcs_by_blocker_sets(profile, cases=None):
    """The attachment arcs by the definition: peel the bottom vertex of
    every ordering and join it to its common blockers, name by name.

    `cases`, if given, counts how each peeled vertex that heads some
    ordering's survivors fares, and how the peel ends."""
    surviving = set(profile.universe.names)
    arcs = set()
    while len(surviving) >= 3:
        peeled = {max(surviving, key=sigma.names.index) for sigma in profile}
        for v in peeled:
            blockers = [blocker_set(sigma, surviving, v) for sigma in profile]
            common = frozenset.intersection(*blockers)
            arcs.update((v, u) for u in common)
            runners = {
                b for sigma, b in zip(profile, blockers)
                if min(surviving, key=sigma.names.index) == v
            }
            if cases is not None and runners:
                if common:
                    cases["head keeps its runner-up"] += 1
                elif len(runners) > 1:
                    cases["runner-ups differ"] += 1
                else:
                    cases["runner-up after v in another row"] += 1
        surviving -= peeled
    if len(surviving) == 2:
        arcs.add(tuple(sorted(surviving, key=profile.universe.index)))
    if cases is not None:
        cases["ends with a pair" if len(surviving) == 2 else "ends with fewer"] += 1
    return arcs


@given(profiles(min_n=1, max_n=7, max_rows=4))
@settings(max_examples=200, deadline=None)
def test_mask_built_arcs_match_blocker_sets(profile):
    assert set(build_attachment_digraph(profile).arcs) == arcs_by_blocker_sets(profile)


def head_case_corpus():
    """Seeded profiles that reach every case of the peel: random rows
    (duplicates allowed), a row with its reverse, one adjacent
    transposition of a row, a duplicated row, and planted trees."""
    rng = random.Random(1616)
    corpus = []
    for _ in range(150):
        n = rng.randint(3, 9)
        names = [f"x{i}" for i in range(n)]
        rows = [rng.sample(names, n) for _ in range(rng.randint(1, 6))]
        swapped = list(rows[0])
        i = rng.randrange(n - 1)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        for variant in (rows, [rows[0], rows[0][::-1]], rows + [swapped], rows + [rows[-1]]):
            corpus.append(Profile.build(names, variant))
    for seed in range(6):
        corpus.extend(planted_profiles(1616 + seed, 30 + 6 * seed, 1 + seed % 4))
    return corpus


def test_peel_cases_match_blocker_sets():
    cases = Counter()
    for profile in head_case_corpus():
        got = set(build_attachment_digraph(profile).arcs)
        assert got == arcs_by_blocker_sets(profile, cases), profile
    assert set(cases) == {
        "head keeps its runner-up",
        "runner-ups differ",
        "runner-up after v in another row",
        "ends with a pair",
        "ends with fewer",
    }, cases
    assert min(cases.values()) >= 10, cases


def test_build_memory_does_not_grow_with_the_row_count():
    # the build keeps one mask per vertex and one short position list per
    # row, so four times the rows add little to its peak
    dfs_rows, _gs_rows = planted_profiles(1717, 2000, 8)
    peaks = []
    for k in (2, 8):
        profile = Profile(dfs_rows.universe, dfs_rows.rows[:k])
        tracemalloc.start()
        try:
            build_attachment_digraph(profile)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def far_swapped_planted():
    """Planted DFS rows with row 0's second vertex swapped with one from
    its back half: often several sinks, connected or not."""
    rng = random.Random(1818)
    corpus = []
    for seed in range(150):
        dfs_rows, _gs_rows = planted_profiles(1818 + seed, 10 + seed % 50, 1 + seed % 8)
        rows = [list(sigma.names) for sigma in dfs_rows]
        far = rng.randrange(len(rows[0]) // 2, len(rows[0]))
        rows[0][1], rows[0][far] = rows[0][far], rows[0][1]
        corpus.append(Profile.build(dfs_rows.universe.names, rows))
    return corpus


def test_connectivity_matches_the_arc_graph_with_several_sinks():
    seen = Counter()
    for profile in head_case_corpus() + far_swapped_planted():
        dg = build_attachment_digraph(profile)
        if dg.sink_count() > 1:
            connected = dg.is_connected()
            assert connected == Graph.build(dg.universe.names, dg.arcs).is_connected()
            seen[connected] += 1
    assert min(seen[True], seen[False]) >= 20, seen


def test_connectivity_memory_does_not_grow_with_the_arc_count():
    # one far swap leaves two sinks and about 2 * 10^5 arcs; the merge keeps
    # one mask per merged component, not a graph of the arcs
    dfs_rows, _gs_rows = planted_profiles(11004, 2000, 4)
    rows = [list(sigma.names) for sigma in dfs_rows]
    rows[0][1], rows[0][1000] = rows[0][1000], rows[0][1]
    dg = build_attachment_digraph(Profile.build(dfs_rows.universe.names, rows))
    assert dg.sink_count() == 2
    assert sum(out.bit_count() for out in dg.out_masks) > 200_000
    tracemalloc.start()
    try:
        assert dg.is_connected()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


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
    dg = build_attachment_digraph(profile)
    assert dg.is_connected() and Graph.build(dg.universe.names, dg.arcs).is_connected()
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
    assert sorted(build_attachment_digraph(profile).free) == ["d", "e"]
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
        arcs = set(build_attachment_digraph(profile).arcs)
        for tree in all_tree_supports(profile, Paradigm.GS):
            for u, v in tree.edge_names():
                assert (u, v) in arcs or (v, u) in arcs

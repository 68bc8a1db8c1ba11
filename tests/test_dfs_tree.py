"""Polynomial-time DFS tree-support recognition against frozen fixtures."""

from collections import deque
from itertools import accumulate, combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from searchorder import (
    DISCONNECTED_ATTACHMENT,
    EMPTY_Q,
    FINAL_VERIFY_FAILED,
    Graph,
    Ordering,
    Paradigm,
    Profile,
    RESTRICTION_FAILS,
    TSTAR_NOT_SUPPORT_FULL,
    Tree,
    Universe,
    brute_force_tree_support,
    build_attachment_digraph,
    certify_by_simulation,
    enumerate_labeled_trees,
    forced_subtree,
    is_s_ordering,
    recognize_dfs_tree,
    recognize_gs_tree,
    satisfies_property,
)
from searchorder import dfs_tree
from searchorder.core import iter_bits
from searchorder.dfs_tree import assign_parents, candidate_sets, purify, q_path
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
# rows 1-2 already empty a candidate set before row 3 fails the walk of T*
WALK_FAILS_AFTER_EMPTY_Q = Profile.build(
    "abcdefgh", [tuple("cfgeadbh"), tuple("ebfchadg"), tuple("fehgcabd")]
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
    (WALK_FAILS_AFTER_EMPTY_Q, False, RESTRICTION_FAILS),
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


def guider_of(prefixes):
    """A run's guider: the first vertex of its Q-path."""
    return prefixes[0].bit_length() - 1


def stage_values(profile):
    """T*, the runs of each ordering as (guider, members), and the
    candidate sets before and after purification, by name, read through
    the stage functions."""
    dg = build_attachment_digraph(profile)
    tstar = forced_subtree(dg)
    name = profile.universe.names

    def names(q):
        return {name[v]: frozenset([name[u] for u in iter_bits(m)]) for v, m in q.items()}

    rows = [s.seq for s in profile]
    forced = dg.forced_mask
    runs = [q_path(tstar, seq, forced) for seq in rows]
    q, groups = candidate_sets(tstar, rows, forced)
    cleaned = purify(q, groups)
    return {
        "tstar": tstar,
        "runs": [[(name[guider_of(p)], [name[v] for v in vs]) for p, vs in row] for row in runs],
        "q": names(q),
        "cleaned": names(cleaned),
        "cleaned_masks": cleaned,
    }


def test_shrink_fixture_internals():
    dg = build_attachment_digraph(SHRINK)
    assert sorted(dg.forced) == ["a", "b", "c"]
    assert sorted(dg.free) == ["d", "e"]
    stages = stage_values(SHRINK)
    tstar = stages["tstar"]
    assert sorted(tstar.edge_names()) == [("a", "b"), ("a", "c")]

    # a b c [d e]: one run guided by c; a c [e] b [d]: e guided by c, d by b
    assert stages["runs"] == [[("c", ["d", "e"])], [("c", ["e"]), ("b", ["d"])]]

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


def test_assign_parents_refuses_an_empty_candidate_set_and_names_the_vertex():
    # c has a candidate (a), d has none: the error names d, not c
    tstar = Graph.build("abcd", [("a", "b")])
    with pytest.raises(ValueError, match="^empty candidate set for 'd'$"):
        assign_parents(tstar, {2: 0b0001, 3: 0})
    assert assign_parents(tstar, {2: 0b0011, 3: 0b0010}).edge_names() == (
        ("a", "b"), ("a", "c"), ("b", "d"),
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
    # T*, the graph the attachment arcs induce on the forced vertices, is a
    # forest with several components
    assert forced_subtree(dg).m < len(dg.forced) - 1


def test_a_row_that_fails_the_walk_outranks_an_emptied_candidate_set():
    profile = WALK_FAILS_AFTER_EMPTY_Q
    dg = build_attachment_digraph(profile)
    tstar, forced = forced_subtree(dg), dg.forced_mask
    rows = [s.seq for s in profile]
    q, _groups = candidate_sets(tstar, rows[:2], forced)
    assert not all(q.values())
    assert [q_path(tstar, seq, forced) is None for seq in rows] == [False, False, True]
    assert candidate_sets(tstar, rows, forced) is None
    assert recognize_dfs_tree(profile).reason == RESTRICTION_FAILS
    assert recognize_gs_tree(profile).is_yes


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
            for v in dg.free:
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


def walks(tree, seq):
    """q_path as a DFS-ordering check: with every vertex forced (-1) it
    finds no run, so it returns [] or None."""
    walked = q_path(tree, seq, -1)
    assert walked in ([], None)
    return walked is not None


@given(trees(max_n=7), st.data())
@settings(max_examples=300, deadline=None)
def test_linear_tree_dfs_check_matches_four_point(tree, data):
    seq = data.draw(st.permutations(range(tree.n)))
    sigma = Ordering(tree.universe, tuple(seq))
    expected, _ = satisfies_property(tree, sigma, Paradigm.DFS)
    assert frontier_check(tree, sigma.seq, Paradigm.DFS) == expected
    assert walks(tree, sigma.seq) == expected


def test_dfs_walk_matches_the_engines_on_every_small_tree():
    # every labelled tree with n <= 5 and every ordering: 15,405 pairs, of
    # which 1,815 are DFS orderings (per tree, a sum over the roots of the
    # product of the child counts' factorials)
    pairs = accepted = 0
    for n in range(1, 6):
        for tree in enumerate_labeled_trees("abcde"[:n]):
            for seq in permutations(range(n)):
                expected = certify_by_simulation(tree, Ordering(tree.universe, seq), Paradigm.DFS)
                assert frontier_check(tree, seq, Paradigm.DFS) == expected
                assert walks(tree, seq) == expected, (tree.edges, seq)
                pairs += 1
                accepted += expected
    assert (pairs, accepted) == (15_405, 1_815)


def test_dfs_walk_matches_the_engines_on_tstar_shaped_inputs():
    # T* is a tree on the forced vertices of a larger universe, the others
    # isolated, walked by each row restricted to the forced vertices
    universe = Universe("abcdef")
    accepted = 0
    for size in range(1, 5):
        for part in combinations(range(universe.n), size):
            for small in enumerate_labeled_trees(universe.names[i] for i in part):
                tstar = Graph.from_pairs(universe, [(part[u], part[v]) for u, v in small.edges])
                for order in permutations(range(size)):
                    seq = [part[i] for i in order]
                    expected = certify_by_simulation(
                        small, Ordering(small.universe, order), Paradigm.DFS)
                    assert frontier_check(tstar, seq, Paradigm.DFS) == expected
                    assert walks(tstar, seq) == expected, (tstar.edges, seq)
                    accepted += expected
    # per part of 1, 2, 3 and 4 vertices: 1, 2, 12 and 120 DFS orderings
    assert accepted == 6 * 1 + 15 * 2 + 20 * 12 + 15 * 120


def test_a_wrong_assembled_tree_fails_the_final_verification(monkeypatch):
    # the branch is dead for a correct assign_parents; force it with a star
    # on 'e', on which no row starting elsewhere grows connected
    def star_on_e(tstar, q):
        return Tree.build(tstar.universe.names, [("e", v) for v in "abcd"])

    monkeypatch.setattr(dfs_tree, "assign_parents", star_on_e)
    with pytest.warns(RuntimeWarning, match="assembled tree failed final verification"):
        out = recognize_dfs_tree(YES_PATH)
    assert (out.is_yes, out.reason) == (False, FINAL_VERIFY_FAILED)


@pytest.mark.parametrize("profile, checks_per_row", [
    # all forced: T* is the whole tree, checked once against each whole row
    (Profile.build("abcde", [tuple("abcde"), tuple("edcba"), tuple("cbade")]), 1),
    # d and e are free: each row is walked on T* for its Q-paths, then whole
    # on the assembled tree
    (YES_PATH, 2),
])
def test_dfs_walks_per_row_of_a_yes(monkeypatch, profile, checks_per_row):
    assert bool(build_attachment_digraph(profile).free) == (checks_per_row == 2)
    calls = []

    def counting(tree, seq, forced):
        calls.append(seq)
        return q_path(tree, seq, forced)

    monkeypatch.setattr(dfs_tree, "q_path", counting)
    assert recognize_dfs_tree(profile).is_yes
    assert len(calls) == checks_per_row * len(profile)


# ------------------------------------------------- stage references


def bfs(adj, root):
    """Parent and depth maps of root's component, rooted at root."""
    parent, depth = {root: root}, {root: 0}
    order = [root]
    for u in order:
        for w in adj[u]:
            if w not in depth:
                parent[w], depth[w] = u, depth[u] + 1
                order.append(w)
    return parent, depth


def path_mask(parent, depth, u, w):
    """The vertices of the tree path between u and w, as a mask."""
    mask = 1 << u | 1 << w
    while depth[u] > depth[w]:
        u = parent[u]
        mask |= 1 << u
    while depth[w] > depth[u]:
        w = parent[w]
        mask |= 1 << w
    while u != w:
        u, w = parent[u], parent[w]
        mask |= 1 << u | 1 << w
    return mask


def reference_q_path(seq, forced, adj):
    """{free vertex: (guider, Q-path mask)}, one path-mask walk per free
    vertex, in T* (as adjacency sets) rooted at the ordering's first
    vertex; the path runs from the guider to the parent there of the next
    forced vertex, or to the root when none follows."""
    parent0, depth0 = bfs(adj, seq[0])
    found = {}
    guider = -1
    waiting = []
    for x in (*seq, -1):
        if x >= 0 and not forced >> x & 1:
            waiting.append((x, guider))
            continue
        anchor = parent0[x] if x >= 0 else seq[0]
        for v, w in waiting:
            found[v] = (w, path_mask(parent0, depth0, w, anchor))
        waiting = []
        guider = x
    return found


def reference_purify(q, groups, tstar):
    """purify reading each member's distances from a distance dict of its
    own BFS of T*, one vertex at a time."""
    q = dict(q)
    groups_of = {}
    for g, (_prefixes, members) in enumerate(groups):
        for v in members:
            groups_of.setdefault(v, []).append(g)

    adj = tstar._adj
    distances = {}
    pending = deque(range(len(groups)))
    queued = [True] * len(groups)
    while pending:
        g = pending.popleft()
        queued[g] = False
        prefixes, members = groups[g]
        w = guider_of(prefixes)
        if w not in distances:
            distances[w] = bfs(adj, w)[1]
        dw = distances[w]
        spans = []
        for v in members:
            ds = [dw[x] for x in iter_bits(q[v])]
            spans.append((min(ds), max(ds)) if ds else None)
        floors = [-1, *accumulate((s[0] if s else -1 for s in spans), max)]
        ceilings = [*accumulate((s[1] if s else tstar.n for s in reversed(spans)), min,
                                initial=tstar.n)][::-1]
        for i, (v, span) in enumerate(zip(members, spans)):
            low, high = floors[i], ceilings[i + 1]
            if span is None or low <= span[0] and span[1] <= high:
                continue
            kept = 0
            for x in iter_bits(q[v]):
                if low <= dw[x] <= high:
                    kept |= 1 << x
            q[v] = kept
            for h in groups_of[v]:
                if not queued[h]:
                    queued[h] = True
                    pending.append(h)
    return q


STAGES = ("build_attachment_digraph", "q_path", "purify", "assign_parents")


def record_stages(monkeypatch, stages=STAGES):
    """Wrap the stages by name (by default those the per-layer spans
    wrap); each call's arguments are appended to calls[stage name]."""
    calls = {name: [] for name in stages}
    for name in stages:
        def wrapper(*args, _inner=getattr(dfs_tree, name), _seen=calls[name]):
            _seen.append(args)
            return _inner(*args)

        monkeypatch.setattr(dfs_tree, name, wrapper)
    return calls


def count_bisects(monkeypatch):
    """Wrap dfs_tree.bisect_left; each search appends the list it searched."""
    searched = []

    def counting(a, x, *, key, _inner=dfs_tree.bisect_left):
        searched.append(a)
        return _inner(a, x, key=key)

    monkeypatch.setattr(dfs_tree, "bisect_left", counting)
    return searched


def test_stage_names_are_looked_up_at_call_time(monkeypatch):
    calls = record_stages(monkeypatch)
    assert recognize_dfs_tree(SHRINK).is_yes
    assert all(calls[name] for name in STAGES), {k: len(v) for k, v in calls.items()}
    assert not hasattr(dfs_tree, "_balls")


def stage_corpus():
    corpus = random_profiles(2720, 400, sizes=range(4, 9), rows=(1, 2, 3, 4))
    for seed in range(40):  # GS rows at k = 2 are where purify empties sets
        corpus.extend(planted_profiles(3000 + seed, 30, 2))
    for k in (2, 8):
        corpus.extend(planted_profiles(100 + k, 100, k))  # DFS rows, then GS rows
    return corpus


def test_stages_match_their_references(monkeypatch):
    calls = record_stages(monkeypatch)
    reasons, purified = [], []
    for profile in stage_corpus():
        seen = len(calls["purify"])
        reasons.append(recognize_dfs_tree(profile).reason)
        purified += [(profile, args) for args in calls["purify"][seen:]]
    monkeypatch.undo()
    failed = 0
    for tree, seq, forced in calls["q_path"]:
        runs = q_path(tree, seq, forced)
        restricted = [x for x in seq if forced >> x & 1]
        assert (runs is not None) == frontier_check(tree, restricted, Paradigm.DFS)
        if runs is None:
            failed += 1
            continue
        adj = tree._adj
        expected = reference_q_path(seq, forced, adj)
        assert sorted(v for _p, vs in runs for v in vs) == sorted(expected)
        for prefixes, vs in runs:
            w = guider_of(prefixes)
            assert prefixes[0] == 1 << w
            assert all(expected[v] == (w, prefixes[-1]) for v in vs)
            dw = bfs(adj, w)[1]
            for d, prefix in enumerate(prefixes):
                assert prefix == sum(1 << x for x in iter_bits(prefixes[-1]) if dw[x] <= d)
    narrowed = emptied = equal = narrowing_unequal = unsearched = 0
    searched = count_bisects(monkeypatch)
    for profile, (q, groups) in purified:
        assert all(q.values())  # purify never sees a set that is already empty
        tstar = forced_subtree(build_attachment_digraph(profile))
        seen = len(searched)
        cleaned = purify(q, groups)
        assert cleaned == reference_purify(q, groups, tstar)
        narrowed += cleaned != q
        emptied += not all(cleaned.values())
        alike = [len({q[v] for v in members}) == 1 for _p, members in groups]
        if all(alike):  # no group can narrow, so none is searched
            assert len(searched) == seen and cleaned == q
            unsearched += bool(groups)
        equal += sum(alike)
        narrowing_unequal += sum(
            not same and any(cleaned[v] != q[v] for v in members)
            for same, (_p, members) in zip(alike, groups)
        )
    # the corpus reaches both stages often, narrows sets and empties some;
    # 14 walks fail the restriction to T*
    assert len(calls["q_path"]) > 300 and len(purified) > 100 and failed > 10
    assert narrowed > 20 and emptied > 5
    # most groups (380 of 542) enter with equal sets and are skipped, and
    # 142 calls search nothing at all; unequal groups still narrow
    assert equal > 300 and unsearched > 100 and narrowing_unequal > 50
    # planted at n = 100: DFS rows are YES; k = 2 GS rows end in EMPTY_Q,
    # k = 8 GS rows fail the walk of T* restricted to the forced vertices
    assert reasons[-4:] == [None, EMPTY_Q, None, RESTRICTION_FAILS]


# Q-path prefixes of a path 0 - 1 - 2 - 3 from its guider 0, in a T* whose
# other vertices are free
PATH_PREFIXES = [0b1, 0b11, 0b111, 0b1111]
PATH_TSTAR = Graph.build("abcdefgh", [("a", "b"), ("b", "c"), ("c", "d")])


def test_purify_searches_no_group_whose_sets_are_all_equal(monkeypatch):
    searched = count_bisects(monkeypatch)
    q = {4: 0b0110, 5: 0b0110, 6: 0b1100, 7: 0b1100, 8: 0b1100}
    groups = [(PATH_PREFIXES, [4, 5]), (PATH_PREFIXES, [6, 7, 8])]
    assert purify(q, groups) == q == reference_purify(q, groups, PATH_TSTAR)
    assert searched == []


def test_purify_searches_only_the_group_that_can_narrow(monkeypatch):
    searched = count_bisects(monkeypatch)
    narrowing = [*PATH_PREFIXES]
    # 6 before 7: Q(6)'s nearest distance 2 drops 1 from Q(7), and Q(7)'s
    # farthest distance 2 drops 3 from Q(6). Both end as {2}, so the second
    # visit of their group finds equal sets and searches nothing.
    q = {4: 0b0110, 5: 0b0110, 6: 0b1100, 7: 0b0110}
    groups = [(PATH_PREFIXES, [4, 5]), (narrowing, [6, 7])]
    cleaned = purify(q, groups)
    assert cleaned == {4: 0b0110, 5: 0b0110, 6: 0b0100, 7: 0b0100}
    assert cleaned == reference_purify(q, groups, PATH_TSTAR)
    assert len(searched) == 4 and all(a is narrowing for a in searched)


def test_purify_revisits_every_group_whose_member_narrowed_in_the_pass_before():
    # Pass 1 skips [5, 8] (equal sets), then [4, 5] narrows 5 to {2, 3} and
    # [6, 7] narrows 7 to {3}. Pass 2 must revisit [5, 8], though the last
    # group to narrow was [6, 7]: only then does 8 lose 1. Pass 3 ends it.
    q = {4: 0b1100, 5: 0b1110, 6: 0b1000, 7: 0b1100, 8: 0b1110}
    groups = [(PATH_PREFIXES, [5, 8]), (PATH_PREFIXES, [4, 5]), (PATH_PREFIXES, [6, 7])]
    cleaned = purify(q, groups)
    assert cleaned == {4: 0b1100, 5: 0b1100, 6: 0b1000, 7: 0b1000, 8: 0b1100}
    assert cleaned == reference_purify(q, groups, PATH_TSTAR)


def test_q_paths_hold_their_sets_and_meet_each_forced_vertex_at_its_dfs_parent(monkeypatch):
    calls = record_stages(monkeypatch, ("q_path", "candidate_sets"))
    for profile in stage_corpus():
        recognize_dfs_tree(profile)
    monkeypatch.undo()
    assert len(calls["candidate_sets"]) > 300
    for args in calls["candidate_sets"]:
        found = candidate_sets(*args)
        if found is None:
            continue
        q, groups = found
        for prefixes, members in groups:
            assert all(q[v] & ~prefixes[-1] == 0 for v in members if q[v])
    followed = 0
    for tree, seq, forced in calls["q_path"]:
        runs = q_path(tree, seq, forced)
        if runs is None:
            continue
        parent0 = bfs(tree._adj, seq[0])[0]
        runs = iter(runs)
        for i, x in enumerate(seq[1:], 1):
            if forced >> x & 1 and not forced >> seq[i - 1] & 1:
                prefixes, _members = next(runs)
                last = prefixes[-1] ^ (prefixes[-2] if len(prefixes) > 1 else 0)
                assert last == 1 << parent0[x]
                followed += 1
    assert followed > 300


def test_purify_is_skipped_once_a_candidate_set_is_empty(monkeypatch):
    class Reached(Exception):
        pass

    def purify_raises(q, groups):
        raise Reached

    calls = record_stages(monkeypatch, ("candidate_sets",))
    monkeypatch.setattr(dfs_tree, "purify", purify_raises)
    skipped = 0
    for profile in [EMPTY_BY_INTERSECTION, *stage_corpus()]:
        seen = len(calls["candidate_sets"])
        try:
            reason = recognize_dfs_tree(profile).reason
        except Reached:
            continue
        if len(calls["candidate_sets"]) == seen:
            continue  # answered before stage 3
        found = candidate_sets(*calls["candidate_sets"][-1])
        if found is not None:  # None: a row failed the walk of T*
            assert not all(found[0].values())
            assert reason == EMPTY_Q
            skipped += 1
    assert skipped > 30


def test_each_forced_vertex_guides_at_most_one_run_per_ordering(monkeypatch):
    # purify's groups are q_path's runs: exact because a run's guider is the
    # forced vertex just before it, so one row's guiders are all distinct
    calls = record_stages(monkeypatch)
    for profile in stage_corpus():
        recognize_dfs_tree(profile)
    monkeypatch.undo()
    assert len(calls["q_path"]) > 300
    for tree, seq, forced in calls["q_path"]:
        assert forced >> seq[0] & 1  # the stack starts at a forced vertex
        runs = q_path(tree, seq, forced)
        if runs is None:
            continue
        guiders = [guider_of(prefixes) for prefixes, _vs in runs]
        assert all(forced >> w & 1 for w in guiders)
        assert len(set(guiders)) == len(guiders)
        # the runs are the row's free vertices, in order, each run right
        # after its guider
        assert [v for _p, vs in runs for v in vs] == [x for x in seq if not forced >> x & 1]
        assert all(seq[seq.index(vs[0]) - 1] == w for w, (_p, vs) in zip(guiders, runs))

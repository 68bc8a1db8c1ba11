"""Recognizers against the brute-force oracles beyond the acceptance
corpus: a seeded n = 7 differential and metamorphic invariants; and,
past the oracles' reach, relations that need no oracle at n = 200-400."""

import random
from collections import Counter

import pytest

from searchorder import (
    DISCONNECTED_ATTACHMENT,
    EMPTY_Q,
    FINAL_VERIFY_FAILED,
    RESTRICTION_FAILS,
    UNREALIZABLE_ATTACHMENT,
    Paradigm,
    Profile,
    all_tree_supports,
    brute_force_tree_support,
    build_attachment_digraph,
    certify_by_simulation,
    recognize_dfs_tree,
    recognize_gs_tree,
)

from conftest import planted_profiles, planted_tree_profiles, random_profiles


def _replays(tree, profile, paradigm):
    return all(certify_by_simulation(tree, sigma, paradigm) for sigma in profile)


def _n7_corpus():
    corpus = random_profiles(7001, 40, sizes=(7,), rows=(1, 2, 3))
    for seed in range(20):
        corpus += planted_profiles(7100 + seed, 7, 1 + seed % 4)
    corpus += planted_tree_profiles(7200, 20, Paradigm.GS, sizes=(7,), rows=(2, 3, 4))
    return corpus


def test_recognizers_match_the_oracles_at_n7():
    yes = {"dfs": 0, "gs": 0}
    for profile in _n7_corpus():
        dfs = recognize_dfs_tree(profile)
        oracle = brute_force_tree_support(profile, Paradigm.DFS)
        assert dfs.is_yes == oracle.is_yes, profile
        if dfs.is_yes:
            assert _replays(dfs.tree, profile, Paradigm.DFS)
            assert _replays(oracle.witness, profile, Paradigm.DFS)
            yes["dfs"] += 1
        gs = recognize_gs_tree(profile)
        supports = all_tree_supports(profile, Paradigm.GS)
        assert gs.is_yes == bool(supports), profile
        if gs.is_yes:
            assert _replays(gs.tree, profile, Paradigm.GS)
            assert gs.tree in supports
            yes["gs"] += 1
    assert yes["dfs"] >= 20 and yes["gs"] >= 40, yes


# ------------------------------------------------------------ metamorphic


def _metamorphic_corpus():
    corpus = random_profiles(6001, 30, sizes=(4, 5, 6), rows=(1, 2, 3))
    for seed in range(10):
        corpus += planted_profiles(6100 + seed, 6, 2 + seed % 3)
    return corpus


def _verdicts(profile):
    dfs = recognize_dfs_tree(profile)
    gs = recognize_gs_tree(profile)
    return (
        (dfs.is_yes, dfs.reason),
        (gs.is_yes, gs.reason),
        brute_force_tree_support(profile, Paradigm.DFS).is_yes,
        bool(all_tree_supports(profile, Paradigm.GS)),
    )


def _relabelled(profile, rng):
    """A random renaming of the vertices, and the profile under it."""
    names = profile.universe.names
    image = dict(zip(names, rng.sample(names, len(names))))
    return image, Profile.build(names, [[image[v] for v in sigma.names] for sigma in profile])


def _relabel(profile, rng):
    return _relabelled(profile, rng)[1]


def _permute_rows(profile, rng):
    rows = [sigma.names for sigma in profile]
    rng.shuffle(rows)
    return Profile.build(profile.universe.names, rows)


def _duplicate_a_row(profile, rng):
    rows = [sigma.names for sigma in profile]
    rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))
    return Profile.build(profile.universe.names, rows)


@pytest.mark.parametrize("change", [_relabel, _permute_rows, _duplicate_a_row])
def test_verdicts_survive_metamorphic_changes(change):
    rng = random.Random(change.__name__)
    yes = 0
    for profile in _metamorphic_corpus():
        before = _verdicts(profile)
        assert _verdicts(change(profile, rng)) == before, profile
        yes += before[1][0]
    assert yes >= 10


def test_oracle_supports_ignore_row_order_and_duplicates():
    # the candidates are grown from row 1, so which row comes first must
    # not change the ordered support list
    rng = random.Random(6200)
    for profile in _metamorphic_corpus():
        for paradigm in (Paradigm.DFS, Paradigm.BFS, Paradigm.MCS):
            want = all_tree_supports(profile, paradigm)
            assert all_tree_supports(_permute_rows(profile, rng), paradigm) == want
            assert all_tree_supports(_duplicate_a_row(profile, rng), paradigm) == want


def test_relabelled_supports_are_the_relabelled_trees():
    rng = random.Random(6300)
    for profile in _metamorphic_corpus()[::3]:
        image, moved = _relabelled(profile, rng)
        for paradigm in (Paradigm.GS, Paradigm.LEXBFS):
            want = {
                frozenset(frozenset(image[v] for v in e) for e in t.edge_names())
                for t in all_tree_supports(profile, paradigm)
            }
            got = {
                frozenset(frozenset(e) for e in t.edge_names())
                for t in all_tree_supports(moved, paradigm)
            }
            assert got == want, profile


# ------------------------------------------------- no oracle, n = 200-400


def _oracle_free_corpus():
    """Planted DFS-row and GS-row profiles at n = 200-400, each followed
    by two near misses: one adjacent transposition in one of its rows,
    of the second and third vertices (which most often breaks GS
    supports) or anywhere."""
    rng = random.Random(1800)
    corpus = []
    for seed in range(10):
        n, k = rng.choice((200, 300, 400)), rng.choice((2, 4, 8))
        for profile in planted_profiles(1800 + seed, n, k):
            corpus.append(profile)
            for i in (1, rng.randrange(n - 1)):
                rows = [list(sigma.names) for sigma in profile]
                row = rng.choice(rows)
                row[i], row[i + 1] = row[i + 1], row[i]
                corpus.append(Profile.build(profile.universe.names, rows))
    return corpus


def _shuffle_universe(profile, rng):
    names = list(profile.universe.names)
    rng.shuffle(names)
    return Profile.build(names, [sigma.names for sigma in profile])


def _reverse_rows(profile, rng):
    return Profile.build(profile.universe.names, [sigma.names for sigma in profile][::-1])


def test_relations_that_need_no_oracle_at_n200_to_400():
    rng = random.Random(1801)
    reasons = Counter()
    for profile in _oracle_free_corpus():
        dfs, gs = recognize_dfs_tree(profile), recognize_gs_tree(profile)
        assert dfs.reason != FINAL_VERIFY_FAILED
        if dfs.is_yes:
            assert gs.is_yes
            arcs = set(build_attachment_digraph(profile).arcs)
            assert all((u, v) in arcs or (v, u) in arcs for u, v in dfs.tree.edge_names())
        verdict = (dfs.is_yes, dfs.reason, gs.is_yes, gs.reason)
        for change in (_shuffle_universe, _reverse_rows, _duplicate_a_row):
            moved = change(profile, rng)
            d, g = recognize_dfs_tree(moved), recognize_gs_tree(moved)
            assert (d.is_yes, d.reason, g.is_yes, g.reason) == verdict, change.__name__
        reasons["dfs", dfs.reason] += 1
        reasons["gs", gs.reason] += 1
    # each of these arises on this corpus: 27 DFS YES, 27 RESTRICTION_FAILS,
    # 6 EMPTY_Q and 4 UNREALIZABLE_ATTACHMENT of 60 profiles
    for kind, reason in (("dfs", None), ("dfs", RESTRICTION_FAILS), ("dfs", EMPTY_Q),
                         ("gs", UNREALIZABLE_ATTACHMENT)):
        assert reasons[kind, reason] >= 3, reasons


def _dfs_run(tree, rng):
    """A DFS-ordering of tree from a random root, children in random order."""
    adj, names = tree._adj, tree.universe.names
    root = rng.randrange(tree.n)
    row, stack, seen = [], [root], {root}
    while stack:
        u = stack.pop()
        row.append(names[u])
        children = [w for w in adj[u] if w not in seen]
        rng.shuffle(children)
        seen.update(children)
        stack.extend(children)  # on a tree each subtree ends before the next child
    return row


def test_row_deletion_witness_runs_and_far_swaps_at_n200_to_400():
    """Deleting rows keeps a YES, a fresh DFS run of the DFS witness keeps
    a DFS YES, and near misses that swap one of a row's first three
    vertices with one from its last three quarters reach every NO reason
    that large planted profiles can give."""
    rng = random.Random(1900)
    reasons = Counter()
    for seed in range(20):
        n, k = rng.choice((200, 400)), rng.choice((2, 4, 8))
        for profile in planted_profiles(1900 + seed, n, k):
            names, rows = profile.universe.names, [sigma.names for sigma in profile]
            dfs, gs = recognize_dfs_tree(profile), recognize_gs_tree(profile)
            assert gs.is_yes
            fewer = Profile.build(names, rng.sample(rows, rng.randint(1, k)))
            assert recognize_gs_tree(fewer).is_yes
            if dfs.is_yes:
                assert recognize_dfs_tree(fewer).is_yes
                grown = Profile.build(names, rows + [_dfs_run(dfs.tree, rng)])
                assert recognize_dfs_tree(grown).is_yes
                reasons["dfs", "witness run added"] += 1
            for _ in range(2):
                swapped = [list(row) for row in rows]
                row = rng.choice(swapped)
                i, j = rng.randrange(3), rng.randrange(n // 4, n)
                row[i], row[j] = row[j], row[i]
                miss = Profile.build(names, swapped)
                d, g = recognize_dfs_tree(miss), recognize_gs_tree(miss)
                assert d.reason != FINAL_VERIFY_FAILED and (g.is_yes or not d.is_yes)
                reasons["dfs", d.reason] += 1
                reasons["gs", g.reason] += 1
    assert reasons["dfs", "witness run added"] >= 20, reasons  # every DFS-row profile
    for kind, reason in (("dfs", DISCONNECTED_ATTACHMENT), ("dfs", RESTRICTION_FAILS),
                         ("dfs", EMPTY_Q), ("gs", DISCONNECTED_ATTACHMENT),
                         ("gs", UNREALIZABLE_ATTACHMENT)):
        assert reasons[kind, reason] >= 1, reasons

"""Answer digests: one SHA-256 per section over the answers the package
gives on fixed seeded inputs, with the expected hex written here.

A refactor that keeps every answer keeps every digest. A change that
alters answers on purpose updates the digest of its section, and says
which section and why. The inputs come from `conftest`'s generators
and a seeded adjacent swap, never from the benchmark harness.
"""

import hashlib
import itertools
import random

import pytest

from searchorder import (
    Graph,
    Paradigm,
    Profile,
    brute_force_tree_support,
    enumerate_orderings,
    recognize_dfs_tree,
    recognize_gs_tree,
    reduce,
)

from conftest import k4, petersen, planted_profiles, planted_tree_profiles, random_profiles


def _digest(answers):
    h = hashlib.sha256()
    for answer in answers:
        h.update(repr(answer).encode())
        h.update(b"\n")
    return h.hexdigest()


def _swapped(rng, profile):
    """The profile with, 40 % of the time, one adjacent pair of one row swapped."""
    rows = [list(o.names) for o in profile]
    if rng.random() < 0.4:
        row = rng.choice(rows)
        i = rng.randrange(len(row) - 1)
        row[i], row[i + 1] = row[i + 1], row[i]
    return Profile.build(profile.universe.names, rows)


def _recognizer_profiles():
    rng = random.Random(28)
    out = random_profiles(2800, 300, sizes=(3, 4, 5, 6, 7, 8), rows=(1, 2, 3, 4, 5, 6))
    for seed in range(800):
        out += planted_profiles(2900 + seed, 2 + seed % 8, 1 + seed % 5)
    for seed, n in enumerate((100, 200, 400)):
        out += planted_profiles(3100 + seed, n, 4)
    return [_swapped(rng, p) for p in out]


def _outcome(o):
    return o.is_yes, o.reason, o.tree.edge_names() if o.tree else None


def recognizers():
    for profile in _recognizer_profiles():
        yield _outcome(recognize_gs_tree(profile)), _outcome(recognize_dfs_tree(profile))


def tree_oracle():
    corpus = random_profiles(3200, 40, sizes=(4, 5, 6), rows=(1, 2, 3))
    for i, paradigm in enumerate(Paradigm):
        corpus += planted_tree_profiles(3300 + i, 10, paradigm)
    for profile, paradigm in itertools.product(corpus, Paradigm):
        r = brute_force_tree_support(profile, paradigm)
        yield r.is_yes, r.witness.edge_names() if r.witness else None


def enumeration():
    rng = random.Random(3400)
    for n in range(1, 7):
        pairs = list(itertools.combinations("abcdef"[:n], 2))
        for _ in range(6):
            graph = Graph.build("abcdef"[:n], [e for e in pairs if rng.random() < 0.5])
            for paradigm in Paradigm:
                yield [o.seq for o in enumerate_orderings(graph, paradigm)]


def reductions():
    # LexBFS is left out: it runs BFS's builder again, at 0.1-0.25 s per instance
    for paradigm, source, kappa in (
        (Paradigm.DFS, k4(), 2), (Paradigm.BFS, k4(), 2), (Paradigm.MCS, k4(), 2),
        (Paradigm.MNS, k4(), 3), (Paradigm.LEXDFS, petersen(), 6),
    ):
        for bound in ("edge", "deg"):
            yield reduce(paradigm, bound, source, kappa).emit()


DIGESTS = {
    recognizers: "d45b7b058f1cb8dc07b4a9f0a3413f7440704f01697f97b6a6ff20abba3bf724",
    tree_oracle: "3750ad86f848ed788c02e2b934ed735c4a4e8f74a4e13ebe7f2d1050311f803e",
    enumeration: "9d99005c2dd2f6dace8981bc9e6ab483c022fe4f1f6dbc9297e8cc41d4d3f9e5",
    reductions: "f8a732a3aefe22b5e52fbbbb770e6e8fceaea90f5bb52bbf87e7c7d6ae99918d",
}


@pytest.mark.parametrize("section", DIGESTS, ids=lambda f: f.__name__)
def test_answers_match_their_digest(section):
    assert _digest(section()) == DIGESTS[section]

"""Mutation check: does each listed test still catch the defect it was
written for?

Each entry of MUTANTS breaks one module of `src/searchorder` by
replacing one text that occurs exactly once in it, and names the tests
that must fail on it. For every mutant this script copies `src/` to a
fresh temporary directory, applies the edit there, and runs the named
tests against the copy (`PYTHONPATH`, with `-x`); a mutant on which
they all pass survives. It never writes under `src/`.

    python3 tests/mutants.py             # every mutant; exit 1 if one survives
    python3 tests/mutants.py dfs-tail    # only the mutants whose name contains a word

Tier-1 does not collect this file (it is not named `test_*.py`);
`tests/test_tooling.py` checks that every old text still occurs exactly
once and that every named test function exists, so the list cannot rot.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str  # a module of src/searchorder
    old: str  # occurs exactly once in the module
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


DFS = "tests/test_dfs_tree.py::"
ORACLES = "tests/test_oracles.py::"
TRAVERSALS = "tests/test_traversals.py::"
ATTACHMENT = "tests/test_attachment.py::"
VERIFIERS = "tests/test_verifiers.py::"
CORE = "tests/test_core.py::"
TOOLING = "tests/test_tooling.py::"
DIGEST = "tests/test_digest.py::test_answers_match_their_digest"

MUTANTS = [
    # purification by passes
    Mutant("purify-one-pass", "dfs_tree.py",
           "        changed = narrowed\n", "        changed = set()\n",
           (DFS + "test_stages_match_their_references",
            DFS + "test_purify_revisits_every_group_whose_member_narrowed_in_the_pass_before")),
    Mutant("purify-forgets-earlier-runs", "dfs_tree.py",
           "            for i, v in enumerate(members):\n",
           "            narrowed = set()\n            for i, v in enumerate(members):\n",
           (DFS + "test_purify_revisits_every_group_whose_member_narrowed_in_the_pass_before",)),
    # the DFS walk and the Q-paths read off its stack
    Mutant("walk-never-pops", "dfs_tree.py",
           "        while x not in adj[stack[top]]:\n            top -= 1\n",
           "        if x not in adj[stack[top]]:\n            return None\n",
           (DFS + "test_dfs_walk_matches_the_engines_on_every_small_tree",
            DFS + "test_dfs_walk_matches_the_engines_on_tstar_shaped_inputs")),
    Mutant("walk-restarts-on-empty-stack", "dfs_tree.py",
           "            if top < 0:\n                return None\n",
           "            if top < 0:\n                break\n",
           (DFS + "test_dfs_walk_matches_the_engines_on_every_small_tree",
            DFS + "test_dfs_walk_matches_the_engines_on_tstar_shaped_inputs")),
    Mutant("q-path-reversed-slice", "dfs_tree.py",
           "reversed(stack[top:])", "stack[:top - 1:-1]",
           ("tests/test_dfs_tree.py",)),
    Mutant("q-path-drops-x-neighbour", "dfs_tree.py",
           "reversed(stack[top:])", "reversed(stack[top + 1:])",
           ("tests/test_dfs_tree.py",)),
    Mutant("stop-at-first-empty-set", "dfs_tree.py",
           "                q[v] = q.get(v, path) & path\n",
           "                q[v] = q.get(v, path) & path\n"
           "                if not q[v]:\n                    return q, groups\n",
           (DFS + "test_a_row_that_fails_the_walk_outranks_an_emptied_candidate_set",)),
    Mutant("final-check-when-all-forced", "dfs_tree.py",
           "    for seq in profile.rows if q else ():", "    for seq in profile.rows:",
           (DFS + "test_dfs_walks_per_row_of_a_yes",)),
    Mutant("assign-highest-candidate", "dfs_tree.py",
           "(candidates & -candidates).bit_length() - 1", "candidates.bit_length() - 1",
           (DIGEST + "[recognizers]",)),
    Mutant("gs-witness-highest-out-neighbour", "attachment.py",
           "(v, (out & -out).bit_length() - 1)", "(v, out.bit_length() - 1)",
           (DIGEST + "[recognizers]",)),
    # the peel that builds the attachment digraph
    Mutant("peel-ignores-runner-up-disagreement", "attachment.py",
           "                    if 0 <= u != seq[h]:\n", "                    if False:\n",
           (ATTACHMENT + "test_mask_built_arcs_match_blocker_sets",)),
    Mutant("peel-skips-runner-up-precedence", "attachment.py",
           "if place[u] > place[v] and seq[h] != v:", "if False:",
           (ATTACHMENT + "test_mask_built_arcs_match_blocker_sets",)),
    Mutant("peel-final-pair-high-to-low", "attachment.py",
           "        out[high] = 0\n        out[low] = 1 << high if low < high else 0\n",
           "        out[low] = 0\n        out[high] = 1 << low if low < high else 0\n",
           (ATTACHMENT + "test_digraph_shape_for_a_single_ordering",)),
    # the four-point scan and the frontier check
    Mutant("frontier-bfs-drops-from-the-back", "verifiers.py",
           "paradigm is not Paradigm.DFS, paradigm is not Paradigm.BFS",
           "paradigm is not Paradigm.DFS, True",
           (VERIFIERS + "test_frontier_check_equals_four_point_beyond_connected_graphs",)),
    Mutant("dfs-witness-scope-before-b", "verifiers.py",
           "_SCOPE_BEFORE_B = (Paradigm.GS, Paradigm.MNS)",
           "_SCOPE_BEFORE_B = (Paradigm.GS, Paradigm.MNS, Paradigm.DFS)",
           (VERIFIERS + "test_frontier_check_equals_four_point_beyond_connected_graphs",)),
    # the exact oracles
    Mutant("prufer-edges-largest-leaf", "oracles.py",
           "        leaf = degree.index(1)  # the smallest leaf\n        edges",
           "        leaf = len(degree) - 1 - degree[::-1].index(1)\n        edges",
           (ORACLES + "test_prufer_maps_match_the_textbook_decoding",)),
    Mutant("prufer-code-largest-leaf", "oracles.py",
           "        leaf = degree.index(1)  # the smallest leaf\n        parent",
           "        leaf = len(degree) - 1 - degree[::-1].index(1)\n        parent",
           (ORACLES + "test_prufer_code_inverts_the_decoder",
            ORACLES + "test_row_rooted_oracles_match_the_exhaustive_reference")),
    Mutant("tree-oracle-reverse-prufer-order", "oracles.py",
           "sorted(_growing_trees(profile.rows))",
           "sorted(_growing_trees(profile.rows), reverse=True)",
           (DIGEST + "[tree_oracle]",)),
    Mutant("walk-drops-growth-test", "oracles.py",
           "                if not masks[u] & before:\n", "                if False:\n",
           (ORACLES + "test_every_growing_tree_replays_every_row_under_gs",)),
    Mutant("tree-per-candidate", "oracles.py",
           "        adj = neighbour_lists(n, pairs)\n",
           "        adj = neighbour_lists(n, pairs)\n"
           "        Tree.from_pairs(profile.universe, pairs)\n",
           (ORACLES + "test_candidates_build_no_values",)),
    Mutant("degree-bound-off-by-one", "oracles.py",
           "m.bit_count() > k", "m.bit_count() > k + 1",
           (ORACLES + "test_bounded_oracle_matches_the_exhaustive_reference",)),
    Mutant("subsets-in-reverse", "oracles.py",
           "        for subset in combinations(all_edges, size):\n",
           "        for subset in reversed([*combinations(all_edges, size)]):\n",
           (ORACLES + "test_bounded_oracle_matches_the_exhaustive_reference",)),
    Mutant("graph-search-drops-growth-check", "oracles.py",
           "            if all(_grows_connected(masks, seq) for seq in seqs):\n",
           "            if True:\n",
           (ORACLES + "test_bounded_oracle_matches_the_exhaustive_reference",)),
    # ordering enumeration
    Mutant("enumeration-pushes-smallest-first", "traversals.py",
           "        for v in reversed(rest):\n", "        for v in rest:\n",
           (TRAVERSALS + "test_enumeration_lists_the_replaying_permutations_in_order",
            DIGEST + "[enumeration]")),
    Mutant("enumeration-advances-before-copying", "traversals.py",
           "        lowest, *rest = _candidates(labels, mns)\n"
           "        for v in reversed(rest):\n"
           "            child = labels[:]\n"
           "            _visit(child, adj, v, op, x)\n"
           "            stack.append((prefix + (v,), child))\n"
           "        _visit(labels, adj, lowest, op, x)  # the lowest branch takes the list over\n",
           "        lowest, *rest = _candidates(labels, mns)\n"
           "        _visit(labels, adj, lowest, op, x)\n"
           "        for v in reversed(rest):\n"
           "            child = labels[:]\n"
           "            _visit(child, adj, v, op, x)\n"
           "            stack.append((prefix + (v,), child))\n",
           (TRAVERSALS + "test_enumeration_lists_the_replaying_permutations_in_order",)),
    # the label engine
    Mutant("visit-updates-visited-neighbours", "traversals.py",
           "        if labels[u] >= 0:\n            labels[u] = op(labels[u], x)\n",
           "        labels[u] = op(labels[u], x)\n",
           (TRAVERSALS + "test_candidates_match_labels_recomputed_from_scratch",)),
    Mutant("replays-accepts-a-visited-vertex", "traversals.py",
           "        if label < 0 or (label in map(", "        if (label in map(",
           (TRAVERSALS + "test_replays_refuses_a_repeated_index",)),
    Mutant("mns-candidacy-by-le", "traversals.py",
           "if label >= 0 and label not in map(label.__and__, filter(label.__lt__, labels))",
           "if label >= 0 and label not in map(label.__and__, filter(label.__le__, labels))",
           (TRAVERSALS + "test_candidates_match_labels_recomputed_from_scratch",)),
    # values and names
    Mutant("names-never-refused", "core.py",
           '        raise FormatError(f"invalid vertex name {name!r}")\n', "        pass\n",
           (CORE + "test_universe_rejects_names_the_file_formats_cannot_hold",)),
    Mutant("names-refused-only-for-spaces", "core.py",
           "str.split(name) != [name]", '" " in name',
           (CORE + "test_the_name_rule_over_every_code_point",)),
    Mutant("universe-keeps-duplicate-names", "core.py",
           '        if len(self._index_map) != self.n:\n'
           '            raise FormatError("duplicate vertex names")\n', "",
           (CORE + "test_universe_rejects_duplicate_names",)),
    Mutant("profile-takes-an-empty-universe", "core.py",
           "        if not universe.n:\n", "        if False:\n",
           (CORE + "test_profile_rows_must_be_permutations",
            ORACLES + "test_caps_and_bad_bounds")),
    Mutant("profile-skips-the-row-check", "core.py",
           "        for row in rows:\n            _check_row(full, row)\n", "",
           (CORE + "test_profile_rows_must_be_permutations",)),
    Mutant("parser-skips-the-line-check", "core.py",
           "rows.append(_check_row(full, uni.indices(line.split())))",
           "rows.append(uni.indices(line.split()))",
           (CORE + "test_parser_names_the_first_bad_line",)),
    Mutant("unused-public-function", "core.py",
           "def _check_name(name: str) -> str:\n",
           "def unused_helper() -> None:\n    pass\n\n\ndef _check_name(name: str) -> str:\n",
           (TOOLING
            + "test_every_unexported_public_function_has_a_user_in_the_package_or_perfbench",)),
    # reduction files: every builder's rows and the file header
    Mutant("forward-validation-ignores-the-edge-bound", "reductions.py",
           "        if support.m > instance.k:\n", "        if False:\n",
           ("tests/test_reductions.py::"
            "test_forward_validation_refuses_a_support_over_the_edge_bound",)),
    Mutant("emit-without-header", "reductions.py",
           "        return header + emit_profile(", "        return emit_profile(",
           (DIGEST + "[reductions]",)),
    Mutant("dfs-edge-rows-swapped", "reductions.py",
           "for x, y in ((a, b), (b, a))", "for x, y in ((b, a), (a, b))",
           (DIGEST + "[reductions]",)),
    Mutant("dfs-tail-z-t-last", "reductions.py",
           "tails = [[zt, *_minus(Z, {zt})] for zt in Z]",
           "tails = [[*_minus(Z, {zt}), zt] for zt in Z]",
           (DIGEST + "[reductions]",)),
    Mutant("lexdfs-closing-t-before-u", "reductions.py",
           '*tail, U[p], T[p], "z"]', '*tail, T[p], U[p], "z"]',
           (DIGEST + "[reductions]",)),
    Mutant("bfs-degree-tails-swapped", "reductions.py",
           "tails = [[Z[0], *Z[2:], Z[1]], [Z[1], *Z[2:], Z[0]]]",
           "tails = [[Z[1], *Z[2:], Z[0]], [Z[0], *Z[2:], Z[1]]]",
           (DIGEST + "[reductions]",)),
    Mutant("bfs-rest-keeps-group-t", "reductions.py",
           "if gi not in (a, b, t)", "if gi not in (a, b)",
           (DIGEST + "[reductions]",)),
    Mutant("bfs-size-guard-off", "reductions.py",
           "and n > 6:", "and n > 10:",
           ("tests/test_reductions.py::test_construction_preconditions",)),
    Mutant("pair-rows-lead-with-b", "reductions.py",
           "[[a, b, *_minus(clique, (a, b)), *tail]", "[[b, a, *_minus(clique, (a, b)), *tail]",
           (DIGEST + "[reductions]",)),
    Mutant("lead-rows-others-before-middle", "reductions.py",
           "*middle, *others, *tail]", "*others, *middle, *tail]",
           (DIGEST + "[reductions]",)),
    Mutant("mcs-endpoint-order-swapped", "reductions.py",
           "for u, w in ((i, j), (j, i)):", "for u, w in ((j, i), (i, j)):",
           (DIGEST + "[reductions]",)),
    Mutant("mns-rows-swapped", "reductions.py",
           "for a, b in ((V[i], V[j]), (V[j], V[i]))]",
           "for a, b in ((V[j], V[i]), (V[i], V[j]))]",
           (DIGEST + "[reductions]",)),
    Mutant("mns-degree-rows-reversed", "reductions.py",
           "    for zi in Z:\n", "    for zi in reversed(Z):\n",
           (DIGEST + "[reductions]",)),
]


def run(mutant: Mutant, workdir: Path) -> tuple[str | None, float]:
    """(pytest's line for the first failing test, or None if the mutant
    survives; seconds) for one mutant, applied to a fresh copy of src/."""
    copy = workdir / mutant.name
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    target = copy / "searchorder" / mutant.file
    text = target.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text does not occur exactly once in {mutant.file}")
    target.write_text(text.replace(mutant.old, mutant.new))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(copy)},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    seconds = time.perf_counter() - start
    if done.returncode not in (0, 1):  # 1: a test failed; anything else is a broken run
        raise SystemExit(f"{mutant.name}: pytest exited {done.returncode}\n{done.stdout}")
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return (failed[0] if failed else "FAILED") if done.returncode else None, seconds


def main(words: list[str]) -> int:
    chosen = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    survivors = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for mutant in chosen:
            failed, seconds = run(mutant, Path(tmp))
            verdict = "killed " if failed else "SURVIVED"
            print(f"{verdict} {seconds:5.1f} s  {mutant.name}", flush=True)
            if failed:
                print(f"    {failed}")
            else:
                survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

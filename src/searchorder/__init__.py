"""Preference orderings as graph-search traversals.

Generate, enumerate and verify search orderings of seven paradigms
(generic search, BFS, DFS, LexBFS, LexDFS, MCS, MNS); recognize tree
supports for generic search and DFS in polynomial time; solve the
bounded-support problems exactly at small scale; and build the
Vertex-Cover hardness instances for the six non-generic paradigms.

Every public name is imported from its module on first use, so
`import searchorder` loads none of its modules.
"""

from importlib import import_module

_EXPORTS = {
    "core": (
        "CapError", "FormatError", "Graph", "NotATreeError", "Ordering", "Profile", "Tree",
        "Universe", "emit_graph", "emit_profile", "parse_bounded_profile", "parse_graph",
    ),
    "traversals": (
        "DEFAULT_ENUMERATION_CAP", "Paradigm", "complete_prefix", "enumerate_orderings",
        "generate_ordering", "is_partial_ordering",
    ),
    "verifiers": ("certify_by_simulation", "is_s_ordering", "satisfies_property"),
    "attachment": (
        "DISCONNECTED_ATTACHMENT", "UNREALIZABLE_ATTACHMENT", "AttachmentDigraph",
        "RecognitionOutcome", "build_attachment_digraph", "enumerate_gs_tree_supports",
        "forced_subtree", "recognize_gs_tree",
    ),
    "dfs_tree": (
        "EMPTY_Q", "FINAL_VERIFY_FAILED", "RESTRICTION_FAILS", "TSTAR_NOT_SUPPORT_FULL",
        "recognize_dfs_tree",
    ),
    "oracles": (
        "OracleResult", "all_tree_supports", "brute_force_graph_support",
        "brute_force_tree_support", "enumerate_labeled_trees", "min_vertex_cover",
    ),
    "reductions": ("ReductionInstance", "build_drone", "reduce", "validate_forward"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    """Import the module that defines a public name, then cache the name here."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


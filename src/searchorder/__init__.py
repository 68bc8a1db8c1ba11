"""Preference orderings as graph-search traversals.

Generate, enumerate and verify search orderings of seven paradigms
(generic search, BFS, DFS, LexBFS, LexDFS, MCS, MNS); recognize tree
supports for generic search and DFS in polynomial time; solve the
bounded-support problems exactly at small scale; and build the
Vertex-Cover hardness instances for the six non-generic paradigms.
"""

from .core import (
    CapError,
    FormatError,
    Graph,
    NotATreeError,
    Ordering,
    Profile,
    Tree,
    Universe,
    emit_graph,
    emit_profile,
    parse_bounded_profile,
    parse_graph,
    universe_of,
)
from .traversals import (
    DEFAULT_ENUMERATION_CAP,
    LabelState,
    Paradigm,
    complete_prefix,
    enumerate_orderings,
    generate_ordering,
)
from .verifiers import (
    PARADIGM_PROPERTY,
    FourPointProperty,
    certify_by_simulation,
    is_partial_ordering,
    is_s_ordering,
    satisfies_property,
)
from .attachment import (
    DISCONNECTED_ATTACHMENT,
    UNREALIZABLE_ATTACHMENT,
    AttachmentDigraph,
    RecognitionOutcome,
    blocker_set,
    build_attachment_digraph,
    enumerate_gs_tree_supports,
    forced_subtree,
    recognize_gs_tree,
)
from .dfs_tree import (
    EMPTY_Q,
    FINAL_VERIFY_FAILED,
    RESTRICTION_FAILS,
    TSTAR_NOT_SUPPORT_FULL,
    recognize_dfs_tree,
)
from .oracles import (
    DegBounded,
    EdgeBounded,
    OracleResult,
    ProblemKind,
    TreeSupport,
    all_tree_supports,
    brute_force_graph_support,
    brute_force_tree_support,
    enumerate_labeled_trees,
    min_vertex_cover,
)
from .reductions import (
    Drone,
    ReductionInstance,
    build_drone,
    reduce,
    validate_forward,
)

__all__ = [
    "CapError", "FormatError", "Graph", "NotATreeError", "Ordering", "Profile", "Tree",
    "Universe", "emit_graph", "emit_profile", "parse_bounded_profile", "parse_graph",
    "universe_of",
    "DEFAULT_ENUMERATION_CAP", "LabelState", "Paradigm", "complete_prefix",
    "enumerate_orderings", "generate_ordering",
    "PARADIGM_PROPERTY", "FourPointProperty", "certify_by_simulation",
    "is_partial_ordering", "is_s_ordering", "satisfies_property",
    "DISCONNECTED_ATTACHMENT", "UNREALIZABLE_ATTACHMENT", "AttachmentDigraph",
    "RecognitionOutcome", "blocker_set", "build_attachment_digraph",
    "enumerate_gs_tree_supports", "forced_subtree", "recognize_gs_tree",
    "EMPTY_Q", "FINAL_VERIFY_FAILED", "RESTRICTION_FAILS", "TSTAR_NOT_SUPPORT_FULL",
    "recognize_dfs_tree",
    "DegBounded", "EdgeBounded", "OracleResult", "ProblemKind", "TreeSupport",
    "all_tree_supports", "brute_force_graph_support", "brute_force_tree_support",
    "enumerate_labeled_trees", "min_vertex_cover",
    "Drone", "ReductionInstance", "build_drone", "reduce", "validate_forward",
]

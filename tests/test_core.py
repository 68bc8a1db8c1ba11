"""Core types (universe, graph, tree, ordering, profile) and text formats."""

import re
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from searchorder import (
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
)
from searchorder.core import _check_name

from conftest import assert_as_if_checked, graphs, profiles


def path3():
    return Graph.build("abc", [("a", "b"), ("b", "c")])


def c4():
    return Graph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


# ---------------------------------------------------------------- universe


def test_universe_preserves_declaration_order():
    uni = Universe("dbca")
    assert uni.n == 4
    assert [uni.names[i] for i in range(4)] == list("dbca")
    assert uni.index("c") == 2


def test_universe_takes_any_iterable_of_names():
    uni = Universe(("a", "b", "c"))
    assert Universe("abc") == Universe(["a", "b", "c"]) == Universe(x for x in "abc") == uni
    assert Universe("abc").names == ("a", "b", "c")


def test_universe_rejects_duplicate_names():
    with pytest.raises(FormatError):
        Universe(["a", "b", "a"])


@pytest.mark.parametrize("name", ["", "a b", "a:b", "a#b"])
def test_universe_rejects_names_the_file_formats_cannot_hold(name):
    with pytest.raises(FormatError, match=f"invalid vertex name {name!r}"):
        Universe(["x", name])


def test_the_name_rule_over_every_code_point():
    # a file splits its lines at exactly the characters for which str.isspace holds
    refused = set()
    for c in map(chr, range(sys.maxunicode + 1)):
        try:
            _check_name("a" + c + "b")
        except FormatError:
            refused.add(c)
    assert refused == {c for c in map(chr, range(sys.maxunicode + 1))
                       if c.isspace() or c in ":#"}
    for name in ["", " ", "\t\n", "\u3000", "a\x85"]:
        with pytest.raises(FormatError, match=re.escape(f"invalid vertex name {name!r}")):
            _check_name(name)


@pytest.mark.parametrize("name, error", [
    (None, FormatError), (0, FormatError), ([], FormatError),
    (5, TypeError), (1.5, TypeError), (["a", "b"], TypeError),
    (b"ab", TypeError), (("a", "b"), TypeError),
])
def test_universe_refuses_names_that_are_not_strings(name, error):
    with pytest.raises(error):
        Universe(["x", name])


# ---------------------------------------------------------------- graph


def test_graph_accessors():
    g = path3()
    assert (g.n, g.m) == (3, 2)
    assert g.edge_names() == (("a", "b"), ("b", "c"))
    assert g.degree("b") == 2 and g.degree("a") == 1
    assert g.max_degree() == 2


def test_duplicate_edge_declarations_collapse():
    assert Graph.build("ab", [("a", "b"), ("b", "a")]).m == 1


def test_graph_rejects_self_loops():
    with pytest.raises(ValueError, match="self-loop at 'a'"):
        Graph.build("ab", [("a", "a")])
    with pytest.raises(ValueError, match="self-loop at 'b'"):
        Graph.build("ab").with_edges([("a", "b"), ("b", "b")])


def test_graph_rejects_unknown_endpoints():
    with pytest.raises(KeyError):
        Graph.build("ab", [("a", "c")])
    uni = Universe("abc")
    for pair in ((1, 0), (0, 3)):
        with pytest.raises(ValueError, match=rf"bad edge pair \({pair[0]}, {pair[1]}\)"):
            Graph(uni, frozenset({pair}))


def test_with_edges():
    g = Graph.build("abcd", [])
    assert g.with_edges([("a", "b")]).m == 1
    assert g.with_edges([("a", "b")]).with_edges([("d", "a"), ("b", "a")]).edges == {
        (0, 1), (0, 3)
    }
    # original untouched
    assert g.m == 0


def test_is_connected():
    assert path3().is_connected()
    assert not Graph.build("abc", [("a", "b")]).is_connected()
    assert Graph.build("a", []).is_connected()
    # every graph with n <= 6 and m <= n + 1 (cycles, forests, isolated
    # vertices) against a plain search from vertex 0
    checked = 0
    for n in range(7):
        uni = Universe("abcdef"[:n])
        for m in range(n + 2):
            for edges in combinations(combinations(range(n), 2), m):
                seen = {0} if n else set()
                stack = [*seen]
                while stack:
                    u = stack.pop()
                    for a, b in edges:
                        w = b if a == u else a if b == u else None
                        if w is not None and w not in seen:
                            seen.add(w)
                            stack.append(w)
                assert Graph(uni, frozenset(edges)).is_connected() == (len(seen) == n), edges
                checked += 1
    assert checked == 17307


# ---------------------------------------------------------------- tree


def test_tree_rejects_cycles_and_forests():
    with pytest.raises(NotATreeError):
        Tree.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(NotATreeError):
        Tree.build("abcd", [("a", "b"), ("c", "d")])
    with pytest.raises(NotATreeError):
        Tree(c4().universe, c4().edges)
    with pytest.raises(NotATreeError):  # n - 1 edges: a cycle plus an isolated vertex
        Tree.build("abcd", [("a", "b"), ("b", "c"), ("a", "c")])


def test_tree_build_is_graph_build_with_the_tree_check():
    tree = Tree.build("abc", [("a", "b"), ("b", "c")])
    assert type(tree) is Tree and tree.edges == path3().edges
    with pytest.raises(NotATreeError):
        Tree.build("abc", [("a", "b")])
    with pytest.raises(KeyError):
        Tree.build("ab", [("a", "c")])
    with pytest.raises(ValueError, match="self-loop at 'a'"):
        Tree.build("ab", [("a", "a")])
    with pytest.raises(FormatError):
        Tree.build(["a", "a"])


# ---------------------------------------------------------------- ordering


def test_ordering_lists_names_in_visit_order():
    o = Ordering.from_names(Universe("abc"), ("b", "a", "c"))
    assert o.names == ("b", "a", "c") and o.seq == (1, 0, 2)


def test_ordering_rejects_repeats_and_strangers():
    uni = Universe("abc")
    with pytest.raises(ValueError):
        Ordering.from_names(uni, ("a", "a", "b"))
    with pytest.raises(ValueError, match="ordering must list every vertex exactly once"):
        Ordering.from_names(uni, ("a", "b"))
    with pytest.raises(KeyError):
        Ordering.from_names(uni, ("a", "x", "b"))


# ---------------------------------------------------------------- profile


def test_profile_rows_must_be_permutations():
    with pytest.raises(ValueError):
        Profile.build("abc", [("a", "b", "c"), ("a", "b")])
    uni = Universe("abc")
    with pytest.raises(ValueError, match="a profile needs at least one ordering"):
        Profile(uni, ())
    with pytest.raises(ValueError, match="every vertex exactly once"):
        Profile(uni, ((0, 1, 2), (0, 1, 1)))
    empty = Universe(())
    with pytest.raises(ValueError, match="need at least one vertex"):
        Profile(empty, ((),))
    with pytest.raises(ValueError, match="need at least one vertex"):
        Profile.build([], [[]])


def test_profile_keeps_duplicate_rows():
    p = Profile.build("abc", [("a", "b", "c"), ("a", "b", "c")])
    assert len(p) == 2


def test_profile_iteration_order():
    p = Profile.build("abc", [("c", "b", "a"), ("a", "b", "c")])
    assert [o.names for o in p] == [("c", "b", "a"), ("a", "b", "c")]
    for sigma in p:
        assert_as_if_checked(sigma)


# ---------------------------------------------------------------- formats


def test_graph_format_shape():
    assert emit_graph(path3()) == "vertices: a b c\na b\nb c\n"


def test_profile_format_with_bound_and_meta():
    p = Profile.build("abc", [("a", "b", "c")])
    text = "# family: dfs-edge\n" + emit_profile(p, k=13)
    assert text.startswith("# family: dfs-edge\nvertices: a b c\nk: 13\n")
    parsed, k = parse_bounded_profile(text)
    assert k == 13
    assert [o.names for o in parsed] == [("a", "b", "c")]


def test_parse_bounded_profile_without_bound():
    _, k = parse_bounded_profile("vertices: a b\na b\n")
    assert k is None


@pytest.mark.parametrize(
    "text",
    [
        "a b\n",  # missing header
        "vertices: a b\na c\n",  # unknown vertex
        "vertices: a b\na b c\n",  # malformed edge line
        "vertices:\n",  # no vertices
    ],
)
def test_parse_graph_rejects_malformed_input(text):
    with pytest.raises(FormatError):
        parse_graph(text)


def test_parse_profile_rejects_short_rows():
    with pytest.raises(FormatError):
        parse_bounded_profile("vertices: a b c\na b\n")
    with pytest.raises(FormatError):
        parse_bounded_profile("vertices: a b\nk: x\na b\n")
    with pytest.raises(FormatError, match="profile has no orderings"):
        parse_bounded_profile("vertices: a b\n")


@pytest.mark.parametrize("lines", [("a b a", "a z b"), ("a z b", "a b a")])
def test_parser_names_the_first_bad_line(lines):
    # a repeated vertex on one line, an unknown one on the other: either
    # way round, the error names line 1
    with pytest.raises(FormatError) as info:
        parse_bounded_profile("vertices: a b c\n" + "\n".join(lines) + "\n")
    assert str(info.value) == f"line is not a permutation of the universe: {lines[0]!r}"


@given(graphs(connected=False))
@settings(max_examples=150, deadline=None)
def test_graph_text_round_trip(g):
    back = parse_graph(emit_graph(g))
    assert back.universe.names == g.universe.names
    assert sorted(back.edge_names()) == sorted(g.edge_names())


@given(profiles(), st.one_of(st.none(), st.integers(0, 99)))
@settings(max_examples=150, deadline=None)
def test_profile_text_round_trip(p, k):
    back, kback = parse_bounded_profile(emit_profile(p, k=k))
    assert kback == k
    assert back.universe.names == p.universe.names
    assert [o.names for o in back] == [o.names for o in p]
    for sigma in back:
        assert_as_if_checked(sigma)

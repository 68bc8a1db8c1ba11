"""Vertex-cover hardness instance generators and forward validation."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from searchorder import (
    FormatError,
    Graph,
    Ordering,
    Paradigm,
    ReductionInstance,
    build_drone,
    is_s_ordering,
    min_vertex_cover,
    parse_bounded_profile,
    reduce,
    satisfies_property,
    validate_forward,
)
from searchorder import reductions
from searchorder.reductions import ATTACH_VERTEX

from conftest import k4, petersen

# vertex count, ordering count and bound for every family, frozen from the
# closed-form counts and revalidated by the forward checks below
PINS = {
    (Paradigm.DFS, "edge"): (9, 22, 13),
    (Paradigm.DFS, "deg"): (13, 34, 7),
    (Paradigm.BFS, "edge"): (69, 2880, 73),
    (Paradigm.BFS, "deg"): (89, 5760, 23),
    (Paradigm.LEXBFS, "edge"): (69, 2880, 73),
    (Paradigm.LEXBFS, "deg"): (89, 5760, 23),
    (Paradigm.MCS, "edge"): (42, 512, 515),
    (Paradigm.MCS, "deg"): (42, 512, 40),
    (Paradigm.MNS, "edge"): (38, 228, 231),
    (Paradigm.MNS, "deg"): (42, 232, 24),
}
PETERSEN_PINS = {
    (Paradigm.LEXDFS, "edge"): (56, 225, 291),
    (Paradigm.LEXDFS, "deg"): (56, 225, 21),
}


def test_drone_shapes():
    for (p, q), (n, m) in {(1, 1): (2, 1), (2, 1): (4, 3), (3, 2): (9, 9), (4, 5): (24, 26)}.items():
        drone = build_drone(p, q)
        assert (drone.n, drone.m) == (n, m)


def test_drone_structure():
    g = build_drone(3, 2)
    clique = [v for v in g.universe.names if g.degree(v) > 1]
    assert len(clique) == 3
    for v in clique:
        pendants = [u for e in g.edge_names() if v in e for u in e if g.degree(u) == 1]
        assert len(pendants) == 2
    with pytest.raises(ValueError):
        build_drone(0, 1)


@pytest.mark.parametrize("key", sorted(PINS, key=str))
def test_instance_shapes_on_the_clique(key):
    paradigm, bound = key
    inst = reduce(paradigm, bound, k4(), 3)
    n, rows, k = PINS[key]
    assert inst.profile.universe.n == n
    assert len(inst.profile) == rows
    assert inst.k == k
    assert len({o.names for o in inst.profile}) == rows  # rows are distinct
    # the gadget carries no source edges -- those enter only through the
    # cover chosen at validation time -- so it need not be connected here
    assert inst.gadget.universe == inst.profile.universe
    assert ATTACH_VERTEX in inst.gadget.universe


@pytest.mark.parametrize("key", sorted(PETERSEN_PINS, key=str))
def test_instance_shapes_on_petersen(key):
    paradigm, bound = key
    inst = reduce(paradigm, bound, petersen(), 6)
    assert (inst.profile.universe.n, len(inst.profile), inst.k) == PETERSEN_PINS[key]


# the acceptance suite validates every family; here the fast ones, and
# two of the many-row BFS/LexBFS families below
@pytest.mark.parametrize(
    "paradigm,bound",
    [
        (Paradigm.DFS, "edge"),
        (Paradigm.DFS, "deg"),
        (Paradigm.MCS, "edge"),
        (Paradigm.MCS, "deg"),
        (Paradigm.MNS, "edge"),
        (Paradigm.MNS, "deg"),
    ],
)
def test_forward_validation_with_minimum_cover(paradigm, bound):
    inst = reduce(paradigm, bound, k4(), 3)
    assert validate_forward(inst, min_vertex_cover(k4()))


@pytest.mark.parametrize("paradigm,bound", [(Paradigm.BFS, "deg"), (Paradigm.LEXBFS, "edge")])
def test_forward_validation_on_many_rows(paradigm, bound):
    inst = reduce(paradigm, bound, k4(), 3)
    cover = random.Random(7).choice(list(itertools.combinations("abcd", 3)))
    assert validate_forward(inst, cover)


def test_forward_validation_for_every_minimum_cover():
    inst = reduce(Paradigm.DFS, "edge", k4(), 3)
    for cover in itertools.combinations("abcd", 3):
        assert validate_forward(inst, cover)


@pytest.mark.parametrize("paradigm,bound,source,kappa", [
    (Paradigm.LEXBFS, "edge", k4(), 3),
    (Paradigm.LEXDFS, "edge", petersen(), 6),
    (Paradigm.MNS, "deg", k4(), 3),
], ids=["lexbfs-edge", "lexdfs-edge", "mns-deg"])
def test_perturbed_rows_verify_as_the_four_point_scan_says(paradigm, bound, source, kappa):
    # the support validate_forward builds, and rows with one adjacent pair
    # swapped; some stay orderings of the paradigm and some do not, and 100
    # rows hold some on which BFS, DFS or GS answers differently
    inst = reduce(paradigm, bound, source, kappa)
    cover = min_vertex_cover(source)
    support = inst.gadget.with_edges(
        (ATTACH_VERTEX, f"v{source.universe.index(v) + 1}") for v in cover)
    rng = random.Random(8)
    answers = set()
    for sigma in rng.sample(list(inst.profile), 100):
        seq = list(sigma.seq)
        i = rng.randrange(len(seq) - 1)
        seq[i], seq[i + 1] = seq[i + 1], seq[i]
        swapped = Ordering(support.universe, tuple(seq))
        expected, _ = satisfies_property(support, swapped, paradigm)
        assert is_s_ordering(support, swapped, paradigm) == expected, (sigma.names, i)
        answers.add(expected)
    assert answers == {True, False}


def test_lexdfs_edge_bound_validates_on_petersen():
    inst = reduce(Paradigm.LEXDFS, "edge", petersen(), 6)
    assert validate_forward(inst, min_vertex_cover(petersen()))


def test_lexdfs_degree_bound_overshoots_on_petersen():
    # every ordering verifies, but the bound k = 21 only accounts for the
    # attachment vertex while gadget-internal vertices reach degree 31,
    # so the degree variant of this family is unsatisfiable as stated
    inst = reduce(Paradigm.LEXDFS, "deg", petersen(), 6)
    assert not validate_forward(inst, min_vertex_cover(petersen()))


def test_forward_validation_refuses_a_support_over_the_edge_bound():
    # a cover of kappa vertices gives a support of exactly k = kappa + |E(G')|
    # edges, so the same instance with k one lower must be refused
    inst = reduce(Paradigm.DFS, "edge", k4(), 3)
    cover = min_vertex_cover(k4())
    assert len(cover) == inst.kappa and validate_forward(inst, cover)
    tight = ReductionInstance(*inst._values()[:-1], inst.k - 1)
    assert not validate_forward(tight, cover)


def test_validate_rejects_non_covers():
    inst = reduce(Paradigm.DFS, "edge", k4(), 3)
    with pytest.raises(ValueError):
        validate_forward(inst, ("a", "b"))  # misses edge c-d
    with pytest.raises(ValueError):
        validate_forward(inst, ("a", "b", "x"))
    inst2 = reduce(Paradigm.DFS, "edge", k4(), 2)  # kappa below cover number
    with pytest.raises(ValueError):
        validate_forward(inst2, ("a", "b", "c"))


def test_construction_preconditions(monkeypatch):
    with pytest.raises(ValueError):
        reduce(Paradigm.DFS, "edge", k4(), 1)
    with pytest.raises(ValueError):
        reduce(Paradigm.GS, "edge", k4(), 3)
    with pytest.raises(ValueError):
        reduce(Paradigm.DFS, "edges", k4(), 3)
    with pytest.raises(ValueError):
        reduce(Paradigm.LEXDFS, "edge", k4(), 3)  # needs n >= 10
    for kappa in (2, 10):
        with pytest.raises(ValueError, match="needs 3 <= kappa <= n - 1"):
            reduce(Paradigm.LEXDFS, "edge", petersen(), kappa)
    with pytest.raises(ValueError, match="needs n >= 4 source vertices"):
        reduce(Paradigm.DFS, "edge", Graph.build([]), 3)  # vacuously 3-regular
    path = Graph.build("abc", [("a", "b"), ("b", "c")])
    with pytest.raises(ValueError):
        reduce(Paradigm.LEXDFS, "edge", path, 2)  # needs 3-regular input
    # BFS writes 4m·C(n², 2) rows of about n³ names: refuse n = 10 before building any
    monkeypatch.setattr(reductions, "build_drone", lambda p, q: pytest.fail("rows built"))
    for paradigm, bound in itertools.product((Paradigm.BFS, Paradigm.LEXBFS), ("edge", "deg")):
        with pytest.raises(ValueError, match="needs n <= 6 source vertices"):
            reduce(paradigm, bound, petersen(), 3)
    text = _with_meta(DFS_EDGE_K4, "paradigm", "lexbfs")
    text = _with_meta(text, "source-vertices", " ".join(petersen().universe.names))
    text = _with_meta(text, "source-edges", " ".join(map(" ".join, petersen().edge_names())))
    with pytest.raises(FormatError, match="^instance metadata: the construction needs n <= 6"):
        ReductionInstance.parse(text)


def test_emit_parse_round_trip():
    inst = reduce(Paradigm.DFS, "edge", k4(), 3)
    text = inst.emit()
    assert "# family: dfs-edge" in text
    profile, k = parse_bounded_profile(text)
    assert k == inst.k
    assert [o.names for o in profile] == [o.names for o in inst.profile]


def test_generation_is_deterministic():
    a = reduce(Paradigm.MNS, "deg", k4(), 3).emit()
    b = reduce(Paradigm.MNS, "deg", k4(), 3).emit()
    assert a == b


# ------------------------------------------------------ instance files


@pytest.mark.parametrize(
    "key", sorted(PINS, key=str) + sorted(PETERSEN_PINS, key=str), ids=lambda k: f"{k[0]}-{k[1]}"
)
def test_instance_file_round_trip(key):
    paradigm, bound = key
    inst = reduce(paradigm, bound, *((k4(), 3) if key in PINS else (petersen(), 6)))
    text = inst.emit()
    back = ReductionInstance.parse(text)
    assert back.family == inst.family == f"{paradigm.value}-{bound}"
    assert (back.profile, back.k) == (inst.profile, inst.k)
    assert back.emit() == text


def _with_meta(text, key, value):
    """text with the '# key:' line set to value, or dropped if value is None."""
    lines = []
    for line in text.splitlines():
        if line.startswith(f"# {key}:"):
            if value is None:
                continue
            line = f"# {key}: {value}"
        lines.append(line)
    return "\n".join(lines) + "\n"


DFS_EDGE_K4 = reduce(Paradigm.DFS, "edge", k4(), 3).emit()


@pytest.mark.parametrize(
    "key,value",
    [
        ("source-edges", "a b a q"),  # unknown vertex
        ("source-edges", "a a"),  # self-loop
        ("source-edges", "a b c"),  # odd token count
        ("source-vertices", "a a b c"),  # duplicate name
        ("kappa", "three"),
        ("kappa", "1"),
        ("paradigm", "depth"),
        ("paradigm", "gs"),
        ("paradigm", "DFS"),
        ("bound", "edges"),
        ("paradigm", None),
        ("family", "mns-deg"),
        ("attach", "q"),
    ],
)
def test_tampered_metadata_is_a_format_error_naming_the_field(key, value):
    with pytest.raises(FormatError, match=key):
        ReductionInstance.parse(_with_meta(DFS_EDGE_K4, key, value))


def test_a_row_off_the_construction_is_a_format_error():
    lines = DFS_EDGE_K4.splitlines()
    row = lines[-1].split()
    row[0], row[1] = row[1], row[0]
    tampered = "\n".join(lines[:-1] + [" ".join(row)]) + "\n"
    assert parse_bounded_profile(tampered)[0] != parse_bounded_profile(DFS_EDGE_K4)[0]
    with pytest.raises(FormatError, match="does not match its declared construction"):
        ReductionInstance.parse(tampered)


METADATA_KEYS = ("family", "paradigm", "bound", "kappa", "attach",
                 "source-vertices", "source-edges")


@given(
    st.lists(
        st.tuples(
            st.sampled_from(METADATA_KEYS),
            st.one_of(
                st.none(),
                st.text(alphabet="abcdqz0123-_' :#", max_size=12),
                st.sampled_from(["dfs", "gs", "lexdfs", "edge", "deg", "3", "-1", "a b", "a"]),
            ),
        ),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=150, deadline=None)
def test_fuzzed_metadata_parses_or_is_a_format_error(edits):
    text = DFS_EDGE_K4
    for key, value in edits:
        text = _with_meta(text, key, value)
    try:
        inst = ReductionInstance.parse(text)
    except FormatError:
        return
    assert (inst.profile, inst.k) == parse_bounded_profile(text)

"""Value semantics shared by the package's immutable types: equality and
hashing by fields within one class, no assignment or deletion, a repr
that names the fields, constructor defaults, and cached attributes."""

import pytest

from searchorder import (
    AttachmentDigraph,
    Graph,
    OracleResult,
    Ordering,
    Paradigm,
    Profile,
    RecognitionOutcome,
    ReductionInstance,
    Tree,
    Universe,
    build_attachment_digraph,
    reduce,
)
from searchorder.core import Value

from conftest import k4


class Box(Value):
    _fields = ("k",)

    def __init__(self, k: int) -> None:
        self.__dict__["k"] = k


class Bag(Box):
    """Box's field under a subclass, which never equals a Box."""


class Empty(Value):
    """A value with no fields."""


def path3(cls=Graph):
    return cls.build("abc", [("a", "b"), ("b", "c")])


# (class, a factory that builds a fresh value on each call, field names)
VALUES = [
    (Universe, lambda: Universe("abc"), ("names",)),
    (Graph, path3, ("universe", "edges")),
    (Tree, lambda: path3(Tree), ("universe", "edges")),
    (Ordering, lambda: Ordering.from_names(Universe("abc"), "bac"), ("universe", "seq")),
    (Profile, lambda: Profile.build("abc", ["abc", "bac"]), ("universe", "rows")),
    (
        RecognitionOutcome,
        lambda: RecognitionOutcome(True, path3(Tree)),
        ("is_yes", "tree", "reason"),
    ),
    (
        AttachmentDigraph,
        lambda: build_attachment_digraph(Profile.build("abc", ["abc", "bac"])),
        ("universe", "out_masks"),
    ),
    (Empty, Empty, ()),
    (OracleResult, lambda: OracleResult(True, path3()), ("is_yes", "witness")),
    (
        ReductionInstance,
        lambda: reduce(Paradigm.DFS, "edge", k4(), 3),
        ("paradigm", "bound", "kappa", "source", "gadget", "profile", "k"),
    ),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, make, fields):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object() and a.__eq__(object()) is NotImplemented
    trusted = cls._trusted(*a._values())  # the same fields, unchecked
    assert (trusted, hash(trusted), repr(trusted)) == (a, hash(a), repr(a))


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, make, fields):
    value = make()
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=IDS)
def test_repr_names_the_class_and_its_fields(cls, make, fields):
    value = make()
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{cls.__name__}({shown})"


def test_repr_spells_out_small_values():
    assert repr(Universe("ab")) == "Universe(names=('a', 'b'))"
    assert repr(Box(3)) == "Box(k=3)"
    assert repr(Empty()) == "Empty()"
    assert repr(OracleResult(False)) == "OracleResult(is_yes=False, witness=None)"


def test_values_of_different_classes_never_compare_equal():
    graph, tree = path3(), path3(Tree)
    assert (graph.universe, graph.edges) == (tree.universe, tree.edges)
    assert graph != tree and tree != graph
    assert Box(3) != Bag(3) and Bag(3) != Box(3)
    assert Box(3) != Box(4)
    assert Empty() == Empty()


def test_constructor_defaults():
    outcome = RecognitionOutcome(False)
    assert (outcome.is_yes, outcome.tree, outcome.reason) == (False, None, None)
    assert RecognitionOutcome(False, reason="X") == RecognitionOutcome(False, None, "X")
    assert RecognitionOutcome(False, reason="X") != RecognitionOutcome(False)
    assert OracleResult(False).witness is None
    assert OracleResult(False) == OracleResult(False, None)
    with pytest.raises(ValueError):  # Value.__init__ takes every field, in order
        AttachmentDigraph(Universe("ab"))


def test_cached_attributes_are_computed_once_and_ignored_by_equality():
    uni = Universe("abc")
    assert uni._index_map is uni._index_map
    assert uni._index_map == {"a": 0, "b": 1, "c": 2}
    graph = path3()
    assert graph._adj is graph._adj
    ordering = Ordering.from_names(uni, "bac")
    assert ordering.names is ordering.names == ("b", "a", "c")
    assert (uni, graph, ordering) == (Universe("abc"), path3(), Ordering(uni, (1, 0, 2)))
    assert hash(ordering) == hash(Ordering(Universe("abc"), (1, 0, 2)))

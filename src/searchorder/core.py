"""Value types shared across the package: vertex universes, graphs,
orderings, profiles, and trees, plus the text file formats.

All values are immutable: each value type is a `Value`, whose fields
are set once by its constructor and decide equality, hashing and repr.
Two values are equal iff they agree on names, name order and structure.
Inside a value a vertex is its 0-based index in the universe. A profile
holds index rows, each checked once, by `Profile(universe, rows)`,
`Profile.build` or the parser; iterating it gives `Ordering`s. Only
values the package built or checked skip checks, via `Value._trusted`.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Iterable, Iterator, Sequence


class FormatError(ValueError):
    """Raised when a graph/profile/instance text cannot be parsed."""


class CapError(RuntimeError):
    """Raised when an enumeration would exceed its configured size cap."""


class NotATreeError(RuntimeError):
    """Raised when a graph expected to be a tree is not one."""


# the bounded-support problems: a support with at most k edges, or of maximum degree at most k
EDGE, DEG = "edge", "deg"


def _check_name(name: str) -> str:
    # Names appear as whitespace-separated tokens in files, so they may not contain
    # whitespace (str.isspace, where str.split cuts), ':' (headers) or '#' (comments).
    if not name or str.split(name) != [name] or ":" in name or "#" in name:
        raise FormatError(f"invalid vertex name {name!r}")
    return name


class Value:
    """An immutable value. A subclass names its fields in `_fields`; they
    decide equality (within one class), hashing and repr, and are written
    once through `__dict__`: by `Value.__init__`, in order, or by a subclass
    `__init__` that checks them or fills defaults. `_trusted` skips those
    checks, for fields the package built or has already checked. Instances
    keep their `__dict__`, so `cached_property` works on them."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values, strict=True))

    @classmethod
    def _trusted(cls, *values):
        self = object.__new__(cls)
        self.__dict__.update(zip(cls._fields, values))
        return self

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({shown})"


class Universe(Value):
    """An ordered set of vertex names; declaration order fixes indices.
    One name-to-index map serves every lookup, and its size is the duplicate test."""

    _fields = ("names",)

    def __init__(self, names: Iterable[str]) -> None:
        self.__dict__["names"] = tuple(map(_check_name, names))
        if len(self._index_map) != self.n:
            raise FormatError("duplicate vertex names")

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def _index_map(self) -> dict[str, int]:
        return dict(zip(self.names, range(self.n)))

    def index(self, name: str) -> int:
        try:
            return self._index_map[name]
        except KeyError:
            raise KeyError(f"unknown vertex {name!r}") from None

    def indices(self, names: Iterable[str]) -> tuple[int, ...]:
        try:
            return tuple(map(self._index_map.__getitem__, names))
        except KeyError as exc:
            raise KeyError(f"unknown vertex {exc.args[0]!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index_map


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def adjacency_masks(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Symmetric neighbour bitmasks of the n-vertex graph with these index pairs."""
    masks = [0] * n
    for u, v in pairs:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def neighbour_lists(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Neighbour index lists of the n-vertex graph with these index pairs."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _index_pairs(uni: Universe, edges: Iterable[tuple[str, str]]) -> Iterator[tuple[int, int]]:
    """Name-pair edges as index pairs (u, v), u < v; a self-loop is an error."""
    index = uni.index
    for a, b in edges:
        u, v = index(a), index(b)
        if u == v:
            raise ValueError(f"self-loop at {a!r}")
        yield (u, v) if u < v else (v, u)


class Graph(Value):
    """A finite simple undirected graph over a vertex universe.

    Edges are stored as index pairs (u, v) with u < v; per-vertex
    neighbor index sets are built from them on first use.
    """

    _fields = ("universe", "edges")

    def __init__(self, universe: Universe, edges: frozenset[tuple[int, int]]) -> None:
        n = universe.n
        for u, v in edges:
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge pair ({u}, {v})")
        self.__dict__.update(universe=universe, edges=edges)

    @classmethod
    def build(cls, names: Iterable[str], edges: Iterable[tuple[str, str]] = ()) -> Graph:
        uni = Universe(names)
        return cls(uni, frozenset(_index_pairs(uni, edges)))

    @classmethod
    def from_pairs(cls, universe: Universe, pairs: Iterable[tuple[int, int]]):
        """The graph with the given index-pair edges, in either orientation."""
        return cls(universe, frozenset([(a, b) if a < b else (b, a) for a, b in pairs]))

    @property
    def n(self) -> int:
        return self.universe.n

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _adj(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, neighbour_lists(self.n, self.edges)))

    def degree(self, name: str) -> int:
        return len(self._adj[self.universe.index(name)])

    def max_degree(self) -> int:
        return max((len(s) for s in self._adj), default=0)

    def edge_names(self) -> tuple[tuple[str, str], ...]:
        """Edges as name pairs, sorted by index pair."""
        names = self.universe.names
        return tuple([(names[u], names[v]) for u, v in sorted(self.edges)])

    def with_edges(self, extra: Iterable[tuple[str, str]]) -> Graph:
        return Graph(self.universe, self.edges.union(_index_pairs(self.universe, extra)))

    def is_connected(self) -> bool:
        """Whether the graph has at most one component, counted by
        union-find with path halving over the edge pairs (no `_adj`)."""
        root = list(range(self.n))
        parts = self.n
        for u, v in self.edges:
            while root[u] != u:
                root[u] = u = root[root[u]]
            while root[v] != v:
                root[v] = v = root[root[v]]
            if u != v:
                root[u] = v
                parts -= 1
        return parts <= 1


class Tree(Graph):
    """A connected acyclic graph. Construction validates tree-ness."""

    def __init__(self, universe: Universe, edges: frozenset[tuple[int, int]]) -> None:
        super().__init__(universe, edges)
        if self.m != max(self.n - 1, 0) or not self.is_connected():
            raise NotATreeError("graph is not a tree")


def _check_row(full: set[int], row: Sequence[int]) -> Sequence[int]:
    """The row, if it lists each index of `full`, the set 0..n-1, once: the
    one permutation rule for orderings, profile rows and profile lines."""
    if len(row) != len(full) or set(row) != full:
        raise ValueError("ordering must list every vertex exactly once")
    return row


class Ordering(Value):
    """A permutation of a universe's vertices, leftmost visited first."""

    _fields = ("universe", "seq")

    def __init__(self, universe: Universe, seq: tuple[int, ...]) -> None:
        self.__dict__.update(universe=universe, seq=_check_row(set(range(universe.n)), seq))

    @classmethod
    def from_names(cls, universe: Universe, names: Sequence[str]) -> Ordering:
        return cls(universe, universe.indices(names))

    @cached_property
    def names(self) -> tuple[str, ...]:
        names = self.universe.names
        return tuple([names[i] for i in self.seq])


class Profile(Value):
    """A non-empty tuple of index rows over one non-empty universe, each
    checked once to be a permutation; iterating gives them as `Ordering`s."""

    _fields = ("universe", "rows")

    def __init__(self, universe: Universe, rows: tuple[tuple[int, ...], ...]) -> None:
        if not universe.n:
            raise ValueError("need at least one vertex")
        if not rows:
            raise ValueError("a profile needs at least one ordering")
        full = set(range(universe.n))
        for row in rows:
            _check_row(full, row)
        self.__dict__.update(universe=universe, rows=rows)

    @classmethod
    def build(cls, names: Iterable[str], rows: Iterable[Sequence[str]]) -> Profile:
        uni = Universe(names)
        return cls(uni, tuple(map(uni.indices, rows)))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Ordering]:
        return map(partial(Ordering._trusted, self.universe), self.rows)


# ---------------------------------------------------------------------------
# file formats
#
# Graph file:     "vertices: a b c" header, then one "u v" line per edge.
# Profile file:   "vertices: a b c" header, then one ordering per line.
# Either may contain blank lines and full-line "#" comments; an optional
# "k: <int>" header after the vertices line carries a solution bound.
# ---------------------------------------------------------------------------


def _significant_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append(line)
    return out


def _parse_header(lines: list[str]) -> tuple[Universe, int | None, list[str]]:
    if not lines or not lines[0].startswith("vertices:"):
        raise FormatError("first line must be 'vertices: <names>'")
    names = lines[0][len("vertices:"):].split()
    if not names:
        raise FormatError("empty vertex list")
    uni = Universe(names)
    rest = lines[1:]
    k: int | None = None
    if rest and rest[0].startswith("k:"):
        tok = rest[0][len("k:"):].strip()
        try:
            k = int(tok)
        except ValueError:
            raise FormatError(f"bad bound line {rest[0]!r}") from None
        rest = rest[1:]
    return uni, k, rest


def parse_graph(text: str) -> Graph:
    uni, _k, rest = _parse_header(_significant_lines(text))
    edges = []
    for line in rest:
        toks = line.split()
        if len(toks) != 2:
            raise FormatError(f"edge line needs two names: {line!r}")
        edges.append((toks[0], toks[1]))
    try:
        return Graph(uni, frozenset(_index_pairs(uni, edges)))
    except (KeyError, ValueError) as exc:  # unknown endpoint, self-loop
        raise FormatError(exc.args[0]) from None


def emit_graph(g: Graph) -> str:
    lines = ["vertices: " + " ".join(g.universe.names)]
    lines.extend(f"{a} {b}" for a, b in g.edge_names())
    return "\n".join(lines) + "\n"


def parse_bounded_profile(text: str) -> tuple[Profile, int | None]:
    """Parse a profile file; also returns the optional 'k:' bound."""
    uni, k, rest = _parse_header(_significant_lines(text))
    if not rest:
        raise FormatError("profile has no orderings")
    rows, full = [], set(range(uni.n))
    for line in rest:
        try:
            rows.append(_check_row(full, uni.indices(line.split())))
        except (KeyError, ValueError):  # unknown, missing or repeated vertex
            raise FormatError(f"line is not a permutation of the universe: {line!r}") from None
    return Profile._trusted(uni, tuple(rows)), k


def emit_profile(p: Profile, k: int | None = None) -> str:
    lines = ["vertices: " + " ".join(p.universe.names)]
    if k is not None:
        lines.append(f"k: {k}")
    names = p.universe.names
    lines.extend(" ".join([names[i] for i in row]) for row in p.rows)
    return "\n".join(lines) + "\n"

"""Vertex-Cover reduction instance generators.

For a 3-regular source graph G and a cover budget kappa, `reduce` emits
a profile of orderings plus a bound k such that the profile admits a
support graph within the bound iff G has a vertex cover of size kappa.
Each family's builder gives the rows and the gadget graph G', which has
a designated vertex z. Adding the kappa edges between z and a cover S
of G turns G' into a support H, which is what `validate_forward`
checks; so k = kappa + |E(G')| for an edge bound and kappa + deg_G'(z)
for a degree bound.

Source vertices are renamed canonically to v1..vn (in declaration
order); gadget vertices get family-specific names. All helper
sequences (V, E, F, W, T, U, Z and per-vertex pendant groups) are
fixed in declaration/index order, and constructions that let us
"choose" an auxiliary edge always take the lowest-index qualifying
one, so instances are fully deterministic.

MCS and MNS share two row shapes. Pair rows (`_pair_rows`): for each
pair a, b of a clique, a, b, the rest of the clique, then a fixed tail.
Lead rows (`_lead_rows`): for each lead x, then each u of a clique U,
x, u, the rest of U, a fixed middle, the other leads, then a fixed tail.
DFS builds each row around `rest`: V∪F without some source vertices and
their leaves. Each LexDFS prefix ends in a `closing`: the rest of V,
then some named V's, U[p], T[p] and z.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Sequence, TypeVar

from .core import (
    DEG, EDGE, FormatError, Graph, Profile, Value, emit_profile, parse_bounded_profile,
)
from .traversals import Paradigm, complete_prefix
from .verifiers import is_s_ordering

ATTACH_VERTEX = "z"  # the gadget vertex a cover is attached to

_T = TypeVar("_T")


def build_drone(p: int, q: int) -> Graph:
    """A clique of p vertices, each carrying q pendant leaves."""
    if p < 1 or q < 0:
        raise ValueError("drone needs p >= 1 and q >= 0")
    core = [f"v{i}" for i in range(1, p + 1)]
    names = list(core)
    edges = _clique(core)
    for i, v in enumerate(core, start=1):
        for j in range(1, q + 1):
            leaf = f"f{i}_{j}"
            names.append(leaf)
            edges.append((v, leaf))
    return Graph.build(names, edges)


def _metadata(meta: dict[str, str], key: str, read: Callable[[str], _T]) -> _T:
    """One metadata field, converted by `read`; a missing or malformed
    field is a FormatError that names it."""
    if key not in meta:
        raise FormatError(f"instance file lacks '# {key}:' metadata")
    try:
        return read(meta[key])
    except (KeyError, ValueError) as exc:  # unknown vertex, self-loop, bad int or name
        raise FormatError(f"bad '# {key}:' metadata: {exc.args[0]}") from None


def _name_pairs(value: str) -> list[tuple[str, str]]:
    tokens = value.split()
    if len(tokens) % 2:
        raise ValueError("expected name pairs")
    return list(zip(tokens[::2], tokens[1::2]))


class ReductionInstance(Value):
    _fields = ("paradigm", "bound", "kappa", "source", "gadget", "profile", "k")

    @property
    def family(self) -> str:
        return f"{self.paradigm.value}-{self.bound}"

    def meta(self) -> dict[str, str]:
        return {
            "family": self.family,
            "paradigm": self.paradigm.value,
            "bound": self.bound,
            "kappa": str(self.kappa),
            "attach": ATTACH_VERTEX,
            "source-vertices": " ".join(self.source.universe.names),
            "source-edges": " ".join(f"{a} {b}" for a, b in self.source.edge_names()),
        }

    def emit(self) -> str:
        header = "".join(f"# {key}: {value}\n" for key, value in self.meta().items())
        return header + emit_profile(self.profile, k=self.k)

    @staticmethod
    def parse(text: str) -> "ReductionInstance":
        """Rebuild an instance from the metadata of its file and check the
        file's profile and bound against it. Any malformed or inconsistent
        field raises FormatError."""
        meta: dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if line.startswith("#") and ":" in line:
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
        profile, k = parse_bounded_profile(text)
        paradigm = _metadata(meta, "paradigm", Paradigm)
        bound = _metadata(meta, "bound", str)
        kappa = _metadata(meta, "kappa", int)
        empty = _metadata(meta, "source-vertices", lambda v: Graph.build(v.split()))
        source = _metadata(meta, "source-edges", lambda v: empty.with_edges(_name_pairs(v)))
        try:
            instance = reduce(paradigm, bound, source, kappa)
        except ValueError as exc:  # no construction for these fields
            raise FormatError(f"instance metadata: {exc}") from None
        for key in ("family", "attach"):
            if _metadata(meta, key, str) != instance.meta()[key]:
                raise FormatError(f"bad '# {key}:' metadata: expected {instance.meta()[key]}")
        if instance.profile != profile or instance.k != k:
            raise FormatError("instance file does not match its declared construction")
        return instance


def _minus(seq: Sequence[str], drop: Iterable[str]) -> list[str]:
    gone = set(drop)
    return [x for x in seq if x not in gone]


def _clique(names: Sequence[str]) -> list[tuple[str, str]]:
    return list(combinations(names, 2))


def _pair_rows(clique: list[str], tail: list[str]) -> list[list[str]]:
    """Per pair a, b of the clique: a, b, the rest of the clique, the tail."""
    return [[a, b, *_minus(clique, (a, b)), *tail] for a, b in combinations(clique, 2)]


def _lead_rows(leads: list[str], pool: list[str], middle: list[str], tail: list[str]):
    """Per lead x, per u of the pool: x, u, the rest, the middle, the other leads, the tail."""
    rows = []
    for x in leads:
        others = _minus(leads, (x,))
        rows += ([x, u, *_minus(pool, (u,)), *middle, *others, *tail] for u in pool)
    return rows


def _check_source(source: Graph, kappa: int, paradigm: Paradigm) -> None:
    for v in source.universe.names:
        if source.degree(v) != 3:
            raise ValueError(f"source graph must be 3-regular; {v!r} has degree {source.degree(v)}")
    n = source.n
    if paradigm in (Paradigm.BFS, Paradigm.LEXBFS) and n > 6:  # 4m·C(n², 2) rows of ~n³ names
        raise ValueError("the construction needs n <= 6 source vertices")
    if paradigm is Paradigm.LEXDFS:
        if n < 10:
            raise ValueError("the construction needs n >= 10 source vertices")
        if not 3 <= kappa <= n - 1:
            raise ValueError("the construction needs 3 <= kappa <= n - 1")
        return
    if n < 4:
        raise ValueError("the construction needs n >= 4 source vertices")
    if kappa < 2:
        raise ValueError("the construction needs kappa >= 2")


# --- DFS ------------------------------------------------------------------


def _dfs_instance(V: list[str], edge_list: list[tuple[int, int]], bound: str):
    n = len(V)
    F = [f"f{i}" for i in range(1, n + 1)]
    VF = [x for pair in zip(V, F) for x in pair]
    Z = [f"z{t}" for t in range(1, n + 1)] if bound == DEG else []
    # the degree bound's rows end in z_t and the rest of Z, one row per t
    tails = [[zt, *_minus(Z, {zt})] for zt in Z] or [[]]
    universe = VF + ["z"] + Z
    edges = _clique(V) + list(zip(V, F)) + [("z", zt) for zt in Z]

    def rest(*hs: int) -> list[str]:
        """V∪F without the source vertices hs and their leaves."""
        return _minus(VF, [x for h in hs for x in (V[h], F[h])])

    rows = [[V[i], V[j], F[j], *rest(i, j), "z", *Z, F[i]] for i, j in combinations(range(n), 2)]
    for i in range(n):
        rows += ([F[i], V[i], *rest(i), "z", *tail] for tail in tails)
    for a, b in edge_list:
        rows += ([*rest(a, b), V[x], V[y], F[y], "z", *Z, F[x]] for x, y in ((a, b), (b, a)))

    return Graph.build(universe, edges), rows


# --- BFS / LexBFS ---------------------------------------------------------


def _bfs_instance(V: list[str], edge_list: list[tuple[int, int]], bound: str):
    n = len(V)
    nsq = n * n
    drone = build_drone(n, nsq)  # the clique V, each v{i} with pendants f{i}_1..f{i}_nsq
    names = list(drone.universe.names)
    fgroups = [names[n + i * nsq : n + (i + 1) * nsq] for i in range(n)]
    Z = [f"z{q}" for q in range(1, n * (n + 1) + 1)] if bound == DEG else []
    # the degree bound's one canonical pendant pair, both orders
    tails = [[Z[0], *Z[2:], Z[1]], [Z[1], *Z[2:], Z[0]]] if Z else [[]]
    universe = names + ["z"] + Z
    edges = [*drone.edge_names(), *(("z", zq) for zq in Z)]

    rows: list[list[str]] = []
    for a, b in edge_list:
        t = min(x for x in range(n) if x not in (a, b))
        others = _minus(V, {V[a], V[b], V[t]})
        rest = [f for gi, group in enumerate(fgroups) if gi not in (a, b, t) for f in group]
        # per lead endpoint: its name, its pendants and the rows' fixed back part
        sides = [
            (V[lead], fgroups[lead],
             [V[trail], *others, V[t], "z", *fgroups[trail], *rest, *fgroups[t]])
            for lead, trail in ((a, b), (b, a))
        ]
        for p, q in combinations(range(nsq), 2):
            for v, group, back in sides:
                for r, s in ((p, q), (q, p)):
                    row = [group[r], v, *_minus(group, {group[r], group[s]}), group[s], *back]
                    rows.extend(row + tail for tail in tails)

    return Graph.build(universe, edges), rows


# --- LexDFS ----------------------------------------------------------------


def _lexdfs_instance(V: list[str], edge_list: list[tuple[int, int]], bound: str):
    n, m = len(V), len(edge_list)
    T = [f"t{p}" for p in range(1, m + 1)]
    W = [f"w{p}" for p in range(1, m + 1)]
    U = [f"u{p}" for p in range(1, m + 1)]
    universe = V + T + W + U + ["z"]
    edges = _clique(V)
    for p, (i, j) in enumerate(edge_list):
        edges.extend(
            [
                (T[p], V[i]),
                (T[p], V[j]),
                (W[p], T[p]),
                (W[p], V[i]),
                (U[p], T[p]),
                ("z", T[p]),
            ]
        )
        edges.extend((U[p], v) for v in V)
    gadget = Graph.build(universe, edges)

    def closing(ends: Sequence[int], p: int, *first: int) -> list[str]:
        """The rest of V without first and ends, then ends, U[p], T[p] and z."""
        tail = [V[e] for e in ends]
        return [*_minus(V, [*(V[f] for f in first), *tail]), *tail, U[p], T[p], "z"]

    def disjoint_closing(i: int, j: int) -> list[str]:
        """closing(edge, p, i, j) for the lowest edge p that misses v_i and v_j."""
        for p, edge in enumerate(edge_list):
            if i not in edge and j not in edge:
                return closing(edge, p, i, j)
        raise AssertionError("3-regular graph on >= 10 vertices always has one")

    prefixes = [[V[i], V[j], *disjoint_closing(i, j)] for i, j in combinations(range(n), 2)]
    for p, (i, j) in enumerate(edge_list):
        tail = disjoint_closing(i, j)
        prefixes += [[T[p], V[i], U[p], V[j], *tail], [T[p], V[j], U[p], V[i], *tail],
                     [T[p], V[i], W[p], V[j], U[p], *tail]]
    prefixes += [closing(edge, p) for p, edge in enumerate(edge_list)]
    for p, (i, j) in enumerate(edge_list):
        prefixes += ([V[i], V[j], *closing((h,), p, i, j)] for h in range(n) if h not in (i, j))

    rows = [list(complete_prefix(gadget, prefix, Paradigm.LEXDFS).names) for prefix in prefixes]
    return gadget, rows


# --- MCS --------------------------------------------------------------------


def _mcs_instance(V: list[str], edge_list: list[tuple[int, int]], bound: str):
    n, m = len(V), len(edge_list)
    W = [f"w{x}" for x in range(1, 2 * m + 1)]
    fgroups = [[f"f{i}_{p}" for p in range(1, n - i + 2)] for i in range(1, n + 1)]
    fall = [f for group in fgroups for f in group]
    rest_u = [f"u{x}" for x in range(1, 4 * n)]  # U without z
    U = rest_u + ["z"]
    universe = V + W + fall + U

    edges = _clique(V) + _clique(U)
    for x, (i, j) in enumerate(edge_list):
        edges += [(w, V[e]) for w in (W[x], W[m + x]) for e in (i, j)]
    for i in range(n):
        edges.extend((V[i], f) for f in fgroups[i])
    edges.extend((u, w) for u in U for w in W)
    edges.extend((u, f) for u in U for f in fall)

    wof = [[w for x, w in enumerate(W) if i in edge_list[x % m]] for i in range(n)]

    rows = _pair_rows(V, ["z", W[0], W[m], *rest_u, *_minus(W, {W[0], W[m]}), *fall])
    rows += _pair_rows(U, W + fall + V)
    rows += _lead_rows(W, U, [], fall + V)
    rows += _lead_rows(fall, U, [], W + V)
    for i in range(n):
        for f in fgroups[i]:
            # F_i stragglers still count v_i among visited neighbors, so they
            # outrank the off-vertex w's and must come first.
            rows.append(
                [V[i], f, "z"]
                + rest_u
                + wof[i]
                + _minus(fgroups[i], {f})
                + _minus(W, wof[i])
                + _minus(fall, fgroups[i])
                + _minus(V, {V[i]})
            )
    for x, (i, j) in enumerate(edge_list):
        near = {*wof[i], *wof[j]}
        wij = [w for w in W if w in near]
        # same pivot as above: F_i and F_j sit one visited neighbor above the
        # w's that touch neither endpoint, so they go before W - W[i,j]
        shared = (
            rest_u
            + _minus(wij, {W[x], W[m + x]})
            + fgroups[i]
            + fgroups[j]
            + _minus(W, wij)
            + _minus(fall, fgroups[i] + fgroups[j])
            + _minus(V, {V[i], V[j]})
        )
        for u, w in ((i, j), (j, i)):
            for lead, last in ((W[x], W[m + x]), (W[m + x], W[x])):
                rows.append([lead, V[u], V[w], "z", last] + shared)

    return Graph.build(universe, edges), rows


# --- MNS --------------------------------------------------------------------


def _mns_instance(V: list[str], edge_list: list[tuple[int, int]], bound: str):
    n, m = len(V), len(edge_list)
    T = [f"t{x}" for x in range(1, m + 1)]
    W = [f"w{x}" for x in range(1, 2 * m + 1)]
    F = [f"f{i}" for i in range(1, n + 1)]
    rest_u = [f"u{x}" for x in range(1, 3 * n)]  # U without z
    U = rest_u + ["z"]
    Z = [f"z{i}" for i in range(1, n + 1)] if bound == DEG else []
    universe = V + T + W + F + U + Z

    edges = _clique(V) + _clique(U) + list(zip(V, F))
    for x, (i, j) in enumerate(edge_list):  # triangles v_i w_x t_x and v_j w_{m+x} t_x
        edges += [(V[i], W[x]), (W[x], T[x]), (T[x], V[i])]
        edges += [(V[j], W[m + x]), (W[m + x], T[x]), (T[x], V[j])]
    edges.extend((u, t) for u in U for t in T)
    edges.extend((u, f) for u in U if u != "z" for f in F)
    edges.extend(("z", zi) for zi in Z)

    tof = [[T[x] for x, e in enumerate(edge_list) if i in e] for i in range(n)]

    rows = _pair_rows(V, ["z", *T, *rest_u, *F, *W])
    rows += _pair_rows(U, T + F + V + W)
    rows += _lead_rows(T, U, [], F + V + W)
    rows += _lead_rows(F, rest_u, ["z", *T], V + W)
    for i in range(n):
        # z must follow the first incident-edge vertex immediately: once one
        # t is visited, z's neighborhood strictly dominates the other t's
        # whenever v_i lies in the cover.
        rows.append(
            [V[i], F[i]]
            + rest_u
            + [tof[i][0], "z"]
            + tof[i][1:]
            + _minus(T, tof[i])
            + _minus(F, {F[i]})
            + _minus(V, {V[i]})
            + W
        )
    for x, (i, j) in enumerate(edge_list):
        near = {*tof[i], *tof[j]}
        tij = [t for t in T if t in near]
        omega = (
            rest_u
            + _minus(tij, {T[x]})
            + _minus(T, tij)
            + [F[i], F[j]]
            + _minus(F, {F[i], F[j]})
            + _minus(V, {V[i], V[j]})
        )
        for w, a, b in ((W[x], V[i], V[j]), (W[m + x], V[j], V[i])):
            rest = omega + _minus(W, {w})
            rows += [[w, T[x], a, b, "z", *rest], [w, a, T[x], b, "z", *rest]]
        rows += [[T[x], a, b, "z", *omega, *W] for a, b in ((V[i], V[j]), (V[j], V[i]))]

    rows = [row + Z for row in rows]
    for zi in Z:
        rows.append([zi, "z"] + _minus(Z, {zi}) + rest_u + T + F + V + W)
    return Graph.build(universe, edges), rows


_BUILDERS = {
    Paradigm.DFS: _dfs_instance,
    Paradigm.BFS: _bfs_instance,
    Paradigm.LEXBFS: _bfs_instance,  # same construction, different verifier
    Paradigm.LEXDFS: _lexdfs_instance,
    Paradigm.MCS: _mcs_instance,
    Paradigm.MNS: _mns_instance,
}


def reduce(paradigm: Paradigm, bound: str, source: Graph, kappa: int) -> ReductionInstance:
    """Build the hardness instance for the paradigm and bound kind."""
    if bound not in (EDGE, DEG):
        raise ValueError(f"bound must be '{EDGE}' or '{DEG}'")
    if paradigm not in _BUILDERS:
        raise ValueError(f"no construction exists for paradigm {paradigm.value!r}")
    _check_source(source, kappa, paradigm)
    # every builder names source vertex i as V[i] and edges by index pairs
    V = [f"v{i}" for i in range(1, source.n + 1)]
    gadget, rows = _BUILDERS[paradigm](V, sorted(source.edges), bound)
    profile = Profile(gadget.universe, tuple(map(gadget.universe.indices, rows)))
    k = kappa + (gadget.m if bound == EDGE else gadget.degree(ATTACH_VERTEX))
    return ReductionInstance(paradigm, bound, kappa, source, gadget, profile, k)


def validate_forward(instance: ReductionInstance, cover: Iterable[str]) -> bool:
    """Check the cover-to-support direction: attach the cover to z and
    verify the bound and every ordering against the resulting graph.

    Raises if `cover` is not a vertex cover of the source graph of size
    at most kappa; returns False if the support fails the bound or some
    ordering does not verify.
    """
    cover_list = list(dict.fromkeys(cover))
    src = instance.source
    for v in cover_list:
        if v not in src.universe:
            raise ValueError(f"{v!r} is not a source vertex")
    chosen = set(cover_list)
    for a, b in src.edge_names():
        if a not in chosen and b not in chosen:
            raise ValueError(f"cover misses edge {a}-{b}")
    if len(cover_list) > instance.kappa:
        raise ValueError("cover exceeds kappa")
    vmap = {name: f"v{i}" for i, name in enumerate(src.universe.names, start=1)}
    support = instance.gadget.with_edges((ATTACH_VERTEX, vmap[v]) for v in cover_list)
    if instance.bound == EDGE:
        if support.m > instance.k:
            return False
    elif support.max_degree() > instance.k:
        return False
    return all(
        is_s_ordering(support, sigma, instance.paradigm) for sigma in instance.profile
    )

"""Seeded input generators owned by the benchmark.

Everything here produces plain Python data (names, rows, edge lists);
nothing imports `searchorder`, so edits to the package or its test
fixtures cannot change a workload. The same seed always gives the same
inputs: every generator draws from its own `random.Random`.

Random walks pick uniformly among all legal next vertices, so a tree
yields many different orderings per root (the package's own
`generate_ordering` breaks ties by lowest index and yields one).
"""

from __future__ import annotations

import itertools
import random

# planted-large: rows per profile
PLANTED_KS = (2, 8)
# exact-small: distinct rows per random profile, as in the Tier-1 corpus
ROW_COUNTS = (2, 3, 4)
# exact-small graphs: chance of each non-tree pair being an edge
EXTRA_EDGE_P = 0.5


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def random_recursive_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges of a random recursive tree: vertex i joins a uniform earlier vertex."""
    return [(rng.randrange(i), i) for i in range(1, n)]


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def random_dfs_run(rng: random.Random, adj: list[list[int]]) -> list[int]:
    """A DFS preorder from a random root with a random child order at each vertex."""
    root = rng.randrange(len(adj))
    order: list[int] = []
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        children = [w for w in adj[u] if w not in seen]
        rng.shuffle(children)
        seen.update(children)
        # on a tree the unvisited neighbours of u are exactly its children,
        # and each subtree is finished before the next child is popped
        stack.extend(reversed(children))
    return order


def random_gs_run(rng: random.Random, adj: list[list[int]]) -> list[int]:
    """A generic-search run: each step visits a uniform frontier vertex."""
    root = rng.randrange(len(adj))
    order = [root]
    seen = {root}
    frontier = list(adj[root])
    seen.update(frontier)
    while frontier:
        i = rng.randrange(len(frontier))
        frontier[i], frontier[-1] = frontier[-1], frontier[i]
        v = frontier.pop()
        order.append(v)
        fresh = [w for w in adj[v] if w not in seen]
        seen.update(fresh)
        frontier.extend(fresh)
    return order


def replays_gs(adj: list[list[int]], row: list[int]) -> bool:
    """Whether row is a generic-search ordering of the connected graph."""
    seen = {row[0]}
    for v in row[1:]:
        if not any(w in seen for w in adj[v]):
            return False
        seen.add(v)
    return len(seen) == len(adj) == len(row)


def replays_dfs_on_tree(adj: list[list[int]], row: list[int]) -> bool:
    """Whether row is a DFS ordering of the tree: each vertex must hang
    off the most recently visited vertex that still has unvisited
    neighbours."""
    if sorted(row) != list(range(len(adj))):
        return False
    pending = [len(a) for a in adj]  # unvisited neighbours per vertex
    stack: list[int] = []
    for v in row:
        while stack and pending[stack[-1]] == 0:
            stack.pop()
        if (v not in adj[stack[-1]]) if stack else v != row[0]:
            return False
        for w in adj[v]:
            pending[w] -= 1
        stack.append(v)
    return True


def shuffled_names(rng: random.Random, n: int, prefix: str = "v") -> list[str]:
    """Vertex names in a random universe order, so index-order tie-breaks
    inside the program do not line up with the generator's labels."""
    names = [f"{prefix}{i}" for i in range(n)]
    rng.shuffle(names)
    return names


def planted_profiles(seed: int, plan: dict[int, int]) -> list[dict]:
    """For each n in plan, each k in PLANTED_KS and plan[n] random recursive
    trees, one profile of k random DFS runs and one of k random GS runs
    over the same tree."""
    rng = rng_for("planted-large", seed)
    out = []
    for n, trees in plan.items():
        for k in PLANTED_KS:
            for t in range(trees):
                edges = random_recursive_tree(rng, n)
                adj = adjacency(n, edges)
                names = shuffled_names(rng, n)
                for kind, walk in (("dfs", random_dfs_run), ("gs", random_gs_run)):
                    rows = [walk(rng, adj) for _ in range(k)]
                    out.append({
                        "key": f"n{n}-k{k}-t{t}-{kind}",
                        "n": n, "k": k, "kind": kind,
                        "names": names,
                        "edges": edges,
                        "rows": [[names[i] for i in row] for row in rows],
                        "index_rows": rows,
                    })
    return out


def random_profiles(seed: int, counts: dict[int, int]) -> list[dict]:
    """For each n in counts and each row count in ROW_COUNTS, counts[n]
    profiles over n vertices made of that many distinct uniform random
    rows. Fixed shares of each (n, rows) keep the latency percentiles
    from jumping between clusters from one seed to the next."""
    rng = rng_for("exact-small:profiles", seed)
    out = []
    for n, count in counts.items():
        for want in ROW_COUNTS:
            for c in range(count):
                names = shuffled_names(rng, n, "x")
                seen: set[tuple[str, ...]] = set()
                while len(seen) < want:
                    seen.add(tuple(rng.sample(names, n)))
                out.append({"key": f"n{n}-r{want}-{c}", "n": n, "names": names,
                            "rows": sorted(seen)})
    return out


def connected_graphs(seed: int, counts: dict[int, int]) -> list[dict]:
    """counts[n] connected graphs: a random spanning tree plus each other
    pair independently with probability EXTRA_EDGE_P."""
    rng = rng_for("exact-small:graphs", seed)
    out = []
    for n, count in counts.items():
        for c in range(count):
            names = shuffled_names(rng, n, "g")
            tree = {tuple(sorted(e)) for e in random_recursive_tree(rng, n)}
            extra = {
                pair for pair in itertools.combinations(range(n), 2)
                if pair not in tree and rng.random() < EXTRA_EDGE_P
            }
            edges = sorted(tree | extra)
            out.append({
                "key": f"n{n}-{c}", "n": n, "names": names,
                "edges": [(names[u], names[v]) for u, v in edges],
            })
    return out


def k4_graph(rng: random.Random) -> dict:
    names = [f"s{i}" for i in rng.sample(range(100), 4)]
    return {"names": names, "edges": list(itertools.combinations(names, 2))}


def petersen_graph(rng: random.Random) -> dict:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    labels = [f"s{i}" for i in rng.sample(range(100), 10)]
    names = list(labels)
    rng.shuffle(names)  # random declaration order changes the instance layout
    return {"names": names, "edges": [(labels[u], labels[v]) for u, v in outer + spokes + inner]}


def graph_text(graph: dict) -> str:
    lines = ["vertices: " + " ".join(graph["names"])]
    lines += [f"{a} {b}" for a, b in graph["edges"]]
    return "\n".join(lines) + "\n"

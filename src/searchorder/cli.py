"""Command-line interface.

Exit codes: 0 for YES/success, 1 for a NO answer, 2 for usage or input
errors. `run` is the only entry point (of the `searchorder` script and
of `python -m searchorder`) and the only place where an error becomes
exit code 2: the commands call the library directly, and what it raises
on bad input is printed as `error: <message>`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence, TypeVar

import click

from . import attachment as attachment_mod
from . import dfs_tree, oracles, reductions
from .core import CapError, FormatError, Ordering, parse_bounded_profile, parse_graph
from .traversals import (
    DEFAULT_ENUMERATION_CAP,
    Paradigm,
    enumerate_orderings,
    generate_ordering,
)
from .verifiers import PARADIGM_PROPERTY, is_s_ordering, satisfies_property

_PARADIGM_CHOICES = [p.value for p in Paradigm]

_T = TypeVar("_T")


def _parse(path: str, parser: Callable[[str], _T]) -> _T:
    """Parse a file, naming it in any format error."""
    text = Path(path).read_text()
    try:
        return parser(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _dot_id(name: str) -> str:
    """A vertex name as a quoted DOT ID: '"' is escaped, and a final backslash
    is kept off the closing quote by a backslash-newline continuation."""
    return '"' + name.replace('"', '\\"') + ("\\\n" if name.endswith("\\") else "") + '"'


@click.group()
def main() -> None:
    """Graph-search orderings: verify, generate, enumerate, recognize."""


@main.command()
@click.option("--paradigm", required=True, type=click.Choice(_PARADIGM_CHOICES))
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--ordering", required=True,
              help="Space-separated vertex names, leftmost visited first.")
def verify(paradigm: str, graph_path: str, ordering: str) -> int:
    """Check whether an ordering is a valid search ordering."""
    para = Paradigm(paradigm)
    graph = _parse(graph_path, parse_graph)
    sigma = Ordering.from_names(graph.universe, ordering.split())
    if is_s_ordering(graph, sigma, para):
        click.echo("YES")
        return 0
    click.echo("NO")
    if para in PARADIGM_PROPERTY:  # every paradigm but MCS names a violating triple
        _, violation = satisfies_property(graph, sigma, PARADIGM_PROPERTY[para])
        click.echo("violating triple: " + " ".join(violation))
    return 1


@main.command()
@click.option("--paradigm", required=True, type=click.Choice(_PARADIGM_CHOICES))
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--start", default=None, help="Vertex to visit first.")
def generate(paradigm: str, graph_path: str, start: str | None) -> None:
    """Produce one deterministic search ordering."""
    graph = _parse(graph_path, parse_graph)
    sigma = generate_ordering(graph, Paradigm(paradigm), start=start)
    click.echo(" ".join(sigma.names))


@main.command("enumerate")
@click.option("--paradigm", required=True, type=click.Choice(_PARADIGM_CHOICES))
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, show_default=True,
              help="Refuse graphs with more vertices than this.")
def enumerate_cmd(paradigm: str, graph_path: str, cap: int) -> None:
    """List every ordering the paradigm can produce, one per line."""
    graph = _parse(graph_path, parse_graph)
    for sigma in enumerate_orderings(graph, Paradigm(paradigm), cap=cap):
        click.echo(" ".join(sigma.names))


@main.command()
@click.option("--paradigm", required=True,
              type=click.Choice(["dfs-tree", "gs-tree"]))
@click.option("--profile", "profile_path", required=True, type=click.Path())
def recognize(paradigm: str, profile_path: str) -> int:
    """Decide tree-support existence; print a witness tree on YES."""
    profile, _ = _parse(profile_path, parse_bounded_profile)
    recognizer = (
        dfs_tree.recognize_dfs_tree if paradigm == "dfs-tree" else attachment_mod.recognize_gs_tree
    )
    outcome = recognizer(profile)
    if not outcome.is_yes:
        click.echo(f"NO {outcome.reason}")
        return 1
    click.echo("YES")
    for a, b in outcome.tree.edge_names():
        click.echo(f"{a} {b}")
    return 0


@main.command()
@click.option("--profile", "profile_path", required=True, type=click.Path())
@click.option("--dot", is_flag=True, help="Emit GraphViz DOT instead of plain arcs.")
def attachment(profile_path: str, dot: bool) -> None:
    """Print the attachment digraph of a profile."""
    profile, _ = _parse(profile_path, parse_bounded_profile)
    digraph = attachment_mod.build_attachment_digraph(profile)
    if dot:
        click.echo("digraph attachment {")
        for v in digraph.free_names():
            click.echo(f"  {_dot_id(v)} [shape=doublecircle];")
        for a, b in digraph.arc_names():
            click.echo(f"  {_dot_id(a)} -> {_dot_id(b)};")
        click.echo("}")
        return
    for a, b in digraph.arc_names():
        click.echo(f"{a} -> {b}")
    click.echo("forced: " + " ".join(digraph.forced_names()))
    click.echo("free: " + " ".join(digraph.free_names()))


@main.command()
@click.option("--problem", required=True, type=click.Choice(["tree", "edge", "deg"]))
@click.option("--paradigm", required=True, type=click.Choice(_PARADIGM_CHOICES))
@click.option("--profile", "profile_path", required=True, type=click.Path())
@click.option("--k", "k_opt", type=int, default=None,
              help="Bound for edge/deg problems; defaults to a 'k:' header "
                   "in the profile file if present.")
def solve(problem: str, paradigm: str, profile_path: str, k_opt: int | None) -> int:
    """Exact small-scale solver for the support decision problems."""
    profile, file_k = _parse(profile_path, parse_bounded_profile)
    if problem == "tree":
        kind: oracles.ProblemKind = oracles.TreeSupport()
    else:
        k = k_opt if k_opt is not None else file_k
        if k is None:
            raise click.UsageError("--k is required for edge/deg problems")
        kind = oracles.EdgeBounded(k) if problem == "edge" else oracles.DegBounded(k)
    result = oracles.brute_force_graph_support(profile, Paradigm(paradigm), kind)
    if not result.is_yes:
        click.echo("NO")
        return 1
    click.echo("YES")
    for a, b in result.witness.edge_names():
        click.echo(f"{a} {b}")
    return 0


@main.command()
@click.option("--paradigm", required=True,
              type=click.Choice([p.value for p in Paradigm if p is not Paradigm.GS]))
@click.option("--bound", required=True, type=click.Choice([reductions.EDGE, reductions.DEG]))
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--kappa", required=True, type=int)
@click.option("--out", "out_path", required=True, type=click.Path())
def reduce(paradigm: str, bound: str, graph_path: str, kappa: int, out_path: str) -> None:
    """Write a Vertex-Cover hardness instance for the paradigm."""
    source = _parse(graph_path, parse_graph)
    instance = reductions.reduce(Paradigm(paradigm), bound, source, kappa)
    Path(out_path).write_text(instance.emit())
    click.echo(
        f"wrote {len(instance.profile)} orderings over "
        f"{instance.profile.universe.n} vertices, k={instance.k}"
    )


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command line; returns the exit code."""
    try:
        rv = main.main(args=list(argv) if argv is not None else None,
                       standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except (FormatError, CapError, OSError, ValueError, KeyError) as exc:
        # a KeyError's str() is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        click.echo(f"error: {message}", err=True)
        return 2
    return rv if isinstance(rv, int) else 0

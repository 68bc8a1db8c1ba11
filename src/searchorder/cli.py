"""Command-line interface.

Exit codes follow a uniform convention: 0 for YES/success, 1 for a NO
answer, 2 for usage or input errors.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import click

from . import attachment as attachment_mod
from . import dfs_tree, oracles, reductions
from .core import (
    CapError,
    FormatError,
    Graph,
    Ordering,
    Profile,
    parse_bounded_profile,
    parse_graph,
)
from .traversals import (
    DEFAULT_ENUMERATION_CAP,
    Paradigm,
    enumerate_orderings,
    generate_ordering,
)
from .verifiers import PARADIGM_PROPERTY, certify_by_simulation, satisfies_property

_PARADIGM_CHOICES = [p.value for p in Paradigm]


def _fail(message: str) -> "click.UsageError":
    return click.UsageError(message)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _fail(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> Graph:
    try:
        return parse_graph(_read_text(path))
    except FormatError as exc:
        raise _fail(f"{path}: {exc}") from exc


def _load_profile(path: str) -> tuple[Profile, int | None]:
    try:
        return parse_bounded_profile(_read_text(path))
    except FormatError as exc:
        raise _fail(f"{path}: {exc}") from exc


def _paradigm(name: str) -> Paradigm:
    try:
        return Paradigm.from_name(name)
    except ValueError as exc:
        raise _fail(str(exc)) from exc


@click.group()
def main() -> None:
    """Graph-search orderings: verify, generate, enumerate, recognize."""


@main.command()
@click.option("--paradigm", required=True, type=click.Choice(_PARADIGM_CHOICES))
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--ordering", required=True,
              help="Space-separated vertex names, leftmost visited first.")
@click.pass_context
def verify(ctx: click.Context, paradigm: str, graph_path: str, ordering: str) -> None:
    """Check whether an ordering is a valid search ordering."""
    para = _paradigm(paradigm)
    graph = _load_graph(graph_path)
    try:
        sigma = Ordering.from_names(graph.universe, ordering.split())
    except (KeyError, ValueError) as exc:
        raise _fail(str(exc)) from exc
    if not sigma.is_complete:
        raise _fail("ordering must list every vertex exactly once")
    if para is Paradigm.MCS:
        ok = certify_by_simulation(graph, sigma, para)
        violation = None
    else:
        ok, violation = satisfies_property(graph, sigma, PARADIGM_PROPERTY[para])
    if ok:
        click.echo("YES")
    else:
        click.echo("NO")
        if violation is not None:
            click.echo("violating triple: " + " ".join(violation))
        ctx.exit(1)


@main.command()
@click.option("--paradigm", required=True, type=click.Choice(_PARADIGM_CHOICES))
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--start", default=None, help="Vertex to visit first.")
def generate(paradigm: str, graph_path: str, start: str | None) -> None:
    """Produce one deterministic search ordering."""
    graph = _load_graph(graph_path)
    try:
        sigma = generate_ordering(graph, _paradigm(paradigm), start=start)
    except KeyError as exc:
        raise _fail(str(exc)) from exc
    click.echo(" ".join(sigma.names))


@main.command("enumerate")
@click.option("--paradigm", required=True, type=click.Choice(_PARADIGM_CHOICES))
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, show_default=True,
              help="Refuse graphs with more vertices than this.")
def enumerate_cmd(paradigm: str, graph_path: str, cap: int) -> None:
    """List every ordering the paradigm can produce, one per line."""
    graph = _load_graph(graph_path)
    try:
        orderings = enumerate_orderings(graph, _paradigm(paradigm), cap=cap)
    except CapError as exc:
        raise _fail(str(exc)) from exc
    for sigma in orderings:
        click.echo(" ".join(sigma.names))


@main.command()
@click.option("--paradigm", required=True,
              type=click.Choice(["dfs-tree", "gs-tree"]))
@click.option("--profile", "profile_path", required=True, type=click.Path())
@click.pass_context
def recognize(ctx: click.Context, paradigm: str, profile_path: str) -> None:
    """Decide tree-support existence; print a witness tree on YES."""
    profile, _ = _load_profile(profile_path)
    recognizer = (
        dfs_tree.recognize_dfs_tree if paradigm == "dfs-tree" else attachment_mod.recognize_gs_tree
    )
    outcome = recognizer(profile)
    if outcome.is_yes:
        click.echo("YES")
        for a, b in outcome.tree.edge_names():
            click.echo(f"{a} {b}")
    else:
        click.echo(f"NO {outcome.reason}")
        ctx.exit(1)


@main.command()
@click.option("--profile", "profile_path", required=True, type=click.Path())
@click.option("--dot", is_flag=True, help="Emit GraphViz DOT instead of plain arcs.")
def attachment(profile_path: str, dot: bool) -> None:
    """Print the attachment digraph of a profile."""
    profile, _ = _load_profile(profile_path)
    digraph = attachment_mod.build_attachment_digraph(profile)
    if dot:
        click.echo("digraph attachment {")
        for v in digraph.free_names():
            click.echo(f'  "{v}" [shape=doublecircle];')
        for a, b in digraph.arc_names():
            click.echo(f'  "{a}" -> "{b}";')
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
@click.pass_context
def solve(ctx: click.Context, problem: str, paradigm: str, profile_path: str,
          k_opt: int | None) -> None:
    """Exact small-scale solver for the support decision problems."""
    profile, file_k = _load_profile(profile_path)
    para = _paradigm(paradigm)
    if problem == "tree":
        kind: oracles.ProblemKind = oracles.TreeSupport()
    else:
        k = k_opt if k_opt is not None else file_k
        if k is None:
            raise _fail("--k is required for edge/deg problems")
        kind = oracles.EdgeBounded(k) if problem == "edge" else oracles.DegBounded(k)
    try:
        result = oracles.brute_force_graph_support(profile, para, kind)
    except CapError as exc:
        raise _fail(str(exc)) from exc
    if result.is_yes:
        click.echo("YES")
        for a, b in result.witness.edge_names():
            click.echo(f"{a} {b}")
    else:
        click.echo("NO")
        ctx.exit(1)


@main.command()
@click.option("--paradigm", required=True,
              type=click.Choice([p.value for p in Paradigm if p is not Paradigm.GS]))
@click.option("--bound", required=True, type=click.Choice([reductions.EDGE, reductions.DEG]))
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--kappa", required=True, type=int)
@click.option("--out", "out_path", required=True, type=click.Path())
def reduce(paradigm: str, bound: str, graph_path: str, kappa: int, out_path: str) -> None:
    """Write a Vertex-Cover hardness instance for the paradigm."""
    source = _load_graph(graph_path)
    try:
        instance = reductions.reduce(_paradigm(paradigm), bound, source, kappa)
    except ValueError as exc:
        raise _fail(str(exc)) from exc
    try:
        Path(out_path).write_text(instance.emit())
    except OSError as exc:
        raise _fail(f"cannot write {out_path}: {exc}") from exc
    click.echo(
        f"wrote {len(instance.profile)} orderings over "
        f"{instance.profile.universe.n} vertices, k={instance.k}"
    )


def run(argv: Sequence[str] | None = None) -> int:
    """Programmatic entry point; returns the exit code."""
    try:
        rv = main.main(args=list(argv) if argv is not None else None,
                       standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except (FormatError, CapError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    main()

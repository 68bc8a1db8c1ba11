"""Command-line interface.

Exit codes: 0 for YES/success, 1 for a NO answer, 2 for usage or input
errors. `run` is the only entry point (of the `searchorder` script and
of `python -m searchorder`) and the only place where an error becomes
exit code 2: the commands call the library directly, and what it raises
on bad input is printed as `error: <message>`.

A command imports the modules it runs when it runs, so a call loads
only `core`, `traversals` and what its own command needs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .core import DEG, EDGE, CapError, FormatError, Ordering, parse_bounded_profile, parse_graph
from .traversals import (
    DEFAULT_ENUMERATION_CAP,
    Paradigm,
    enumerate_orderings,
    generate_ordering,
)

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


def _answer(is_yes: bool, witness, no_line: str) -> int:
    """Print YES and the witness's edges, or the NO line; return the exit code."""
    if not is_yes:
        print(no_line)
        return 1
    print("YES")
    for a, b in witness.edge_names():
        print(f"{a} {b}")
    return 0


def verify(args: argparse.Namespace) -> int:
    """Check whether an ordering is a valid search ordering."""
    from .verifiers import is_s_ordering, satisfies_property

    para = Paradigm(args.paradigm)
    graph = _parse(args.graph, parse_graph)
    sigma = Ordering.from_names(graph.universe, args.ordering.split())
    if is_s_ordering(graph, sigma, para):
        print("YES")
        return 0
    print("NO")
    if para is not Paradigm.MCS:  # every paradigm but MCS names a violating triple
        _, violation = satisfies_property(graph, sigma, para)
        print("violating triple: " + " ".join(violation))
    return 1


def generate(args: argparse.Namespace) -> int:
    """Produce one deterministic search ordering."""
    graph = _parse(args.graph, parse_graph)
    sigma = generate_ordering(graph, Paradigm(args.paradigm), start=args.start)
    print(" ".join(sigma.names))
    return 0


def enumerate_cmd(args: argparse.Namespace) -> int:
    """List every ordering the paradigm can produce, one per line."""
    graph = _parse(args.graph, parse_graph)
    for sigma in enumerate_orderings(graph, Paradigm(args.paradigm), cap=args.cap):
        print(" ".join(sigma.names))
    return 0


def recognize(args: argparse.Namespace) -> int:
    """Decide tree-support existence; print a witness tree on YES."""
    profile, _ = _parse(args.profile, parse_bounded_profile)
    if args.paradigm == "dfs-tree":
        from .dfs_tree import recognize_dfs_tree as recognizer
    else:
        from .attachment import recognize_gs_tree as recognizer
    outcome = recognizer(profile)
    return _answer(outcome.is_yes, outcome.tree, f"NO {outcome.reason}")


def attachment(args: argparse.Namespace) -> int:
    """Print the attachment digraph of a profile."""
    from .attachment import build_attachment_digraph

    profile, _ = _parse(args.profile, parse_bounded_profile)
    digraph = build_attachment_digraph(profile)
    if args.dot:
        print("digraph attachment {")
        for v in digraph.free:
            print(f"  {_dot_id(v)} [shape=doublecircle];")
        for a, b in digraph.arcs:
            print(f"  {_dot_id(a)} -> {_dot_id(b)};")
        print("}")
        return 0
    for a, b in digraph.arcs:
        print(f"{a} -> {b}")
    print("forced: " + " ".join(digraph.forced))
    print("free: " + " ".join(digraph.free))
    return 0


def solve(args: argparse.Namespace) -> int:
    """Exact small-scale solver for the support decision problems."""
    from . import oracles

    profile, file_k = _parse(args.profile, parse_bounded_profile)
    para = Paradigm(args.paradigm)
    if args.problem == "tree":
        result = oracles.brute_force_tree_support(profile, para)
    else:
        k = args.k if args.k is not None else file_k
        if k is None:
            args.parser.error("--k is required for edge/deg problems")
        result = oracles.brute_force_graph_support(profile, para, args.problem, k)
    return _answer(result.is_yes, result.witness, "NO")


def reduce(args: argparse.Namespace) -> int:
    """Write a Vertex-Cover hardness instance for the paradigm."""
    from . import reductions

    source = _parse(args.graph, parse_graph)
    instance = reductions.reduce(Paradigm(args.paradigm), args.bound, source, args.kappa)
    Path(args.out).write_text(instance.emit())
    print(
        f"wrote {len(instance.profile)} orderings over "
        f"{instance.profile.universe.n} vertices, k={instance.k}"
    )
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="searchorder", allow_abbrev=False,
        description="Graph-search orderings: verify, generate, enumerate, recognize.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, run_command: Callable[[argparse.Namespace], int]):
        sub = commands.add_parser(name, allow_abbrev=False, help=run_command.__doc__,
                                  description=run_command.__doc__)
        sub.set_defaults(run_command=run_command, parser=sub)
        return sub

    def paradigm(sub: argparse.ArgumentParser, choices: Sequence[str] = _PARADIGM_CHOICES):
        sub.add_argument("--paradigm", required=True, choices=choices)

    sub = command("verify", verify)
    paradigm(sub)
    sub.add_argument("--graph", required=True)
    sub.add_argument("--ordering", required=True,
                     help="Space-separated vertex names, leftmost visited first.")

    sub = command("generate", generate)
    paradigm(sub)
    sub.add_argument("--graph", required=True)
    sub.add_argument("--start", help="Vertex to visit first.")

    sub = command("enumerate", enumerate_cmd)
    paradigm(sub)
    sub.add_argument("--graph", required=True)
    sub.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                     help="Refuse graphs with more vertices than this (default: %(default)s).")

    sub = command("recognize", recognize)
    paradigm(sub, ["dfs-tree", "gs-tree"])
    sub.add_argument("--profile", required=True)

    sub = command("attachment", attachment)
    sub.add_argument("--profile", required=True)
    sub.add_argument("--dot", action="store_true",
                     help="Emit GraphViz DOT instead of plain arcs.")

    sub = command("solve", solve)
    sub.add_argument("--problem", required=True, choices=["tree", EDGE, DEG])
    paradigm(sub)
    sub.add_argument("--profile", required=True)
    sub.add_argument("--k", type=int,
                     help="Bound for edge/deg problems; defaults to a 'k:' header "
                          "in the profile file if present.")

    sub = command("reduce", reduce)
    # every paradigm but GS has a reduction
    paradigm(sub, [p.value for p in Paradigm if p is not Paradigm.GS])
    sub.add_argument("--bound", required=True, choices=[EDGE, DEG])
    sub.add_argument("--graph", required=True)
    sub.add_argument("--kappa", required=True, type=int)
    sub.add_argument("--out", required=True)
    return parser


def _bind_values(argv: Sequence[str]) -> list[str]:
    """Join each option but the flags `--dot` and `--help` to the token
    after it, as `--opt=value`.

    A vertex name or a path may begin with '-', and argparse binds such a
    token to the option before it only in the `--opt=value` form.
    """
    bound: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("--") and token not in ("--", "--dot", "--help") and "=" not in token:
            value = next(tokens, None)
            if value is not None:
                token = f"{token}={value}"
        bound.append(token)
    return bound


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command line; returns the exit code."""
    try:
        args = _parser().parse_args(_bind_values(sys.argv[1:] if argv is None else argv))
        return args.run_command(args)
    except SystemExit as exc:  # argparse exits after --help and on a usage error
        return 0 if exc.code is None else exc.code
    except (FormatError, CapError, OSError, ValueError, KeyError) as exc:
        # a KeyError's str() is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2

"""End-to-end exercise of every subcommand through the programmatic runner."""

import contextlib
import importlib
import io
import os
import re
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import searchorder
from searchorder import Paradigm, build_attachment_digraph, parse_bounded_profile
from searchorder.cli import run

PATH3 = "vertices: a b c\na b\nb c\n"
C4 = "vertices: a b c d\na b\nb c\nc d\nd a\n"
K4 = "vertices: a b c d\na b\na c\na d\nb c\nb d\nc d\n"
PAIR_PROFILE = "vertices: a b c d\na b c d\nb a c d\n"
SPLIT_PROFILE = "vertices: a b c d\na b c d\na b d c\nc d a b\n"
STAR_PROFILE = "vertices: a b c d\nb a c d\nb c a d\nc a b d\n"
NINE = "vertices: a b c d e f g h i\n"
PETERSEN = ("vertices: a b c d e f g h i j\n"  # outer cycle a-e, spokes, inner pentagram
            + "".join(f"{u} {v}\n" for u, v in zip("abcdeabcdefhjgi", "bcdeafghijhjgif")))
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        target = tmp_path / name
        target.write_text(text)
        return str(target)

    return write


def test_verify_yes(files, capsys):
    code = run(["verify", "--paradigm", "bfs", "--graph", files("g.txt", PATH3),
                "--ordering", "b a c"])
    assert code == 0
    assert capsys.readouterr().out == "YES\n"


def test_verify_no_reports_triple(files, capsys):
    code = run(["verify", "--paradigm", "gs", "--graph", files("g.txt", PATH3),
                "--ordering", "a c b"])
    assert code == 1
    assert capsys.readouterr().out == "NO\nviolating triple: a c b\n"


def test_verify_lexbfs_no_reports_triple(files, capsys):
    code = run(["verify", "--paradigm", "lexbfs", "--graph", files("g.txt", C4),
                "--ordering", "a c b d"])
    assert code == 1
    assert capsys.readouterr().out == "NO\nviolating triple: a c b\n"


def test_verify_mcs_has_no_triple_diagnostic(files, capsys):
    code = run(["verify", "--paradigm", "mcs", "--graph", files("g.txt", PATH3),
                "--ordering", "a c b"])
    assert code == 1
    assert capsys.readouterr().out == "NO\n"


# the triple each paradigm's four-point property names; MCS has none
TRIPLES = {"gs": "c d b", "bfs": "c d b", "dfs": "c e b", "lexbfs": "c d b",
           "lexdfs": "c e b", "mcs": None, "mns": "c d b"}


@pytest.mark.parametrize("paradigm", TRIPLES)
def test_verify_names_each_paradigms_own_triple(files, capsys, paradigm):
    graph = files("g.txt", "vertices: a b c d e\na c\na e\nb c\nb d\n")
    code = run(["verify", "--paradigm", paradigm, "--graph", graph, "--ordering", "a c e d b"])
    assert code == 1
    triple = TRIPLES[paradigm]
    assert capsys.readouterr().out == "NO\n" + (f"violating triple: {triple}\n" if triple else "")


def test_verify_rejects_partial_orderings(files, capsys):
    graph = files("g.txt", PATH3)
    for ordering in ("a b", "a a c"):  # a vertex missing, a vertex repeated
        assert run(["verify", "--paradigm", "bfs", "--graph", graph,
                    "--ordering", ordering]) == 2
        assert capsys.readouterr().err == "error: ordering must list every vertex exactly once\n"


def test_generate(files, capsys):
    assert run(["generate", "--paradigm", "dfs", "--graph", files("g.txt", PATH3)]) == 0
    assert capsys.readouterr().out == "a b c\n"
    assert run(["generate", "--paradigm", "bfs", "--graph", files("c4.txt", C4),
                "--start", "c"]) == 0
    assert capsys.readouterr().out == "c b d a\n"


def test_values_may_begin_with_a_dash(files, capsys, monkeypatch):
    monkeypatch.chdir(Path(files("-g.txt", "vertices: -x b\n-x b\n")).parent)
    assert run(["generate", "--paradigm", "bfs", "--graph", "-g.txt", "--start", "-x"]) == 0
    assert capsys.readouterr().out == "-x b\n"


def test_generate_unknown_start(files):
    assert run(["generate", "--paradigm", "bfs", "--graph", files("g.txt", PATH3),
                "--start", "z"]) == 2


def test_enumerate(files, capsys):
    assert run(["enumerate", "--paradigm", "dfs", "--graph", files("g.txt", PATH3)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and "a b c" in lines


def test_enumerate_cap(files):
    assert run(["enumerate", "--paradigm", "dfs", "--graph", files("g.txt", PATH3),
                "--cap", "2"]) == 2


def test_recognize_dfs_tree_yes(files, capsys):
    assert run(["recognize", "--paradigm", "dfs-tree",
                "--profile", files("p.txt", PAIR_PROFILE)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "YES"
    assert len(out) == 4  # three edges of a four-vertex tree


def test_recognize_dfs_tree_no(files, capsys):
    assert run(["recognize", "--paradigm", "dfs-tree",
                "--profile", files("p.txt", SPLIT_PROFILE)]) == 1
    assert capsys.readouterr().out == "NO DISCONNECTED_ATTACHMENT\n"


def test_recognize_gs_tree(files, capsys):
    assert run(["recognize", "--paradigm", "gs-tree",
                "--profile", files("p.txt", STAR_PROFILE)]) == 1
    assert capsys.readouterr().out == "NO UNREALIZABLE_ATTACHMENT\n"


def test_attachment_plain_and_dot(files, capsys):
    profile = files("p.txt", PAIR_PROFILE)
    assert run(["attachment", "--profile", profile]) == 0
    out = capsys.readouterr().out
    assert "a -> b" in out
    assert "forced: a b" in out and "free: c d" in out
    assert run(["attachment", "--profile", profile, "--dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph attachment {") and '"a" -> "b";' in dot


def _dot_statements(text):
    """The quoted IDs of each ';'-ended statement, read by DOT's rules for
    quoted strings: a backslash-quote is a quote, a backslash-newline is
    dropped, and every other character stands for itself."""
    statements, ids, i = [], [], 0
    while i < len(text):
        if text[i] == ";":
            statements.append(tuple(ids))
            ids = []
        elif text[i] == '"':
            chars = []
            i += 1
            while text[i] != '"':
                if text[i : i + 2] == '\\"':
                    chars.append('"')
                    i += 2
                elif text[i : i + 2] == "\\\n":
                    i += 2
                else:
                    chars.append(text[i])
                    i += 1
            ids.append("".join(chars))
        i += 1
    return statements


def test_attachment_dot_escapes_quotes_in_names(files, capsys):
    # a name may end in a backslash, which must not escape the closing quote
    names = ['a"b', '"c', 'd"', "e", "f\\", 'g\\"h\\\\', "\\"]
    text = "vertices: " + " ".join(names) + "\n"
    text += " ".join(names) + "\n" + " ".join([names[1], names[0], *names[2:]]) + "\n"
    assert run(["attachment", "--profile", files("p.txt", text), "--dot"]) == 0
    read = _dot_statements(capsys.readouterr().out)
    digraph = build_attachment_digraph(parse_bounded_profile(text)[0])
    assert read == [(v,) for v in digraph.free] + list(digraph.arcs)
    assert len(read) > len(digraph.free) > 0
    assert {v for ids in read for v in ids} == set(names)


def test_solve_tree(files, capsys):
    assert run(["solve", "--problem", "tree", "--paradigm", "gs",
                "--profile", files("p.txt", PAIR_PROFILE)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"


def test_solve_edge_uses_k_from_flag(files, capsys):
    profile = files("p.txt", "vertices: a b c\na b c\na c b\n")
    assert run(["solve", "--problem", "edge", "--paradigm", "gs",
                "--profile", profile, "--k", "1"]) == 1
    assert capsys.readouterr().out == "NO\n"
    assert run(["solve", "--problem", "edge", "--paradigm", "gs",
                "--profile", profile, "--k", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["YES", "a b", "a c"]


def test_solve_edge_uses_k_from_file_header(files, capsys):
    profile = files("p.txt", "vertices: a b c\nk: 2\na b c\na c b\n")
    assert run(["solve", "--problem", "edge", "--paradigm", "gs",
                "--profile", profile]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"


def test_solve_edge_requires_some_k(files):
    profile = files("p.txt", "vertices: a b c\na b c\n")
    assert run(["solve", "--problem", "edge", "--paradigm", "gs",
                "--profile", profile]) == 2


def test_reduce_writes_a_parseable_instance(files, tmp_path, capsys):
    out_path = tmp_path / "instance.txt"
    code = run(["reduce", "--paradigm", "dfs", "--bound", "edge",
                "--graph", files("k4.txt", K4), "--kappa", "3",
                "--out", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == "wrote 22 orderings over 9 vertices, k=13\n"
    profile, k = parse_bounded_profile(out_path.read_text())
    assert (len(profile), k) == (22, 13)
    assert "# family: dfs-edge" in out_path.read_text()


def test_reduce_rejects_bad_kappa(files, tmp_path):
    assert run(["reduce", "--paradigm", "dfs", "--bound", "edge",
                "--graph", files("k4.txt", K4), "--kappa", "1",
                "--out", str(tmp_path / "x.txt")]) == 2


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["generate", "--paradigm", "bfs", "--graph", "g.txt", "--colour", "red"],
    ["generate", "--para", "bfs", "--graph", "g.txt"],
    ["generate", "--paradigm", "bfs"],
    ["generate", "--paradigm", "bfs", "--graph"],
    ["recognize", "--paradigm", "bfs", "--profile", "p.txt"],
    ["solve", "--problem", "edge", "--paradigm", "gs", "--profile", "p.txt", "--k", "two"],
    ["reduce", "--paradigm", "dfs", "--bound", "edge", "--graph", "g.txt", "--kappa", "3.5",
     "--out", "x.txt"],
    ["enumerate", "--paradigm", "dfs", "--graph", "g.txt", "--cap", ""],
    ["solve", "--problem", "edge", "--paradigm", "gs", "--profile", "p.txt"],
], ids=["empty", "unknown-command", "unknown-option", "abbreviated-option",
        "missing-option", "missing-value", "bad-choice", "bad-k", "bad-kappa", "bad-cap", "no-bound"])
def test_usage_errors_print_usage_on_stderr_only(files, capsys, monkeypatch, argv):
    monkeypatch.chdir(Path(files("g.txt", PATH3)).parent)
    files("p.txt", "vertices: a b c\na b c\n")  # no 'k:' header
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: searchorder")


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_0(capsys, argv):
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("usage: searchorder")


def test_usage_errors_exit_2(files, tmp_path):
    assert run(["verify", "--paradigm", "bfs", "--graph", str(tmp_path / "missing.txt"),
                "--ordering", "a b"]) == 2
    assert run(["verify", "--paradigm", "nope", "--graph", files("g.txt", PATH3),
                "--ordering", "a b c"]) == 2
    assert run(["recognize", "--paradigm", "dfs-tree",
                "--profile", files("bad.txt", "vertices: a b\na\n")]) == 2


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["searchorder"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is run


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["recognize", "--paradigm", "dfs-tree", "--profile", "pair.txt"],
    ["recognize", "--paradigm", "dfs-tree", "--profile", "split.txt"],
    ["recognize", "--paradigm", "bfs", "--profile", "pair.txt"],
], ids=["help", "yes", "no", "usage"])
def test_module_run_as_a_program_matches_run(files, capsys, monkeypatch, argv):
    workdir = Path(files("pair.txt", PAIR_PROFILE)).parent
    files("split.txt", SPLIT_PROFILE)
    src = Path(searchorder.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "searchorder", *argv], cwd=workdir,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    monkeypatch.chdir(workdir)
    assert (done.returncode, done.stdout) == (run(argv), capsys.readouterr().out)


def test_negative_bound_is_an_input_error(files, capsys):
    assert run(["solve", "--problem", "deg", "--paradigm", "gs",
                "--profile", files("p.txt", PAIR_PROFILE), "--k", "-1"]) == 2
    assert capsys.readouterr().err == "error: k must be non-negative\n"


# a command line, finished by an input file, that prints each concrete
# `error: ...` example of README's CLI section
README_ERRORS = {
    "error: unknown vertex 'z'": (
        ["generate", "--paradigm", "bfs", "--start", "z", "--graph"], PATH3),
    "error: k must be non-negative": (
        ["solve", "--problem", "deg", "--paradigm", "gs", "--k", "-1", "--profile"], PAIR_PROFILE),
    "error: enumeration needs n <= 8, got n = 9": (
        ["enumerate", "--paradigm", "dfs", "--graph"], NINE),
    "error: the construction needs n <= 6 source vertices": (
        ["reduce", "--paradigm", "bfs", "--bound", "edge", "--kappa", "3",
         "--out", "never-written.profile", "--graph"], PETERSEN),
}


def test_readme_error_examples_are_what_the_cli_prints(files, capsys):
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    spans = [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", section)]
    # placeholders such as <file> mark a pattern, not an example; "<=" is text
    examples = [s for s in spans if s.startswith("error: ") and not re.search(r"<[\w ]+>", s)]
    assert sorted(examples) == sorted(README_ERRORS)
    for example in examples:
        argv, text = README_ERRORS[example]
        assert run(argv + [files("input.txt", text)]) == 2, example
        assert capsys.readouterr().err == example + "\n"


def test_unknown_vertex_message_is_unquoted(files, capsys):
    graph = files("g.txt", PATH3)
    for command in (["generate", "--paradigm", "bfs", "--graph", graph, "--start", "z"],
                    ["verify", "--paradigm", "bfs", "--graph", graph, "--ordering", "a z"]):
        assert run(command) == 2
        assert capsys.readouterr().err == "error: unknown vertex 'z'\n"


@pytest.mark.parametrize("command, text, message", [
    (["solve", "--problem", "tree", "--paradigm", "gs", "--profile"], "vertices: a b\na\n",
     "line is not a permutation of the universe: 'a'"),
    (["generate", "--paradigm", "bfs", "--graph"], "vertices: a b\na z\n",
     "unknown vertex 'z'"),
    (["generate", "--paradigm", "bfs", "--graph"], "vertices: a b\na a\n",
     "self-loop at 'a'"),
    (["generate", "--paradigm", "bfs", "--graph"], "vertices:\n", "empty vertex list"),
    (["generate", "--paradigm", "bfs", "--graph"], "vertices: a b:c\n",
     "invalid vertex name 'b:c'"),
    # the first bad line is named, whichever of the two ways it is bad
    (["solve", "--problem", "tree", "--paradigm", "gs", "--profile"], "vertices: a b\na a\na z\n",
     "line is not a permutation of the universe: 'a a'"),
    (["solve", "--problem", "tree", "--paradigm", "gs", "--profile"], "vertices: a b\na z\na a\n",
     "line is not a permutation of the universe: 'a z'"),
])
def test_format_errors_name_the_file(files, capsys, command, text, message):
    path = files("bad.txt", text)
    assert run(command + [path]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


# ------------------------------------------------------------------- fuzz
#
# Random graph and profile text through every reading command: the exit
# code is always 0, 1 or 2, an exit 2 says why on stderr, and nothing
# escapes `run`. Names stay within five vertices so the exact solvers
# answer in milliseconds.

_PARADIGMS = st.sampled_from([p.value for p in Paradigm])
_JUNK_LINE = st.lists(
    st.sampled_from(["a", "b", "z", "vertices:", "k:", "#", "-1", "2"]), max_size=4
).map(" ".join)


@st.composite
def _cases(draw):
    """A file text and a command line reading it from the placeholder FILE.

    Mostly a well-formed graph or profile, as the command expects, over
    the names the command also uses; now and then a junk line, the other
    kind of file, or raw text.
    """
    names = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True))
    ordering = st.one_of(st.permutations(names).map(" ".join), _JUNK_LINE)
    start = st.sampled_from([[]] + [["--start", v] for v in names + ["z"]])
    bound = st.sampled_from([[], ["--k", "-1"], ["--k", "0"], ["--k", "3"]])
    command = draw(st.one_of(
        st.tuples(_PARADIGMS, ordering).map(
            lambda t: ["verify", "--paradigm", t[0], "--graph", "FILE", "--ordering", t[1]]),
        st.tuples(_PARADIGMS, start).map(
            lambda t: ["generate", "--paradigm", t[0], "--graph", "FILE"] + t[1]),
        _PARADIGMS.map(lambda p: ["enumerate", "--paradigm", p, "--graph", "FILE"]),
        st.sampled_from(["dfs-tree", "gs-tree"]).map(
            lambda p: ["recognize", "--paradigm", p, "--profile", "FILE"]),
        st.sampled_from([[], ["--dot"]]).map(
            lambda dot: ["attachment", "--profile", "FILE"] + dot),
        st.tuples(st.sampled_from(["tree", "edge", "deg"]), _PARADIGMS, bound).map(
            lambda t: ["solve", "--problem", t[0], "--paradigm", t[1],
                       "--profile", "FILE"] + t[2]),
    ))
    kind = draw(st.sampled_from(["expected"] * 6 + ["other", "raw"]))
    if kind == "raw":
        return draw(st.text(string.printable, max_size=40)), command
    width = len(names) if ("--graph" in command) == (kind == "other") else 2
    lines = draw(st.lists(st.permutations(names).map(lambda row: " ".join(row[:width])),
                          min_size=1, max_size=5))
    if draw(st.sampled_from([False] * 3 + [True])):
        lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK_LINE))
    if draw(st.booleans()):
        lines.insert(0, f"k: {draw(st.integers(-1, 4))}")
    return "\n".join(["vertices: " + " ".join(names)] + lines) + "\n", command


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(case=_cases())
def test_fuzzed_input_never_escapes_run(fuzz_dir, case):
    text, command = case
    path = fuzz_dir / "input.txt"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(path) if arg == "FILE" else arg for arg in command])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().strip()

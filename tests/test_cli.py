"""End-to-end exercise of every subcommand through the programmatic runner."""

import pytest

from searchorder import parse_bounded_profile
from searchorder.cli import run

PATH3 = "vertices: a b c\na b\nb c\n"
C4 = "vertices: a b c d\na b\nb c\nc d\nd a\n"
K4 = "vertices: a b c d\na b\na c\na d\nb c\nb d\nc d\n"
PAIR_PROFILE = "vertices: a b c d\na b c d\nb a c d\n"
SPLIT_PROFILE = "vertices: a b c d\na b c d\na b d c\nc d a b\n"
STAR_PROFILE = "vertices: a b c d\nb a c d\nb c a d\nc a b d\n"


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


def test_verify_mcs_has_no_triple_diagnostic(files, capsys):
    code = run(["verify", "--paradigm", "mcs", "--graph", files("g.txt", PATH3),
                "--ordering", "a c b"])
    assert code == 1
    assert capsys.readouterr().out == "NO\n"


def test_verify_rejects_partial_orderings(files):
    assert run(["verify", "--paradigm", "bfs", "--graph", files("g.txt", PATH3),
                "--ordering", "a b"]) == 2


def test_generate(files, capsys):
    assert run(["generate", "--paradigm", "dfs", "--graph", files("g.txt", PATH3)]) == 0
    assert capsys.readouterr().out == "a b c\n"
    assert run(["generate", "--paradigm", "bfs", "--graph", files("c4.txt", C4),
                "--start", "c"]) == 0
    assert capsys.readouterr().out == "c b d a\n"


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


def test_usage_errors_exit_2(files, tmp_path):
    assert run(["verify", "--paradigm", "bfs", "--graph", str(tmp_path / "missing.txt"),
                "--ordering", "a b"]) == 2
    assert run(["verify", "--paradigm", "nope", "--graph", files("g.txt", PATH3),
                "--ordering", "a b c"]) == 2
    assert run(["recognize", "--paradigm", "dfs-tree",
                "--profile", files("bad.txt", "vertices: a b\na\n")]) == 2

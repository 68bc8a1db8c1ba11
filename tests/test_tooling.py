"""Hygiene checks that stand in for a linter: the public API resolves
and matches the README's list, importing the package or its CLI loads
only what it must, no package module imports a name it never uses, no
private name, public method or unexported function is left without a
user, the benchmark's tracer finds the names it wraps, every module
parses and runs as Python 3.10, the mutant list still applies, and the
shared test corpora refuse requests they cannot meet."""

import ast
import contextlib
import importlib
import importlib.util
import io
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import searchorder

from conftest import random_profiles

PACKAGE = Path(searchorder.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"
PERFBENCH = README.parent / "perfbench"


def test_every_public_name_resolves():
    assert len(set(searchorder.__all__)) == len(searchorder.__all__)
    assert [name for name in searchorder.__all__ if not hasattr(searchorder, name)] == []
    assert not hasattr(searchorder, "no_such_name")
    namespace = {}
    exec("from searchorder import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(searchorder.__all__)


def _readme_api():
    """{module: [names]} from the bullets of the README's Public API
    section, one bullet per module: '- **module** (...): `name`, ...'."""
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"\n(?=- )", section.split("\n- ", 1)[1].split("\n\n", 1)[0])
    api = {}
    for bullet in bullets:
        module = re.match(r"(?:- )?\*\*(\w+)\*\*", bullet).group(1)
        api[module] = re.findall(r"`(\w+)`", bullet)
    return api


def test_readme_lists_exactly_the_exported_names():
    listed = [name for names in _readme_api().values() for name in names]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(searchorder.__all__)


def test_readme_groups_names_by_their_defining_module():
    for module, names in _readme_api().items():
        mod = importlib.import_module(f"searchorder.{module}")
        for name in names:
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == mod.__name__, name


def _modules_loaded_by(statement):
    """The names in sys.modules after a fresh interpreter runs statement."""
    done = subprocess.run(
        [sys.executable, "-c", f"{statement}; import sys; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True,
    )
    return set(done.stdout.split())


def test_imports_load_only_what_they_need():
    loaded = _modules_loaded_by("import searchorder")
    assert {m for m in loaded if m.startswith("searchorder.")} == set()
    loaded = _modules_loaded_by("import searchorder.cli")
    assert {m for m in loaded if m.startswith("searchorder.")} == {
        "searchorder.cli", "searchorder.core", "searchorder.traversals"}
    assert not loaded & {"click", "logging", "dataclasses", "inspect"}
    loaded = _modules_loaded_by(
        "import searchorder.cli, searchorder.attachment, searchorder.dfs_tree,"
        " searchorder.reductions, searchorder.oracles")
    assert not loaded & {"dataclasses", "inspect"}


_REIMPORT = """
import collections, gc, importlib, json, sys
for _ in range(5):
    for name in [m for m in sys.modules if m.split(".")[0] == "searchorder"]:
        del sys.modules[name]
    for name in MODULES:
        importlib.import_module(name)
gc.collect()
alive = collections.Counter(
    f"{c.__module__}.{c.__qualname__}" for c in gc.get_objects()
    if isinstance(c, type) and c.__module__.split(".")[0] == "searchorder")
print(json.dumps(alive))
"""


def test_a_reimport_leaves_no_stale_class():
    """Nothing global, such as typing's cache, holds a dropped module's
    classes. Run apart: a re-import here would split class identity
    between test modules."""
    modules = [f"searchorder.{p.stem}" for p in MODULES if not p.stem.startswith("__")]
    assert len(modules) == 8
    done = subprocess.run(
        [sys.executable, "-c", f"MODULES = {modules!r}" + _REIMPORT],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True,
    )
    alive = json.loads(done.stdout)
    assert {"searchorder.core.Graph", "searchorder.traversals.Paradigm"} <= alive.keys()
    assert {name: n for name, n in alive.items() if n != 1} == {}


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations and __all__ entries name a binding as a whole string
    used |= {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_every_module_parses_as_python_3_10():
    # README and pyproject.toml promise Python 3.10+; the parser's
    # feature_version rejects later syntax such as except*
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    for path in MODULES:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _python_3_10():
    """A Python 3.10 interpreter, or None: python3.10 on PATH or, when
    that is a pyenv shim for another version, the pyenv install that
    provides it."""
    found = shutil.which("python3.10")
    if found is None:
        return None
    candidates = [found]
    if shutil.which("pyenv"):
        whence = subprocess.run(["pyenv", "whence", "--path", "python3.10"],
                                capture_output=True, text=True)
        candidates += whence.stdout.split()
    for python in candidates:
        probe = subprocess.run(
            [python, "-c", "import sys; sys.exit(sys.version_info[:2] != (3, 10))"],
            capture_output=True)
        if probe.returncode == 0:
            return python
    return None


_UNDER_3_10 = """
import contextlib, importlib, io, sys
for name in MODULES:
    importlib.import_module(name)
from searchorder.cli import run
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = run(["recognize", "--paradigm", "dfs-tree", "--profile", PROFILE])
print(sys.version_info[:2] == (3, 10), code)
print(out.getvalue(), end="")
"""


def test_the_package_runs_under_python_3_10(tmp_path):
    # the parse above misses library calls newer than 3.10; this imports
    # every module and answers one profile on a real 3.10 interpreter
    python = _python_3_10()
    if python is None:
        pytest.skip("no python3.10 on PATH")
    from searchorder.cli import run

    profile = tmp_path / "p.txt"
    profile.write_text("vertices: a b c d e\na b c d e\nc b a d e\n")
    modules = [f"searchorder.{p.stem}" for p in MODULES if not p.stem.startswith("__")]
    assert len(modules) == 8
    done = subprocess.run(
        [python, "-c", f"MODULES = {modules!r}; PROFILE = {str(profile)!r}" + _UNDER_3_10],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True,
    )
    first, answer = done.stdout.split("\n", 1)
    assert first == "True 0"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["recognize", "--paradigm", "dfs-tree", "--profile", str(profile)]) == 0
    assert answer == out.getvalue()


def _package_imports(module):
    """The package modules that module imports, relatively or by name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            found |= {name.partition(".")[2] or "__init__"
                      for name in names if name.split(".")[0] == "searchorder"}
    return found


def test_oracles_stay_independent_of_the_recognizers():
    # a candidate is accepted only by the label replay, traversals.replays:
    # never the four-point shortcuts of verifiers (frontier_check,
    # satisfies_property, is_s_ordering)
    assert _package_imports("oracles") <= {"core", "traversals"}
    reached, todo = set(), ["oracles"]
    while todo:
        module = todo.pop()
        reached.add(module)
        todo += _package_imports(module) - reached
    assert not reached & {"verifiers", "attachment", "dfs_tree", "reductions", "__init__"}


def test_the_dfs_recognizer_shares_no_engine_with_its_checkers():
    # dfs_tree checks its rows with its own walk, so verifiers, which the
    # tests and the benchmark use to replay its witnesses, stays independent
    assert _package_imports("dfs_tree") == {"attachment", "core"}


def test_the_label_engine_imports_only_core():
    # traversals stays at the bottom of the module graph, under every
    # module that replays labels
    assert _package_imports("traversals") == {"core"}


# Special methods (`__len__`, `__iter__`, `__contains__`, `__str__`) are
# reached through len(), iteration, `in` and str(), which no scan of names
# sees, so no check here covers them: their callers are checked by hand.
def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """Module-level private functions, classes and constants, and the
    private methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body if isinstance(item, ast.FunctionDef))


def test_every_private_name_has_a_user():
    defined, used = set(), set()
    for path in MODULES:
        tree = ast.parse(path.read_text())
        defined |= {name for name in _private_definitions(tree) if _is_private(name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(defined - used) == []


def _attributes_read(paths):
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }


def test_every_public_method_has_a_user_in_the_package_or_perfbench():
    # the tests alone do not keep a method alive
    read = _attributes_read([*MODULES, *PERFBENCH.glob("*.py")])
    unused = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                unused += [
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and item.name not in read
                ]
    assert unused == []


def _reads(tree):
    """How often each name is read in tree, as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    )


def test_every_unexported_public_function_has_a_user_in_the_package_or_perfbench():
    # the function-level partner of the method test above; a function's
    # reads of itself, as in a recursion, do not count
    trees = {path: ast.parse(path.read_text()) for path in [*MODULES, *PERFBENCH.glob("*.py")]}
    reads = sum(map(_reads, trees.values()), Counter())
    unused = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in trees[path].body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in searchorder.__all__
        and reads[node.name] == _reads(node)[node.name]
    ]
    assert unused == []


# traced names that no longer exist: the tracer reports and skips them
KNOWN_STALE = {
    "searchorder.dfs_tree.is_s_ordering",
    "searchorder.attachment.AttachmentDigraph.out_neighbors",
}


def test_every_traced_name_resolves_to_a_callable():
    # perfbench wraps module attributes by name, so a renamed or re-imported
    # function silently drops out of its spans
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {
        spans.target_label(owner, attr)
        for owner, attr, *_ in spans.TARGETS
        if not callable(spans.lookup(owner, attr))
    }
    assert missing <= KNOWN_STALE


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", Path(__file__).with_name("mutants.py"))
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants.MUTANTS


def test_every_mutant_applies_once_and_names_existing_tests():
    # tests/mutants.py runs outside Tier-1, so an edit that no longer
    # applies or a test that was renamed would otherwise go unseen
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants)
    functions = {}
    for m in mutants:
        assert m.old != m.new and (PACKAGE / m.file).read_text().count(m.old) == 1, m.name
        for node_id in m.tests:
            path, _, name = node_id.partition("::")
            if path not in functions:
                tree = ast.parse((README.parent / path).read_text())
                functions[path] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            assert not name or name.partition("[")[0] in functions[path], node_id


def test_every_engine_module_has_a_mutant():
    # a module that no mutant edits has no check that its tests catch a defect
    engines = {"core", "traversals", "verifiers", "attachment", "dfs_tree", "oracles", "reductions"}
    assert engines <= {p.stem for p in MODULES}
    assert engines - {Path(m.file).stem for m in _mutants()} == set()


def test_random_profiles_refuses_more_rows_than_permutations():
    with pytest.raises(ValueError):
        random_profiles(1, 1, sizes=(1,), rows=(2,))


def test_random_profiles_refuses_more_vertices_than_names():
    with pytest.raises(ValueError, match="exceeds the 8 names of NAMES"):
        random_profiles(1, 1, sizes=range(4, 10))

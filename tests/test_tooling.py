"""Hygiene checks that stand in for a linter: the public API resolves,
no package module imports a name it never uses, and the shared test
corpora refuse requests they cannot meet."""

import ast
from pathlib import Path

import pytest

import searchorder

from conftest import random_profiles

MODULES = sorted(Path(searchorder.__file__).parent.glob("*.py"))


def test_every_public_name_resolves():
    assert len(set(searchorder.__all__)) == len(searchorder.__all__)
    assert [name for name in searchorder.__all__ if not hasattr(searchorder, name)] == []


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


def test_random_profiles_refuses_more_rows_than_permutations():
    with pytest.raises(ValueError):
        random_profiles(1, 1, sizes=(1,), rows=(2,))

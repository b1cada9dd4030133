"""Every module of the package uses what it imports (``__init__`` re-exports and is exempt)."""

import ast
from pathlib import Path

import pytest

import frameseq

MODULES = sorted(p for p in Path(frameseq.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, pi)\n") == [
        (1, "os"),
        (3, "tau"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

"""Every module of the package uses what it imports (``__init__`` re-exports and is exempt),
and imports only at module level, so an import cycle cannot hide inside a function."""

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


def local_imports(source):
    """Line numbers of the imports that sit inside a function body."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def test_checker_sees_a_local_import():
    source = "import os\n\ndef f():\n    from math import pi\n    return pi\n\nclass C:\n    def g(self):\n        import sys\n"
    assert local_imports(source) == [4, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert local_imports(path.read_text()) == []


def numpy_random_references(source):
    """Line numbers where ``np.random`` or ``numpy.random`` is named or imported."""
    tree = ast.parse(source)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            lines += [node.lineno for alias in node.names if alias.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names)
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_checker_sees_numpy_random():
    source = (
        "import random\nimport numpy as np\nimport numpy.random\nfrom numpy import random as nr\n"
        "from numpy.random import default_rng\nrng = np.random.default_rng(0)\nx = numpy.random.rand()\n"
        "y = random.Random(0)\n"
    )
    assert numpy_random_references(source) == [3, 4, 5, 6, 7]


@pytest.mark.parametrize("path", sorted(Path(frameseq.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_random(path):
    # seeded draws take the stdlib's random.Random: numpy.random costs every CLI child that imports it
    assert numpy_random_references(path.read_text()) == []

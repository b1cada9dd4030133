"""Every field of a dataclass in the package is read somewhere: as an attribute load in the package,
the benchmarks or the tests.  A field that nothing reads, and the work that fills it, should go.

The check matches attribute names, not types, so a field shares its reads with every attribute of
the same name on any object: ``x.note`` on one result type counts as a read of ``note`` on all of
them.  It cannot see such a field go unread.  Before this guard, ``SufficiencyResult.note``,
``CoverEstimate.alpha`` and ``BlocksSpectrum.alpha`` and ``n_max`` were unread in that way (their
only readers were ``IntervalEnergyRow.note`` and ``DyadicBlocks.alpha`` and ``n_max``), so they were
found by hand.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "frameseq").glob("*.py"))
READERS = sorted(p for d in ("src", "benchmarks", "tests") for p in (ROOT / d).rglob("*.py"))


def _is_dataclass_decorator(node):
    node = node.func if isinstance(node, ast.Call) else node
    return isinstance(node, ast.Name) and node.id == "dataclass"


def dataclass_fields(source):
    """``(class, field)`` of every annotated field of a class decorated ``@dataclass`` or ``@dataclass(...)``."""
    tree = ast.parse(source)
    return [
        (cls.name, stmt.target.id)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(map(_is_dataclass_decorator, cls.decorator_list))
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def attribute_loads(source):
    """Names of every attribute the source reads (a store or a delete is not a read)."""
    return {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(source, loads):
    """``(class, field)`` of every dataclass field in ``source`` whose name is not in ``loads``."""
    return [f for f in dataclass_fields(source) if f[1] not in loads]


def test_checker_sees_an_unread_field():
    source = (
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    read: int\n"
        "    stored: int\n"
        "    unread: int = 0\n"
        "@dataclass(frozen=True)\n"
        "class B:\n"
        "    kept: list = field(default_factory=list)\n"
        "    LIMIT = 4\n"
        "class C:\n"
        "    plain: int\n"
        "def f(a, b):\n"
        "    a.stored = a.read + len(b.kept)\n"
    )
    assert dataclass_fields(source) == [("A", "read"), ("A", "stored"), ("A", "unread"), ("B", "kept")]
    assert unread_fields(source, attribute_loads(source)) == [("A", "stored"), ("A", "unread")]


@pytest.fixture(scope="module")
def loads():
    return set().union(*(attribute_loads(p.read_text()) for p in READERS))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_dataclass_field_is_read(path, loads):
    assert unread_fields(path.read_text(), loads) == []

"""Only ``translation_sets`` knows the kinds of index set: no other module of the package compares a
string with a kind name or reads a set's ``params``.  They read its ``period`` and ``one_sided``
instead, and pass ``kind`` on only as the report's label."""

import ast
from pathlib import Path

import pytest

import frameseq

KINDS = {"explicit", "integers", "subgroup", "naturals", "squares", "powers", "geometric", "dyadic_blocks"}
MODULES = sorted(p for p in Path(frameseq.__file__).parent.glob("*.py") if p.name != "translation_sets.py")


def kind_reads(source):
    """``(line, name)`` of every kind name a comparison tests against, and of every ``params`` read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "params":
            found.append((node.lineno, "params"))
        elif isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                # a single name, or the names of an ``in`` test's tuple, list or set
                elts = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
                found += [(node.lineno, e.value) for e in elts if isinstance(e, ast.Constant) and e.value in KINDS]
    return sorted(found)


def test_checker_sees_kind_dispatch():
    # the envelope kind "power" is not an index kind
    source = (
        "def f(ts, kind, env):\n"
        "    if ts.kind == 'subgroup' or 'naturals' != kind:\n"
        "        return dict(ts.params)['m']\n"
        "    return kind in ('integers', 'squares'), env.kind == 'power', ts.period, ts.one_sided\n"
    )
    assert kind_reads(source) == [(2, "naturals"), (2, "subgroup"), (3, "params"), (4, "integers"), (4, "squares")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_but_translation_sets_dispatches_on_index_kind(path):
    assert kind_reads(path.read_text()) == []

"""Only ``spectrum`` knows how a generator is stored: no other module of the package reads a
profile's pieces, a piece's shape fields or evaluator, or an envelope's tail slope."""

import ast
from pathlib import Path

import pytest

import frameseq

STORAGE = {"pieces", "samples", "affine", "_poly", "eval_inside", "_tail_slope"}
MODULES = sorted(p for p in Path(frameseq.__file__).parent.glob("*.py") if p.name != "spectrum.py")


def storage_reads(source):
    """``(line, attribute)`` of every attribute read that names how a generator is stored."""
    tree = ast.parse(source)
    return sorted((node.lineno, node.attr) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in STORAGE)


def test_checker_sees_a_storage_read():
    source = (
        "def f(profile, env):\n"
        "    for p in profile.pieces:\n"
        "        q = p._poly(), p.samples.size\n"
        "    return env._tail_slope, Piece(0.0, 1.0, affine=(0.0, 1.0)), profile.support()\n"
    )
    assert storage_reads(source) == [(2, "pieces"), (3, "_poly"), (3, "samples"), (4, "_tail_slope")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_but_spectrum_reads_generator_storage(path):
    assert storage_reads(path.read_text()) == []

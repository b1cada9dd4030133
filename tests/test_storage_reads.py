"""Only ``spectrum`` knows how a generator is stored: no other module of the package reads a
profile's pieces, a piece's shape fields or evaluator, an envelope's tail slope or rate function,
or imports the envelope integrals' private kernel."""

import ast
from pathlib import Path

import pytest

import frameseq

STORAGE = {"pieces", "samples", "affine", "_poly", "eval_inside", "_tail_slope", "_rate_fn"}
KERNEL = {"_integrate_gaps", "_tail_F2", "_power_int0F"}
MODULES = sorted(p for p in Path(frameseq.__file__).parent.glob("*.py") if p.name != "spectrum.py")


def storage_reads(source):
    """``(line, attribute)`` of every attribute read that names how a generator is stored."""
    tree = ast.parse(source)
    return sorted((node.lineno, node.attr) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in STORAGE)


def kernel_imports(source):
    """``(line, name)`` of every import of the envelope integrals' private kernel."""
    tree = ast.parse(source)
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in KERNEL
    )


def test_checker_sees_a_storage_read():
    source = (
        "def f(profile, env):\n"
        "    for p in profile.pieces:\n"
        "        q = p._poly(), p.samples.size\n"
        "    return env._tail_slope, Piece(0.0, 1.0, affine=(0.0, 1.0)), profile.support(), env._rate_fn(1.0)\n"
    )
    assert storage_reads(source) == [(2, "pieces"), (3, "_poly"), (3, "samples"), (4, "_rate_fn"), (4, "_tail_slope")]


def test_checker_sees_a_kernel_import():
    # the import a module would need to compute envelope integrals itself, as a plain and an aliased name
    source = (
        "from .periodization import InconsistencyError\n"
        "from .spectrum import _integrate_gaps, _tail_F2\n"
        "from frameseq.spectrum import TimeEnvelope, _power_int0F as int0\n"
    )
    assert kernel_imports(source) == [(2, "_integrate_gaps"), (2, "_tail_F2"), (3, "_power_int0F")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_but_spectrum_reads_generator_storage(path):
    assert storage_reads(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_but_spectrum_imports_the_envelope_kernel(path):
    assert kernel_imports(path.read_text()) == []

"""The benchmark tracer still finds every name it wraps or reads.

``benchmarks/tracing.py`` patches functions and methods by name and reads
attributes of their results (``GramOperator.route`` and ``grid_size``), so
a rename in the package would otherwise only show when a traced benchmark
run breaks.
"""

import importlib
import os

import frameseq.gram as gram
from frameseq.constructions import plateau_taper_profile
from frameseq.translation_sets import TranslationSet

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


def test_tracer_wraps_a_classify_call(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    tracing = importlib.import_module("tracing")
    original = gram.classify
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = gram.classify(plateau_taper_profile(2.0, 1.0), 2.0, TranslationSet.integers(16))
    finally:
        tracer.uninstall()
    assert gram.classify is original
    assert report.classification == "exact frame sequence"
    totals = tracing.layer_totals(tracer.records())
    assert totals["gram.classify"]["calls"] == 1
    build = totals["gram.build_gram"]
    assert build["calls"] == 1 and build["route_grid"] == 1 and build["dim_sum"] == 129  # Budgets.window = 64 on each side of 0
    assert build["grid_points"] == 0 and build["checked_shifts"] > 0

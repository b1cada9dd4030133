"""Spans around the calls into each frameseq layer, recorded from outside.

``install`` replaces each public function named in ``WRAPS`` by a timing
wrapper.  Modules import each other with ``from .x import y``, so a module
attribute alone is not enough: every binding of the original function in any
loaded ``frameseq`` module (``gram.periodize``, ``constructions.periodize``,
the names ``cli`` imports, the package re-exports) is replaced as well.
Methods (``FourierProfile.eval``, ``TranslationSet.realize``,
``PeriodizedSpectrum._coeff_fft``) are patched on their class.

Spans are kept in memory as ``(name, start, end, parent, op)`` tuples plus a
per-span count dict, and are turned into the per-layer metrics that
BENCHMARK.json names by ``layer_metrics``.  A layer's self time is its
span's duration minus the time covered by its direct child spans (the
program is single threaded, so children never overlap).
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np


def _grid_of(args, kwargs, result, _pre):
    return {"grid_points": result.grid_size}


def _xi_points(args, kwargs, result, _pre):
    xi = args[2] if len(args) > 2 else kwargs["xi"]
    return {"points": int(np.size(xi))}


def _fft_pre(args, kwargs):
    return args[0]._fft is None


def _fft_points(args, kwargs, result, missed):
    # the FFT is cached on the spectrum; only a cache miss transforms
    return {"points": args[0].grid_size if missed else 0}


def _gram_counts(args, kwargs, result, _pre):
    integer = result.indices.dtype == np.int64
    grid = result.route == "periodization-grid"
    return {
        "grid_points": result.grid_size or 0,
        "dim_sum": result.dim,
        "checked_shifts": len(result.checked_shifts),
        "route_grid": int(grid),
        "route_autocorr": int(not grid),
        "integer_builds": int(integer),
        "integer_fallbacks": int(integer and not grid),
    }


def _eig_dim(args, kwargs, result, _pre):
    return {"dim_max": result.dim}


def _g_points(args, kwargs, result, _pre):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"points": int(np.size(x))}


# (module, attribute or Class.method, layer metric prefix, counter, pre-hook)
WRAPS = [
    ("frameseq.periodization", "periodize", "periodization.periodize", _grid_of, None),
    ("frameseq.periodization", "periodize_at", "periodization.periodize_at", _xi_points, None),
    ("frameseq.periodization", "fourier_coeff", "periodization.coeff_fft", None, None),
    ("frameseq.periodization", "PeriodizedSpectrum._coeff_fft", "periodization.coeff_fft", _fft_points, _fft_pre),
    ("frameseq.gram", "build_gram", "gram.build_gram", _gram_counts, None),
    ("frameseq.gram", "frame_bound_estimates", "gram.eigensolve", _eig_dim, None),
    ("frameseq.gram", "classify", "gram.classify", None, None),
    ("frameseq.gram", "weighted_norm_identity_check", "gram.weighted_norm", None, None),
    ("frameseq.spectrum", "autocorrelation", "spectrum.autocorrelation", None, None),
    ("frameseq.spectrum", "FourierProfile.eval", "spectrum.profile_eval", None, None),
    ("frameseq.translation_sets", "TranslationSet.realize", "translation_sets.realize", None, None),
    ("frameseq.translation_sets", "density", "translation_sets.density", None, None),
    ("frameseq.translation_sets", "density_exponent_fit", "translation_sets.density", None, None),
    ("frameseq.translation_sets", "g_function", "translation_sets.g_function", _g_points, None),
    ("frameseq.translation_sets", "upper_bound_sufficient", "translation_sets.upper_bound", None, None),
    ("frameseq.translation_sets", "upper_bound_necessary", "translation_sets.upper_bound", None, None),
    ("frameseq.translation_sets", "interval_energy_test", "translation_sets.interval_energy", None, None),
    ("frameseq.zeroset_hausdorff", "hausdorff_sublevel", "zeroset_hausdorff.cover", None, None),
    ("frameseq.zeroset_hausdorff", "cover_mask", "zeroset_hausdorff.cover", None, None),
    ("frameseq.zeroset_hausdorff", "coefficient_sum_bound_check", "zeroset_hausdorff.coefficient_sum", None, None),
    ("frameseq.zeroset_hausdorff", "interval_mass_bound_check", "zeroset_hausdorff.interval_mass", None, None),
    ("frameseq.zeroset_hausdorff", "interval_mass_scaling", "zeroset_hausdorff.interval_mass", None, None),
    ("frameseq.constructions", "indicator_profile", "constructions.profiles", None, None),
    ("frameseq.constructions", "box_profile", "constructions.profiles", None, None),
    ("frameseq.constructions", "tent_profile", "constructions.profiles", None, None),
    ("frameseq.constructions", "plateau_taper_profile", "constructions.profiles", None, None),
    ("frameseq.constructions", "ramp_plateau_profile", "constructions.profiles", None, None),
    ("frameseq.constructions", "gallery_profiles", "constructions.profiles", None, None),
    ("frameseq.constructions", "infimum_spectrum", "constructions.infimum_spectrum", None, None),
    ("frameseq.constructions", "block_wave", "constructions.block_wave", None, None),
    ("frameseq.constructions", "verify_lower_collapse", "constructions.verify_lower_collapse", None, None),
    ("frameseq.cli", "main", "cli.main", None, None),
]


class Tracer:
    """In-memory span recorder; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, counts]
        self.stack = []
        self.op = None
        self._restore = []

    def wrap(self, name, fn, count, pre):
        tracer = self

        def traced(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [name, time.perf_counter(), None, parent, tracer.op, None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if count:
                span[5] = count(args, kwargs, result, state)
            return result

        return traced

    def install(self):
        """Wrap every entry of ``WRAPS`` in every loaded frameseq module."""
        for modname, attr, name, count, pre in WRAPS:
            if modname not in sys.modules:
                importlib.import_module(modname)
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig, count, pre))
                continue
            orig = getattr(module, attr)
            wrapper = self.wrap(name, orig, count, pre)
            for mod in [m for k, m in sys.modules.items() if k == "frameseq" or k.startswith("frameseq.")]:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def merge(self, records):
        """Append spans recorded by a child process under the current op."""
        base = len(self.spans)
        for r in records:
            parent = None if r["parent"] is None else base + r["parent"]
            self.spans.append([r["name"], r["start"], r["end"], parent, self.op, r["counts"]])

    def uninstall(self):
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore = []

    def records(self):
        """Spans as JSON-ready dicts (start/end in seconds of perf_counter)."""
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4], "counts": s[5]}
            for s in self.spans
        ]


def self_times(records):
    """Per-span self time: duration minus the direct children's durations."""
    child = [0.0] * len(records)
    for r in records:
        if r["parent"] is not None:
            child[r["parent"]] += r["end"] - r["start"]
    return [r["end"] - r["start"] - c for r, c in zip(records, child)]


def layer_totals(records):
    """Calls, self time and work counts summed by metric prefix."""
    totals = {}
    for r, self_s in zip(records, self_times(records)):
        t = totals.setdefault(r["name"], {"calls": 0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += self_s
        for key, val in (r["counts"] or {}).items():
            if key == "dim_max":
                t[key] = max(t.get(key, 0), val)
            else:
                t[key] = t.get(key, 0) + val
    return totals


def layer_metrics(per_layer, totals, passes, import_s, overhead_s):
    """The ``per_layer`` metrics of BENCHMARK.json, averaged per traced pass."""
    out = {}
    for entry in per_layer:
        metric, unit = entry["name"], entry["unit"]
        prefix, _, stat = metric.rpartition(".")
        if metric == "cli.import_s":
            value = import_s
        elif metric == "trace.overhead_s":
            value = overhead_s
        elif stat == "fallback_ratio":
            t = totals.get(prefix, {})
            builds = t.get("integer_builds", 0)
            value = t.get("integer_fallbacks", 0) / builds if builds else 0.0
        elif stat == "dim_max":
            value = totals.get(prefix, {}).get(stat, 0)
        else:
            value = totals.get(prefix, {}).get(stat, 0) / passes
        out[metric] = {"value": value, "unit": unit}
    return out

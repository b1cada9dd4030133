"""Command-line front end: batch analyses with deterministic reports.

Exit codes: 0 for a determinate result, 1 for usage or configuration
errors and for inputs past a resource cap (reported as ``resource limit:``),
2 when a classification comes back undetermined, 3 when an internal
cross-check fails.  Reports are JSON with floats canonicalized
to 12 significant digits; identical configurations and seeds produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys

import numpy as np

# CPython's built-in SHA-256, the module hashlib falls back to without
# OpenSSL: the same digest, without loading OpenSSL's _hashlib
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .constructions import (
    box_profile,
    indicator_profile,
    infimum_spectrum,
    plateau_taper_profile,
    ramp_plateau_profile,
    tent_profile,
    verify_lower_collapse,
)
from .gram import (
    EIGENSOLVE_CAP,
    WINDOW_DOUBLINGS,
    Budgets,
    InconsistencyError,
    build_gram,
    classify,
    frame_bound_estimates,
    weighted_norm_identity_check,
)
from .periodization import (
    GRID_CAP,
    ResourceLimitError,
    cell_evidence,
    check_grid_size,
    dilation_identity_deviation,
    exact_bounds,
    periodize,
    summary,
)
from .spectrum import FourierProfile, TimeEnvelope
from .translation_sets import (
    TranslationSet,
    density,
    density_exponent_fit,
    g_equivalence_check,
    upper_bound_necessary,
    upper_bound_sufficient,
)
from .zeroset_hausdorff import (
    _complex_normal,
    coefficient_sum_bound_check,
    interval_mass_scaling,
    sublevel_ladder,
)

SCHEMA = "frameseq/1"
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDETERMINED = 2
EXIT_INCONSISTENT = 3

_FRAME_VERDICTS = {
    "orthonormal",
    "exact frame sequence",
    "frame sequence (non-exact)",
}

_EPILOG = """\
profile tokens:
  box | tent | half | indicator:<lo>:<hi> | taper:<a>:<b> | ramp:<a>:<b>
  | blocks:<alpha>:<n_max>[:<grid>]   (or a path to a profile JSON file)
index tokens (--indices):
  Z | N | mZ:<m> | squares[:<n>] | powers:<p>:<n> | geometric:<n>
  | blocks:<alpha>:<n> | list:<v1>,<v2>,...   (Z/N/mZ take --window)
CSV columns:
  periodize: xi, phi          verify: n, w
  density:   x, D             hausdorff: eps, depth, cells, measure_sum
"""


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ----------------------------------------------------------------------------
# deterministic serialization
# ----------------------------------------------------------------------------


def _canon(obj):
    """Floats to 12 significant digits, numpy scalars to python, ordered."""
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_canon(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return float(format(x, ".12g"))
    if isinstance(obj, complex):
        return {"re": _canon(obj.real), "im": _canon(obj.imag)}
    return obj


def _config_hash(cfg):
    blob = json.dumps(_canon(cfg), sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


def _emit(payload, cfg, out_path):
    doc = {
        "schema": SCHEMA,
        "config": _canon(cfg),
        "config_hash": _config_hash(cfg),
        "result": _canon(payload),
    }
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([format(v, ".12g") if isinstance(v, float) else v for v in row])


# ----------------------------------------------------------------------------
# argument resolution
# ----------------------------------------------------------------------------


def _load_profile(source):
    """Named token, parameterized token, or a JSON file path."""
    if os.path.isfile(source):
        with open(source, encoding="utf-8") as fh:
            return FourierProfile.from_json(json.load(fh)), {"file": source}
    name, *args = source.split(":")
    try:
        if name == "box" and not args:
            return box_profile(), {"token": source}
        if name == "tent" and not args:
            return tent_profile(), {"token": source}
        if name == "half" and not args:
            return indicator_profile(0.0, 0.5), {"token": source}
        if name == "indicator" and len(args) == 2:
            return indicator_profile(float(args[0]), float(args[1])), {"token": source}
        if name == "taper" and len(args) == 2:
            return plateau_taper_profile(float(args[0]), float(args[1])), {"token": source}
        if name == "ramp" and len(args) == 2:
            prof, eps = ramp_plateau_profile(float(args[0]), float(args[1]))
            return prof, {"token": source, "eps": eps}
        if name == "blocks" and len(args) in (2, 3):
            n_max = int(args[1])
            grid = int(args[2]) if len(args) == 3 else _blocks_grid(n_max)
            built = infimum_spectrum(float(args[0]), n_max, grid)
            return built.profile, {"token": source, "grid": grid}
    except InconsistencyError:
        raise
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"cannot build profile {source!r}: {exc}") from exc
    except (ValueError, RuntimeError) as exc:
        raise UsageError(f"cannot build profile {source!r}: {exc}") from exc
    raise UsageError(f"unknown profile {source!r} (not a token, not a file)")


def _blocks_grid(n_max):
    """Default grid of a blocks profile: block ``n_max`` needs ``2^(n_max + 2)`` points."""
    return check_grid_size(max(2 ** (n_max + 2), 2**14), f"n_max = {n_max} needs 2^{n_max + 2} points; a grid")


def _load_indices(token, window):
    try:
        return TranslationSet.from_token(token, window=window)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_envelope(source):
    name, *args = source.split(":")
    try:
        if name == "power" and len(args) == 1:
            return TimeEnvelope.power(float(args[0]))
        if name == "exp" and len(args) == 2:
            # the rate is either the name "xlog" or a power-law beta
            rate = {"xlog": {}} if args[1] == "xlog" else {"power": {"beta": float(args[1])}}
            return TimeEnvelope.exponential(float(args[0]), rate)
    except ValueError as exc:
        raise UsageError(f"cannot build envelope {source!r}: {exc}") from exc
    raise UsageError(f"unknown envelope {source!r} (use power:<a> or exp:<delta>:<rate>)")


def _given(value, default):
    """A flag's value, or ``default`` when the flag was not given (0 is a value)."""
    return default if value is None else value


def _budgets(args):
    kw = {}
    if getattr(args, "grid", None) is not None:
        kw["grid_size"] = check_grid_size(args.grid, "--grid")
    if getattr(args, "window", None) is not None:
        if not (4 <= args.window <= EIGENSOLVE_CAP):
            raise UsageError(f"--window must lie in [4, {EIGENSOLVE_CAP}]")
        kw["window"] = args.window
    return Budgets(**kw)


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------


def _cmd_analyze(args, cfg):
    profile, desc = _load_profile(args.profile)
    budgets = _budgets(args)
    ts = _load_indices(args.indices, _given(args.window, budgets.window << WINDOW_DOUBLINGS))
    report = classify(profile, args.b, ts, budgets=budgets)
    payload = {"profile": desc, "report": report.to_json()}
    _emit(payload, cfg, args.out)
    return EXIT_UNDETERMINED if report.classification == "undetermined" else EXIT_OK


def _cmd_periodize(args, cfg):
    profile, desc = _load_profile(args.profile)
    grid = check_grid_size(_given(args.grid, 4096), "--grid")
    ps = periodize(profile, args.b, grid_size=grid)
    eb = exact_bounds(profile, ps.b)
    intervals = eb.zero_runs()
    payload = {
        "profile": desc,
        "summary": summary(ps, eb),
        "zero_runs": len(intervals),
        "zero_intervals": intervals,
        "evidence": [cell_evidence(eb, ps)],
    }
    if args.csv:
        _write_rows(args.csv, ["xi", "phi"], zip(ps.grid(), ps.values))
    _emit(payload, cfg, args.out)
    return EXIT_OK


def _cmd_gram(args, cfg):
    profile, desc = _load_profile(args.profile)
    ts = _load_indices(args.indices, _budgets(args).window)
    op = build_gram(profile, args.b, ts)
    fb = frame_bound_estimates(op)
    payload = {
        "profile": desc,
        "route": op.route,
        "checked_shifts": op.checked_shifts,
        "max_check_deviation": op.max_check_deviation,
        "check_budget": op.check_budget,
        "dim": fb.dim,
        "solver": fb.solver,
        "A_est": fb.A_est,
        "B_est": fb.B_est,
        "min_eigenvalue": fb.min_eigenvalue,
        "numerical_rank": fb.numerical_rank,
        "kernel_dim": fb.kernel_dim,
        "degenerate": fb.degenerate,
    }
    _emit(payload, cfg, args.out)
    return EXIT_OK


def _cmd_density(args, cfg):
    if args.xmax is not None and not math.isfinite(args.xmax):
        raise UsageError(f"--xmax must be finite, got {args.xmax}")
    ts = _load_indices(args.indices, args.window)
    exponent, windows = density_exponent_fit(ts)
    # without --xmax the largest window is the fit's, the largest 2^k inside the realized span
    xmax = _given(args.xmax, 2.0 ** float(windows["p"][-1]))
    if xmax < 1.0:
        raise UsageError(f"--xmax {xmax:g} is below 1: it leaves no window 2^k <= --xmax")
    xs = [2.0**k for k in range(math.frexp(xmax)[1])]  # frexp's exponent is floor(log2 xmax) + 1, exactly
    rows = list(zip(xs, density(ts, xs).tolist()))
    payload = {
        "table": [{"x": x, "D": d} for x, d in rows],
        "exponent_fit": exponent,
        "fit_windows": windows,
    }
    if args.envelope:
        env = _load_envelope(args.envelope)
        suff = upper_bound_sufficient(env, ts, x_max=xmax)
        nec = upper_bound_necessary(env, ts, x_max=xmax)
        payload["upper_bound_sufficient"] = {
            "verdict": suff.verdict,
            "integral": suff.integral,
            "exponent": suff.exponent,
        }
        payload["upper_bound_necessary"] = {
            "verdict": nec.verdict,
            "growth_half": nec.growth_half,
            "growth_quarter": nec.growth_quarter,
            "sup_estimate": nec.sup_estimate,
        }
        try:
            eq = g_equivalence_check(env, x_grid=np.geomspace(1.0, xmax, 400))
            payload["g_equivalence"] = {"C": eq.C, "hypotheses_hold": True}
        except ValueError as exc:
            payload["g_equivalence"] = {"refusal": str(exc), "hypotheses_hold": False}
    if args.csv:
        _write_rows(args.csv, ["x", "D"], rows)
    _emit(payload, cfg, args.out)
    return EXIT_OK


def _cmd_hausdorff(args, cfg):
    if args.levels < 1:
        raise UsageError(f"--levels must be at least 1, got {args.levels}")
    profile, desc = _load_profile(args.profile)
    grid = check_grid_size(_given(args.grid, 2**14), "--grid")
    ests, row = sublevel_ladder(profile, args.b, args.alpha, range(2, 2 * args.levels + 1, 2), grid)
    levels = [
        {
            "eps": est.eps,
            "depth": est.scale,
            "cells": len(est.intervals),
            "measure_sum": est.measure_sum,
            "full_circle": est.full_circle,
        }
        for est in ests
    ]
    payload = {"profile": desc, "alpha": args.alpha, "levels": levels, "evidence": [row]}
    if args.csv:
        _write_rows(
            args.csv,
            ["eps", "depth", "cells", "measure_sum"],
            [(l["eps"], l["depth"], l["cells"], l["measure_sum"]) for l in levels],
        )
    _emit(payload, cfg, args.out)
    return EXIT_OK


def _gallery_pair(profile, spacings, ts, budgets):
    cases = []
    for b in spacings:
        rep = classify(profile, b, ts, budgets=budgets)
        cases.append({"b": b, "report": rep.to_json()})
    verdicts = [c["report"]["classification"] for c in cases]
    paired = (
        len(verdicts) == 2
        and any(v in _FRAME_VERDICTS for v in verdicts)
        and any(v == "not a frame sequence" for v in verdicts)
    )
    return cases, verdicts, paired


def _cmd_gallery(args, cfg):
    budgets = _budgets(args)
    ts = TranslationSet.integers(_given(args.window, 256))
    if args.case in ("taper", "ramp"):
        ramp = args.case == "ramp"
        a, b = _given(args.a, 3.0 if ramp else 2.0), _given(args.b_small, 2.0 if ramp else 1.0)
        payload = {"case": args.case, "a": a, "b": b}
        if ramp:
            profile, payload["eps"] = ramp_plateau_profile(a, b)
        else:
            profile = plateau_taper_profile(a, b)
        payload["cases"], verdicts, payload["paired"] = _gallery_pair(profile, (b, a), ts, budgets)
    else:  # blocks
        alpha = _given(args.alpha, 0.5)
        n_max = _given(args.nmax, 10)
        grid = _given(args.grid, _blocks_grid(n_max))
        built = infimum_spectrum(alpha, n_max, grid)
        ts_blocks = TranslationSet.dyadic_blocks(alpha, n_max)
        rep = classify(built.profile, 1.0, ts_blocks, budgets=budgets)
        verdicts = [rep.classification]
        payload = {
            "case": "blocks",
            "alpha": alpha,
            "n_max": n_max,
            "grid": grid,
            "cases": [{"b": 1.0, "report": rep.to_json()}],
            "paired": rep.classification == "upper bound only",
        }
    _emit(payload, cfg, args.out)
    if any(v == "undetermined" for v in verdicts):
        return EXIT_UNDETERMINED
    return EXIT_OK


def _cmd_verify(args, cfg):
    if args.case != "blocks":
        raise UsageError(f"unknown verification case {args.case!r} (use blocks)")
    alpha = _given(args.alpha, 0.5)
    n_max = _given(args.nmax, 12)
    n_min = _given(args.nmin, 4)
    if args.grid is not None:
        grid = check_grid_size(args.grid, "--grid")
    else:
        # the halving margin is thin: resolve the finest block waves with
        # room to spare, up to GRID_CAP while that still resolves them
        grid = max(_blocks_grid(n_max), min(max(2 ** (n_max + 4), 2**16), GRID_CAP))
    report = verify_lower_collapse(alpha, range(n_min, n_max + 1), grid)
    payload = dict(report)
    if args.csv:
        _write_rows(args.csv, ["n", "w"], [(r["n"], r["w"]) for r in report["rows"]])
    _emit(payload, cfg, args.out)
    return EXIT_OK if report["density_ok"] else EXIT_UNDETERMINED


# ----------------------------------------------------------------------------
# selftest
# ----------------------------------------------------------------------------


def _suite_orthonormal():
    rep = classify(box_profile(), 1.0, TranslationSet.integers(64))
    return {
        "name": "box-orthonormal",
        "passed": rep.classification == "orthonormal",
        "classification": rep.classification,
    }


def _suite_dilation():
    profiles = {
        "box": box_profile(),
        "tent": tent_profile(),
        "taper": plateau_taper_profile(2.0, 1.0),
    }
    devs = {}
    worst = 0.0
    for name, prof in profiles.items():
        for m in (2, 3):
            d = dilation_identity_deviation(prof, 1.0, m, grid_size=4096)
            devs[f"{name}:m={m}"] = d
            worst = max(worst, d)
    return {"name": "dilation-identity", "passed": worst < 1e-10, "deviations": devs}


def _suite_gallery_pairs(budgets):
    results = {}
    ok = True
    ts = TranslationSet.integers(128)
    for name, profile, spacings in (
        ("taper", plateau_taper_profile(2.0, 1.0), (1.0, 2.0)),
        ("ramp", ramp_plateau_profile(3.0, 2.0)[0], (2.0, 3.0)),
    ):
        _, verdicts, paired = _gallery_pair(profile, spacings, ts, budgets)
        results[name] = verdicts
        ok = ok and paired
    return {"name": "gallery-pairs", "passed": ok, "verdicts": results}


def _suite_weighted_norm(seed):
    rng = random.Random(seed)
    profile = plateau_taper_profile(2.0, 1.0)
    worst = 0.0
    for _ in range(10):
        lam = np.sort(rng.sample(range(48), 12))
        c = _complex_normal(rng, 12)
        res = weighted_norm_identity_check(profile, 1.0, lam, c)
        worst = max(worst, res["deviation"])
    return {"name": "weighted-norm-identity", "passed": worst < 1e-8, "max_deviation": worst}


def _suite_coefficient_bound(seed):
    rng = random.Random(seed)
    violations = 0
    for _ in range(100):
        size = rng.randrange(3, 12)
        lam = np.sort(rng.sample(range(64), size))
        c = _complex_normal(rng, size)
        lo = rng.randrange(-16, 8)
        hi = lo + rng.randrange(0, 16)
        res = coefficient_sum_bound_check(lam, c, (lo, hi))
        if not res.passed:
            violations += 1
    return {"name": "coefficient-sum-bound", "passed": violations == 0, "violations": violations}


def _suite_interval_mass(seed):
    out = interval_mass_scaling(
        np.arange(8), scales=[1 / 8, 1 / 16, 1 / 32, 1 / 64], n_trials=16,
        rng_seed=seed, character=True,
    )
    return {
        "name": "interval-mass-scaling",
        "passed": abs(out["slope"]) <= 0.2,
        "slope": out["slope"],
    }


def _suite_blocks_collapse():
    rep = verify_lower_collapse(0.5, range(4, 13), 2**16)
    return {
        "name": "blocks-collapse",
        "passed": rep["w_ratio"] < 0.5 and rep["density_ok"],
        "w_ratio": rep["w_ratio"],
        "density_exponent": rep["density_exponent"],
    }


def _suite_psd():
    worst = -0.0
    for name, prof in (("tent", tent_profile()), ("taper", plateau_taper_profile(2.0, 1.0))):
        op = build_gram(prof, 1.0, np.arange(64))
        fb = frame_bound_estimates(op)
        norm = op.norm_phi_sq
        worst = min(worst, fb.min_eigenvalue / norm)
    return {"name": "gram-psd", "passed": worst >= -1e-8, "min_relative_eigenvalue": worst}


def _cmd_selftest(args, cfg):
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    budgets = Budgets()
    suites = [
        _suite_orthonormal(),
        _suite_dilation(),
        _suite_gallery_pairs(budgets),
        _suite_weighted_norm(args.seed),
        _suite_coefficient_bound(args.seed),
        _suite_interval_mass(args.seed),
        _suite_blocks_collapse(),
        _suite_psd(),
    ]
    all_passed = all(s["passed"] for s in suites)
    payload = {"seed": args.seed, "suites": suites, "all_passed": all_passed}
    _emit(payload, cfg, args.out)
    return EXIT_OK if all_passed else EXIT_INCONSISTENT


# ----------------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------------


def _build_parser():
    p = _Parser(
        prog="frameseq",
        description="Frame-property analysis of translate families.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)

    # each subcommand takes --window and --grid only where it reads them
    def common(sp, profile=True, indices=False, spacing=True, window=False, grid=True):
        if profile:
            sp.add_argument("--profile", required=True, help="profile token or JSON file")
        if spacing:
            sp.add_argument("--b", type=float, default=1.0, help="translation spacing")
        if indices:
            sp.add_argument("--indices", default="Z", help="index-set token")
        if window:
            sp.add_argument("--window", type=int, default=None, help="index window / Gram window")
        if grid:
            sp.add_argument("--grid", type=int, default=None, help="periodization grid size")
        sp.add_argument("--out", default=None, help="write the JSON report here")

    sp = sub.add_parser("analyze", help="classify a translate family")
    common(sp, indices=True, window=True)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("periodize", help="periodized spectrum summary")
    common(sp)
    sp.add_argument("--csv", default=None, help="write xi,phi rows here")
    sp.set_defaults(func=_cmd_periodize)

    sp = sub.add_parser("gram", help="finite Gram window estimates")
    common(sp, indices=True, window=True, grid=False)
    sp.set_defaults(func=_cmd_gram)

    sp = sub.add_parser("density", help="window densities and growth tests")
    common(sp, profile=False, spacing=False, indices=True, window=True, grid=False)
    sp.add_argument("--xmax", type=float, default=None, help="largest window (default: largest 2^k in the span)")
    sp.add_argument("--envelope", default=None, help="power:<a> or exp:<delta>:<rate>")
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=_cmd_density)

    sp = sub.add_parser("hausdorff", help="dyadic covers of small-value sets")
    common(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--levels", type=int, default=4)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=_cmd_hausdorff)

    sp = sub.add_parser("gallery", help="standing examples with paired verdicts")
    sp.add_argument("case", choices=("taper", "ramp", "blocks"))
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", dest="b_small", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--nmax", type=int, default=None)
    common(sp, profile=False, spacing=False, window=True)
    sp.set_defaults(func=_cmd_gallery)

    sp = sub.add_parser("verify", help="end-to-end counterexample verification")
    sp.add_argument("case", choices=("blocks",))
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--nmax", type=int, default=None)
    sp.add_argument("--nmin", type=int, default=None)
    sp.add_argument("--csv", default=None)
    common(sp, profile=False, spacing=False)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("selftest", help="run the deterministic invariant suites")
    common(sp, profile=False, spacing=False, grid=False)
    sp.add_argument("--seed", type=int, default=0, help="root seed of the randomized suites, recorded in output")
    sp.set_defaults(func=_cmd_selftest)

    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # output paths are artifact plumbing, not analysis configuration:
        # identical analyses must hash and render identically
        cfg = {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "out", "csv") and v is not None
        }
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

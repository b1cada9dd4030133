"""Command-line front end: batch analyses with deterministic reports.

Exit codes: 0 for a determinate result, 1 for usage or configuration
errors, 2 when a classification comes back undetermined, 3 when an
internal cross-check fails.  Reports are JSON with floats canonicalized
to 12 significant digits; identical configurations and seeds produce
byte-identical output.
"""

from __future__ import annotations

import os


def _cap_threads():
    n = os.environ.get("FRAMESEQ_THREADS")
    if n:
        for var in (
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "OMP_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
        ):
            os.environ.setdefault(var, n)


_cap_threads()  # must precede the numpy import chain

import argparse
import csv
import hashlib
import json
import math
import sys

import numpy as np

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
    cell_evidence,
    check_grid_size,
    dilation_identity_deviation,
    exact_bounds,
    periodize,
    summary,
    write_csv,
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
    coefficient_sum_bound_check,
    hausdorff_sublevel,
    interval_mass_scaling,
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
  density:   x, D             hausdorff: depth, cells, measure_sum
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
    return hashlib.sha256(blob.encode()).hexdigest()


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
            grid = int(args[2]) if len(args) == 3 else max(2 ** (n_max + 2), 2**14)
            built = infimum_spectrum(float(args[0]), n_max, grid)
            return built.profile, {"token": source, "grid": grid}
    except InconsistencyError:
        raise
    except (ValueError, RuntimeError) as exc:
        raise UsageError(f"cannot build profile {source!r}: {exc}") from exc
    raise UsageError(f"unknown profile {source!r} (not a token, not a file)")


def _load_indices(token, window):
    if token.startswith("list:"):
        vals = [float(v) for v in token[5:].split(",") if v]
        if not vals:
            raise UsageError("empty list: index token")
        return TranslationSet.explicit(vals)
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


def _budgets(args):
    kw = {}
    if getattr(args, "grid", None):
        kw["grid_size"] = check_grid_size(args.grid, "--grid")
    if getattr(args, "window", None):
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
    ts = _load_indices(args.indices, args.window or budgets.window << WINDOW_DOUBLINGS)
    report = classify(profile, args.b, ts, budgets=budgets)
    payload = {"profile": desc, "report": report.to_json(), "seed": args.seed}
    _emit(payload, cfg, args.out)
    return EXIT_UNDETERMINED if report.classification == "undetermined" else EXIT_OK


def _cmd_periodize(args, cfg):
    profile, desc = _load_profile(args.profile)
    grid = check_grid_size(args.grid or 4096, "--grid")
    ps = periodize(profile, args.b, grid_size=grid)
    eb = exact_bounds(profile, ps.b)
    intervals = eb.zero_runs()
    payload = {
        "profile": desc,
        "summary": summary(ps, eb),
        "zero_runs": len(intervals),
        "zero_intervals": intervals,
        "evidence": [cell_evidence(eb, ps)],
        "seed": args.seed,
    }
    if args.csv:
        write_csv(ps, args.csv)
    _emit(payload, cfg, args.out)
    return EXIT_OK


def _cmd_gram(args, cfg):
    profile, desc = _load_profile(args.profile)
    ts = _load_indices(args.indices, _budgets(args).window)
    op = build_gram(profile, args.b, ts, rng_seed=args.seed)
    fb = frame_bound_estimates(op)
    payload = {
        "profile": desc,
        "seed": args.seed,
        "route": op.route,
        "grid_size": op.grid_size,
        "checked_shifts": op.checked_shifts,
        "max_check_deviation": op.max_check_deviation,
        "check_budget": op.check_budget,
        "dim": fb.dim,
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
    ts = _load_indices(args.indices, args.window)
    lam = ts.realize()
    xs = [2.0**k for k in range(0, int(math.log2(max(args.xmax, 2.0))) + 1)]
    rows = zip(xs, density(lam, xs).tolist())
    exponent, windows = density_exponent_fit(ts)
    payload = {
        "seed": args.seed,
        "table": [{"x": x, "D": d} for x, d in rows],
        "exponent_fit": exponent,
        "fit_windows": windows,
    }
    if args.envelope:
        env = _load_envelope(args.envelope)
        suff = upper_bound_sufficient(env, ts, x_max=args.xmax)
        nec = upper_bound_necessary(env, ts, x_max=args.xmax)
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
            eq = g_equivalence_check(env, x_grid=np.geomspace(1.0, args.xmax, 400))
            payload["g_equivalence"] = {"C": eq.C, "hypotheses_hold": True}
        except ValueError as exc:
            payload["g_equivalence"] = {"refusal": str(exc), "hypotheses_hold": False}
    if args.csv:
        _write_rows(args.csv, ["x", "D"], rows)
    _emit(payload, cfg, args.out)
    return EXIT_OK


def _cmd_hausdorff(args, cfg):
    profile, desc = _load_profile(args.profile)
    grid = check_grid_size(args.grid or 2**14, "--grid")
    ps = periodize(profile, args.b, grid_size=grid)
    sup = float(np.max(ps.values))
    levels = []
    for k in range(1, args.levels + 1):
        eps = sup * 2.0 ** (-2 * k)
        est = hausdorff_sublevel(ps, args.alpha, eps)
        levels.append(
            {
                "eps": eps,
                "depth": est.scale,
                "cells": len(est.intervals),
                "measure_sum": est.measure_sum,
                "full_circle": est.full_circle,
            }
        )
    payload = {"profile": desc, "alpha": args.alpha, "levels": levels, "seed": args.seed}
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
    ts = TranslationSet.integers(args.window or 256)
    if args.case == "taper":
        a, b = args.a or 2.0, args.b_small or 1.0
        profile = plateau_taper_profile(a, b)
        cases, verdicts, paired = _gallery_pair(profile, (b, a), ts, budgets)
        payload = {"case": "taper", "a": a, "b": b, "cases": cases, "paired": paired}
    elif args.case == "ramp":
        a, b = args.a or 3.0, args.b_small or 2.0
        profile, eps = ramp_plateau_profile(a, b)
        cases, verdicts, paired = _gallery_pair(profile, (b, a), ts, budgets)
        payload = {
            "case": "ramp",
            "a": a,
            "b": b,
            "eps": eps,
            "cases": cases,
            "paired": paired,
        }
    else:  # blocks
        alpha = args.alpha or 0.5
        n_max = args.nmax or 10
        grid = args.grid or max(2 ** (n_max + 2), 2**14)
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
    payload["seed"] = args.seed
    _emit(payload, cfg, args.out)
    if any(v == "undetermined" for v in verdicts):
        return EXIT_UNDETERMINED
    return EXIT_OK


def _cmd_verify(args, cfg):
    if args.case != "blocks":
        raise UsageError(f"unknown verification case {args.case!r} (use blocks)")
    alpha = args.alpha or 0.5
    n_max = args.nmax or 12
    n_min = args.nmin or 4
    # the halving margin is thin; default to a grid that resolves the
    # finest block waves with room to spare
    grid = args.grid or max(2 ** (n_max + 4), 2**16)
    report = verify_lower_collapse(alpha, range(n_min, n_max + 1), grid)
    payload = dict(report)
    payload["seed"] = args.seed
    if args.csv:
        _write_rows(args.csv, ["n", "w"], [(r["n"], r["w"]) for r in report["rows"]])
    _emit(payload, cfg, args.out)
    return EXIT_OK


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
    rng = np.random.default_rng(seed)
    profile = plateau_taper_profile(2.0, 1.0)
    ps = periodize(profile, 1.0, grid_size=2**20)
    worst = 0.0
    for _ in range(10):
        lam = np.sort(rng.choice(48, size=12, replace=False)).astype(np.int64)
        c = rng.normal(size=12) + 1j * rng.normal(size=12)
        res = weighted_norm_identity_check(profile, 1.0, lam, c, ps=ps)
        worst = max(worst, res["deviation"])
    return {"name": "weighted-norm-identity", "passed": worst < 1e-8, "max_deviation": worst}


def _suite_coefficient_bound(seed):
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(100):
        size = int(rng.integers(3, 12))
        lam = np.sort(rng.choice(64, size=size, replace=False)).astype(np.int64)
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        lo = int(rng.integers(-16, 8))
        hi = lo + int(rng.integers(0, 16))
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
        sp.add_argument("--seed", type=int, default=0, help="root seed, recorded in output")
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
    sp.add_argument("--xmax", type=float, default=1e4)
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
    except RuntimeError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

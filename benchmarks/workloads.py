"""The four benchmark workloads: inputs from a seed, operations and oracles.

A workload is a sequence of passes.  Pass ``p`` of seed ``s`` is generated
from ``numpy.random.default_rng([s, p])``, so the same seed always gives the
same inputs.  Fixed cases (the gallery, the README commands) repeat in every
pass; seeded draws are fresh in every pass.  Each operation carries an
oracle that checks its output against a closed-form verdict or an invariant
stated by the paper, and the input properties that later changes may cite.

Operations that hit a known defect of the program stay in the mix.  Their
failure is counted like any other; ``known_defect`` only records that the
failure reason is the documented one, so that a new failure stays
distinguishable from an old one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

EXACT = "exact frame sequence"
NONEXACT = "frame sequence (non-exact)"
NOTFRAME = "not a frame sequence"
ORTHO = "orthonormal"
UPPER_ONLY = "upper bound only"
UNDETERMINED = "undetermined"
VERDICTS = {EXACT, NONEXACT, NOTFRAME, ORTHO, UPPER_ONLY, UNDETERMINED}


@dataclass
class Op:
    """One timed call into the program and the oracle for its output."""

    name: str
    key: tuple  # identifies the input; a key seen earlier in the run is a repeat
    props: dict  # input properties reported as shares of the run
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    known_defect: str | None = None  # text of the documented failure reason


@dataclass
class Spec:
    why: str
    in_process: bool
    fixed: Callable  # (cli) -> inputs shared by every pass, built during set-up
    make_pass: Callable  # (seed, p, fixed) -> list[Op]
    tail_pct: int  # highest percentile with ten samples beyond it at the usual count


def _rng(seed, p):
    return np.random.default_rng([int(seed), int(p)])


def _dyadic(rng, lo, hi, denom=8):
    return float(rng.integers(int(np.ceil(lo * denom)), int(np.floor(hi * denom)) + 1)) / denom


def _verdict_check(expected):
    def check(report):
        got = report.classification
        return None if got == expected else f"verdict {got!r}, expected {expected!r}"

    return check


# ----------------------------------------------------------------------------
# lattice-verdicts
# ----------------------------------------------------------------------------

def _lattice_expect(family, params, which, kind):
    """The paper's closed-form verdict; ``which`` names the effective spacing."""
    if family == "box":
        base = ORTHO
    elif family == "tent":
        base = NOTFRAME if which == 1.0 else EXACT
    elif family == "taper":  # exact at a, collapsing at b
        base = EXACT if which == "a" else NOTFRAME
    elif family == "ramp":  # non-exact at b, collapsing at a
        base = NONEXACT if which == "b" else NOTFRAME
    else:  # indicator: b (hi - lo) against 1
        lo, hi, s = params
        base = NONEXACT if s * (hi - lo) < 1.0 else EXACT
    if kind == "N" and base in (NONEXACT, NOTFRAME):
        return NOTFRAME  # one-sided families are frames only when exact
    return base  # mZ is the full lattice at spacing m b


def _index_set(kind, m):
    from frameseq.translation_sets import TranslationSet

    if kind == "Z":
        return TranslationSet.integers(512)
    if kind == "N":
        return TranslationSet.naturals(512)
    return TranslationSet.subgroup(m, 512)


def _classify_op(profile, family, params, spacing, which, kind, m, draw):
    from frameseq import gram

    ts = _index_set(kind, m)
    b = spacing / m if kind == "mZ" else spacing
    return Op(
        name=f"classify:{family}",
        key=(family, params, spacing, kind, m),
        props={"params": draw, "index_kind": kind, "integer_set": True, "family": family},
        run=lambda: gram.classify(profile, b, ts),
        check=_verdict_check(_lattice_expect(family, params, which, kind)),
    )


def _lattice_fixed(cli):
    from frameseq import constructions as C

    ramp32 = C.ramp_plateau_profile(3.0, 2.0)[0]
    taper21 = C.plateau_taper_profile(2.0, 1.0)
    return [
        (C.box_profile(), "box", (), 1.0, 1.0),
        (C.tent_profile(), "tent", (), 1.0, 1.0),
        (C.tent_profile(), "tent", (), 2.0, 2.0),
        (taper21, "taper", (2.0, 1.0), 1.0, "b"),
        (taper21, "taper", (2.0, 1.0), 2.0, "a"),
        (ramp32, "ramp", (3.0, 2.0), 2.0, "b"),
        (ramp32, "ramp", (3.0, 2.0), 3.0, "a"),
        (C.indicator_profile(0.0, 0.5), "indicator", (0.0, 0.5, 1.0), 1.0, None),
    ]


# one draw per slot and pass: half dyadic parameters, half generic reals.
# Generic ramp and indicator draws put jumps of phi_hat^2 off every grid and
# fall back to the autocorrelation route; a generic taper is continuous and
# would stay on the grid, so the generic slots leave it out.  Most dyadic ramp
# draws fall back too (traced runs: 26-29% of builds on the fallback route)
_LATTICE_SLOTS = [("taper", True), ("ramp", False), ("indicator", True),
                  ("indicator", False), ("ramp", True), ("ramp", False)]


def _draw(rng, family, dyadic):
    from frameseq import constructions as C

    q = (lambda lo, hi: _dyadic(rng, lo, hi)) if dyadic else (lambda lo, hi: float(rng.uniform(lo, hi)))
    if family == "taper":
        a = q(1.5, 4.0)
        b = q(0.5, a - 0.5)
        which = "a" if rng.integers(2) else "b"
        return C.plateau_taper_profile(a, b), (a, b), a if which == "a" else b, which
    if family == "ramp":
        while True:
            a = q(1.5, 4.0)
            b = q(0.75, a - 0.5)
            if abs(a / b - round(a / b)) > 0.05:
                break
        which = "a" if rng.integers(2) else "b"
        return C.ramp_plateau_profile(a, b)[0], (a, b), a if which == "a" else b, which
    # indicator: b (hi - lo) kept at least 0.15 away from every integer
    while True:
        lo = q(-0.5, 0.5)
        s = q(0.75, 3.0)
        target = float(rng.uniform(0.35, 0.85) if rng.integers(2) else rng.uniform(1.15, 1.85))
        hi = lo + (round(target / s * 64) / 64 if dyadic else target / s)
        length = s * (hi - lo)
        if 0.35 <= length <= 0.85 or 1.15 <= length <= 1.85:
            return C.indicator_profile(lo, hi), (lo, hi, s), s, None


def _lattice_pass(seed, p, fixed):
    rng = _rng(seed, p)
    ops = [_classify_op(prof, fam, params, s, which, "Z", 1, "gallery")
           for prof, fam, params, s, which in fixed]
    for i, (family, dyadic) in enumerate(_LATTICE_SLOTS):
        kind = ("Z", "N", "mZ")[(i + p) % 3]
        m = int(rng.integers(2, 4)) if kind == "mZ" else 1
        profile, params, spacing, which = _draw(rng, family, dyadic)
        ops.append(_classify_op(profile, family, params, spacing, which, kind, m,
                                "dyadic" if dyadic else "generic"))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ----------------------------------------------------------------------------
# generic-windows
# ----------------------------------------------------------------------------

def _windows_fixed(cli):
    from frameseq import constructions as C

    # sup Phi_b / b in closed form: taper(2,1) at b=2 is 1 + taper^2 <= 2;
    # the tent at b=2 is xi^2 + (1 - xi)^2 <= 1
    return {"taper21": (C.plateau_taper_profile(2.0, 1.0), 2.0, 1.0),
            "tent": (C.tent_profile(), 2.0, 0.5)}


def _nested_windows(profile, b, lam, sizes):
    from frameseq import gram

    g = gram.build_gram(profile, b, lam)
    return g, [gram.frame_bound_estimates(g.principal(w), kernel_tol=0.0) for w in sizes]


def _window_check(bound):
    """PSD, B <= sup Phi_b / b (integer sets only) and interlacing of windows."""

    def check(out):
        g, fbs = out
        norm = g.norm_phi_sq
        slack = 1e-12 * max(norm, 1.0)
        mins = [f.min_eigenvalue for f in fbs]
        maxs = [f.B_est for f in fbs]
        m = g.matrix
        # row blocks keep the oracle's memory small next to the window's
        for i in range(0, g.dim, 256):
            if np.max(np.abs(m[i:i + 256] - np.conj(m[:, i:i + 256].T))) > slack:
                return "Gram window is not Hermitian"
        if mins[-1] < -1e-8 * norm:
            return f"not PSD: min eigenvalue {mins[-1]:.3e}"
        if bound is not None and maxs[-1] > bound * (1 + 1e-9):
            return f"B_est {maxs[-1]:.12g} exceeds sup Phi_b/b = {bound:g}"
        if any(b_ > a_ + slack for a_, b_ in zip(mins, mins[1:])):
            return f"lower eigenvalues not interlacing: {mins}"
        if any(b_ < a_ - slack for a_, b_ in zip(maxs, maxs[1:])):
            return f"upper eigenvalues not interlacing: {maxs}"
        return None

    return check


def _windows_pass(seed, p, fixed):
    from frameseq import constructions as C
    from frameseq import gram
    from frameseq.translation_sets import TranslationSet

    rng = _rng(seed, p)
    taper21, b21, sup21 = fixed["taper21"]
    tent, b_tent, sup_tent = fixed["tent"]
    ops = []

    # a random subset of a Riesz lattice family is a Riesz sequence
    a = _dyadic(rng, 1.5, 4.0)
    b = _dyadic(rng, 0.5, a - 0.5)
    riesz = C.plateau_taper_profile(a, b)
    subset = np.sort(rng.choice(900, size=600, replace=False))
    ts_sub = TranslationSet.explicit(subset.tolist())
    ops.append(Op("classify:riesz-subset", ("riesz-subset", a, b, p), {"integer_set": True, "index_kind": "explicit"},
                  lambda: gram.classify(riesz, a, ts_sub), _verdict_check(EXACT)))

    n_max = int(rng.integers(10, 13))

    def blocks():
        built = C.infimum_spectrum(0.5, n_max, max(2 ** (n_max + 2), 2**14))
        return gram.classify(built.profile, 1.0, TranslationSet.dyadic_blocks(0.5, n_max))

    ops.append(Op("classify:blocks", ("blocks", n_max), {"integer_set": True, "index_kind": "dyadic_blocks"},
                  blocks, _verdict_check(UPPER_ONLY)))

    # jittered lattices carry no periodization route: autocorrelation only
    jit_a = np.arange(256) + rng.uniform(-0.25, 0.25, 256)
    ts_jit = TranslationSet.explicit(jit_a.tolist())
    ops.append(Op("classify:jittered", ("jittered", p, 0), {"integer_set": False, "index_kind": "explicit"},
                  lambda: gram.classify(taper21, b21, ts_jit), _verdict_check(UNDETERMINED)))
    jit_b = np.sort(np.arange(256) + rng.uniform(-0.25, 0.25, 256))
    ops.append(Op("windows:jittered", ("jittered", p, 1), {"integer_set": False, "index_kind": "explicit"},
                  lambda: _nested_windows(taper21, b21, jit_b, (64, 128, 256)), _window_check(None)))

    # squares:600 spans 360000: refused on GRID_CAP at the seed
    squares = TranslationSet.squares(600)

    def squares_check(report):
        got = report.classification
        return None if got in VERDICTS else f"unknown verdict {got!r}"

    ops.append(Op("classify:squares", ("squares", 600), {"integer_set": True, "index_kind": "squares"},
                  lambda: gram.classify(taper21, b21, squares), squares_check,
                  known_defect="beyond the cap"))

    lam_big = np.sort(rng.choice(2600, size=2048, replace=False)).astype(np.int64)
    ops.append(Op("windows:2048", ("window", 2048, p), {"integer_set": True, "index_kind": "explicit"},
                  lambda: _nested_windows(taper21, b21, lam_big, (256, 512, 1024, 2048)),
                  _window_check(sup21)))
    lam_mid = np.sort(rng.choice(1300, size=1024, replace=False)).astype(np.int64)
    ops.append(Op("windows:1024", ("window", 1024, p), {"integer_set": True, "index_kind": "explicit"},
                  lambda: _nested_windows(tent, b_tent, lam_mid, (256, 512, 1024)),
                  _window_check(sup_tent)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ----------------------------------------------------------------------------
# envelope-density
# ----------------------------------------------------------------------------

VIOLATED = "necessary condition violated (product growing)"
BOUNDED = "consistent with bounded product"


def _envelope_fixed(cli):
    from frameseq import constructions as C
    from frameseq import periodization
    from frameseq.translation_sets import TranslationSet

    tent = C.tent_profile()
    return {
        "Z": TranslationSet.integers(5000),
        "blocks": TranslationSet.dyadic_blocks(0.5, 16),
        "spectra": {k: periodization.periodize(tent, 1.0, grid_size=2**k) for k in (14, 16, 18, 20)},
    }


def _upper_pair(env, ts, n_grid):
    from frameseq import translation_sets as T

    return (T.upper_bound_sufficient(env, ts, x_max=1e4, n_grid=n_grid),
            T.upper_bound_necessary(env, ts, x_max=1e4, n_grid=n_grid))


def _expect_pair(suff_verdict, nec_verdict):
    def check(out):
        suff, nec = out
        if suff.verdict != suff_verdict:
            return f"sufficient test {suff.verdict!r}, expected {suff_verdict!r}"
        if nec.verdict != nec_verdict:
            return f"necessary test {nec.verdict!r}, expected {nec_verdict!r}"
        if not (np.isfinite(suff.integral) and suff.integral > 0):
            return f"window integral {suff.integral!r} is not finite and positive"
        return None

    return check


def _consistent_pair(out):
    suff, nec = out
    if suff.verdict == "converges" and nec.verdict == VIOLATED:
        return "sufficient condition holds while the necessary one is violated"
    return None


def _energy_check(divergent):
    def check(rows):
        ratios = [r.ratio for r in rows]
        steps = np.diff(ratios)
        if divergent:
            if any(b < 1.2 * a for a, b in zip(ratios, ratios[1:])):
                return f"pair-sum ratios do not grow across doublings: {ratios}"
            return None
        if np.any(steps < -1e-9 * ratios[-1]) or np.any(np.diff(steps) > 1e-9 * ratios[-1]):
            return f"pair-sum ratios not bounded-concave across doublings: {ratios}"
        return None

    return check


def _envelope_pass(seed, p, fixed):
    from frameseq import translation_sets as T
    from frameseq import zeroset_hausdorff as H
    from frameseq.spectrum import TimeEnvelope

    rng = _rng(seed, p)
    Z, blocks = fixed["Z"], fixed["blocks"]
    ops = []

    # the log-grid size of the window tests is an input like the exponent
    a_div = float(rng.uniform(0.55, 0.8))
    a_conv = float(rng.uniform(1.2, 2.0))
    a_blk = float(rng.uniform(0.55, 1.8))
    n_div, n_conv, n_blk = (int(n) for n in rng.integers(64, 321, 3))
    env_div, env_conv, env_blk = (TimeEnvelope.power(a) for a in (a_div, a_conv, a_blk))
    ops.append(Op("upper:power-Z", ("power", a_div, "Z", n_div), {"envelope": "power", "index_kind": "Z"},
                  lambda: _upper_pair(env_div, Z, n_div), _expect_pair("diverges", VIOLATED)))
    ops.append(Op("upper:power-Z", ("power", a_conv, "Z", n_conv), {"envelope": "power", "index_kind": "Z"},
                  lambda: _upper_pair(env_conv, Z, n_conv), _expect_pair("converges", BOUNDED)))
    ops.append(Op("upper:power-blocks", ("power", a_blk, "blocks", n_blk),
                  {"envelope": "power", "index_kind": "dyadic_blocks"},
                  lambda: _upper_pair(env_blk, blocks, n_blk), _consistent_pair))

    # exponential envelopes have no certified tail model: the sufficient
    # test reports undetermined, the product G D stays bounded; their
    # quadrature-backed G makes the default 256-point grid take 1-4.5 s
    d1, d2, beta = (float(x) for x in rng.uniform([0.3, 0.3, 0.4], [1.0, 1.0, 0.8]))
    n_xlog, n_pow = (int(n) for n in rng.integers(32, 97, 2))
    env_xlog = TimeEnvelope.exponential(d1, {"xlog": {}})
    env_pow = TimeEnvelope.exponential(d2, {"power": {"beta": beta}})
    ops.append(Op("upper:exp-Z", ("exp-xlog", d1, "Z", n_xlog), {"envelope": "exponential", "index_kind": "Z"},
                  lambda: _upper_pair(env_xlog, Z, n_xlog), _expect_pair(UNDETERMINED, BOUNDED)))
    ops.append(Op("upper:exp-blocks", ("exp-power", d2, beta, "blocks", n_pow),
                  {"envelope": "exponential", "index_kind": "dyadic_blocks"},
                  lambda: _upper_pair(env_pow, blocks, n_pow), _expect_pair(UNDETERMINED, BOUNDED)))

    divergent = bool(p % 2)
    a_en = float(rng.uniform(0.55, 0.8) if divergent else rng.uniform(1.2, 2.0))
    env_en = TimeEnvelope.power(a_en)
    spans = [(-L, L) for L in (250, 500, 1000, 2000, 4000)]
    ops.append(Op("energy:power", ("energy-power", a_en), {"envelope": "power", "index_kind": "Z"},
                  lambda: T.interval_energy_test(env_en, Z, spans), _energy_check(divergent)))
    d3 = float(rng.uniform(0.3, 1.0))
    env_en_exp = TimeEnvelope.exponential(d3, {"xlog": {}})
    ops.append(Op("energy:exp", ("energy-exp", d3), {"envelope": "exponential", "index_kind": "Z"},
                  lambda: T.interval_energy_test(env_en_exp, Z, [(-L, L) for L in (8, 16, 32)]),
                  _energy_check(False)))

    a_eq = float(rng.uniform(0.55, 0.95))
    env_eq = TimeEnvelope.power(a_eq)
    # G >= x F^2 always; G / (x F^2) rises to 1/(1-a) + 1/(2a-1)
    c_max = 1.0 / (1.0 - a_eq) + 1.0 / (2.0 * a_eq - 1.0)

    def eq_check(res):
        if not (1.0 - 1e-12 <= res.C <= c_max * (1 + 1e-9)):
            return f"equivalence constant {res.C:.6g} outside [1, {c_max:.6g}]"
        return None

    ops.append(Op("g-equivalence", ("g-equivalence", a_eq), {"envelope": "power", "index_kind": "none"},
                  lambda: T.g_equivalence_check(env_eq), eq_check))

    for k, ps in fixed["spectra"].items():
        alpha = float(rng.uniform(0.2, 0.8))
        sup = float(np.max(ps.values))

        def covers(ps=ps, alpha=alpha, sup=sup):
            return [H.hausdorff_sublevel(ps, alpha, sup * 4.0**-j) for j in range(1, 5)]

        def cover_check(ests):
            sums = [e.measure_sum for e in ests]
            if any(e.full_circle for e in ests) or sums[-1] <= 0:
                return f"degenerate covers: {sums}"
            if any(b > a * (1 + 1e-12) for a, b in zip(sums, sums[1:])):
                return f"cover content grows as the level shrinks: {sums}"
            return None

        ops.append(Op(f"cover:2^{k}", ("cover", k, alpha), {"envelope": "none", "index_kind": "none"},
                      covers, cover_check))

    battery_rng = np.random.default_rng([int(seed), int(p), 1])
    battery = []
    for _ in range(100):
        size = int(battery_rng.integers(3, 12))
        lam = np.sort(battery_rng.choice(64, size=size, replace=False)).astype(np.int64)
        c = battery_rng.normal(size=size) + 1j * battery_rng.normal(size=size)
        lo = float(battery_rng.uniform(-80.0, 40.0))
        battery.append((lam, c, (lo, lo + float(battery_rng.uniform(0.0, 80.0)))))

    def coefficient_battery():
        return [H.coefficient_sum_bound_check(lam, c, j) for lam, c, j in battery]

    def battery_check(results):
        bad = sum(not r.passed for r in results)
        return f"{bad} coefficient-sum bound violations" if bad else None

    ops.append(Op("battery:coefficient-sum", ("coefficient-sum", p), {"envelope": "none", "index_kind": "none"},
                  coefficient_battery, battery_check))

    # single characters on a saturated window: every ratio is exactly 1/n
    n = 2 ** int(rng.integers(2, 5))
    k0 = int(np.log2(n))
    mass_seed = int(rng.integers(2**31))

    def mass_check(out):
        ratios = [r["max_ratio"] for r in out["rows"]]
        if abs(out["slope"]) > 1e-9 or max(abs(r * n - 1.0) for r in ratios) > 1e-9:
            return f"character mass ratios {ratios} not flat at 1/{n}"
        return None

    ops.append(Op("battery:interval-mass", ("interval-mass", n, p), {"envelope": "none", "index_kind": "none"},
                  lambda: H.interval_mass_scaling(np.arange(n), [2.0**-k for k in range(k0, k0 + 5)],
                                                  n_trials=8, rng_seed=mass_seed, character=True),
                  mass_check))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ----------------------------------------------------------------------------
# cli-runs
# ----------------------------------------------------------------------------

class CliRunner:
    """Runs ``frameseq`` commands as child processes, one at a time.

    With ``tracer`` set, children start from the benchmark's ``cli_entry``
    script, which installs the span wrappers and then calls
    ``frameseq.cli.main``; their spans are merged into the tracer.
    """

    def __init__(self, root, env, out_dir):
        self.root = root
        self.env = env
        self.out_dir = out_dir
        self.tracer = None
        self.import_s = []

    def __call__(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "frameseq.cli", *argv]
        else:
            spans = os.path.join(self.out_dir, "cli-spans.json")
            cmd = [sys.executable, os.path.join(self.root, "benchmarks", "cli_entry.py"), spans, "--", *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=60)
        if self.tracer is not None:
            with open(spans, encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(spans)
            self.import_s.append(data["import_s"])
            self.tracer.merge(data["spans"])
        return proc


def _cli_check(expect_rc, inspect):
    def check(proc):
        if "Traceback (most recent call last)" in proc.stderr:
            return "traceback: " + proc.stderr.strip().splitlines()[-1]
        if proc.returncode not in expect_rc:
            return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        return inspect(doc["result"])

    return check


def _cli_op(cli, name, argv, inspect, props, key=None, expect_rc=(0,), known_defect=None):
    return Op(f"cli:{name}", key or tuple(argv), {"command": name, **props},
              lambda: cli(argv), _cli_check(expect_rc, inspect), known_defect=known_defect)


def _cli_fixed(cli):
    # selftest output per seed, compared byte for byte across repeats
    return {"cli": cli, "selftest": {}}


def _cli_pass(seed, p, fixed):
    rng = _rng(seed, p)
    cli = fixed["cli"]
    ops = []

    a = _dyadic(rng, 1.5, 4.0, denom=4)
    b = _dyadic(rng, 0.5, a - 0.5, denom=4)
    which = "a" if rng.integers(2) else "b"
    want = EXACT if which == "a" else NOTFRAME

    def verdict_is(expected):
        def inspect(res):
            got = res["report"]["classification"]
            return None if got == expected else f"verdict {got!r}, expected {expected!r}"
        return inspect

    ops.append(_cli_op(cli, "analyze", ["analyze", "--profile", f"taper:{a:g}:{b:g}", "--b", f"{a if which == 'a' else b:g}",
                                        "--indices", "Z"], verdict_is(want), {"params": "dyadic"}))
    while True:
        ra = round(float(rng.uniform(1.5, 4.0)), 2)
        rb = round(float(rng.uniform(0.75, ra - 0.5)), 2)
        if abs(ra / rb - round(ra / rb)) > 0.05:
            break
    which = "a" if rng.integers(2) else "b"
    want = NOTFRAME if which == "a" else NONEXACT
    ops.append(_cli_op(cli, "analyze", ["analyze", "--profile", f"ramp:{ra:g}:{rb:g}", "--b", f"{ra if which == 'a' else rb:g}",
                                        "--indices", "Z"], verdict_is(want), {"params": "generic"}))

    def half_summary(res):
        s = res["summary"]
        if abs(s["sup"] - 1.0) > 1e-12 or abs(s["zero_fraction"] - 0.5) > 1e-12 or res.get("zero_runs") != 1:
            return f"half-indicator periodization summary off: {s}, runs {res.get('zero_runs')}"
        return None

    ops.append(_cli_op(cli, "periodize", ["periodize", "--profile", "half", "--grid", "4096"], half_summary, {}))

    def tent_gram(res):
        if res["dim"] != 129 or res["degenerate"]:
            return f"window dim {res['dim']}, degenerate {res['degenerate']}"
        if res["min_eigenvalue"] < -1e-8 or res["B_est"] > 0.5 * (1 + 1e-9):
            return f"eigenvalues outside [0, sup Phi_2/2 = 0.5]: {res['min_eigenvalue']}, {res['B_est']}"
        return None

    ops.append(_cli_op(cli, "gram", ["gram", "--profile", "tent", "--b", "2", "--indices", "Z", "--window", "64"],
                       tent_gram, {}))

    def slow_decay(res):
        if res["upper_bound_sufficient"]["verdict"] != "diverges":
            return f"power:0.75 on Z: sufficient test {res['upper_bound_sufficient']['verdict']!r}"
        if res["upper_bound_necessary"]["verdict"] != VIOLATED:
            return f"power:0.75 on Z: necessary test {res['upper_bound_necessary']['verdict']!r}"
        if not res["g_equivalence"].get("hypotheses_hold") or not 1.0 <= res["g_equivalence"]["C"] <= 6.0:
            return f"g equivalence {res['g_equivalence']}"
        return None

    ops.append(_cli_op(cli, "density", ["density", "--indices", "Z", "--window", "4000", "--xmax", "4000",
                                        "--envelope", "power:0.75"], slow_decay, {}))

    def paired(res):
        verdicts = [c["report"]["classification"] for c in res["cases"]]
        return None if res["paired"] and verdicts == [NOTFRAME, EXACT] else f"gallery verdicts {verdicts}"

    ops.append(_cli_op(cli, "gallery", ["gallery", "taper", "--window", "64"], paired, {}))

    def collapse(res):
        if not res["density_ok"] or not res["w_ratio"] < 0.5:
            return f"blocks: density_ok {res['density_ok']}, w_ratio {res['w_ratio']}"
        return None

    ops.append(_cli_op(cli, "verify", ["verify", "blocks", "--nmin", "4", "--nmax", "12", "--grid", "65536"],
                       collapse, {}))

    argv = ["selftest", "--seed", str(seed)]

    def stable(proc):
        first = fixed["selftest"].setdefault(seed, proc.stdout)
        return None if first == proc.stdout else "selftest report differs between repeats"

    def selftest_check(proc):
        reason = _cli_check((0,), lambda res: None if res["all_passed"] else "selftest suites failed")(proc)
        return reason or stable(proc)

    ops.append(Op("cli:selftest", tuple(argv), {"command": "selftest"}, lambda: cli(argv), selftest_check))

    def covers(res):
        sums = [lv["measure_sum"] for lv in res["levels"]]
        if any(b > a * (1 + 1e-12) for a, b in zip(sums, sums[1:])):
            return f"cover content grows as the level shrinks: {sums}"
        return None

    # the README example: blocks profile tokens die with a NameError at the seed
    ops.append(_cli_op(cli, "hausdorff", ["hausdorff", "--profile", "blocks:0.5:12:65536", "--alpha", "0.5",
                                          "--levels", "4"], covers, {}, known_defect="NameError"))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


WORKLOADS = {
    "lattice-verdicts": Spec(
        why="classify on Z, N and mZ over the paper's profile families; periodization and Gram "
            "coefficient assembly dominate; 26-29% of Gram builds take the autocorrelation route",
        in_process=True, fixed=_lattice_fixed, make_pass=_lattice_pass, tail_pct=93),
    "generic-windows": Spec(
        why="classify on generic integer and jittered sets plus Gram windows up to the 2048 cap; "
            "the dense eigensolve dominates",
        in_process=True, fixed=_windows_fixed, make_pass=_windows_pass, tail_pct=64),
    "envelope-density": Spec(
        why="density, G-function and cover tests for power and exponential envelopes; "
            "translation_sets and zeroset_hausdorff do the work, gram and periodization idle",
        in_process=True, fixed=_envelope_fixed, make_pass=_envelope_pass, tail_pct=88),
    "cli-runs": Spec(
        why="the README and ROADMAP commands as child processes; interpreter and import start-up "
            "dominate",
        in_process=False, fixed=_cli_fixed, make_pass=_cli_pass, tail_pct=58),
}

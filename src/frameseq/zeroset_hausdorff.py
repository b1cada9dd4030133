"""Dyadic covers of small-value sets and the trigonometric mass inequalities.

Three ingredients of the exactness criterion live here: a box-counting
surrogate for the essential alpha-dimensional content of ``{Phi_b <= eps}``,
the bound of coefficient sums of ``|f|^2`` by window densities, and the
bound of interval masses ``int_I |f|^2`` by ``l(I) D(1/l(I))``.  The true
Hausdorff infimum over all covers is not computable; dyadic covers at the
best depth give a reproducible upper bound, which is all the trend
assertions need.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gram import Budgets, build_gram, frame_bound_estimates
from .periodization import cyclic_runs
from .spectrum import FourierProfile, TimeEnvelope, time_side_values
from .translation_sets import TranslationSet, density, density_exponent_fit

__all__ = [
    "CoverEstimate",
    "hausdorff_sublevel",
    "cover_mask",
    "coefficient_sum_bound_check",
    "interval_mass_bound_check",
    "interval_mass_scaling",
    "exactness_evidence",
]


@dataclass
class CoverEstimate:
    alpha: float
    eps: float
    intervals: list  # (lo, hi) dyadic cells at the chosen depth
    measure_sum: float  # sum of cell_length**alpha
    scale: int  # chosen dyadic depth
    by_depth: list = field(default_factory=list)  # (depth, cells, sum) table
    full_circle: bool = False


def cover_mask(mask, alpha, depths=None, drop_isolated=True):
    """Best-depth dyadic cover of the flagged grid points.

    ``mask`` flags midpoints ``(r + 1/2)/M`` of a cyclic grid.  At depth
    ``d`` the cover consists of the cells ``[j 2^-d, (j+1) 2^-d)`` holding
    at least one flagged point; the returned estimate uses the depth with
    the smallest ``count * 2^(-d alpha)``.  Isolated single-point runs are
    dropped first by default: a grid point alone at the finest resolution
    carries no measure and stands in for the removable exceptional set.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    mask = np.asarray(mask, dtype=bool).copy()
    m = mask.size
    if m < 4 or m & (m - 1):
        raise ValueError("mask length must be a power of two >= 4")
    if drop_isolated:
        starts, lengths = cyclic_runs(mask)
        mask[starts[lengths == 1]] = False
    max_depth = int(math.log2(m))
    if depths is None:
        depths = range(2, max_depth + 1)
    depths = sorted(set(int(d) for d in depths))
    if not depths or depths[0] < 0 or depths[-1] > max_depth:
        raise ValueError(f"depths must lie in [0, {max_depth}]")

    # midpoint (2r+1)/(2M) falls in cell floor((2r+1) 2^d / (2M)) = r >> (log2 M - d);
    # the flagged indices are sorted, so equal cells are adjacent, and each
    # coarser depth shifts the cells of the finer one
    cells_at = {}
    cells, finer = np.flatnonzero(mask), max_depth
    for d in reversed(depths):
        cells = cells >> (finer - d)
        cells = cells[np.r_[True, cells[1:] != cells[:-1]]] if cells.size else cells
        cells_at[d], finer = cells, d
    by_depth = [(d, int(c.size), float(c.size) * 2.0 ** (-d * alpha)) for d, c in sorted(cells_at.items())]
    # min keeps the first of equal sums, so ties go to the coarsest depth
    d, _, s = min(by_depth, key=lambda row: row[2])
    width = 2.0**-d
    intervals = [(float(j) * width, float(j + 1) * width) for j in cells_at[d].tolist()]
    return CoverEstimate(
        alpha=float(alpha),
        eps=float("nan"),
        intervals=intervals,
        measure_sum=s,
        scale=d,
        by_depth=by_depth,
    )


def hausdorff_sublevel(ps, alpha, eps, depths=None, drop_isolated=True):
    """Dyadic-cover content of ``{Phi_b <= eps}`` on the realized grid."""
    sup = float(np.max(ps.values))
    if eps >= sup:
        warnings.warn(
            f"level {eps:g} is at or above the spectrum's maximum {sup:g}; "
            "the sublevel set is the full circle",
            stacklevel=2,
        )
        return CoverEstimate(
            alpha=float(alpha),
            eps=float(eps),
            intervals=[(0.0, 1.0)],
            measure_sum=1.0,
            scale=0,
            by_depth=[(0, 1, 1.0)],
            full_circle=True,
        )
    est = cover_mask(ps.values <= eps, alpha, depths=depths, drop_isolated=drop_isolated)
    est.eps = float(eps)
    return est


# ----------------------------------------------------------------------------
# coefficient-sum bound:  sum_{n in J} |(|f|^2)^(n)|  <=  D(|J|)
# ----------------------------------------------------------------------------


@dataclass
class CoefficientSumBound:
    lhs: float
    rhs: float
    passed: bool
    interval: tuple
    normalized: bool


def _as_indexed_coeffs(lam, coeffs):
    lam = lam.realize() if isinstance(lam, TranslationSet) else np.sort(np.asarray(lam))
    if lam.dtype != np.int64:
        raise ValueError("coefficient checks need integer frequency sets")
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (lam.size,):
        raise ValueError("coefficient vector length must match the frequency set")
    return lam, c


def coefficient_sum_bound_check(lam, coeffs, j_interval, tol=1e-12):
    """Check ``sum_{n in J} |corr(n)| <= D(|J|)`` for ``corr = coefficients of |f|^2``.

    ``corr(n) = sum_k c_k conj(c_{k-n})`` is computed exactly for every lag
    by one correlation of the coefficients laid out over the integer span.
    Unnormalized input is normalized (the bound assumes a unit vector) and
    flagged in the result.
    """
    lam, c = _as_indexed_coeffs(lam, coeffs)
    lo, hi = int(j_interval[0]), int(j_interval[1])
    if hi < lo:
        raise ValueError("empty integer interval")
    nrm = float(np.linalg.norm(c))
    normalized = False
    if abs(nrm - 1.0) > 1e-12:
        if nrm == 0.0:
            raise ValueError("zero coefficient vector")
        c = c / nrm
        normalized = True
    # corr(n) for every lag n in [-span, span], exact from the integer support
    span = int(lam[-1] - lam[0])
    dense = np.zeros(span + 1, dtype=complex)
    dense[lam - lam[0]] = c
    corr = np.correlate(dense, dense, mode="full")  # corr[span + n] = corr(n)
    lags = np.arange(max(lo, -span), min(hi, span) + 1)
    lhs = float(np.sum(np.abs(corr[lags + span])))
    count = hi - lo + 1
    rhs = float(density(lam, float(count)))
    return CoefficientSumBound(
        lhs=lhs,
        rhs=rhs,
        passed=bool(lhs <= rhs + tol),
        interval=(lo, hi),
        normalized=normalized,
    )


# ----------------------------------------------------------------------------
# interval-mass bound:  int_I |f|^2  <=  C l(I) D(1/l(I))
# ----------------------------------------------------------------------------


@dataclass
class IntervalMassBound:
    mass: float
    length: float
    density_value: int
    ratio: float
    normalized: bool


def _interval_transform(diffs, lo, hi):
    """integral over [lo, hi] of e^{2 pi i d xi} for an integer array d."""
    out = np.empty(diffs.shape, dtype=complex)
    zero = diffs == 0
    out[zero] = hi - lo
    d = diffs[~zero].astype(float)
    out[~zero] = (np.exp(2j * np.pi * d * hi) - np.exp(2j * np.pi * d * lo)) / (
        2j * np.pi * d
    )
    return out


def interval_mass_bound_check(lam, coeffs, interval):
    """Exact ``int_I |f|^2`` against the density bound ``l(I) D(1/l(I))``.

    The mass integral is evaluated in closed form from the coefficient cross
    terms.  The reported ratio carries no constant: the testable property is
    its stability across interval scales, not a fixed bound.
    """
    lam, c = _as_indexed_coeffs(lam, coeffs)
    lo, hi = float(interval[0]), float(interval[1])
    if not (hi > lo):
        raise ValueError(f"bad interval [{lo}, {hi}]")
    nrm = float(np.linalg.norm(c))
    normalized = False
    if abs(nrm - 1.0) > 1e-12:
        if nrm == 0.0:
            raise ValueError("zero coefficient vector")
        c = c / nrm
        normalized = True
    diffs = lam[:, None] - lam[None, :]
    mass = float(np.real(np.sum(np.outer(c, np.conj(c)) * _interval_transform(diffs, lo, hi))))
    ell = hi - lo
    dval = int(density(lam, 1.0 / ell))
    return IntervalMassBound(
        mass=mass,
        length=ell,
        density_value=dval,
        ratio=mass / (ell * dval),
        normalized=normalized,
    )


def interval_mass_scaling(lam, scales, n_trials=50, rng_seed=0, character=False):
    """Max interval-mass ratios across scales, plus their log-log slope.

    For each interval length the maximum ratio over random unit coefficient
    vectors (or random single characters) and random interval positions is
    recorded; the slope of ``log2(max ratio)`` against ``log2(scale)`` is
    the growth diagnostic.  Scale-free inputs (characters on a saturated
    density window) give slope 0 up to round-off.
    """
    lam_arr = lam.realize() if isinstance(lam, TranslationSet) else np.sort(np.asarray(lam))
    rng = np.random.default_rng(rng_seed)
    rows = []
    for ell in scales:
        worst = 0.0
        for _ in range(n_trials):
            if character:
                c = np.zeros(lam_arr.size, dtype=complex)
                c[rng.integers(lam_arr.size)] = 1.0
            else:
                c = rng.normal(size=lam_arr.size) + 1j * rng.normal(size=lam_arr.size)
                c /= np.linalg.norm(c)
            t0 = rng.uniform(0.0, 1.0 - ell)
            res = interval_mass_bound_check(lam_arr, c, (t0, t0 + ell))
            worst = max(worst, res.ratio)
        rows.append({"scale": float(ell), "max_ratio": worst})
    xs = np.log2([r["scale"] for r in rows])
    ys = np.log2([r["max_ratio"] for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return {"rows": rows, "slope": slope}


# ----------------------------------------------------------------------------
# exactness evidence: decay + small-set trend + density growth
# ----------------------------------------------------------------------------


@dataclass
class Hypothesis:
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass
class ExactnessEvidence:
    a: float
    hypotheses: list
    all_hypotheses_pass: bool
    windows: list
    lower_estimates: list
    lower_bounded: bool
    verdict: str


def _decay_slope(profile=None, envelope=None):
    """Fitted log-log decay rate of |phi| over octave maxima."""
    xs = np.geomspace(2.0, 2048.0, 160)
    if envelope is not None:
        vals = np.asarray(envelope.F(xs), dtype=float)
    else:
        vals = np.abs(time_side_values(profile, xs))
    # oscillating data: fit the octave-max envelope, not the raw samples
    octs = np.floor(np.log2(xs)).astype(int)
    pts = []
    for o in np.unique(octs):
        sel = octs == o
        k = np.argmax(vals[sel])
        pts.append((np.log(xs[sel][k]), np.log(max(vals[sel][k], 1e-300))))
    pts = np.asarray(pts)
    return float(np.polyfit(pts[:, 0], pts[:, 1], 1)[0])


def exactness_evidence(b, ts, a, profile=None, envelope=None, ps=None, budgets=None):
    """Numerical check of the sparse-exactness hypotheses, then the verdict.

    Hypotheses, for exponent ``1/2 < a < 1``: the generator decays like
    ``x**(-a)`` or faster; the dyadic-cover content of ``{Phi_b <= eps}``
    at ``alpha = 2a - 1`` decreases as ``eps`` shrinks; and the window
    density grows no faster than ``x**(2(1-a))``.  When all three hold the
    lower Gram estimate over nested windows is examined: bounded means the
    evidence supports an exact frame sequence, collapse is recorded as the
    boundary case where the hypotheses hold without strict exponent margin
    yet the lower bound still fails.
    """
    if not (0.5 < a < 1.0):
        raise ValueError("exponent a must lie in (1/2, 1)")
    if profile is None and envelope is None:
        raise ValueError("need a profile or an envelope")
    budgets = budgets or Budgets()
    hyps = []

    slope = _decay_slope(profile=profile, envelope=envelope)
    hyps.append(Hypothesis("time-decay rate", slope, -a, slope <= -a + 1e-9))

    if profile is not None:
        from .periodization import periodize

        if ps is None:
            ps = periodize(profile, b, grid_size=2**14)
        alpha = 2.0 * a - 1.0
        sup = float(np.max(ps.values))
        sums = []
        for k in range(2, 7):
            est = hausdorff_sublevel(ps, alpha, sup * 2.0**-k)
            sums.append(est.measure_sum)
        shrink = sums[-1] / sums[0] if sums[0] > 0 else 0.0
        hyps.append(Hypothesis("small-set cover trend", shrink, 0.7, shrink <= 0.7))
    # envelope-only input has no periodization, so the cover trend is not a
    # checkable hypothesis there; the verdict string records the gap instead

    theta, _ = density_exponent_fit(ts)
    hyps.append(Hypothesis("density growth exponent", theta, 2.0 * (1.0 - a), theta <= 2.0 * (1.0 - a) + 0.05))

    all_pass = all(h.passed for h in hyps)
    windows, a_ests = [], []
    lower_bounded = False
    if all_pass and profile is not None:
        lam = ts.realize() if isinstance(ts, TranslationSet) else np.sort(np.asarray(ts))
        w = min(budgets.window, lam.size)
        g = build_gram(profile, b, lam[: min(lam.size, min(8 * w, budgets.max_dim))], ps=ps)
        k = w
        while k <= g.dim:
            fb = frame_bound_estimates(g.principal(k), kernel_tol=budgets.kernel_tol)
            windows.append(int(k))
            a_ests.append(float(fb.A_est))
            k *= 2
        lower_bounded = len(a_ests) >= 2 and a_ests[-1] >= 0.7 * a_ests[0] and a_ests[-1] > 0
        if lower_bounded:
            verdict = "exactness evidence established"
        else:
            verdict = (
                "boundary case: hypotheses hold without strict exponent margin, "
                "lower estimate collapses"
            )
    elif all_pass:
        verdict = "hypotheses pass (no spectrum model for the lower-bound check)"
    else:
        failed = ", ".join(h.name for h in hyps if not h.passed)
        verdict = f"hypothesis failed: {failed}"
    return ExactnessEvidence(
        a=float(a),
        hypotheses=hyps,
        all_hypotheses_pass=all_pass,
        windows=windows,
        lower_estimates=a_ests,
        lower_bounded=lower_bounded,
        verdict=verdict,
    )
